"""Audio buffer representation, WAV file I/O, the dB-to-linear gain, and
the strict JSON reader shared by the gains, listener and manifest loaders.

Buffers hold float32 or float64 samples in a (channels, frames) array
that is read-only: every operation returns a new buffer. WAV files decode
at their own precision: float32 for PCM-16/24 and float32 files, every
sample of which is a float32, and float64 for PCM-32. Every stage computes
in float64 and returns float64, so an output keeps its bits whichever
precision its inputs were held at. There is no resampling anywhere in
this package; operations that combine signals require identical sample
rates and raise :class:`AlignmentError` otherwise.
"""

from __future__ import annotations

import contextvars
import json
import math
import os
import secrets
import struct
import threading
from dataclasses import dataclass
from numbers import Integral, Real
from pathlib import Path
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

PCM_16 = "pcm16"
PCM_24 = "pcm24"
FLOAT_32 = "float32"

_SUPPORTED_BIT_DEPTHS = (PCM_16, PCM_24, FLOAT_32)

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE

# bytes 2-15 of a KSDATAFORMAT_SUBTYPE GUID that wraps a plain format tag;
# bytes 0-1 hold the tag itself
_SUBFORMAT_GUID_TAIL = bytes.fromhex("000000001000800000aa00389b71")

# (format tag, bits per sample) that read_wav decodes
_READABLE_CODECS = {
    (_WAVE_FORMAT_PCM, 16),
    (_WAVE_FORMAT_PCM, 24),
    (_WAVE_FORMAT_PCM, 32),
    (_WAVE_FORMAT_IEEE_FLOAT, 32),
}

# frames per chunk of the passes that walk a song in order (128 KiB per
# stereo float64 array), so their chunk-sized arrays stay in one core's L2
# cache. Smaller chunks were slower on a 30 s song from per-chunk overhead;
# larger ones gained little and raise the peak memory of short songs.
_CHUNK_FRAMES = 8192

# blocked overlap-add: the smallest FFT size, and how many input blocks are
# transformed together. Scratch space is a fixed multiple of their product,
# never of the signal length.
_FFT_SIZE = 2048
_BLOCKS_PER_CHUNK = 8
# chunks a song needs before the overlap-add splits it in time. Each thread
# holds about five chunk-sized spectra of scratch, at most a fifth of the
# output from 16 chunks on; split, a 3 s song's two threads held 0.55 of it.
_SPLIT_CHUNKS = 16

_T = TypeVar("_T")


class WavReadError(ValueError):
    """A WAV file could not be decoded."""


class UnsupportedCodecError(WavReadError):
    """The file declares a codec outside PCM 16/24/32-bit or IEEE float32."""


class TruncatedFileError(WavReadError):
    """The file ends before the bytes its header declares."""


class ZeroLengthAudioError(WavReadError):
    """The file contains no audio frames."""


class AlignmentError(ValueError):
    """Signals passed to a multi-signal operation do not share rate/shape."""


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Multichannel audio: float32 or float64 samples, shape (channels, frames).

    A float32 array is kept as it is, so a decoded file stays at half the
    size; any other real-valued array (integers, float16, a list of
    numbers) is widened to float64. Complex, boolean and non-numeric
    samples are a ValueError. Samples are nominally in [-1, 1] but values
    beyond full scale are kept; clipping only happens when writing integer
    WAV formats or inside the compressor's safety clip. ``samples`` is a
    read-only view, so buffers can be shared between threads; the array
    passed in keeps its own flag.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype.kind not in "iuf":
            raise ValueError(f"samples must be real numbers, got dtype {samples.dtype}")
        if samples.dtype != np.float32:
            samples = samples.astype(np.float64, copy=False)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise ValueError(f"samples must be (channels, frames), got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("buffer needs at least one channel")
        rate = _positive_integer(self.sample_rate, "sample_rate")
        if not _all_finite(samples):
            raise ValueError("samples contain NaN or Inf")
        samples = samples.view()
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", rate)

    @property
    def channels(self) -> int:
        return self.samples.shape[0]

    @property
    def n_frames(self) -> int:
        return self.samples.shape[1]

    @property
    def duration(self) -> float:
        return self.n_frames / self.sample_rate

    def with_samples(self, samples: np.ndarray) -> "AudioBuffer":
        """New buffer at the same rate with different samples."""
        return AudioBuffer(samples, self.sample_rate)


def _all_finite(samples: np.ndarray) -> bool:
    """Whether every sample is finite, without a song-sized mask.

    Any NaN or infinity makes the sum non-finite. Finite samples near the
    float64 limit can overflow it too, so only then is each sample checked.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        if np.isfinite(samples.sum()):
            return True
    return bool(np.all(np.isfinite(samples)))


@dataclass(frozen=True)
class WavFormat:
    """Encoding used on disk: one of pcm16, pcm24, float32."""

    bit_depth: str
    sample_rate: int
    channels: int

    def __post_init__(self):
        if self.bit_depth not in _SUPPORTED_BIT_DEPTHS:
            raise ValueError(
                f"bit_depth must be one of {_SUPPORTED_BIT_DEPTHS}, got {self.bit_depth!r}"
            )
        for name in ("sample_rate", "channels"):
            object.__setattr__(self, name, _positive_integer(getattr(self, name), name))


def _positive_integer(value, field: str) -> int:
    """``value`` as an int when it is a positive integer (a boolean is
    not), or a ValueError naming ``field``."""
    if not isinstance(value, Integral) or isinstance(value, bool) or value <= 0:
        raise ValueError(f"{field} must be a positive integer, got {value!r}")
    return int(value)


def ensure_aligned(*buffers: AudioBuffer, what: str = "signals") -> None:
    """Raise AlignmentError unless all buffers share rate, channels, length."""
    first = buffers[0]
    for other in buffers[1:]:
        if other.sample_rate != first.sample_rate:
            raise AlignmentError(
                f"{what} have mixed sample rates: {first.sample_rate} vs {other.sample_rate}"
            )
        if other.channels != first.channels:
            raise AlignmentError(
                f"{what} have mixed channel counts: {first.channels} vs {other.channels}"
            )
        if other.n_frames != first.n_frames:
            raise AlignmentError(
                f"{what} have mixed lengths: {first.n_frames} vs {other.n_frames} frames"
            )


def db_to_linear(gain_db: float) -> float:
    """Amplitude factor for a dB gain: 10^(g/20). -inf maps to 0 (mute)."""
    return 10.0 ** (gain_db / 20.0)


def _chunks(n_frames: int, span: int = _CHUNK_FRAMES) -> Iterator[slice]:
    """Consecutive slices of at most ``span`` frames covering a song."""
    for start in range(0, n_frames, span):
        yield slice(start, min(start + span, n_frames))


def _song_span(n_frames: int) -> int:
    """Frames per span of the front end's walk: 1/16 of the song, from one
    chunk up to four.

    A longer span makes fewer numpy calls per song, so a batch thread
    holds the interpreter lock less often between them. The floor keeps
    short songs' scratch a small share of their size; the cap keeps one
    thread as fast as with single chunks, which uncapped spans of a 30 s
    song (over 80,000 frames) were not.
    """
    return min(4 * _CHUNK_FRAMES, max(_CHUNK_FRAMES, n_frames // 16))


# where the process's cgroup is mounted; in a container, its own cgroup
_CGROUP = Path("/sys/fs/cgroup")


def _cpu_quota() -> float | None:
    """How many CPUs' worth of run time the cgroup at ``_CGROUP`` allows
    (v2 ``cpu.max``, else v1 ``cpu/cpu.cfs_quota_us`` over
    ``cpu/cpu.cfs_period_us``), or None without a quota or a readable one."""
    try:
        try:
            quota, period = (_CGROUP / "cpu.max").read_text().split()
        except OSError:
            quota = (_CGROUP / "cpu" / "cpu.cfs_quota_us").read_text().strip()
            period = (_CGROUP / "cpu" / "cpu.cfs_period_us").read_text()
        if quota in ("max", "-1"):
            return None
        return int(quota) / int(period)
    except (OSError, ValueError, ZeroDivisionError):
        return None


def _cpu_count() -> int:
    """How many CPUs this process may run on: its CPU affinity, cut to the
    whole CPUs of its cgroup's quota (at least 1)."""
    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        n_cpus = os.cpu_count() or 1
    quota = _cpu_quota()
    return n_cpus if quota is None else max(1, min(n_cpus, int(quota)))


def _splits(n_rows: int) -> bool:
    """Whether ``_by_rows`` splits an array of ``n_rows`` rows: when it is
    stereo, the caller is the main thread and the process may run on at
    least two CPUs.

    The workers of a batch of two or more are pool threads: they already
    keep the CPUs busy, and splitting their songs too only adds thread
    hand-offs.
    """
    return n_rows == 2 and threading.current_thread() is threading.main_thread() and _cpu_count() >= 2


def _by_rows(fn: Callable[[slice], _T], n_rows: int) -> list[_T]:
    """``fn`` over the rows of a (rows, frames) array: ``[fn(slice(None))]``,
    or, when ``_splits(n_rows)``, ``[fn(slice(0, 1)), fn(slice(1, 2))]``
    with the second on a helper thread.

    ``fn`` must compute each row on its own, so that both ways give the same
    bits. The helper runs in a copy of the caller's context, so numpy's
    ``errstate`` reaches it. It is joined before this returns or raises;
    row 0's error is raised before row 1's. When no thread can be started,
    this makes the one call.
    """
    if not _splits(n_rows):
        return [fn(slice(None))]
    outcome: list = []  # row 1's (error, result)

    def run_second() -> None:
        try:
            outcome.append((None, fn(slice(1, 2))))
        except BaseException as exc:  # raised again on the caller
            outcome.append((exc, None))

    helper = threading.Thread(target=contextvars.copy_context().run, args=(run_second,))
    try:
        helper.start()
    except RuntimeError:  # can't start new thread
        return [fn(slice(None))]
    try:
        first = fn(slice(0, 1))
    finally:
        helper.join()
    error, second = outcome[0]
    if error is not None:
        raise error
    return [first, second]


def _segment_sums(edges: np.ndarray, frames: slice, values: np.ndarray) -> tuple[slice, np.ndarray]:
    """The sums over channels of the (channels, frames) ``values`` of the
    span ``frames`` from frame ``edges[i]`` (sorted, distinct, from 0) up to
    ``edges[i + 1]``, the last up to the span's end, for the ``i`` of the
    returned slice: the segments that meet the span.

    One ``np.add.reduceat`` sums each segment over its own frames only, so
    a quiet segment keeps its digits whatever came before it. A segment
    that crosses the span's end gets its partial sum.
    """
    first = np.searchsorted(edges, frames.start, side="right") - 1
    stop = np.searchsorted(edges, frames.stop)
    cuts = edges[first:stop] - frames.start
    cuts[0] = 0  # the segment the span starts in
    return slice(first, stop), np.add.reduceat(values, cuts, axis=1).sum(axis=0)


def _weighted_sum(
    terms: Sequence[tuple[float, np.ndarray]], overflow: str, out: np.ndarray | None = None
) -> np.ndarray:
    """``c0*x0 + c1*x1 + ...`` over ``(c, x)`` terms of one shape, summed
    in their order, into ``out`` (a new float64 array when it is not
    given: C-ordered when the rows split, so the two threads never write
    the same cache lines, and otherwise laid out as the first term, which
    a one-call sum of F-ordered WAV decodes runs faster into); an overflow
    is a ValueError with the message ``overflow``.

    Each row block of ``_by_rows`` walks the song in spans of
    ``_song_span`` frames. In each span the first product is written into
    ``out`` and each later one is added through one span of scratch, so
    beside the output only that span is alive, and the result is the same
    bits whatever the span.
    """
    (first_scale, first), *rest = terms
    if out is None:
        out = np.empty_like(first, dtype=np.float64, order="C" if _splits(first.shape[0]) else "K")
    n_frames = out.shape[1]
    span = _song_span(n_frames)

    def sum_rows(rows: slice) -> None:
        scratch = np.empty_like(out[rows, :span])
        with np.errstate(over="raise"):
            for frames in _chunks(n_frames, span):
                acc, product = out[rows, frames], scratch[:, : frames.stop - frames.start]
                np.multiply(first[rows, frames], first_scale, out=acc, dtype=np.float64)
                for scale, x in rest:
                    np.multiply(x[rows, frames], scale, out=product, dtype=np.float64)
                    acc += product

    try:
        _by_rows(sum_rows, out.shape[0])
    except FloatingPointError:
        raise ValueError(overflow) from None
    return out


@np.errstate(over="ignore", invalid="ignore")
def _convolve_into(out: np.ndarray, inputs: np.ndarray, kernels: np.ndarray, start: int) -> None:
    """Write ``out[i] = sum_j (inputs[j] * kernels[i, j])[start : start + n]``,
    where ``*`` is full linear convolution and n the input length.

    ``inputs`` is (n_in, n), ``kernels`` (n_out, n_in, taps) and ``out``
    (n_out, n). Only the taps that can reach an output sample count. A path
    with no nonzero tap among them adds nothing; a path with exactly one is
    an exact scaled shift; every other path goes through a blocked FFT
    overlap-add (Oppenheim & Schafer, *Discrete-Time Signal Processing*,
    8.7) that writes each chunk of the output in place.

    ``out`` either shares no memory with ``inputs`` or is ``inputs`` itself,
    one row filtered in place. In place, each block of input is read and
    transformed before any of its outputs are written, and writes trail
    reads by ``start`` samples, so a one-tap path must sit at ``start``, as
    the centre tap of a symmetric filter does. An output beyond float64 is
    left Inf or NaN, without a warning, for the caller's buffer to reject.
    """
    in_place = out is inputs
    if in_place and out.shape[0] != 1:
        raise ValueError(f"in-place convolution filters one row, got {out.shape[0]}")
    n = inputs.shape[1]
    lo = max(0, start - n + 1)
    kernels = kernels[:, :, lo : start + n]
    start -= lo
    nonzero = np.count_nonzero(kernels, axis=2)
    fft = nonzero > 1
    if fft.any():
        _overlap_add(out, inputs, kernels, fft, start)
    for i in range(out.shape[0]):
        written = bool(fft[i].any())
        for j in np.flatnonzero(nonzero[i] == 1):
            # out[i, t] += h[tap] * x[t + start - tap] wherever x is defined
            tap = int(np.flatnonzero(kernels[i, j])[0])
            if in_place and tap != start:
                raise ValueError(f"in-place convolution needs its one tap at {start}, got {tap}")
            value = kernels[i, j, tap]
            dst = out[i, max(0, tap - start) : min(n, n + tap - start)]
            src = inputs[j, max(0, start - tap) : min(n, n + start - tap)]
            if written:
                # in pieces, so the product never spans the song
                for a in range(0, dst.size, _FFT_SIZE):
                    piece = np.multiply(src[a : a + _FFT_SIZE], value, dtype=np.float64)
                    dst[a : a + _FFT_SIZE] += piece
            else:
                if tap != start:  # the shifted path leaves an edge unwritten
                    out[i] = 0.0
                # in place, dst is src: each sample is read before it is written
                np.multiply(src, value, out=dst, dtype=np.float64)
                written = True
        if not written:
            out[i] = 0.0


def _overlap_add(
    out: np.ndarray, inputs: np.ndarray, kernels: np.ndarray, paths: np.ndarray, start: int
) -> None:
    """``_convolve_into`` by FFT over the paths ``(i, j)`` where ``paths``
    is true, for the outputs that have any; the others are left untouched.

    The input is cut into blocks of ``hop`` samples, transformed
    ``_BLOCKS_PER_CHUNK`` at a time and one input at a time, before any
    output of that chunk is written; each output's chunk is
    inverse-transformed once. An output's spectrum sums its inputs' in input
    order. The last output that reads an input multiplies that input's
    spectrum in place, so beside the outputs' spectra only one input's is
    alive.

    Out of place, a song of ``_SPLIT_CHUNKS`` chunks or more splits in
    time: the two "rows" of ``_by_rows`` are the chunks before and from the
    middle chunk edge, the second on the helper thread. That half first
    recomputes the tail that the block before it leaves. Each block is
    transformed on its own and an output sample sums at most two blocks'
    values, so both ways give the same bits, and each input chunk is
    transformed once. In place, the song is one call, since a later half
    would read samples that an earlier one has overwritten.
    """
    n = inputs.shape[1]
    taps = kernels.shape[2]
    size = max(_FFT_SIZE, 1 << (2 * taps - 2).bit_length())  # >= 2 * taps - 1
    hop = size - taps + 1  # input samples per block, >= taps
    readers = {j: np.flatnonzero(column) for j, column in enumerate(paths.T) if column.any()}
    outputs = np.flatnonzero(paths.any(axis=1))
    spectra = np.fft.rfft(kernels, size)

    def block_outputs(a: int, blocks: int) -> Iterator[tuple[int, np.ndarray]]:
        """Each output's inverse transform, (blocks, size), of the input
        blocks from sample ``a``; a last, partial block is zero-padded."""
        segment = inputs[:, a : a + blocks * hop]
        if segment.shape[1] < hop:
            segment = np.pad(segment, ((0, 0), (0, hop - segment.shape[1])))
        frames = segment.reshape(inputs.shape[0], blocks, hop)
        sums = {}
        for j, reading in readers.items():
            # a float32 input's rfft would be complex64
            x = np.fft.rfft(frames[j].astype(np.float64, copy=False), size)
            for i in reading:
                term = np.multiply(x, spectra[i, j], out=x if i == reading[-1] else None)
                if i in sums:
                    sums[i] += term
                else:
                    sums[i] = term
            del x, term
        for i in outputs:
            yield i, np.fft.irfft(sums.pop(i), size)

    chunk = hop * _BLOCKS_PER_CHUNK
    middle = chunk * (-(-n // chunk) // 2) if n >= _SPLIT_CHUNKS * chunk else 0
    edges = (0, middle, n)

    def add_halves(halves: slice) -> None:
        picked = range(2)[halves]
        a, stop = edges[picked[0]], edges[picked[-1] + 1]
        tails = np.zeros((out.shape[0], taps - 1))
        if a:
            for i, y in block_outputs(a - hop, 1):
                tails[i] = y[0, hop:]
                del y
        while a < stop:
            blocks = max(1, min(_BLOCKS_PER_CHUNK, (n - a) // hop))
            for i, y in block_outputs(a, blocks):
                y[0, : taps - 1] += tails[i]
                y[1:, : taps - 1] += y[:-1, hop:]
                tails[i] = y[-1, hop:]
                _write_clipped(out[i], y[:, :hop].reshape(-1), a - start)
                del y  # before the next output's inverse transform is made
            a += blocks * hop
        if stop == n:
            for i in outputs:
                _write_clipped(out[i], tails[i], a - start)

    if out is inputs or not middle:
        add_halves(slice(None))
    else:
        _by_rows(add_halves, 2)


def _write_clipped(dst: np.ndarray, values: np.ndarray, offset: int) -> None:
    """``dst[offset + k] = values[k]`` for every k that lands inside ``dst``."""
    first = max(0, -offset)
    stop = min(values.size, dst.size - offset)
    if stop > first:
        dst[offset + first : offset + stop] = values[first:stop]


def _reject_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def _read_json(path):
    """Parse a UTF-8 JSON file, refusing Python's NaN/Infinity extensions
    and nesting deeper than the parser can recurse."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError and NaN/Infinity
        raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from exc
    except RecursionError as exc:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from exc


def _finite_number(value, field: str) -> float:
    """A number read from JSON (not a boolean) as a finite float, or a
    ValueError naming ``field``: JSON's ``1e999`` parses to inf, and an
    integer of 400 digits overflows a float."""
    try:
        if isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:
        pass
    raise ValueError(f"{field} must be a finite number, got {value!r}")


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM 16/24/32-bit or IEEE float32, plain or
    WAVE_FORMAT_EXTENSIBLE).

    Integer samples are scaled to floats by 1 / 2^(bits-1). PCM-16, PCM-24
    and float32 samples are exact in float32 and come back as float32;
    PCM-32 comes back as float64. Chunks other than fmt/data are skipped.
    Samples are decoded straight from the file's bytes, without copying the
    data chunk first.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise TruncatedFileError(f"{path}: too short to hold a RIFF header")
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavReadError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None  # (start, size) of the data chunk's body in raw
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if chunk_id == b"fmt ":
            if size < 16 or body_start + 16 > len(raw):
                raise TruncatedFileError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start), body_start, size
        elif chunk_id == b"data":
            if body_start + size > len(raw):
                raise TruncatedFileError(
                    f"{path}: data chunk declares {size} bytes, file has fewer"
                )
            data = body_start, size
        pos = body_start + size + (size & 1)

    if fmt is None or data is None:
        raise WavReadError(f"{path}: missing fmt or data chunk")

    (tag, channels, rate, _byte_rate, block_align, bits), fmt_start, fmt_size = fmt
    if channels < 1 or rate <= 0:
        raise WavReadError(f"{path}: invalid fmt chunk (channels={channels}, rate={rate})")
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        tag = _extensible_subformat(path, raw, fmt_start, fmt_size)
    if (tag, bits) not in _READABLE_CODECS:
        raise UnsupportedCodecError(
            f"{path}: unsupported codec (format tag {tag}, {bits}-bit); "
            "supported: PCM 16/24/32-bit, IEEE float32"
        )

    start, size = data
    frame_bytes = bits // 8 * channels
    if block_align not in (0, frame_bytes):
        raise WavReadError(f"{path}: block_align {block_align} != {frame_bytes}")
    if size % frame_bytes != 0:
        raise TruncatedFileError(f"{path}: data chunk holds a partial frame")
    n_frames = size // frame_bytes
    if n_frames == 0:
        raise ZeroLengthAudioError(f"{path}: zero-length audio")

    count = n_frames * channels
    if bits == 24:
        # each 3-byte sample is the top of an int32 that starts one byte
        # early; the arithmetic shift drops that stray byte (a header byte
        # for the first sample, start >= 20) and sign-extends 24 -> 32 bit
        codes = np.ndarray((count,), "<i4", buffer=raw, offset=start - 1, strides=(3,)) >> 8
        flat = np.multiply(codes, np.float32(2.0**-23), dtype=np.float32)
    elif bits == 16:
        codes = np.frombuffer(raw, "<i2", count, start)
        flat = np.multiply(codes, np.float32(2.0**-15), dtype=np.float32)
    elif tag == _WAVE_FORMAT_PCM:  # 32-bit codes need more digits than a float32 holds
        flat = np.frombuffer(raw, "<i4", count, start) / 2.0**31
    else:
        flat = np.frombuffer(raw, "<f4", count, start)

    samples = flat.reshape(n_frames, channels).T
    try:
        return AudioBuffer(samples, int(rate))
    except ValueError as exc:  # NaN or Inf float samples, named with the file
        raise WavReadError(f"{path}: {exc}") from None


def _extensible_subformat(path, raw: bytes, fmt_start: int, fmt_size: int) -> int:
    """The plain format tag a WAVE_FORMAT_EXTENSIBLE fmt chunk wraps; the
    caller's codec check then accepts only PCM and IEEE float.

    The extension follows the 16 common bytes: cbSize, valid bits, channel
    mask, then the 16-byte SubFormat GUID at offset 24. Valid bits are not
    read: samples stay left-justified in their container either way.
    """
    if fmt_size < 40:
        raise WavReadError(
            f"{path}: WAVE_FORMAT_EXTENSIBLE fmt chunk holds {fmt_size} bytes, needs 40"
        )
    guid = raw[fmt_start + 24 : fmt_start + 40]
    if len(guid) < 16:
        raise TruncatedFileError(f"{path}: fmt chunk truncated")
    if guid[2:] != _SUBFORMAT_GUID_TAIL:
        raise UnsupportedCodecError(
            f"{path}: unsupported codec (WAVE_FORMAT_EXTENSIBLE subformat {guid.hex()})"
        )
    (subformat,) = struct.unpack_from("<H", guid)
    return subformat


def write_wav(buffer: AudioBuffer, path, fmt: WavFormat | None = None) -> None:
    """Write a buffer as a RIFF/WAVE file.

    Defaults to IEEE float32 at the buffer's rate/channel count, which
    preserves samples beyond full scale. Integer formats hard-clip
    (saturate) out-of-range samples.
    """
    if fmt is None:
        fmt = WavFormat(FLOAT_32, buffer.sample_rate, buffer.channels)
    if fmt.sample_rate != buffer.sample_rate:
        raise ValueError(
            f"format rate {fmt.sample_rate} != buffer rate {buffer.sample_rate} "
            "(no resampling in this package)"
        )
    if fmt.channels != buffer.channels:
        raise ValueError(f"format channels {fmt.channels} != buffer channels {buffer.channels}")

    if fmt.bit_depth == FLOAT_32:
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32
        payload = np.asarray(buffer.samples.T, dtype="<f4", order="C")
    else:
        tag, bits = _WAVE_FORMAT_PCM, 16 if fmt.bit_depth == PCM_16 else 24
        # one interleaved copy at full scale, rounded and saturated in place; the
        # low bits // 8 bytes of each little-endian int32 are the same code
        codes = np.multiply(buffer.samples.T, 2.0 ** (bits - 1), order="C", dtype=np.float64)
        np.clip(np.rint(codes, out=codes), -(2.0 ** (bits - 1)), 2.0 ** (bits - 1) - 1, out=codes)
        codes = codes.astype("<i4").view(np.uint8).reshape(-1, 4)
        payload = np.ascontiguousarray(codes[:, : bits // 8])
    payload = memoryview(payload).cast("B")  # written as it is, never copied to bytes

    block_align = bits // 8 * fmt.channels
    chunks = [
        struct.pack(
            "<4sIHHIIHH", b"fmt ", 16, tag, fmt.channels, fmt.sample_rate,
            fmt.sample_rate * block_align, block_align, bits,
        )
    ]
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        chunks.append(struct.pack("<4sII", b"fact", 4, buffer.n_frames))
    chunks += [struct.pack("<4sI", b"data", len(payload)), payload]
    if len(payload) & 1:
        chunks.append(b"\x00")

    riff_size = 4 + sum(len(chunk) for chunk in chunks)
    _write_atomically(Path(path), [struct.pack("<4sI4s", b"RIFF", riff_size, b"WAVE"), *chunks])


def _write_atomically(path: Path, chunks: list[bytes | memoryview]) -> None:
    """Write the chunks to a fresh file in the target folder, then rename it
    onto ``path``: readers see the old file or the whole new one, never a
    part. On any error the temporary file is removed and ``path`` is left
    as it was."""
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(8)}.tmp")
    fp = open(tmp, "xb")
    try:
        with fp:
            for chunk in chunks:
                fp.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
