"""Audio buffer representation, WAV file I/O, the dB-to-linear gain, and
the strict JSON reader shared by the gains, listener and manifest loaders.

Buffers hold float64 samples in a (channels, frames) array and are treated
as immutable: every operation returns a new buffer. There is no resampling
anywhere in this package; operations that combine signals require identical
sample rates and raise :class:`AlignmentError` otherwise.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.signal import oaconvolve

PCM_16 = "pcm16"
PCM_24 = "pcm24"
FLOAT_32 = "float32"

_SUPPORTED_BIT_DEPTHS = (PCM_16, PCM_24, FLOAT_32)

_WAVE_FORMAT_PCM = 1
_WAVE_FORMAT_IEEE_FLOAT = 3

# kernel length up to which direct convolution beats overlap-add on
# song-length signals; the two agree to float rounding, and direct keeps
# impulse-like kernels bit-exact
_DIRECT_CONVOLUTION_MAX_TAPS = 256


class WavReadError(ValueError):
    """A WAV file could not be decoded."""


class UnsupportedCodecError(WavReadError):
    """The file declares a codec outside PCM 16/24-bit or IEEE float32."""


class TruncatedFileError(WavReadError):
    """The file ends before the bytes its header declares."""


class ZeroLengthAudioError(WavReadError):
    """The file contains no audio frames."""


class AlignmentError(ValueError):
    """Signals passed to a multi-signal operation do not share rate/shape."""


@dataclass(frozen=True, eq=False)
class AudioBuffer:
    """Multichannel audio: float64 samples, shape (channels, frames).

    Samples are nominally in [-1, 1] but values beyond full scale are kept;
    clipping only happens when writing integer WAV formats or inside the
    compressor's safety clip.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[np.newaxis, :]
        if samples.ndim != 2:
            raise ValueError(f"samples must be (channels, frames), got shape {samples.shape}")
        if samples.shape[0] < 1:
            raise ValueError("buffer needs at least one channel")
        if not isinstance(self.sample_rate, (int, np.integer)) or self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be a positive integer, got {self.sample_rate!r}")
        if not np.all(np.isfinite(samples)):
            raise ValueError("samples contain NaN or Inf")
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

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
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.channels < 1:
            raise ValueError("channels must be >= 1")


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


def _convolve(signal: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Full linear convolution of two 1-D arrays."""
    if kernel.size > _DIRECT_CONVOLUTION_MAX_TAPS:
        return oaconvolve(signal, kernel, mode="full")
    return np.convolve(signal, kernel, mode="full")


def _reject_constant(literal: str):
    raise ValueError(f"{literal} is not a JSON number")


def _read_json(path):
    """Parse a UTF-8 JSON file, refusing Python's NaN/Infinity extensions."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"), parse_constant=_reject_constant)
    except ValueError as exc:  # UnicodeDecodeError, JSONDecodeError and NaN/Infinity
        raise ValueError(f"{path}: not a UTF-8 JSON file: {exc}") from exc


def read_wav(path) -> AudioBuffer:
    """Read a RIFF/WAVE file (PCM 16/24-bit or IEEE float32).

    Integer samples are scaled to floats by 1 / 2^(bits-1). Chunks other
    than fmt/data are skipped.
    """
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise TruncatedFileError(f"{path}: too short to hold a RIFF header")
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise WavReadError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        body_start = pos + 8
        if chunk_id == b"fmt ":
            if size < 16 or body_start + 16 > len(raw):
                raise TruncatedFileError(f"{path}: fmt chunk truncated")
            fmt = struct.unpack_from("<HHIIHH", raw, body_start)
        elif chunk_id == b"data":
            if body_start + size > len(raw):
                raise TruncatedFileError(
                    f"{path}: data chunk declares {size} bytes, file has fewer"
                )
            data = raw[body_start : body_start + size]
        pos = body_start + size + (size & 1)

    if fmt is None or data is None:
        raise WavReadError(f"{path}: missing fmt or data chunk")

    tag, channels, rate, _byte_rate, block_align, bits = fmt
    if channels < 1 or rate <= 0:
        raise WavReadError(f"{path}: invalid fmt chunk (channels={channels}, rate={rate})")
    if (tag, bits) == (_WAVE_FORMAT_PCM, 16):
        bytes_per_sample = 2
    elif (tag, bits) == (_WAVE_FORMAT_PCM, 24):
        bytes_per_sample = 3
    elif (tag, bits) == (_WAVE_FORMAT_IEEE_FLOAT, 32):
        bytes_per_sample = 4
    else:
        raise UnsupportedCodecError(
            f"{path}: unsupported codec (format tag {tag}, {bits}-bit); "
            "supported: PCM 16/24-bit, IEEE float32"
        )

    frame_bytes = bytes_per_sample * channels
    if block_align not in (0, frame_bytes):
        raise WavReadError(f"{path}: block_align {block_align} != {frame_bytes}")
    if len(data) % frame_bytes != 0:
        raise TruncatedFileError(f"{path}: data chunk holds a partial frame")
    n_frames = len(data) // frame_bytes
    if n_frames == 0:
        raise ZeroLengthAudioError(f"{path}: zero-length audio")

    if bytes_per_sample == 2:
        flat = np.frombuffer(data, dtype="<i2").astype(np.float64) / 2.0**15
    elif bytes_per_sample == 3:
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3).astype(np.int32)
        codes = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        codes = (codes ^ 0x800000) - 0x800000  # sign-extend 24 -> 32 bit
        flat = codes.astype(np.float64) / 2.0**23
    else:
        flat = np.frombuffer(data, dtype="<f4")
        # checked before widening: casting a signalling NaN raises FE_INVALID
        if not np.all(np.isfinite(flat)):
            raise WavReadError(f"{path}: float samples contain NaN or Inf")
        flat = flat.astype(np.float64)

    samples = flat.reshape(n_frames, channels).T
    return AudioBuffer(samples, int(rate))


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

    interleaved = np.ascontiguousarray(buffer.samples.T)
    if fmt.bit_depth == PCM_16:
        codes = np.clip(np.rint(interleaved * 2.0**15), -(2**15), 2**15 - 1)
        payload = codes.astype("<i2").tobytes()
        tag, bits = _WAVE_FORMAT_PCM, 16
    elif fmt.bit_depth == PCM_24:
        codes = np.clip(np.rint(interleaved * 2.0**23), -(2**23), 2**23 - 1)
        as32 = codes.astype("<i4").tobytes()
        payload = np.frombuffer(as32, dtype=np.uint8).reshape(-1, 4)[:, :3].tobytes()
        tag, bits = _WAVE_FORMAT_PCM, 24
    else:
        payload = interleaved.astype("<f4").tobytes()
        tag, bits = _WAVE_FORMAT_IEEE_FLOAT, 32

    bytes_per_sample = bits // 8
    block_align = bytes_per_sample * fmt.channels
    fmt_chunk = struct.pack(
        "<4sIHHIIHH",
        b"fmt ",
        16,
        tag,
        fmt.channels,
        fmt.sample_rate,
        fmt.sample_rate * block_align,
        block_align,
        bits,
    )
    chunks = [fmt_chunk]
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        chunks.append(struct.pack("<4sII", b"fact", 4, buffer.n_frames))
    data_chunk = struct.pack("<4sI", b"data", len(payload)) + payload
    if len(payload) & 1:
        data_chunk += b"\x00"
    chunks.append(data_chunk)

    body = b"".join(chunks)
    header = struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE")
    Path(path).write_bytes(header + body)
