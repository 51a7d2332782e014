"""Integrated loudness (BS.1770-style), loudness normalization, clip
counting, the clip-count compressor trigger, and the dynamic-range
compressor.

Loudness is the gated integrated measure: K-weighting, 400 ms blocks with
75 % overlap, an absolute gate at -70 LUFS, then a relative gate 10 LU
below the absolutely-gated level. Fully gated-out signals have *undefined*
loudness, carried as an explicit state rather than a sentinel number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter, sosfilt

from .audio import (
    _CHUNK_FRAMES, AudioBuffer, _by_rows, _chunks, _finite_number, _segment_sums, _song_span
)

CLIP_TRIGGER_COUNT = 25_000

# frames per block of the gain smoother's solve
_SOLVE_BLOCK = 4096
# largest log-decay (nepers) one solve block may span: exp(-600) and its
# inverse are both finite in float64
_MAX_BLOCK_DECAY = 600.0
# solves of one block before the smoother keeps only its confirmed prefix
_MAX_SOLVES = 8
# most dB by which the detector may exceed the threshold. Float64 sample
# levels span about 6,400 dB, so only a threshold below about -1e6 dB is
# ever capped, and the gain 10**(-1e6/20) is already 0. The cap keeps the
# solve's terms, divided by a decay of down to exp(-600), finite.
_MAX_OVER_DB = 1e6
_LEVEL_FLOOR = 1e-12  # the detector's lowest frame level, and its held level at the start
_LEVEL_FLOOR_DB = 20.0 * math.log10(_LEVEL_FLOOR)  # exactly -240.0

_BLOCK_SECONDS = 0.4
_HOP_SECONDS = 0.1
_ABSOLUTE_GATE_LUFS = -70.0
_RELATIVE_GATE_LU = 10.0
_LOUDNESS_OFFSET = -0.691


class UndefinedLoudnessError(ValueError):
    """The signal's loudness is undefined (silent or fully gated out)."""


@dataclass(frozen=True)
class LoudnessLufs:
    """Integrated loudness; ``value`` is None when undefined."""

    value: float | None

    @property
    def is_defined(self) -> bool:
        return self.value is not None


@dataclass(frozen=True)
class ClipReport:
    """Per-channel counts of samples at or beyond full scale."""

    per_channel: tuple[int, ...]


@dataclass(frozen=True)
class CompressorParams:
    """Feed-forward peak compressor settings."""

    threshold_db: float = -6.0
    ratio: float = 6.0
    attack_ms: float = 5.0
    release_ms: float = 100.0

    def __post_init__(self):
        for name in ("threshold_db", "ratio", "attack_ms", "release_ms"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, _finite_number(value, name))
            except ValueError:
                raise ValueError(f"{name} must be finite, got {value!r}") from None
        if self.ratio < 1.0:
            raise ValueError(f"ratio must be >= 1, got {self.ratio}")
        for name in ("attack_ms", "release_ms"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")


def _k_weighting_sos(sample_rate: int) -> np.ndarray:
    """K-weighting as two biquads: high shelf, then high pass.

    Coefficients are recomputed for the given rate from the analog
    prototype (shelf at 1681.97 Hz / +4 dB, high pass at 38.14 Hz), which
    reproduces the published 48 kHz tables.
    """
    f0, gain_db, q = 1681.9744509555319, 3.99984385397, 0.7071752369554193
    k = math.tan(math.pi * f0 / sample_rate)
    vh = 10.0 ** (gain_db / 20.0)
    vb = vh**0.499666774155
    a0 = 1.0 + k / q + k * k
    shelf = [
        (vh + vb * k / q + k * k) / a0,
        2.0 * (k * k - vh) / a0,
        (vh - vb * k / q + k * k) / a0,
        1.0,
        2.0 * (k * k - 1.0) / a0,
        (1.0 - k / q + k * k) / a0,
    ]
    f0, q = 38.13547087613982, 0.5003270373253953
    k = math.tan(math.pi * f0 / sample_rate)
    a0 = 1.0 + k / q + k * k
    highpass = [
        1.0,
        -2.0,
        1.0,
        1.0,
        2.0 * (k * k - 1.0) / a0,
        (1.0 - k / q + k * k) / a0,
    ]
    return np.array([shelf, highpass])


def _block_powers(samples: np.ndarray, sample_rate: int, exponent: int = 0) -> np.ndarray | None:
    """K-weighted power of each 400 ms block of (channels, frames) samples
    times ``2**-exponent``, summed over channels; None when the signal is
    shorter than one block.

    Each row block of ``_by_rows`` is scaled, filtered and squared in
    pieces up to the last block's end: as many whole ``_song_span`` spans
    as fit in 1/10 of the song, at least one. ``sosfilt`` with a carried
    ``zi`` continues the recursion exactly, so the squares have the same
    bits whatever the piece. Its set-up holds the interpreter lock on each
    call, and its filter loop does not, so two row blocks that make few,
    long calls filter at once. Each piece's squares are summed between the
    hop starts and block ends (``_segment_sums``). The row blocks' sums are
    added in row order piece by piece, as a sum over all channels at once
    would add them, and a block's power is the sum of its own segments, so
    no block loses digits to the energy before it.
    K-weighting is linear, so scaling the signal by g scales every block
    power by g**2.
    """
    if sample_rate < 8000:
        raise ValueError(f"loudness needs sample_rate >= 8 kHz, got {sample_rate}")
    n_frames = samples.shape[1]
    block = int(round(_BLOCK_SECONDS * sample_rate))
    hop = int(round(_HOP_SECONDS * sample_rate))
    starts = np.arange(0, n_frames - block + 1, hop)
    if not starts.size:
        return None
    edges = np.union1d(starts, starts + block)
    sos = _k_weighting_sos(sample_rate)
    end = int(edges[-1])  # later frames count for no block
    span = _song_span(end)
    # whole spans in 1/10 of the song
    pieces = list(_chunks(end, span * max(1, end // (10 * span))))

    def piece_sums(rows: slice) -> list[tuple[slice, np.ndarray]]:
        channels = samples[rows]
        zi = np.zeros((sos.shape[0], channels.shape[0], 2))
        sums = []
        for frames in pieces:
            x = channels[:, frames]
            if exponent:
                x = np.ldexp(x, -exponent)
            squares, zi = sosfilt(sos, x, axis=1, zi=zi)
            np.multiply(squares, squares, out=squares)
            sums.append(_segment_sums(edges, frames, squares))
            del x, squares  # before the next piece's are made
        return sums

    sums = np.zeros(edges.size)
    for (where, part), *later in zip(*_by_rows(piece_sums, samples.shape[0])):
        for _, more in later:  # row 1's after row 0's, as .sum(axis=0) adds them
            part = part + more
        sums[where] += part
    # reduceat at each block's (start, end) pair; the sums from an end on are dropped
    bounds = np.searchsorted(edges, np.stack((starts, starts + block), axis=1).ravel())
    return np.add.reduceat(sums, bounds)[::2] / block


def _measure(samples: np.ndarray, sample_rate: int) -> tuple[np.ndarray | None, int]:
    """The block powers of ``samples * 2**-e``, and ``e``: 0, unless the
    K-weighted squares overflow float64; then the exponent that brings the
    peak below 1, an exact scale that callers take back."""
    with np.errstate(over="ignore", invalid="ignore"):
        powers = _block_powers(samples, sample_rate)
    if powers is None or np.isfinite(powers).all():
        return powers, 0
    exponent = int(np.frexp(max(samples.max(), -samples.min()))[1])
    return _block_powers(samples, sample_rate, exponent), exponent


@np.errstate(divide="ignore")
def _gated_lufs(block_power: np.ndarray | None, gate: float = _ABSOLUTE_GATE_LUFS) -> float | None:
    """Absolute (at ``gate`` LUFS) then relative gating of block powers;
    None when all gated out. A silent block's -inf LUFS is below any gate."""
    if block_power is None:
        return None
    block_lufs = _LOUDNESS_OFFSET + 10.0 * np.log10(block_power)
    kept = block_lufs > gate
    if not np.any(kept):
        return None
    relative_gate = (
        _LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(block_power[kept])) - _RELATIVE_GATE_LU
    )
    # keeps a block: the loudest is at least their mean, 10 LU above the gate
    kept &= block_lufs > relative_gate
    return _LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(block_power[kept]))


def integrated_loudness(buffer: AudioBuffer) -> LoudnessLufs:
    """Gated integrated loudness of a buffer in LUFS."""
    return LoudnessLufs(_integrated_lufs(buffer.samples, buffer.sample_rate))


def _integrated_lufs(samples: np.ndarray, sample_rate: int) -> float | None:
    """``integrated_loudness`` of (channels, frames) samples; None when undefined."""
    powers, exponent = _measure(samples, sample_rate)
    lufs = _gated_lufs(powers)
    # the measured scale 2**-e taken back, 20*log10(2) dB per power of two
    return None if lufs is None else lufs + 20.0 * math.log10(2.0) * exponent


def normalize_to_loudness(buffer: AudioBuffer, target_lufs: float) -> AudioBuffer:
    """Scale a buffer by one scalar so its loudness matches the target."""
    out = buffer.samples.astype(np.float64, order="K")
    _normalize_in_place(out, buffer.sample_rate, target_lufs)
    return buffer.with_samples(out)


@np.errstate(over="ignore", invalid="ignore")
def _normalize_in_place(samples: np.ndarray, sample_rate: int, target_lufs: float) -> None:
    """``normalize_to_loudness`` written over float64 ``samples``: scaled
    by the exact power of two of their measurement (``_measure``), if any,
    then by the gain that brings them to the target. A result beyond
    float64 is left Inf, without a warning, for the caller's buffer to reject.

    The relative gate moves with the scale, but the -70 LUFS absolute gate
    does not, so a gain can keep or drop different blocks. The gain is
    therefore re-solved once, without filtering the scaled signal again:
    the measured powers gated at the absolute gate less the gain read the
    loudness of the blocks that the scaled signal keeps, less the gain.
    When that gate drops every block, the first gain stays.
    """
    powers, exponent = _measure(samples, sample_rate)
    measured = _gated_lufs(powers)
    if measured is None:
        raise UndefinedLoudnessError("cannot normalize: input loudness is undefined")
    if exponent:
        np.ldexp(samples, -exponent, out=samples)
    gain_db = target_lufs - measured
    kept = _gated_lufs(powers, _ABSOLUTE_GATE_LUFS - gain_db)
    if kept is not None:
        gain_db = target_lufs - kept
    samples *= 10.0 ** (gain_db / 20.0)


def count_clipped(buffer: AudioBuffer) -> ClipReport:
    """Count samples at or beyond full scale (|x| >= 1) per channel."""
    # a channel at a time through contiguous scratch, whatever the memory order
    magnitude = np.empty(min(_CHUNK_FRAMES, buffer.n_frames))
    clipped = np.empty(magnitude.size, dtype=bool)
    counts = []
    for channel in buffer.samples:
        count = 0
        for frames in _chunks(channel.size):
            width = frames.stop - frames.start
            np.abs(channel[frames], out=magnitude[:width])
            np.greater_equal(magnitude[:width], 1.0, out=clipped[:width])
            count += np.count_nonzero(clipped[:width])
        counts.append(int(count))
    return ClipReport(per_channel=tuple(counts))


def should_compress(report: ClipReport) -> bool:
    """True when any channel's clip count reaches ``CLIP_TRIGGER_COUNT``."""
    return max(report.per_channel) >= CLIP_TRIGGER_COUNT


def _peak_envelope_db(
    samples: np.ndarray, release_log: float, held: float, out: np.ndarray
) -> float:
    """Peak detector ``y = max(x, alpha*y)`` in dB over the frame levels of
    one span of (channels, frames) samples, written into ``out``, from the
    level ``held`` of the frame before the span; returns the span's last.

    The level ``x`` is the peak across channels in dB, floored at ``_LEVEL_FLOOR_DB``.
    ``release_log`` is ``log(alpha)``. In dB the detector is
    ``y[i] = max(x[i], y[i-1] - r)``, each earlier frame decayed by
    ``r = -20*log10(alpha)`` dB per sample of age. Within a chunk starting
    at frame s that is a running max,
    ``y[s+k] = cummax(x' + j*r)[k] - k*r`` with ``x'`` the chunk's levels
    and its first raised to ``y[s-1] - r``. The ramp restarts with every
    chunk, so its rounding does not grow with the song. Holding through
    waveform troughs keeps the gain computer on the crest level, so a
    sustained tone settles onto the static curve instead of pumping within
    each cycle.
    """
    level = np.empty_like(out)
    np.abs(samples[0], out=level)
    for channel in samples[1:]:
        np.abs(channel, out=out)
        np.maximum(level, out, out=level)
    np.maximum(level, _LEVEL_FLOOR, out=level)
    np.log10(level, out=level)
    level *= 20.0
    # once one sample's decay spans the range of the span's levels and the
    # held level no earlier frame can win the max, so the cap changes
    # nothing but keeps the ramp, and its rounding, small for very short releases
    span_range = float(level.max(initial=held) - level.min(initial=held))
    decay_db = min(-20.0 * math.log10(math.e) * release_log, span_range)
    ramp = np.arange(min(_CHUNK_FRAMES, out.size)) * decay_db
    for frames in _chunks(out.size):
        chunk, width = out[frames], frames.stop - frames.start
        np.add(level[frames], ramp[:width], out=chunk)
        chunk[0] = max(chunk[0], held - decay_db)
        np.maximum.accumulate(chunk, out=chunk)
        chunk -= ramp[:width]
        # the j == i term exactly, which adding and removing the ramp can round
        np.maximum(chunk, level[frames], out=chunk)
        held = float(chunk[-1])
    return held


def _smooth_gain_db(
    target_db: np.ndarray, attack_log: float, release_log: float, state: float
) -> float:
    """One-pole smoothing of the gain trajectory in place, switching
    attack/release, from the smoothed gain ``state`` of the frame before;
    returns the last frame's.

    ``y[i] = a[i]*y[i-1] + (1 - a[i])*t[i]``, where ``a[i]`` is the attack
    coefficient ``exp(attack_log)`` when ``t[i] < y[i-1]`` and the release
    one ``exp(release_log)`` otherwise. Equal coefficients leave no choice:
    one ``lfilter`` call, whose ``zi = a*state`` continues the recursion
    exactly. Otherwise computed block by block, as a fixed point over the
    choices: start from the choices the carried state implies, solve the
    now linear recurrence (``_solve_block``), re-derive every choice from
    the solution and solve again until the choices are self-consistent,
    which keeps the whole block. A solution is exact up to the first choice
    it contradicts, so a block whose choices have not settled after
    ``_MAX_SOLVES`` solves keeps that prefix, which is at least one frame
    since the first choice depends only on the carried state, and the next
    block starts after it.
    """
    # indexed by the attack choice: 0 release, 1 attack
    alpha = np.array([math.exp(release_log), math.exp(attack_log)])
    if alpha[0] == alpha[1]:  # no choice to make: one linear recurrence
        a = alpha[0]
        target_db[:] = lfilter([1.0 - a], [1.0, -a], target_db, zi=[a * state])[0]
        return float(target_db[-1])
    log_alpha = np.maximum([release_log, attack_log], -_MAX_BLOCK_DECAY)
    # P falls by at most exp(-_MAX_BLOCK_DECAY) over a block, so 1/P stays finite
    block = min(_SOLVE_BLOCK, int(_MAX_BLOCK_DECAY / -float(log_alpha.min())))
    start = 0
    while start < target_db.size:
        target = target_db[start : start + block]
        attack = target < state
        for _ in range(_MAX_SOLVES):
            smoothed = _solve_block(target, attack, state, alpha, log_alpha)
            derived = target[1:] < smoothed[:-1]
            wrong = derived != attack[1:]
            if not wrong.any():
                keep = target.size
                break
            attack[1:] = derived
        else:
            keep = int(wrong.argmax()) + 1
        state = float(smoothed[keep - 1])
        target[:keep] = smoothed[:keep]
        start += keep
    return state


def _solve_block(
    target: np.ndarray,
    attack: np.ndarray,
    state: float,
    alpha: np.ndarray,
    log_alpha: np.ndarray,
) -> np.ndarray:
    """``y[i] = a[i]*y[i-1] + (1 - a[i])*t[i]`` from ``y[-1] = state`` for
    fixed choices, ``a[i] = alpha[attack[i]]``, in a new array.

    One choice throughout is one ``lfilter`` call, the same arithmetic as
    the per-sample recursion. Mixed choices solve
    ``y = P*(state + cumsum((1 - a)*t/P))`` with ``P = exp(cumsum(log a))``.
    """
    if attack.all() or not attack.any():
        a = alpha[int(attack[0])]
        return lfilter([1.0 - a], [1.0, -a], target, zi=[a * state])[0]
    choice = attack.view(np.uint8)
    p = np.cumsum(log_alpha.take(choice))
    np.exp(p, out=p)
    y = 1.0 - alpha.take(choice)
    y *= target
    y /= p
    np.cumsum(y, out=y)
    y += state
    y *= p
    return y


def compress(buffer: AudioBuffer, params: CompressorParams | None = None) -> AudioBuffer:
    """Stereo-linked feed-forward peak compressor with a hard ±1 safety clip.

    The per-frame level is the peak across channels, tracked by a
    release-decay peak detector; the hard-knee gain computer reduces level
    above the threshold by the ratio; the gain (in dB) is smoothed by a
    one-pole attack/release and applied identically to every channel,
    followed by the safety clip.
    """
    out = buffer.samples.astype(np.float64, order="K")
    _compress_in_place(out, buffer.sample_rate, params or CompressorParams())
    return buffer.with_samples(out)


def _compress_in_place(samples: np.ndarray, sample_rate: int, params: CompressorParams) -> None:
    """``compress`` written over (channels, frames) samples in one pass of
    ``_song_span`` spans. A span's detector, gain computer, smoother and
    ``exp`` run in one span of scratch, whose gain then multiplies and clips
    the span; the detector's held level and the smoother's state carry on.
    """
    attack_log = -1.0 / (sample_rate * params.attack_ms / 1000.0)
    release_log = -1.0 / (sample_rate * params.release_ms / 1000.0)
    n_frames = samples.shape[1]
    span = _song_span(n_frames)
    scratch = np.empty(min(span, n_frames))
    held, state = _LEVEL_FLOOR_DB, 0.0  # the loops' zero state: the level floor, 0 dB of gain
    for frames in _chunks(n_frames, span):
        gain, block = scratch[: frames.stop - frames.start], samples[:, frames]
        held = _peak_envelope_db(block, release_log, held, gain)
        gain -= params.threshold_db
        np.clip(gain, 0.0, _MAX_OVER_DB, out=gain)
        gain *= 1.0 / params.ratio - 1.0
        state = _smooth_gain_db(gain, attack_log, release_log, state)
        # 10**(g/20) as exp(g*ln(10)/20)
        gain *= math.log(10.0) / 20.0
        np.exp(gain, out=gain)
        block *= gain
        np.clip(block, -1.0, 1.0, out=block)
