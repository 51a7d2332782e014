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
from scipy.signal import sosfilt

from .audio import AudioBuffer

CLIP_TRIGGER_COUNT = 25_000

_SCAN_BLOCK = 1024  # samples per block of the gain smoother's scan
# largest log-decay (nepers) one scan block may span: exp(-600) and its
# inverse are both finite in float64
_MAX_BLOCK_DECAY = 600.0

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
        if self.ratio < 1.0:
            raise ValueError(f"ratio must be >= 1, got {self.ratio}")
        if self.attack_ms <= 0.0 or self.release_ms <= 0.0:
            raise ValueError("attack and release must be positive")


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


def _block_powers(buffer: AudioBuffer) -> np.ndarray | None:
    """K-weighted power of each 400 ms block, summed over channels.

    None when the buffer is shorter than one block. K-weighting is linear,
    so scaling the buffer by g scales every block power by g**2.
    """
    if buffer.sample_rate < 8000:
        raise ValueError(f"loudness needs sample_rate >= 8 kHz, got {buffer.sample_rate}")
    block = int(round(_BLOCK_SECONDS * buffer.sample_rate))
    hop = int(round(_HOP_SECONDS * buffer.sample_rate))
    if buffer.n_frames < block:
        return None

    weighted = sosfilt(_k_weighting_sos(buffer.sample_rate), buffer.samples, axis=1)
    energy = np.concatenate(
        [np.zeros((buffer.channels, 1)), np.cumsum(weighted * weighted, axis=1)], axis=1
    )
    starts = np.arange(0, buffer.n_frames - block + 1, hop)
    return (energy[:, starts + block] - energy[:, starts]).sum(axis=0) / block


def _gated_lufs(block_power: np.ndarray | None) -> float | None:
    """Absolute then relative gating of block powers; None when all gated out."""
    if block_power is None:
        return None
    block_lufs = _LOUDNESS_OFFSET + 10.0 * np.log10(np.maximum(block_power, 1e-30))
    kept = block_lufs > _ABSOLUTE_GATE_LUFS
    if not np.any(kept):
        return None
    relative_gate = (
        _LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(block_power[kept])) - _RELATIVE_GATE_LU
    )
    kept &= block_lufs > relative_gate
    if not np.any(kept):
        return None
    return _LOUDNESS_OFFSET + 10.0 * np.log10(np.mean(block_power[kept]))


def integrated_loudness(buffer: AudioBuffer) -> LoudnessLufs:
    """Gated integrated loudness of a buffer in LUFS."""
    return LoudnessLufs(_gated_lufs(_block_powers(buffer)))


def normalize_to_loudness(buffer: AudioBuffer, target_lufs: float) -> AudioBuffer:
    """Scale a buffer by one scalar so its loudness matches the target.

    The block powers are measured once. The relative gate moves with the
    scale, but the -70 LUFS absolute gate does not, so a gain can keep or
    drop different blocks; the gain is therefore re-solved once on the
    scaled powers instead of filtering the scaled signal again.
    """
    powers = _block_powers(buffer)
    measured = _gated_lufs(powers)
    if measured is None:
        raise UndefinedLoudnessError("cannot normalize: input loudness is undefined")
    gain_db = target_lufs - measured
    rescaled = _gated_lufs(powers * 10.0 ** (gain_db / 10.0))
    if rescaled is not None:
        gain_db += target_lufs - rescaled
    return buffer.with_samples(buffer.samples * 10.0 ** (gain_db / 20.0))


def count_clipped(buffer: AudioBuffer) -> ClipReport:
    """Count samples at or beyond full scale (|x| >= 1) per channel."""
    counts = tuple(int(np.count_nonzero(np.abs(ch) >= 1.0)) for ch in buffer.samples)
    return ClipReport(per_channel=counts)


def should_compress(report: ClipReport) -> bool:
    """True when any channel's clip count reaches ``CLIP_TRIGGER_COUNT``."""
    return max(report.per_channel) >= CLIP_TRIGGER_COUNT


def _peak_envelope_db(level_db: np.ndarray, release_log: float) -> np.ndarray:
    """Peak detector ``y = max(x, alpha*y)`` in dB.

    ``release_log`` is ``log(alpha)``. In dB the detector is a running max
    of the level, each earlier frame decayed by ``r = -20*log10(alpha)`` dB
    per sample of age:
    ``env[i] = max_{j<=i}(level[j] - (i - j)*r) = cummax(level + j*r)[i] - i*r``.
    Holding through waveform troughs keeps the gain computer on the crest
    level, so a sustained tone settles onto the static curve instead of
    pumping within each cycle.
    """
    decay_db = -20.0 * math.log10(math.e) * release_log
    if level_db.size:
        # once one sample's decay spans the level's whole range no earlier
        # frame can win the max, so the cap changes nothing but keeps the
        # ramp, and its rounding, small for very short releases
        decay_db = min(decay_db, float(np.ptp(level_db)))
    ramp = np.arange(level_db.size) * decay_db
    envelope = level_db + ramp
    np.maximum.accumulate(envelope, out=envelope)
    envelope -= ramp
    # the j == i term exactly, which adding and removing the ramp can round
    np.maximum(envelope, level_db, out=envelope)
    return envelope


def _smooth_gain_db(target_db: np.ndarray, attack_log: float, release_log: float) -> np.ndarray:
    """One-pole smoothing of the gain trajectory, switching attack/release.

    ``y[i] = a[i]*y[i-1] + (1 - a[i])*t[i]``, where ``a[i]`` is the attack
    coefficient ``exp(attack_log)`` when ``t[i] < y[i-1]`` and the release
    one ``exp(release_log)`` otherwise.
    Computed in place, block by block: guess attack wherever a target lies
    below the carried state, solve the now linear recurrence as
    ``y = P*(y0 + cumsum((1 - a)*t/P))`` with ``P = exp(cumsum(log a))``,
    then re-derive each choice from the solution. Every sample before the
    first disagreement is exact, so that prefix is kept and the next block
    starts after it; the first guess of a block is always right, so each
    block keeps at least one sample.
    """
    # indexed by the attack choice: 0 release, 1 attack
    one_minus = 1.0 - np.exp([release_log, attack_log])
    log_alpha = np.maximum([release_log, attack_log], -_MAX_BLOCK_DECAY)
    # P falls by at most exp(-_MAX_BLOCK_DECAY) over a block, so 1/P stays finite
    decay = -float(log_alpha.min())
    block = _SCAN_BLOCK
    if decay * _SCAN_BLOCK > _MAX_BLOCK_DECAY:
        block = max(1, int(_MAX_BLOCK_DECAY / decay))

    state = 0.0
    start = 0
    while start < target_db.size:
        target = target_db[start : start + block]
        attack = (target < state).view(np.uint8)
        p = np.cumsum(log_alpha.take(attack))
        np.exp(p, out=p)
        y = one_minus.take(attack)
        y *= target
        y /= p
        np.cumsum(y, out=y)
        y += state
        y *= p
        wrong = attack[1:] != (target[1:] < y[:-1])
        keep = int(wrong.argmax()) + 1 if wrong.any() else target.size
        state = float(y[keep - 1])
        target[:keep] = y[:keep]
        start += keep
    return target_db


def compress(buffer: AudioBuffer, params: CompressorParams | None = None) -> AudioBuffer:
    """Stereo-linked feed-forward peak compressor with a hard ±1 safety clip.

    The per-frame level is the peak across channels, tracked by a
    release-decay peak detector; the hard-knee gain computer reduces level
    above the threshold by the ratio; the gain (in dB) is smoothed by a
    one-pole attack/release and applied identically to every channel,
    followed by the safety clip.
    """
    if params is None:
        params = CompressorParams()
    attack_log = -1.0 / (buffer.sample_rate * params.attack_ms / 1000.0)
    release_log = -1.0 / (buffer.sample_rate * params.release_ms / 1000.0)

    # each frame-sized array is computed in place or released once the next
    # exists, so at most three are alive beside the signal
    level = np.abs(buffer.samples[0])
    for channel in buffer.samples[1:]:
        np.maximum(level, np.abs(channel), out=level)
    np.maximum(level, 1e-12, out=level)
    np.log10(level, out=level)
    level *= 20.0
    over_db = _peak_envelope_db(level, release_log)
    del level
    over_db -= params.threshold_db
    np.maximum(over_db, 0.0, out=over_db)
    over_db *= 1.0 / params.ratio - 1.0
    gain = _smooth_gain_db(over_db, attack_log, release_log)
    gain /= 20.0
    np.power(10.0, gain, out=gain)

    out = buffer.samples * gain
    np.clip(out, -1.0, 1.0, out=out)
    return buffer.with_samples(out)
