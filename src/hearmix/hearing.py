"""Audiogram model, NAL-R insertion-gain prescription, and its linear-phase
FIR realization.

The prescription constants live in one table of record below. The published
prescription leaves two points ambiguous for this artifact; the choices made
here are:

* prescribed gains are clamped at 0 dB (no attenuation), and
* an audiogram with no loss anywhere (all levels <= 0 dB HL) prescribes a
  fully transparent filter (all gains 0 dB), short-circuiting the +1 dB
  correction the formula would otherwise yield at 1 kHz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.signal import freqz

from .audio import AudioBuffer, _convolve, _read_json

AUDIOMETRIC_FREQUENCIES = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0)

# Table of record: three-frequency-average factor, per-frequency slope, and
# frequency corrections (dB) of the NAL-R insertion-gain rule.
NALR_AVERAGE_FACTOR = 0.05
NALR_SLOPE = 0.31
NALR_CORRECTION_DB = {
    250.0: -17.0,
    500.0: -8.0,
    1000.0: 1.0,
    2000.0: -1.0,
    4000.0: -2.0,
    6000.0: -2.0,
}

DEFAULT_NALR_TAPS = 141

_DESIGN_MAX_ITER = 12
_DESIGN_TOL_DB = 0.05


@dataclass(frozen=True)
class Audiogram:
    """Hearing loss in dB HL at ascending anchor frequencies.

    Must include 500, 1000, and 2000 Hz; the prescription's level term is
    computed from those three.
    """

    frequencies: tuple[float, ...]
    levels_db_hl: tuple[float, ...]

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.frequencies)
        levels = tuple(float(v) for v in self.levels_db_hl)
        if len(freqs) != len(levels):
            raise ValueError("frequencies and levels must have equal length")
        if len(freqs) == 0:
            raise ValueError("audiogram must not be empty")
        if not all(np.isfinite(freqs)):
            raise ValueError("audiogram frequencies must be finite")
        if any(f <= 0 for f in freqs):
            raise ValueError("audiogram frequencies must be positive")
        if any(b <= a for a, b in zip(freqs, freqs[1:])):
            raise ValueError("audiogram frequencies must be strictly ascending")
        if not all(np.isfinite(levels)):
            raise ValueError("audiogram levels must be finite")
        for required in (500.0, 1000.0, 2000.0):
            if not any(np.isclose(f, required) for f in freqs):
                raise ValueError(f"audiogram must include a {required:g} Hz entry")
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "levels_db_hl", levels)

    def level_at(self, frequency: float) -> float:
        for f, v in zip(self.frequencies, self.levels_db_hl):
            if np.isclose(f, frequency):
                return v
        raise KeyError(f"audiogram has no {frequency:g} Hz entry")


@dataclass(frozen=True)
class Listener:
    """A listener's identity and per-ear audiograms."""

    id: str
    left: Audiogram
    right: Audiogram


def load_listener(path) -> Listener:
    """Load a listener JSON file.

    Schema: ``{"id": str, "frequencies": [Hz...], "left_db_hl": [...],
    "right_db_hl": [...]}`` with one shared frequency list for both ears.
    """
    doc = _read_json(path)
    try:
        freqs = tuple(doc["frequencies"])
        return Listener(
            id=str(doc["id"]),
            left=Audiogram(freqs, tuple(doc["left_db_hl"])),
            right=Audiogram(freqs, tuple(doc["right_db_hl"])),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: bad listener file: {exc}") from exc


@dataclass(frozen=True, eq=False)
class FirFilter:
    """Odd-length linear-phase FIR filter (symmetric taps)."""

    taps: np.ndarray
    sample_rate: int

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        if taps.ndim != 1 or taps.size % 2 == 0:
            raise ValueError("taps must be a 1-D odd-length sequence")
        if not np.all(np.isfinite(taps)):
            raise ValueError("taps must be finite")
        if np.max(np.abs(taps - taps[::-1])) > 1e-12:
            raise ValueError("taps must be symmetric (linear phase)")
        object.__setattr__(self, "taps", taps)

    @property
    def delay(self) -> int:
        return (self.taps.size - 1) // 2


def _log_f_interp(f: np.ndarray, anchor_f: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Linear in log-frequency between anchors, edges held. Frequencies
    below the first anchor, 0 Hz included, are raised to it before the log."""
    return np.interp(np.log(np.maximum(f, anchor_f[0])), np.log(anchor_f), values)


def _correction_db(frequencies: np.ndarray) -> np.ndarray:
    """NAL-R correction at arbitrary frequencies."""
    table_f = np.array(sorted(NALR_CORRECTION_DB))
    table_c = np.array([NALR_CORRECTION_DB[f] for f in table_f])
    return _log_f_interp(frequencies, table_f, table_c)


def nalr_insertion_gains(audiogram: Audiogram) -> np.ndarray:
    """Prescribed insertion gain (dB) at each audiogram frequency.

    gain(f) = max(0, X + 0.31 * HL(f) + C(f)) where X is 0.05 times the
    summed loss at 500/1000/2000 Hz and C is the correction table. An
    audiogram with no loss anywhere prescribes all-zero gains.
    """
    levels = np.array(audiogram.levels_db_hl)
    if np.max(levels) <= 0.0:
        return np.zeros(len(levels))
    x = NALR_AVERAGE_FACTOR * (
        audiogram.level_at(500.0) + audiogram.level_at(1000.0) + audiogram.level_at(2000.0)
    )
    corrections = _correction_db(np.array(audiogram.frequencies))
    return np.maximum(0.0, x + NALR_SLOPE * levels + corrections)


def _frequency_sample(magnitude: np.ndarray, n_taps: int) -> np.ndarray:
    """Linear-phase FIR from a magnitude grid over [0, Nyquist].

    Inverse real-spectrum transform with the group delay baked into the
    phase, truncated to n_taps and shaped with a raised-cosine window.
    """
    n_grid = magnitude.shape[0]
    m = 2 * (n_grid - 1)
    delay = (n_taps - 1) / 2
    k = np.arange(n_grid)
    spectrum = magnitude * np.exp(-2j * np.pi * k * delay / m)
    impulse = np.fft.irfft(spectrum, m)[:n_taps]
    taps = impulse * np.hanning(n_taps)
    return 0.5 * (taps + taps[::-1])  # enforce exact symmetry


def design_nalr_fir(
    frequencies: Sequence[float],
    gains_db: Sequence[float],
    n_taps: int = DEFAULT_NALR_TAPS,
    sample_rate: int = 44100,
) -> FirFilter:
    """Realize prescribed per-frequency gains as a linear-phase FIR filter.

    The filter is built by frequency sampling of a dense magnitude grid
    (log-f interpolation of the prescription, held flat outside the anchor
    range) with a raised-cosine window. Because a short window smears the
    steep low-frequency slope, the anchor targets are iteratively
    pre-corrected until the measured response lands on the prescription;
    at 141 taps / 44.1 kHz the anchors come out well inside 1 dB.
    """
    if n_taps % 2 == 0:
        raise ValueError(f"n_taps must be odd, got {n_taps}")
    if n_taps < 65:
        raise ValueError(f"n_taps must be >= 65, got {n_taps}")
    anchors = np.asarray(frequencies, dtype=np.float64)
    gains = np.asarray(gains_db, dtype=np.float64)
    if anchors.shape != gains.shape or anchors.ndim != 1:
        raise ValueError("frequencies and gains must be 1-D and equal length")
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")

    if np.all(gains == 0.0):
        # transparent prescription: an exact centered unit impulse
        taps = np.zeros(n_taps)
        taps[(n_taps - 1) // 2] = 1.0
        return FirFilter(taps, sample_rate)

    nyquist = sample_rate / 2.0
    correctable = anchors < 0.95 * nyquist  # anchors at Nyquist can't be matched
    n_grid = 1 + 2 ** int(np.ceil(np.log2(max(8 * n_taps, 1024))))
    grid_hz = np.linspace(0.0, nyquist, n_grid)

    adjusted = gains.copy()
    taps = None
    for _ in range(_DESIGN_MAX_ITER):
        target_db = _log_f_interp(grid_hz, anchors, adjusted)
        taps = _frequency_sample(10.0 ** (target_db / 20.0), n_taps)
        _, response = freqz(taps, worN=anchors[correctable], fs=sample_rate)
        error = 20.0 * np.log10(np.maximum(np.abs(response), 1e-12)) - gains[correctable]
        if np.max(np.abs(error)) < _DESIGN_TOL_DB:
            break
        adjusted[correctable] -= error
    return FirFilter(taps, sample_rate)


def apply_fir(signal: AudioBuffer, fir: FirFilter) -> AudioBuffer:
    """Convolve each channel with the filter, keeping the input length.

    The output is advanced by the filter's group delay so it stays
    time-aligned with the input.
    """
    if fir.sample_rate != signal.sample_rate:
        raise ValueError(
            f"filter rate {fir.sample_rate} != signal rate {signal.sample_rate}"
        )
    n = signal.n_frames
    out = np.empty_like(signal.samples)
    for ch in range(signal.channels):
        out[ch] = _convolve(signal.samples[ch], fir.taps)[fir.delay : fir.delay + n]
    return signal.with_samples(out)


def nalr_process(
    buffer: AudioBuffer, listener: Listener, n_taps: int = DEFAULT_NALR_TAPS
) -> AudioBuffer:
    """Apply each ear's NAL-R prescription to its channel of a stereo signal."""
    if buffer.channels != 2:
        raise ValueError(f"NAL-R processing needs stereo input, got {buffer.channels} channel(s)")
    out = np.empty_like(buffer.samples)
    for ch, audiogram in enumerate((listener.left, listener.right)):
        gains = nalr_insertion_gains(audiogram)
        fir = design_nalr_fir(audiogram.frequencies, gains, n_taps, buffer.sample_rate)
        channel = AudioBuffer(buffer.samples[ch : ch + 1], buffer.sample_rate)
        out[ch] = apply_fir(channel, fir).samples[0]
    return buffer.with_samples(out)
