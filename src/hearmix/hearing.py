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

import functools
from dataclasses import dataclass
from numbers import Integral
from typing import Sequence

import numpy as np

from .audio import (
    AudioBuffer, _by_rows, _convolve_into, _finite_number, _positive_integer, _read_json
)

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

# singular values of the anchor response below this share of the largest are
# dropped: realizable designs stay under a condition number of about 500, and
# an exact fit of unrealizable ones (2.9e3 and up) rang up to 59 dB over peak
_DESIGN_RCOND = 1e-3

# distinct (ear, taps, rate) designs kept for reuse: a listener panel's
# worth of ears, at about 1 kB of taps each
_NALR_CACHE_SIZE = 64


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
        _check_anchors(freqs, "audiogram frequencies")
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


def _check_anchors(frequencies: Sequence[float], what: str) -> None:
    """Anchor frequencies are finite, positive and strictly ascending;
    otherwise a ValueError names them as ``what``."""
    freqs = [float(f) for f in frequencies]
    if not all(np.isfinite(freqs)):
        raise ValueError(f"{what} must be finite, got {freqs}")
    if any(f <= 0 for f in freqs):
        raise ValueError(f"{what} must be positive, got {freqs}")
    if any(b <= a for a, b in zip(freqs, freqs[1:])):
        raise ValueError(f"{what} must be strictly ascending, got {freqs}")


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

    def numbers(field: str) -> tuple[float, ...]:
        return tuple(_finite_number(value, field) for value in doc[field])

    try:
        freqs = numbers("frequencies")
        return Listener(
            id=str(doc["id"]),
            left=Audiogram(freqs, numbers("left_db_hl")),
            right=Audiogram(freqs, numbers("right_db_hl")),
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
        object.__setattr__(self, "sample_rate", _positive_integer(self.sample_rate, "sample_rate"))

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


def _check_n_taps(n_taps) -> None:
    """A NAL-R filter length is an odd integer from 65 to 65537 taps; the
    upper bound holds the design grid, 8 points per tap, to about a million
    points."""
    if not isinstance(n_taps, Integral) or isinstance(n_taps, bool):
        raise ValueError(f"n_taps must be an integer, got {n_taps!r}")
    if n_taps % 2 == 0:
        raise ValueError(f"n_taps must be odd, got {n_taps}")
    if n_taps < 65:
        raise ValueError(f"n_taps must be >= 65, got {n_taps}")
    if n_taps > 65537:
        raise ValueError(f"n_taps must be <= 65537, got {n_taps}")


@np.errstate(over="ignore", invalid="ignore")
def design_nalr_fir(
    frequencies: Sequence[float],
    gains_db: Sequence[float],
    n_taps: int = DEFAULT_NALR_TAPS,
    sample_rate: int = 44100,
) -> FirFilter:
    """Realize prescribed per-frequency gains as a linear-phase FIR filter.

    The filter is built by frequency sampling of a dense magnitude grid
    (log-f interpolation of the prescription, held flat outside the anchor
    range) with a raised-cosine window. The short window smears the steep
    low-frequency slope, so the grid is corrected by a log-f hat about each
    anchor. The anchor response is linear in those corrections, so one
    least-squares solve lands it on the prescription wherever the length
    and rate can realize it, and stays bounded where they cannot. Anchor
    frequencies follow an audiogram's rule: finite, positive, ascending.
    Gains too large for float64 leave the taps Inf or NaN, which the
    filter rejects.
    """
    sample_rate = _positive_integer(sample_rate, "sample_rate")
    _check_n_taps(n_taps)
    anchors = np.asarray(frequencies, dtype=np.float64)
    gains = np.asarray(gains_db, dtype=np.float64)
    if anchors.shape != gains.shape or anchors.ndim != 1:
        raise ValueError("frequencies and gains must be 1-D and equal length")
    _check_anchors(anchors, "frequencies")
    if not np.all(np.isfinite(gains)):
        raise ValueError("gains must be finite")

    if np.all(gains == 0.0):
        # transparent prescription: an exact centered unit impulse
        taps = np.zeros(n_taps)
        taps[(n_taps - 1) // 2] = 1.0
        return FirFilter(taps, sample_rate)

    nyquist = sample_rate / 2.0
    correctable = anchors < 0.95 * nyquist  # anchors at Nyquist can't be matched
    if not correctable.any():
        raise ValueError(
            f"sample_rate {sample_rate} Hz has no anchor below 0.95 x Nyquist "
            f"({0.95 * nyquist:g} Hz); the lowest is {anchors[0]:g} Hz"
        )
    n_grid = 1 + 2 ** int(np.ceil(np.log2(max(8 * n_taps, 1024))))
    grid_hz = np.linspace(0.0, nyquist, n_grid)

    peak = gains.max()
    shape = 10.0 ** (_log_f_interp(grid_hz, anchors, gains - peak) / 20.0)
    fit = anchors[correctable]
    basis = np.array([
        _frequency_sample(shape * _log_f_interp(grid_hz, fit, hat), n_taps)
        for hat in np.eye(fit.size)
    ])
    # symmetric taps have a real amplitude: a cosine sum about the delay
    lags = np.arange(n_taps) - (n_taps - 1) / 2
    response = np.cos(2.0 * np.pi * np.outer(fit, lags) / sample_rate) @ basis.T
    target = 10.0 ** ((gains[correctable] - peak) / 20.0)
    step = np.linalg.lstsq(response, target - response.sum(1), rcond=_DESIGN_RCOND)[0]
    # summed row by row, so the taps stay exactly symmetric at any scale
    taps = ((1.0 + step)[:, np.newaxis] * basis).sum(axis=0) * 10.0 ** (peak / 20.0)
    return FirFilter(taps, sample_rate)


def apply_fir(signal: AudioBuffer, fir: FirFilter | Sequence[FirFilter]) -> AudioBuffer:
    """Convolve each channel with the filter, keeping the input length.

    ``fir`` is one filter for every channel, or a sequence of filters, one
    per channel. The output is advanced by each filter's group delay so it
    stays time-aligned with the input.
    """
    firs = (fir,) * signal.channels if isinstance(fir, FirFilter) else tuple(fir)
    if len(firs) != signal.channels:
        raise ValueError(f"got {len(firs)} filters for {signal.channels} channel(s)")
    for f in firs:
        if f.sample_rate != signal.sample_rate:
            raise ValueError(
                f"filter rate {f.sample_rate} != signal rate {signal.sample_rate}"
            )
    out = np.empty_like(signal.samples, dtype=np.float64)
    for ch, f in enumerate(firs):
        _convolve_into(
            out[ch : ch + 1], signal.samples[ch : ch + 1], f.taps[np.newaxis, np.newaxis], f.delay
        )
    return signal.with_samples(out)


def nalr_process(
    buffer: AudioBuffer, listener: Listener, n_taps: int = DEFAULT_NALR_TAPS
) -> AudioBuffer:
    """Apply each ear's NAL-R prescription to its channel of a stereo signal."""
    if buffer.channels != 2:
        raise ValueError(f"NAL-R processing needs stereo input, got {buffer.channels} channel(s)")
    out = buffer.samples.astype(np.float64, order="C")
    _nalr_in_place(out, buffer.sample_rate, listener, n_taps)
    return buffer.with_samples(out)


def _nalr_in_place(samples: np.ndarray, sample_rate: int, listener: Listener, n_taps: int) -> None:
    """``nalr_process`` written over float64 stereo ``samples``: each ear's
    filter runs in place on its channel, one row block of ``_by_rows`` at a
    time. A filter that cannot be designed is a ValueError that names the
    listener and the ear."""
    ears = (("left", listener.left), ("right", listener.right))

    def filter_rows(rows: slice) -> None:
        for ch in range(len(ears))[rows]:
            side, ear = ears[ch]
            try:
                fir = _nalr_fir(ear, n_taps, sample_rate)
            except ValueError as exc:
                raise ValueError(f"listener {listener.id!r}, {side} ear: NAL-R design: {exc}") from exc
            row = samples[ch : ch + 1]
            _convolve_into(row, row, fir.taps[np.newaxis, np.newaxis], fir.delay)

    _by_rows(filter_rows, samples.shape[0])


@functools.lru_cache(maxsize=_NALR_CACHE_SIZE)
def _nalr_fir(audiogram: Audiogram, n_taps: int, sample_rate: int) -> FirFilter:
    """One ear's NAL-R filter, designed once per (audiogram, taps, rate).

    Audiograms are frozen and compare by value, so listeners that share an
    ear share its design. The taps are made read-only, since every caller,
    on any thread, gets the same array. Two threads that miss together may
    both design; they get equal filters.
    """
    gains = nalr_insertion_gains(audiogram)
    fir = design_nalr_fir(audiogram.frequencies, gains, n_taps, sample_rate)
    fir.taps.flags.writeable = False
    return fir
