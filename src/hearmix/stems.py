"""Stem sets, stem providers, ensemble averaging, residual repair, and
salient-segment selection.

A stem set holds the four time-aligned component tracks of one song:
vocals, drums, bass, other. Providers stand in for the upstream separators:
a directory of per-track WAVs, or ground truth corrupted with seeded
noise for controlled experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio import (
    AlignmentError,
    AudioBuffer,
    _chunks,
    _finite_number,
    _positive_integer,
    _segment_sums,
    _song_span,
    _weighted_sum,
    ensure_aligned,
    read_wav,
)

TRACK_NAMES = ("vocals", "drums", "bass", "other")


@dataclass(frozen=True, eq=False)
class StemSet:
    """The four VDBO tracks of one song, sample-aligned."""

    vocals: AudioBuffer
    drums: AudioBuffer
    bass: AudioBuffer
    other: AudioBuffer

    def __post_init__(self):
        ensure_aligned(*self.buffers(), what="stems")

    def buffers(self) -> tuple[AudioBuffer, ...]:
        return (self.vocals, self.drums, self.bass, self.other)

    def track(self, name: str) -> AudioBuffer:
        if name not in TRACK_NAMES:
            raise ValueError(f"unknown track {name!r}; expected one of {TRACK_NAMES}")
        return getattr(self, name)

    def as_dict(self) -> dict[str, AudioBuffer]:
        return {name: getattr(self, name) for name in TRACK_NAMES}

    @property
    def sample_rate(self) -> int:
        return self.vocals.sample_rate

    @property
    def n_frames(self) -> int:
        return self.vocals.n_frames


@dataclass(frozen=True)
class Segment:
    """One analysis window where a track holds a share of the song energy."""

    start: int
    length: int
    track: str
    energy_ratio: float


class DirectoryStemProvider:
    """Reads vocals.wav / drums.wav / bass.wav / other.wav from a folder."""

    def __init__(self, directory):
        self.directory = Path(directory)

    def files(self) -> dict[str, Path]:
        return {name: self.directory / f"{name}.wav" for name in TRACK_NAMES}

    def stems(self) -> StemSet:
        buffers = {}
        for name, path in self.files().items():
            if not path.exists():
                raise FileNotFoundError(f"missing stem file: {path}")
            buffers[name] = read_wav(path)
        try:
            return StemSet(**buffers)
        except AlignmentError as exc:
            raise AlignmentError(f"{self.directory}: {exc}") from None


class NoisyOracleStemProvider:
    """Ground truth plus seeded white Gaussian noise at a per-track SNR.

    ``snr_db`` is measured against each track's own power; a silent track
    stays silent. It is a finite number or a map of exactly the four tracks
    to finite numbers, each with a power ratio ``10 ** (snr_db / 10)``
    that is a positive finite float. A track whose noise power overflows
    fails in ``stems``. The seed, a non-negative integer, is mandatory so
    ensemble experiments reproduce. Booleans are neither.
    """

    def __init__(self, stem_set: StemSet, snr_db: float | Mapping[str, float], seed: int):
        self._stems = stem_set
        if isinstance(snr_db, Mapping):
            if set(snr_db) != set(TRACK_NAMES):
                raise ValueError(
                    f"snr_db map must name exactly the tracks {list(TRACK_NAMES)}, "
                    f"got {sorted(map(str, snr_db))}"
                )
            fields = {name: (snr_db[name], f"snr_db.{name}") for name in TRACK_NAMES}
        else:
            fields = dict.fromkeys(TRACK_NAMES, (snr_db, "snr_db"))
        # each track's power ratio and the field that set it
        self._snr = {
            name: (_power_ratio(value, field), field) for name, (value, field) in fields.items()
        }
        if not isinstance(seed, Integral) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
        self._seed = int(seed)

    def stems(self) -> StemSet:
        rng = np.random.default_rng(self._seed)
        noisy = {}
        for name in TRACK_NAMES:
            clean = self._stems.track(name)
            with np.errstate(over="ignore"):  # an infinite power fails below
                power = float(np.mean(np.square(clean.samples, dtype=np.float64)))
            if power == 0.0:
                noisy[name] = clean
                continue
            ratio, field = self._snr[name]
            noise_power = power / ratio
            if noise_power == math.inf:
                raise ValueError(f"{field} makes the {name} track's noise power overflow float64")
            noise = rng.normal(0.0, np.sqrt(noise_power), clean.samples.shape)
            noisy[name] = clean.with_samples(clean.samples + noise)
        return StemSet(**noisy)


def _power_ratio(snr_db, field: str) -> float:
    """``10 ** (snr_db / 10)`` when it is a positive finite float, or a
    ValueError naming ``field``."""
    snr = _finite_number(snr_db, field)
    try:
        ratio = 10.0 ** (snr / 10.0)
    except OverflowError:
        ratio = math.inf
    if not 0.0 < ratio < math.inf:
        raise ValueError(
            f"{field} must have a power ratio 10 ** ({field} / 10) that is a positive "
            f"finite float, got {snr!r}"
        )
    return ratio


def provider_from_spec(spec, base_dir) -> DirectoryStemProvider | NoisyOracleStemProvider:
    """Build a provider from a manifest entry, resolving folders against ``base_dir``.

    A string is a stem folder. An object is
    ``{"kind": "noisy_oracle", "path": folder, "snr_db": ..., "seed": ...}``.
    """
    if isinstance(spec, str):
        return DirectoryStemProvider(Path(base_dir) / spec)
    if not isinstance(spec, Mapping):
        raise ValueError(f"stem provider spec must be a path or object, got {spec!r}")
    kind = spec.get("kind")
    if kind != "noisy_oracle":
        raise ValueError(f"unknown stem provider kind {kind!r}")
    missing = [key for key in ("path", "snr_db", "seed") if key not in spec]
    if missing:
        raise ValueError(f"noisy_oracle spec is missing {missing}")
    if not isinstance(spec["path"], str):
        raise ValueError(f"noisy_oracle path must be a string, got {spec['path']!r}")
    truth = DirectoryStemProvider(Path(base_dir) / spec["path"]).stems()
    return NoisyOracleStemProvider(truth, spec["snr_db"], spec["seed"])


def _spec_files(spec, base_dir: Path) -> dict[str, Path]:
    """The stem files a manifest spec reads, by track; none when the spec
    names no folder (``provider_from_spec`` rejects it when the job runs)."""
    if isinstance(spec, Mapping) and spec.get("kind") == "noisy_oracle":
        spec = spec.get("path")
    if not isinstance(spec, str):
        return {}
    return DirectoryStemProvider(base_dir / spec).files()


def ensemble_average(
    stem_sets: Sequence[StemSet], weights: Sequence[float] | None = None
) -> StemSet:
    """Track-by-track weighted mean of several stem sets.

    Weights default to equal, must be finite and non-negative with a
    positive, finite sum, and are normalized to sum to 1. Weights that
    overflow a track's weighted sum are rejected; the error names the
    first such track in ``TRACK_NAMES`` order.
    """
    w, total = _ensemble_weights(stem_sets, weights)
    overflow = f"ensemble weights {w.tolist()} overflow the weighted sum of the {{}} track"
    tracks = {}
    for name in TRACK_NAMES:
        terms = [(wk, s.track(name).samples) for wk, s in zip(w, stem_sets)]
        # (w[0]*x[0] + w[1]*x[1] + ...) + 0.0, divided once, keeps
        # equal-weight averages and one-hot selections exact; adding
        # 0.0 makes a -0.0 sum +0.0, as summing onto zeros would
        mean = _weighted_sum(terms, overflow.format(name))
        mean += 0.0
        mean /= total
        tracks[name] = stem_sets[0].vocals.with_samples(mean)
    return StemSet(**tracks)


def _ensemble_weights(
    stem_sets: Sequence[StemSet], weights: Sequence[float] | None
) -> tuple[np.ndarray, np.float64]:
    """Validate an ensemble; return its weights and their sum."""
    if len(stem_sets) == 0:
        raise ValueError("ensemble_average needs at least one stem set")
    # each set is internally aligned, so one track pins the whole set
    ensure_aligned(*(s.vocals for s in stem_sets), what="ensemble stem sets")

    if weights is None:
        w = np.ones(len(stem_sets))
    else:
        if len(weights) != len(stem_sets):
            raise ValueError(
                f"got {len(weights)} weights for {len(stem_sets)} stem sets"
            )
        w = np.asarray(weights, dtype=np.float64)
        if not np.all(np.isfinite(w)):
            raise ValueError("ensemble weights must be finite")
        if np.any(w < 0.0):
            raise ValueError("ensemble weights must be non-negative")
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        raise ValueError(f"ensemble weights must have a finite sum, got {total}")
    if total <= 0.0:
        raise ValueError("ensemble weights must not all be zero")
    return w, total


def compute_residual(mix: AudioBuffer, stems: StemSet) -> AudioBuffer:
    """Mixture minus the predicted vocals, drums, and bass. A difference
    beyond float64 is a ValueError."""
    ensure_aligned(mix, stems.vocals, what="mix and stems")
    terms = [(1.0, mix.samples)]
    terms += [(-1.0, track.samples) for track in (stems.vocals, stems.drums, stems.bass)]
    return mix.with_samples(_weighted_sum(terms, "the residual overflows float64"))


def blend_other(predicted_other: AudioBuffer, residual: AudioBuffer) -> AudioBuffer:
    """The midpoint of the predicted "other" track and the mixture residual.

    Halving is exact, so ``(p + r) * 0.5`` equals ``0.5*p + 0.5*r`` bit for
    bit outside the subnormal range, with one song-sized array instead of
    two. A sum beyond float64 is a ValueError.
    """
    ensure_aligned(predicted_other, residual, what="predicted other and residual")
    terms = [(1.0, predicted_other.samples), (1.0, residual.samples)]
    blended = _weighted_sum(terms, "the blend of other and residual overflows float64")
    blended *= 0.5
    return predicted_other.with_samples(blended)


def salient_segments(
    stems: StemSet,
    track: str,
    segment_frames: int | None = None,
    ratio_threshold: float = 0.1,
) -> list[Segment]:
    """Non-overlapping windows where one track dominates the song energy.

    The song is tiled into full windows of ``segment_frames`` (default
    6 seconds). For each window the track's energy share of the four-stem
    total is computed (0 when the window is silent); windows at or above
    ``ratio_threshold`` are returned in order.
    """
    if track not in TRACK_NAMES:
        raise ValueError(f"unknown track {track!r}; expected one of {TRACK_NAMES}")
    if segment_frames is None:
        segment_frames = 6 * stems.sample_rate
    segment_frames = _positive_integer(segment_frames, "segment_frames")
    ratio_threshold = _finite_number(ratio_threshold, "ratio_threshold")
    if not 0.0 <= ratio_threshold <= 1.0:
        raise ValueError(f"ratio_threshold must be in [0, 1], got {ratio_threshold}")

    n_windows = stems.n_frames // segment_frames
    # each track squared a span at a time into one span of scratch
    edges = np.arange(n_windows) * segment_frames
    end = n_windows * segment_frames
    span = _song_span(end)
    scratch = np.empty((stems.vocals.channels, min(span, end)))
    energies = {}
    for name in TRACK_NAMES:
        samples = stems.track(name).samples
        energies[name] = energy = np.zeros(n_windows)
        for frames in _chunks(end, span):
            square = scratch[:, : frames.stop - frames.start]
            np.multiply(samples[:, frames], samples[:, frames], out=square, dtype=np.float64)
            where, part = _segment_sums(edges, frames, square)
            energy[where] += part

    total = sum(energies.values())
    # a silent window's share is 0
    ratios = np.divide(energies[track], total, out=np.zeros(n_windows), where=total > 0.0)
    return [
        Segment(int(i) * segment_frames, segment_frames, track, float(ratios[i]))
        for i in np.flatnonzero(ratios >= ratio_threshold)
    ]
