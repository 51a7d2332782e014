"""Stem sets, stem providers, ensemble averaging, residual repair, and
salient-segment selection.

A stem set holds the four time-aligned component tracks of one song:
vocals, drums, bass, other. Providers stand in for the upstream separators:
a directory of per-track WAVs, or ground truth corrupted with seeded
noise for controlled experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .audio import AudioBuffer, ensure_aligned, read_wav

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

    def with_track(self, name: str, buffer: AudioBuffer) -> "StemSet":
        if name not in TRACK_NAMES:
            raise ValueError(f"unknown track {name!r}; expected one of {TRACK_NAMES}")
        return replace(self, **{name: buffer})

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

    def stems(self) -> StemSet:
        buffers = {}
        for name in TRACK_NAMES:
            path = self.directory / f"{name}.wav"
            if not path.exists():
                raise FileNotFoundError(f"missing stem file: {path}")
            buffers[name] = read_wav(path)
        return StemSet(**buffers)


class NoisyOracleStemProvider:
    """Ground truth plus seeded white Gaussian noise at a per-track SNR.

    ``snr_db`` is measured against each track's own power; a silent track
    stays silent. The seed is mandatory so ensemble experiments reproduce.
    """

    def __init__(self, stem_set: StemSet, snr_db: float | Mapping[str, float], seed: int):
        self._stems = stem_set
        if isinstance(snr_db, Mapping):
            self._snr = {name: float(snr_db[name]) for name in TRACK_NAMES}
        else:
            self._snr = {name: float(snr_db) for name in TRACK_NAMES}
        self._seed = int(seed)

    def stems(self) -> StemSet:
        rng = np.random.default_rng(self._seed)
        noisy = {}
        for name in TRACK_NAMES:
            clean = self._stems.track(name)
            power = float(np.mean(clean.samples**2))
            if power == 0.0:
                noisy[name] = clean
                continue
            noise_power = power / 10.0 ** (self._snr[name] / 10.0)
            noise = rng.normal(0.0, np.sqrt(noise_power), clean.samples.shape)
            noisy[name] = clean.with_samples(clean.samples + noise)
        return StemSet(**noisy)


def provider_from_spec(spec, base_dir=None):
    """Build a provider from a manifest entry.

    A bare string is a stem directory. Objects take
    ``{"kind": "directory", "path": ...}`` or
    ``{"kind": "noisy_oracle", "path": ..., "snr_db": ..., "seed": ...}``.
    """
    base = Path(base_dir) if base_dir is not None else Path(".")
    if isinstance(spec, str):
        return DirectoryStemProvider(base / spec)
    if not isinstance(spec, Mapping):
        raise ValueError(f"stem provider spec must be a path or object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "directory":
        return DirectoryStemProvider(base / spec["path"])
    if kind == "noisy_oracle":
        truth = DirectoryStemProvider(base / spec["path"]).stems()
        return NoisyOracleStemProvider(truth, spec["snr_db"], spec["seed"])
    raise ValueError(f"unknown stem provider kind {kind!r}")


def ensemble_average(
    stem_sets: Sequence[StemSet], weights: Sequence[float] | None = None
) -> StemSet:
    """Track-by-track weighted mean of several stem sets.

    Weights default to equal, must be non-negative with a positive sum, and
    are normalized to sum to 1.
    """
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
        if np.any(w < 0.0):
            raise ValueError("ensemble weights must be non-negative")
    total = w.sum()
    if total <= 0.0:
        raise ValueError("ensemble weights must not all be zero")

    # sum first, divide once: keeps equal-weight averages and one-hot
    # selections exact
    averaged = {}
    for name in TRACK_NAMES:
        acc = np.zeros_like(stem_sets[0].track(name).samples)
        for weight, stem_set in zip(w, stem_sets):
            acc += weight * stem_set.track(name).samples
        acc /= total
        averaged[name] = stem_sets[0].track(name).with_samples(acc)
    return StemSet(**averaged)


def compute_residual(mix: AudioBuffer, stems: StemSet) -> AudioBuffer:
    """Mixture minus the predicted vocals, drums, and bass."""
    ensure_aligned(mix, stems.vocals, what="mix and stems")
    residual = (
        mix.samples - stems.vocals.samples - stems.drums.samples - stems.bass.samples
    )
    return mix.with_samples(residual)


def blend_other(
    predicted_other: AudioBuffer, residual: AudioBuffer, weight: float = 0.5
) -> AudioBuffer:
    """Average the predicted "other" track with the mixture residual.

    ``weight`` is the share given to the prediction; the default 0.5 is a
    plain average.
    """
    ensure_aligned(predicted_other, residual, what="predicted other and residual")
    if not 0.0 <= weight <= 1.0:
        raise ValueError(f"blend weight must be in [0, 1], got {weight}")
    blended = weight * predicted_other.samples + (1.0 - weight) * residual.samples
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
    if segment_frames <= 0:
        raise ValueError("segment_frames must be positive")
    if not 0.0 <= ratio_threshold <= 1.0:
        raise ValueError("ratio_threshold must be in [0, 1]")

    n_windows = stems.n_frames // segment_frames
    energies = {}
    for name in TRACK_NAMES:
        x = stems.track(name).samples[:, : n_windows * segment_frames]
        per_frame = np.sum(x * x, axis=0)
        energies[name] = per_frame.reshape(n_windows, segment_frames).sum(axis=1)

    total = sum(energies[name] for name in TRACK_NAMES)
    segments = []
    for i in range(n_windows):
        ratio = float(energies[track][i] / total[i]) if total[i] > 0.0 else 0.0
        if ratio >= ratio_threshold:
            segments.append(
                Segment(
                    start=i * segment_frames,
                    length=segment_frames,
                    track=track,
                    energy_ratio=ratio,
                )
            )
    return segments
