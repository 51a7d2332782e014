"""Signal-to-distortion ratio and per-song enhancement reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .audio import AudioBuffer, _chunks, _song_span, ensure_aligned
from .stems import TRACK_NAMES, StemSet

SDR_CAP_DB = 100.0

REPORT_SCHEMA_VERSION = 3


@dataclass(frozen=True)
class SdrScore:
    """SDR in dB, capped to ±100 so identical signals stay finite."""

    value: float


def sdr(reference: AudioBuffer, estimate: AudioBuffer) -> SdrScore:
    """Plain SDR: 10·log10 of reference power over error power.

    Summed over all channels and frames; not scale- or
    permutation-invariant. A zero-error estimate hits the +100 dB cap.
    """
    ensure_aligned(reference, estimate, what="reference and estimate")
    ref_power, err_power = _powers(reference.samples, estimate.samples)
    if ref_power == 0.0:
        raise ValueError("SDR is undefined for an all-zero reference")
    if err_power == 0.0:
        return SdrScore(SDR_CAP_DB)
    value = 10.0 * np.log10(ref_power / err_power)
    return SdrScore(float(np.clip(value, -SDR_CAP_DB, SDR_CAP_DB)))


def _powers(reference: np.ndarray, estimate: np.ndarray) -> tuple[float, float]:
    """The summed squares of ``reference`` and of ``reference - estimate``,
    span by span of the front end's walk through one span of float64
    scratch: each span of the reference is copied into it, its squares
    summed, then the estimate subtracted in place."""
    ref_power = err_power = 0.0
    n_frames = reference.shape[1]
    span = _song_span(n_frames)
    scratch = np.empty_like(reference[:, :span], dtype=np.float64)
    for frames in _chunks(n_frames, span):
        x = scratch[:, : frames.stop - frames.start]
        x[...] = reference[:, frames]
        ref_power += float(np.einsum("ij,ij->", x, x))
        x -= estimate[:, frames]
        err_power += float(np.einsum("ij,ij->", x, x))
    return ref_power, err_power


@dataclass(frozen=True)
class SdrBreakdown:
    """Overall SDR plus optional per-track scores."""

    overall_db: float
    per_track_db: dict[str, float] | None = None


def evaluate_song(
    reference: AudioBuffer,
    estimate: AudioBuffer,
    per_track_refs: StemSet | None = None,
    per_track_ests: StemSet | None = None,
) -> SdrBreakdown:
    """Score an enhanced song against its reference.

    Per-track scores are filled in only when both stem sets are supplied.
    """
    overall = sdr(reference, estimate).value
    per_track = None
    if per_track_refs is not None and per_track_ests is not None:
        per_track = {
            name: sdr(per_track_refs.track(name), per_track_ests.track(name)).value
            for name in TRACK_NAMES
        }
    elif per_track_refs is not None or per_track_ests is not None:
        raise ValueError("per-track SDR needs both reference and estimate stems")
    return SdrBreakdown(overall_db=overall, per_track_db=per_track)


@dataclass(frozen=True)
class EnhanceReport:
    """Everything recorded about one song's trip through the pipeline."""

    song_id: str
    input_loudness_lufs: float | None = None
    clipped_samples: tuple[int, ...] = ()
    compressor_applied: bool = False
    stages: tuple[str, ...] = ()
    options: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **asdict(self),
            "clipped_samples": list(self.clipped_samples),
            "stages": list(self.stages),
        }
