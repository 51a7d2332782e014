"""Signal-to-distortion ratio and per-song enhancement reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .audio import AudioBuffer, ensure_aligned
from .stems import TRACK_NAMES, StemSet

SDR_CAP_DB = 100.0

REPORT_SCHEMA_VERSION = 2


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
    ref_power = float(np.sum(reference.samples**2))
    if ref_power == 0.0:
        raise ValueError("SDR is undefined for an all-zero reference")
    err_power = float(np.sum((reference.samples - estimate.samples) ** 2))
    if err_power == 0.0:
        return SdrScore(SDR_CAP_DB)
    value = 10.0 * np.log10(ref_power / err_power)
    return SdrScore(float(np.clip(value, -SDR_CAP_DB, SDR_CAP_DB)))


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


@dataclass
class EnhanceReport:
    """Everything recorded about one song's trip through the pipeline."""

    song_id: str
    input_loudness_lufs: float | None = None
    clipped_samples: tuple[int, ...] = ()
    clip_trigger_threshold: int = 0
    compressor_applied: bool = False
    stages: list[str] = field(default_factory=list)
    options: dict[str, Any] = field(default_factory=dict)
    error: str | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            **asdict(self),
            "clipped_samples": list(self.clipped_samples),
            "stages": list(self.stages),
        }
