"""End-to-end enhancement: ensemble the stems, repair "other" with the
mixture residual, remix to the listener's gains, normalize loudness to the
input, apply NAL-R amplification, and compress only when enough samples
clip. Also builds ground-truth references and runs manifest batches.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .audio import AudioBuffer, _read_json, db_to_linear, ensure_aligned, read_wav, write_wav
from .hearing import DEFAULT_NALR_TAPS, Listener, load_listener, nalr_process
from .levels import (
    CLIP_TRIGGER_COUNT,
    CompressorParams,
    UndefinedLoudnessError,
    compress,
    count_clipped,
    integrated_loudness,
    normalize_to_loudness,
    should_compress,
)
from .metrics import EnhanceReport
from .stems import (
    TRACK_NAMES,
    StemSet,
    blend_other,
    compute_residual,
    ensemble_average,
    provider_from_spec,
)

# canonical stage order; configurations may skip stages but never reorder them
STAGE_ORDER = (
    "ensemble",
    "residual",
    "remix",
    "normalize",
    "nalr",
    "clip_check",
    "compress",
)

MUTE = float("-inf")


@dataclass(frozen=True)
class GainSpec:
    """Listener-requested per-track remix gains in dB; -inf mutes a track."""

    vocals: float
    drums: float
    bass: float
    other: float

    def __post_init__(self):
        for name in TRACK_NAMES:
            value = float(getattr(self, name))
            if np.isnan(value) or value == float("inf"):
                raise ValueError(f"{name} gain must be finite or -inf (mute), got {value}")
            object.__setattr__(self, name, value)

    def gain(self, track: str) -> float:
        if track not in TRACK_NAMES:
            raise ValueError(f"unknown track {track!r}")
        return getattr(self, track)

    def as_dict(self) -> dict[str, float | str]:
        return {
            name: ("mute" if getattr(self, name) == MUTE else getattr(self, name))
            for name in TRACK_NAMES
        }


def load_gains(path) -> GainSpec:
    """Load a gains JSON file: {"vocals": dB|"mute", "drums": ..., ...}."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: gains file must hold a JSON object")
    missing = [name for name in TRACK_NAMES if name not in doc]
    if missing:
        raise ValueError(f"{path}: gains file missing tracks {missing}")
    values = {}
    for name in TRACK_NAMES:
        raw = doc[name]
        if raw == "mute":
            values[name] = MUTE
        elif isinstance(raw, (int, float)) and not isinstance(raw, bool):
            values[name] = float(raw)
        else:
            raise ValueError(f"{path}: gain for {name} must be a number or \"mute\"")
    return GainSpec(**values)


@dataclass(frozen=True)
class EnhanceOptions:
    """Switches and parameters for one enhancement run."""

    use_residual: bool = True
    use_compressor_heuristic: bool = True
    ensemble_weights: tuple[float, ...] | None = None
    n_taps: int = DEFAULT_NALR_TAPS
    compressor: CompressorParams = field(default_factory=CompressorParams)

    def __post_init__(self):
        if self.ensemble_weights is not None:
            object.__setattr__(self, "ensemble_weights", tuple(self.ensemble_weights))

    def as_dict(self) -> dict[str, Any]:
        weights = self.ensemble_weights
        return {
            **asdict(self),
            "ensemble_weights": list(weights) if weights is not None else None,
        }


def remix(stems: StemSet, gains: GainSpec) -> AudioBuffer:
    """Sum the tracks scaled to the requested gains; muted tracks add zero."""
    first, *rest = TRACK_NAMES
    acc = db_to_linear(gains.gain(first)) * stems.track(first).samples
    for name in rest:
        acc += db_to_linear(gains.gain(name)) * stems.track(name).samples
    return stems.vocals.with_samples(acc)


def _require_stereo(signal: AudioBuffer, caller: str) -> None:
    if signal.channels != 2:
        raise ValueError(f"{caller} needs a stereo mix, got {signal.channels} channel(s)")


def _loudness_target(mixture: AudioBuffer) -> float:
    loudness = integrated_loudness(mixture)
    if not loudness.is_defined:
        raise UndefinedLoudnessError("mixture loudness is undefined; cannot set a target")
    return loudness.value


def _normalize_and_amplify(
    signal: AudioBuffer, target_lufs: float, listener: Listener, n_taps: int
) -> AudioBuffer:
    """The tail shared by ``enhance`` and ``build_reference``."""
    return nalr_process(normalize_to_loudness(signal, target_lufs), listener, n_taps)


def _front_end(
    mix: AudioBuffer,
    stem_sets: Sequence[StemSet],
    gains: GainSpec,
    options: EnhanceOptions,
    stages: list[str],
) -> AudioBuffer:
    """Ensemble, residual repair and remix. The intermediate stem sets are
    freed when this returns, so the rest of the chain holds one signal."""
    stems = ensemble_average(stem_sets, options.ensemble_weights)
    stages.append("ensemble")
    if options.use_residual:
        blended = blend_other(stems.other, compute_residual(mix, stems))
        stems = stems.with_track("other", blended)
        stages.append("residual")
    remixed = remix(stems, gains)
    stages.append("remix")
    return remixed


def enhance(
    mix: AudioBuffer,
    stem_sets: Sequence[StemSet],
    gains: GainSpec,
    listener: Listener,
    options: EnhanceOptions | None = None,
    song_id: str = "",
) -> tuple[AudioBuffer, EnhanceReport]:
    """Run the full enhancement chain on one song.

    Stages run in a fixed order: ensemble averaging, residual repair of the
    "other" track, gain remix, loudness normalization to the input mixture,
    NAL-R amplification, clip counting, and (only when the heuristic fires)
    dynamic-range compression.
    """
    if options is None:
        options = EnhanceOptions()
    if len(stem_sets) == 0:
        raise ValueError("enhance needs at least one stem set")
    ensure_aligned(mix, stem_sets[0].vocals, what="mix and stems")
    _require_stereo(mix, "enhance")

    report = EnhanceReport(song_id=song_id, options=options.as_dict())
    target = report.input_loudness_lufs = _loudness_target(mix)

    signal = _front_end(mix, stem_sets, gains, options, report.stages)
    signal = _normalize_and_amplify(signal, target, listener, options.n_taps)
    report.stages += ["normalize", "nalr"]

    clip_report = count_clipped(signal)
    report.clipped_samples = clip_report.per_channel
    report.clip_trigger_threshold = CLIP_TRIGGER_COUNT
    report.stages.append("clip_check")

    if options.use_compressor_heuristic and should_compress(clip_report):
        signal = compress(signal, options.compressor)
        report.compressor_applied = True
        report.stages.append("compress")

    return signal, report


def build_reference(
    true_stems: StemSet,
    gains: GainSpec,
    listener: Listener,
    options: EnhanceOptions | None = None,
) -> AudioBuffer:
    """Ground-truth enhanced signal from the true stems.

    Remix at the requested gains, normalize to the true mixture's loudness,
    and apply NAL-R. The reference chain never compresses.
    """
    if options is None:
        options = EnhanceOptions()
    _require_stereo(true_stems.vocals, "build_reference")
    target = _loudness_target(remix(true_stems, GainSpec(0.0, 0.0, 0.0, 0.0)))
    return _normalize_and_amplify(remix(true_stems, gains), target, listener, options.n_taps)


@dataclass(frozen=True)
class BatchJob:
    """One manifest entry; paths are resolved against the manifest's folder."""

    song_id: str
    mix_path: Path
    stem_specs: tuple[Any, ...]
    gains_path: Path
    listener_path: Path
    output_path: Path


@dataclass(frozen=True)
class BatchManifest:
    jobs: tuple[BatchJob, ...]
    base_dir: Path


def load_manifest(path) -> BatchManifest:
    """Parse a batch manifest; malformed manifests are fatal."""
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict) or not isinstance(doc.get("jobs"), list):
        raise ValueError(f"{path}: manifest must be an object with a \"jobs\" array")
    base = path.parent
    jobs = []
    seen = set()
    for i, entry in enumerate(doc["jobs"]):
        try:
            song_id = str(entry["song_id"])
            stem_specs = entry["stems"]
            if not isinstance(stem_specs, list) or len(stem_specs) == 0:
                raise ValueError("\"stems\" must be a non-empty array")
            job = BatchJob(
                song_id=song_id,
                mix_path=base / entry["mix"],
                stem_specs=tuple(stem_specs),
                gains_path=base / entry["gains"],
                listener_path=base / entry["listener"],
                output_path=base / entry["out"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad job entry #{i}: {exc}") from exc
        if song_id in seen:
            raise ValueError(f"{path}: duplicate song id {song_id!r}")
        seen.add(song_id)
        jobs.append(job)
    _reject_output_collisions(path, jobs)
    return BatchManifest(jobs=tuple(jobs), base_dir=base)


def _reject_output_collisions(path: Path, jobs: Sequence[BatchJob]) -> None:
    """Two jobs writing one file, or a job overwriting a mix, is fatal: the
    threads would race and every job would still report success."""
    writers: dict[Path, int] = {}
    for i, job in enumerate(jobs):
        out = job.output_path.resolve()
        if out in writers:
            j = writers[out]
            raise ValueError(
                f"{path}: jobs #{j} ({jobs[j].song_id!r}) and #{i} ({job.song_id!r}) "
                f"both write {job.output_path}"
            )
        writers[out] = i
    for j, job in enumerate(jobs):
        i = writers.get(job.mix_path.resolve())
        if i is not None:
            raise ValueError(
                f"{path}: job #{i} ({jobs[i].song_id!r}) writes {jobs[i].output_path}, "
                f"the mix of job #{j} ({job.song_id!r})"
            )


def run_job(job: BatchJob, base_dir: Path, options: EnhanceOptions) -> EnhanceReport:
    """Load one job's inputs, enhance the song and write its output, creating
    the output folder. Stem specs resolve against ``base_dir``. Errors propagate."""
    mix = read_wav(job.mix_path)
    stem_sets = [provider_from_spec(spec, base_dir).stems() for spec in job.stem_specs]
    gains = load_gains(job.gains_path)
    listener = load_listener(job.listener_path)
    output, report = enhance(mix, stem_sets, gains, listener, options, song_id=job.song_id)
    job.output_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(output, job.output_path)
    return report


def run_batch(
    manifest: BatchManifest,
    options: EnhanceOptions | None = None,
    workers: int = 1,
) -> list[EnhanceReport]:
    """Run every manifest job on ``workers`` threads, isolating per-job failures.

    Failed jobs yield a report with the ``error`` field set instead of
    aborting the batch; reports come back in manifest order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if options is None:
        options = EnhanceOptions()

    def isolated(job: BatchJob) -> EnhanceReport:
        try:
            return run_job(job, manifest.base_dir, options)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
            return EnhanceReport(song_id=job.song_id, options=options.as_dict(), error=error)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(isolated, manifest.jobs))
