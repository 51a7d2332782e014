"""End-to-end enhancement: ensemble the stems, repair "other" with the
mixture residual, remix to the listener's gains, normalize loudness to the
input, apply NAL-R amplification, and compress only when enough samples
clip. Also builds ground-truth references and runs manifest batches.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Iterator, Sequence

import numpy as np

from .audio import (
    AlignmentError,
    AudioBuffer,
    _finite_number,
    _read_json,
    _weighted_sum,
    db_to_linear,
    ensure_aligned,
    read_wav,
    write_wav,
)
from .hearing import DEFAULT_NALR_TAPS, Listener, _check_n_taps, _nalr_in_place, load_listener
from .levels import (
    CompressorParams,
    UndefinedLoudnessError,
    _compress_in_place,
    _integrated_lufs,
    _normalize_in_place,
    count_clipped,
    integrated_loudness,
    should_compress,
)
from .metrics import EnhanceReport
from .stems import (
    TRACK_NAMES,
    StemSet,
    _ensemble_weights,
    _spec_files,
    blend_other,  # unused: perfbench's zero-call test deletes pipeline.blend_other
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
_OVERFLOW = "the remix at gains {} overflows float64"


@dataclass(frozen=True)
class GainSpec:
    """Listener-requested per-track remix gains in dB; -inf mutes a track."""

    vocals: float
    drums: float
    bass: float
    other: float

    def __post_init__(self):
        for name in TRACK_NAMES:
            value = getattr(self, name)
            value = MUTE if value == MUTE else _finite_number(value, f"{name} gain (or -inf to mute)")
            try:
                db_to_linear(value)
            except OverflowError:
                raise ValueError(f"{name} gain of {value} dB has no finite linear factor") from None
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


_UNIT_GAINS = GainSpec(0.0, 0.0, 0.0, 0.0)


def load_gains(path) -> GainSpec:
    """Load a gains JSON file: {"vocals": dB|"mute", "drums": ..., ...}.

    Each gain is a finite number of dB; only "mute" mutes a track.
    """
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
        else:
            values[name] = _finite_number(raw, f"{path}: gain for {name}")
    try:
        return GainSpec(**values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class EnhanceOptions:
    """Switches and parameters for one enhancement run."""

    use_residual: bool = True
    use_compressor_heuristic: bool = True
    ensemble_weights: tuple[float, ...] | None = None
    n_taps: int = DEFAULT_NALR_TAPS
    compressor: CompressorParams = field(default_factory=CompressorParams)

    def __post_init__(self):
        _check_n_taps(self.n_taps)
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
    return stems.vocals.with_samples(_front_end([stems], gains))


def _require_stereo(signal: AudioBuffer, caller: str) -> None:
    if signal.channels != 2:
        raise ValueError(f"{caller} needs a stereo mix, got {signal.channels} channel(s)")


def _loudness_target(mixture_lufs: float | None) -> float:
    if mixture_lufs is None:
        raise UndefinedLoudnessError("mixture loudness is undefined; cannot set a target")
    return mixture_lufs


def _front_end(
    stem_sets: Sequence[StemSet],
    gains: GainSpec,
    weights: Sequence[float] | None = None,
    mix: AudioBuffer | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Ensemble, residual repair (only when ``mix`` is given) and remix as
    one weighted sum over the separators' tracks and the mix, written over
    ``out``, or into a new array that the caller owns.

    All three stages are linear, so each input gets one coefficient. Track
    ``t`` of separator ``k`` gets ``c_t * (w_k / W)`` for ensemble weights
    ``w`` summing to ``W``. Without residual repair ``c_t`` is the track's
    linear gain ``g_t``. With it, ``g_o * (o + mix - v - d - b) / 2`` gives
    vocals, drums and bass ``g_t - g_o/2``, "other" ``g_o/2``, and the mix
    joins as a last term of ``g_o/2``. Terms run in ``TRACK_NAMES`` order,
    separators in order within a track, then the mix. One separator at
    unit weight is ``w_k / W = 1.0``, so its tracks keep their plain gains.
    """
    w, total = _ensemble_weights(stem_sets, weights)
    scales = {name: db_to_linear(gains.gain(name)) for name in TRACK_NAMES}
    half_other = scales["other"] / 2
    terms = []
    for name in TRACK_NAMES:
        scale = scales[name]
        if mix is not None:
            scale = half_other if name == "other" else scale - half_other
        terms += [(scale * (wk / total), s.track(name).samples) for wk, s in zip(w, stem_sets)]
    if mix is not None:
        terms.append((half_other, mix.samples))
    return _weighted_sum(terms, _OVERFLOW.format(gains.as_dict()), out)


@dataclass(frozen=True, eq=False)
class _SharedMix(AudioBuffer):
    """A mixture that batch jobs share, with its loudness measured at its load."""

    lufs: float | None


def _load_mix(path: Path) -> _SharedMix:
    """Decode and measure a mixture; a rate the meter refuses names the file."""
    mix = read_wav(path)
    try:
        lufs = integrated_loudness(mix).value
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return _SharedMix(mix.samples, mix.sample_rate, lufs)


def _mix_lufs(mix: AudioBuffer) -> float | None:
    """The mixture's integrated loudness; a shared mix's was measured at its load."""
    if isinstance(mix, _SharedMix):
        return mix.lufs
    return integrated_loudness(mix).value


def _chain(
    samples: np.ndarray, rate: int, target: float, listener: Listener, n_taps: int
) -> AudioBuffer:
    """Loudness normalization to ``target`` and NAL-R, written over the
    remixed ``samples``, as a buffer that views them; samples beyond
    float64 are a ValueError that names the listener and both stages."""
    _normalize_in_place(samples, rate, target)
    _nalr_in_place(samples, rate, listener, n_taps)
    try:
        return AudioBuffer(samples, rate)
    except ValueError as exc:
        raise ValueError(
            f"listener {listener.id!r}: loudness normalization and NAL-R overflow float64: {exc}"
        ) from exc


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

    target = _loudness_target(_mix_lufs(mix))

    # one song-sized array: the front end allocates it, and every later
    # stage measures or rewrites it in place
    residual_mix = mix if options.use_residual else None
    samples = _front_end(stem_sets, gains, options.ensemble_weights, residual_mix)
    # read-only: the compressor writes `samples`
    signal = _chain(samples, mix.sample_rate, target, listener, options.n_taps)
    clip_report = count_clipped(signal)
    compressed = bool(options.use_compressor_heuristic) and should_compress(clip_report)
    if compressed:
        _compress_in_place(samples, mix.sample_rate, options.compressor)

    ran = {"residual": options.use_residual, "compress": compressed}
    return signal, EnhanceReport(
        song_id=song_id, input_loudness_lufs=target, clipped_samples=clip_report.per_channel,
        compressor_applied=compressed, options=options.as_dict(),
        stages=tuple(stage for stage in STAGE_ORDER if ran.get(stage, True)),
    )


def build_reference(true_stems: StemSet, gains: GainSpec, listener: Listener) -> AudioBuffer:
    """Ground-truth enhanced signal from the true stems.

    Remix at the requested gains, normalize to the true mixture's loudness,
    and apply NAL-R with ``DEFAULT_NALR_TAPS`` taps. The reference chain
    never compresses. The true mixture, the tracks' plain sum (the remix at
    0 dB, since ``x * 1.0`` is ``x``), is written into the output and
    measured, then the remix overwrites it, so one song-sized array serves
    both.
    """
    _require_stereo(true_stems.vocals, "build_reference")
    rate = true_stems.sample_rate
    samples = _front_end([true_stems], _UNIT_GAINS)
    target = _loudness_target(_integrated_lufs(samples, rate))
    _front_end([true_stems], gains, out=samples)
    return _chain(samples, rate, target, listener, DEFAULT_NALR_TAPS)


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


def _job_inputs(job: BatchJob, base: Path) -> Iterator[tuple[str, Path]]:
    """Every file a job reads, with what it is; stem specs resolve against ``base``."""
    yield "mix", job.mix_path
    yield "gains file", job.gains_path
    yield "listener file", job.listener_path
    for spec in job.stem_specs:
        for name, file in _spec_files(spec, base).items():
            yield f"{name} stem", file


def _reject_output_collisions(path: Path, jobs: Sequence[BatchJob]) -> None:
    """Two jobs writing one file, or a job overwriting any job's input
    (its own included), is fatal: the threads would race and every job
    would still report success."""
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
        for what, source in _job_inputs(job, path.parent):
            i = writers.get(source.resolve())
            if i is not None:
                raise ValueError(
                    f"{path}: job #{i} ({jobs[i].song_id!r}) writes {jobs[i].output_path}, "
                    f"the {what} of job #{j} ({job.song_id!r})"
                )


def _song_loads(job: BatchJob, base_dir: Path) -> Iterator[tuple[str, Any]]:
    """A key and a loader for each file set of a job, in the order they are
    loaded: the measured mixture ("mix"), then each stem spec (its sorted
    JSON). Buffers are read-only, so jobs can share what a loader returns."""
    yield "mix", lambda: _load_mix(job.mix_path)
    for spec in job.stem_specs:
        yield json.dumps(spec, sort_keys=True), lambda spec=spec: (
            provider_from_spec(spec, base_dir).stems()
        )


class _Group:
    """The jobs of a manifest that name the same mixture, and the mixture
    and stem sets they share once one of them has loaded each."""

    def __init__(self):
        self.pending: deque[int] = deque()  # manifest indexes not yet started
        self.unfinished = 0
        self._lock = threading.Lock()
        # by _song_loads key: the loaded file set, or the error its load raised
        self._loaded: dict[str, Any] = {}

    def song(self, job: BatchJob, base_dir: Path) -> tuple[_SharedMix, list[StemSet]]:
        """The job's mixture and stem sets. The first of its loads that
        failed raises its error again, for every job that names it."""
        parts = []
        with self._lock:
            for key, load in _song_loads(job, base_dir):
                if key not in self._loaded:
                    try:
                        self._loaded[key] = load()
                    except Exception as exc:
                        # without its traceback the error keeps no loader frames alive
                        self._loaded[key] = exc.with_traceback(None)
                if isinstance(self._loaded[key], Exception):
                    raise self._loaded[key]
                parts.append(self._loaded[key])
        mix, *stem_sets = parts
        return mix, stem_sets

    def drop(self) -> None:
        self._loaded = {}


def _run(group: _Group, job: BatchJob, base_dir: Path, options: EnhanceOptions) -> EnhanceReport:
    """Take the job's song from ``group``, load its gains and listener,
    enhance the song and write the output, creating the output folder."""
    mix, stem_sets = group.song(job, base_dir)
    for spec, stem_set in zip(job.stem_specs, stem_sets):
        try:
            ensure_aligned(mix, stem_set.vocals, what="mix and stems")
        except AlignmentError as exc:
            folder = _spec_files(spec, base_dir)["vocals"].parent
            raise AlignmentError(f"{job.mix_path} and {folder}: {exc}") from None
    gains = load_gains(job.gains_path)
    listener = load_listener(job.listener_path)
    output, report = enhance(mix, stem_sets, gains, listener, options, song_id=job.song_id)
    job.output_path.parent.mkdir(parents=True, exist_ok=True)
    write_wav(output, job.output_path)
    return report


def run_job(job: BatchJob, base_dir: Path, options: EnhanceOptions) -> EnhanceReport:
    """Run one job as a batch group of one. Stem specs resolve against
    ``base_dir``. Errors propagate."""
    return _run(_Group(), job, base_dir, options)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _group_jobs(jobs: Sequence[BatchJob]) -> list[_Group]:
    """Jobs grouped by resolved mixture path, in order of first appearance."""
    groups: dict[Path, _Group] = {}
    for i, job in enumerate(jobs):
        group = groups.setdefault(job.mix_path.resolve(), _Group())
        group.pending.append(i)
        group.unfinished += 1
    return list(groups.values())


class _Schedule:
    """Hands jobs to ``workers`` threads with at most ``workers`` groups,
    and so songs, open at once.

    A free thread opens the next group while fewer than ``workers`` are
    open, and otherwise takes the next pending job of the oldest open
    group. A group stays open while it has a job pending or running, so
    one of the open groups always has a job for a free thread.
    """

    def __init__(self, groups: list[_Group], workers: int):
        self._unopened = deque(groups)
        self._open: list[_Group] = []
        self._workers = workers
        self._lock = threading.Lock()

    def take(self) -> tuple[_Group, int] | None:
        with self._lock:
            if len(self._open) < self._workers and self._unopened:
                group = self._unopened.popleft()
                self._open.append(group)
            else:
                group = next((g for g in self._open if g.pending), None)
                if group is None:
                    return None
            return group, group.pending.popleft()

    def done(self, group: _Group) -> None:
        with self._lock:
            group.unfinished -= 1
            if not group.unfinished:
                self._open.remove(group)
                group.drop()


def run_batch(manifest: BatchManifest, workers: int = 1) -> list[EnhanceReport]:
    """Run every manifest job on ``workers`` threads with the default
    ``EnhanceOptions``, isolating per-job failures.

    A batch that needs one thread (one worker, or one job) runs on the
    calling thread, so on the main thread its stereo stages may split over
    two CPUs (``audio._by_rows``); two or more workers run on pool threads
    and never split a song.

    Jobs that name the same mixture share one read-only load of it, one
    measurement of its loudness and one load of each stem spec they name;
    at most ``workers`` songs (mixtures and their stem sets) are loaded at
    once. Failed jobs yield a report with the ``error`` field set instead
    of aborting the batch; reports come back in manifest order.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    options = EnhanceOptions()
    jobs = manifest.jobs
    reports: list[EnhanceReport | None] = [None] * len(jobs)
    schedule = _Schedule(_group_jobs(jobs), workers)

    def work() -> None:
        while (task := schedule.take()) is not None:
            group, i = task
            try:
                reports[i] = _run(group, jobs[i], manifest.base_dir, options)
            except Exception as exc:
                reports[i] = EnhanceReport(
                    song_id=jobs[i].song_id, options=options.as_dict(), error=_error_text(exc)
                )
            schedule.done(group)

    n_threads = min(workers, len(jobs))
    if n_threads <= 1:
        work()
    else:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            for worker in [pool.submit(work) for _ in range(n_threads)]:
                worker.result()
    return reports
