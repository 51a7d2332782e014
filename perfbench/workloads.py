"""The benchmark's workloads: set-up, one op, and the op's output checks.

Every workload looks up ``hearmix`` functions through their module
attributes at call time (``pipeline.enhance``, ``spatial.apply_crosstalk``),
so the traced run sees the same calls the untraced run makes.

Op indexes are never reused within a run: the warm-up, every timed op and
the memory pass each draw their own listener and gains.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hearmix import audio, hearing, metrics, pipeline, spatial, stems

import inputs

SONG_SECONDS = 30.0
BATCH_SONG_SECONDS = 15.0


@dataclass
class Outcome:
    """What the checks made of one op."""

    problem: str = ""  # empty when every check passed
    audio_s: float = 0.0  # seconds of audio that completed successfully
    sdr_db: tuple[float, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problem


def signal_problem(like: audio.AudioBuffer, out: audio.AudioBuffer) -> str:
    """An output must keep the input's rate, channels and length, and be finite."""
    if out.sample_rate != like.sample_rate:
        return f"rate {out.sample_rate} != {like.sample_rate}"
    if out.samples.shape != like.samples.shape:
        return f"shape {out.samples.shape} != {like.samples.shape}"
    if not np.all(np.isfinite(out.samples)):
        return "output holds NaN or Inf"
    return ""


class SongCompress:
    """30 s songs, K = 3 separators, a fresh severe listener per op: NAL-R
    pushes clipping past the trigger, so the compressor fires every time."""

    name = "song_compress"
    separators = 3
    quality_ops = 5  # outputs kept for the SDR pass after the timed loop

    def __init__(self, seed: int, work_dir: Path, song_seconds: float = SONG_SECONDS):
        self.seed = seed  # works in memory only: no files, so no work_dir
        self.song_seconds = song_seconds

    def setup(self) -> None:
        self.truth = inputs.synth_song(self.seed, 0, self.song_seconds)
        self.mix = inputs.mix_of(self.truth)
        self.stem_sets = inputs.separator_sets(self.truth, self.seed, 0, self.separators)
        self._kept = []

    def prepare(self, i: int):
        return inputs.song_gains(self.seed, i), inputs.listener(self.seed, i, "severe")

    def run(self, args):
        gains, who = args
        return pipeline.enhance(self.mix, self.stem_sets, gains, who)

    def output(self, result) -> np.ndarray:
        return result[0].samples

    def check(self, args, result) -> Outcome:
        out, report = result
        problem = signal_problem(self.mix, out)
        if not problem and np.max(np.abs(out.samples)) > 1.0:
            problem = "output exceeds full scale"
        if not problem and tuple(report.stages) != pipeline.STAGE_ORDER:
            problem = f"stages {report.stages} != {list(pipeline.STAGE_ORDER)}"
        if problem:
            return Outcome(problem)
        if len(self._kept) < self.quality_ops:
            self._kept.append((args, out))
        return Outcome(audio_s=self.mix.duration)

    def quality(self) -> list[float]:
        """SDR of the kept outputs against the reference from the true stems."""
        scores = [
            metrics.sdr(pipeline.build_reference(self.truth, gains, who), out).value
            for (gains, who), out in self._kept
        ]
        self._kept = []
        return scores

    def enhance_inputs(self):
        gains, who = self.prepare(0)
        return self.mix, self.stem_sets, gains, who


class SongEval:
    """30 s songs, K = 1, a fresh mild listener per op (the compressor never
    fires), heard through an HRTF-like crosstalk kernel. One op is a whole
    evaluation trip: crosstalk, enhance, reference, SDR, salient segments."""

    name = "song_eval"
    separators = 1

    def __init__(self, seed: int, work_dir: Path, song_seconds: float = SONG_SECONDS):
        self.seed = seed
        self.work_dir = work_dir
        self.song_seconds = song_seconds

    def setup(self) -> None:
        truth = inputs.synth_song(self.seed, 0, self.song_seconds)
        self.mix = inputs.mix_of(truth)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.kernel = spatial.load_kernel(inputs.write_kernel(self.seed, self.work_dir / "kernel.wav"))
        self.received_truth = stems.StemSet(
            **{
                name: spatial.apply_crosstalk(track, self.kernel)
                for name, track in truth.as_dict().items()
            }
        )
        self.stem_sets = inputs.separator_sets(self.received_truth, self.seed, 0, self.separators)

    def prepare(self, i: int):
        return inputs.song_gains(self.seed, i), inputs.listener(self.seed, i, "mild")

    def run(self, args):
        gains, who = args
        received = spatial.apply_crosstalk(self.mix, self.kernel)
        out, report = pipeline.enhance(received, self.stem_sets, gains, who)
        reference = pipeline.build_reference(self.received_truth, gains, who)
        score = metrics.sdr(reference, out)
        segments = stems.salient_segments(self.stem_sets[0], "vocals")
        return out, report, score, segments

    def output(self, result) -> np.ndarray:
        return result[0].samples

    def check(self, args, result) -> Outcome:
        out, report, score, segments = result
        problem = signal_problem(self.mix, out)
        if not problem and (report.compressor_applied or "compress" in report.stages):
            problem = "compressor applied"
        if not problem and not segments:
            problem = "no salient segments"
        if not problem and not np.isfinite(score.value):
            problem = f"SDR {score.value}"
        if problem:
            return Outcome(problem)
        return Outcome(audio_s=self.mix.duration, sdr_db=(score.value,))

    def quality(self) -> list[float]:
        return []

    def enhance_inputs(self):
        gains, who = self.prepare(0)
        return spatial.apply_crosstalk(self.mix, self.kernel), self.stem_sets, gains, who


class BatchFiles:
    """A manifest of 15 s songs stored as PCM-24 WAVs, K = 2 separator
    directories per song, two shared listeners (one fires the compressor),
    one job in eight planted bad. One op is a whole ``run_batch`` pass."""

    name = "batch_files"
    separators = 2
    n_jobs = 8
    n_songs = 2
    workers = 2

    def __init__(self, seed: int, work_dir: Path, song_seconds: float = BATCH_SONG_SECONDS):
        self.seed = seed
        self.root = work_dir
        self.song_seconds = song_seconds

    def setup(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.root.mkdir(parents=True)
        self.planned = inputs.write_batch(
            self.seed, self.root, self.n_jobs, self.n_songs, self.separators, self.song_seconds
        )
        self.manifest = pipeline.load_manifest(self.root / "manifest.json")
        self.references = None

    def build_references(self) -> None:
        """Reference output of every good job, from the regenerated true
        stems. Only the checks use these, so they are built outside set-up."""
        listeners = inputs.batch_listeners(self.seed)
        self.references = {}
        for song in range(self.n_songs):
            truth = inputs.synth_song(self.seed, song, self.song_seconds)
            for job in self.planned:
                if job.song == song and job.expected_error is None:
                    self.references[job.song_id] = pipeline.build_reference(
                        truth, job.gains, listeners[job.listener]
                    )

    def prepare(self, i: int, workers: int | None = None):
        # a stale output must never pass for this op's output
        shutil.rmtree(self.root / "out", ignore_errors=True)
        return self.workers if workers is None else workers

    def run(self, workers):
        return pipeline.run_batch(self.manifest, workers=workers)

    def output(self, result) -> list[bytes | None]:
        return [
            job.output_path.read_bytes() if job.output_path.exists() else None
            for job in self.manifest.jobs
        ]

    def check(self, args, reports) -> Outcome:
        if self.references is None:
            self.build_references()
        ids = [report.song_id for report in reports]
        if ids != [job.song_id for job in self.planned]:
            return Outcome(f"reports out of manifest order: {ids}")
        audio_s, scores = 0.0, []
        for job, planned, report in zip(self.manifest.jobs, self.planned, reports):
            if planned.expected_error is not None:
                if not (report.error or "").startswith(planned.expected_error + ":"):
                    return Outcome(f"{job.song_id}: expected {planned.expected_error}, got {report.error}")
                if job.output_path.exists():
                    return Outcome(f"{job.song_id}: failed job left an output")
                continue
            if report.error is not None:
                return Outcome(f"{job.song_id}: unexpected error {report.error}")
            reference = self.references[job.song_id]
            out = audio.read_wav(job.output_path)
            problem = signal_problem(reference, out)
            if problem:
                return Outcome(f"{job.song_id}: {problem}")
            audio_s += out.duration
            scores.append(metrics.sdr(reference, out).value)
        return Outcome(audio_s=audio_s, sdr_db=tuple(scores))

    def quality(self) -> list[float]:
        return []

    def failed_jobs(self, reports) -> int:
        return sum(report.error is not None for report in reports)

    def planted_bad(self) -> int:
        return sum(job.expected_error is not None for job in self.planned)

    def enhance_inputs(self):
        """In-memory inputs of the first good job whose listener fires the
        compressor, loaded through the package's own readers."""
        index = next(
            i for i, job in enumerate(self.planned) if job.expected_error is None and job.listener == 0
        )
        job = self.manifest.jobs[index]
        stem_sets = [
            stems.provider_from_spec(spec, self.manifest.base_dir).stems() for spec in job.stem_specs
        ]
        return (
            audio.read_wav(job.mix_path),
            stem_sets,
            pipeline.load_gains(job.gains_path),
            hearing.load_listener(job.listener_path),
        )


WORKLOADS = {cls.name: cls for cls in (SongCompress, SongEval, BatchFiles)}
