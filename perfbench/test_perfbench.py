"""Tests of the benchmark itself: seeded inputs, the span recorder, and
the metric plumbing. Run with ``python -m pytest perfbench``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import hearmix
from hearmix import pipeline, stems

import inputs
import run
import spans
from workloads import BatchFiles, SongCompress, SongEval

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _song_inputs(seed: int):
    truth = inputs.synth_song(seed, 0, 1.0)
    return (
        [truth.track(name).samples for name in stems.TRACK_NAMES]
        + [s.track(name).samples for s in inputs.separator_sets(truth, seed, 0, 2) for name in stems.TRACK_NAMES]
        + [
            inputs.crosstalk_kernel_samples(seed),
            np.array(inputs.listener(seed, 3, "severe").left.levels_db_hl),
            np.array(inputs.listener(seed, 3, "mild").right.levels_db_hl),
            np.array(list(inputs.song_gains(seed, 3).as_dict().values())),
        ]
    )


def test_same_seed_gives_identical_inputs(tmp_path):
    for a, b in zip(_song_inputs(7), _song_inputs(7)):
        assert np.array_equal(a, b)
    first = inputs.write_batch(7, tmp_path / "a", 8, 2, 2, 0.5)
    second = inputs.write_batch(7, tmp_path / "b", 8, 2, 2, 0.5)
    assert first == second
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


def test_different_seeds_give_different_inputs(tmp_path):
    for a, b in zip(_song_inputs(7), _song_inputs(8)):
        assert not np.array_equal(a, b)
    inputs.write_batch(7, tmp_path / "a", 8, 2, 2, 0.5)
    inputs.write_batch(8, tmp_path / "b", 8, 2, 2, 0.5)
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert all(a[name] != b[name] for name in a.keys() & b.keys() if name.endswith(".wav"))


def test_batch_plants_one_bad_job_in_eight(tmp_path):
    planned = inputs.write_batch(3, tmp_path, 16, 2, 2, 0.5)
    bad = [job for job in planned if job.expected_error is not None]
    assert len(bad) == 2
    good = [job for job in planned if job.expected_error is None]
    assert sum(job.listener == 1 for job in good) == 7  # mild listener
    assert sum(job.listener == 0 for job in good) == 7  # compressor fires


# short songs keep the tests quick; song_eval needs one 6 s salient window
@pytest.mark.parametrize(
    "cls, song_seconds", [(SongCompress, 4.0), (SongEval, 6.5), (BatchFiles, 2.0)]
)
def test_traced_op_is_bit_identical_to_untraced(cls, song_seconds, tmp_path):
    workload = cls(11, tmp_path, song_seconds=song_seconds)
    workload.setup()
    args = workload.prepare(1)
    plain = workload.run(args)
    untraced = workload.output(plain)
    assert workload.check(args, plain).ok

    recorder = spans.SpanRecorder()
    recorder.install(1)
    try:
        traced_result = workload.run(workload.prepare(1))
    finally:
        recorder.uninstall()
    traced = workload.output(traced_result)

    if isinstance(untraced, np.ndarray):
        assert np.array_equal(untraced, traced)
    else:
        assert untraced == traced and any(untraced)
    assert any(span.name == "pipeline.enhance" for span in recorder.spans)
    # uninstalling restores every original function
    assert pipeline.enhance is hearmix.enhance and not hasattr(pipeline.enhance, "__wrapped__")


def test_removed_function_reports_zero_calls(monkeypatch):
    """A function a later change deletes leaves its metrics at 0."""
    for module in (hearmix, stems, pipeline):
        monkeypatch.delattr(module, "blend_other")
    recorder = spans.SpanRecorder()
    truth = inputs.synth_song(5, 0, 1.0)
    recorder.install(1)
    try:
        pipeline.enhance(
            inputs.mix_of(truth),
            [truth],
            inputs.song_gains(5, 1),
            inputs.listener(5, 1, "mild"),
            pipeline.EnhanceOptions(use_residual=False),
        )
    finally:
        recorder.uninstall()
    stats = spans.summarize(recorder.spans)
    assert spans.layer_metric("stems.blend_other.calls", stats, 1) == 0
    assert spans.layer_metric("stems.blend_other.self_ms", stats, 1) == 0
    assert spans.layer_metric("pipeline.enhance.calls", stats, 1) == 1


def test_self_time_subtracts_direct_children_per_thread():
    recorded = [
        spans.Span(0, None, "pipeline.enhance", 1, 1, 0, 100, 0),
        spans.Span(1, 0, "levels.normalize_to_loudness", 1, 1, 10, 50, 0),
        spans.Span(2, 1, "levels.integrated_loudness", 1, 1, 20, 40, 0),
        spans.Span(3, None, "pipeline.enhance", 2, 1, 5, 60, 0),  # other thread
    ]
    stats = spans.summarize(recorded)
    assert stats["pipeline.enhance"] == spans.LayerStats(2, 155, 115, 0)
    assert stats["levels.normalize_to_loudness"].self_ns == 20
    assert stats["levels.integrated_loudness"].self_ns == 20


def test_every_per_layer_metric_has_a_source():
    empty = spans.summarize([])
    for metric in SPEC["per_layer"]:
        if metric["name"] not in run.RUN_METRICS:
            assert spans.layer_metric(metric["name"], empty, 1) == 0.0


def test_tail_has_ten_samples_beyond_it():
    samples = [float(x) for x in range(30)]
    percentile, value = run.tail(samples)
    assert sum(x > value for x in samples) == 10
    assert percentile == pytest.approx(100 * 20 / 30)
    assert run.tail(samples[:20]) == (50.0, 9.5)
