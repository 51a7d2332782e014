#!/usr/bin/env python3
"""hearmix benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload song_compress --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. The run sets up the workload's seeded inputs, times
ops in a closed loop (one client, the next op starts when the previous one
has finished) for ``--seconds``, checks every output, and prints as its
last line one JSON object holding ``correct``, ``attempted``, ``failed``
and ``metrics``. ``--trace 0`` reports the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics from a traced run.
The line before it holds the run's details: sample counts, the tail
percentile, the machine, and where the spans were written.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# per-layer metrics the run measures itself; the rest come from the spans
RUN_METRICS = (
    "pipeline.enhance.peak_buffers",
    "pipeline.run_batch.cpu_util",
    "pipeline.run_batch.scaling",
    "pipeline.run_batch.failed_jobs",
    "trace.overhead_pct",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import hearmix from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import hearmix

    if not Path(hearmix.__file__).resolve().is_relative_to(src):
        raise ImportError(f"hearmix imported from {hearmix.__file__}, not from {src}")


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value. Below 21 samples no percentile above the median qualifies, and
    the tail falls back to the median (percentile 50)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 21:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def traced_peak(fn, *args) -> tuple[object, int]:
    """Result and transient peak bytes of one call, seen by tracemalloc."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class OpRun(NamedTuple):
    seconds: float  # wall time of the op alone
    cpu_s: float  # process CPU time (all threads) of the op alone
    result: object  # None when the op raised
    outcome: object


class Tally:
    """Ops attempted and failed, with the reason of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, workload, i, recorder=None, **prepare):
        """Prepare, time and check op ``i``, tracing only the op itself when
        a recorder is given."""
        from workloads import Outcome

        args = workload.prepare(i, **prepare)
        self.attempted += 1
        if recorder is not None:
            recorder.install(i)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = workload.run(args)
        except Exception:
            result = None
            self.failures.append(f"op {i} raised: {traceback.format_exc(limit=3)}")
        finally:
            elapsed = time.perf_counter() - start
            cpu = time.process_time() - cpu
            if recorder is not None:
                recorder.uninstall()
        if result is None:
            return OpRun(elapsed, cpu, None, Outcome("raised"))
        outcome = workload.check(args, result)
        if not outcome.ok:
            self.failures.append(f"op {i}: {outcome.problem}")
        return OpRun(elapsed, cpu, result, outcome)


def set_up(cls, seed: int, work_dir: Path, tally: Tally):
    """Build the inputs SETUP_REPEATS times (the median is reported), then
    run one warm-up op that no timing includes."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        workload = None  # free the previous inputs before building new ones
        start = time.perf_counter()
        workload = cls(seed, work_dir)
        workload.setup()
        times.append(time.perf_counter() - start)
    warm_s = tally.run(workload, 0).seconds
    return workload, statistics.median(times), times, warm_s


def end_to_end(workload, tally: Tally, seconds: float) -> tuple[dict, dict]:
    latencies, audio_s, scores = [], 0.0, []
    i = 1
    deadline = time.perf_counter() + seconds
    while True:
        op = tally.run(workload, i)
        latencies.append(op.seconds)
        audio_s += op.outcome.audio_s
        scores.extend(op.outcome.sdr_db)
        i += 1
        if time.perf_counter() >= deadline:
            break

    start = time.perf_counter()
    op, peak = traced_peak(tally.run, workload, i)
    memory_s = time.perf_counter() - start
    scores.extend(op.outcome.sdr_db)
    scores.extend(workload.quality())
    quality_s = time.perf_counter() - start - memory_s
    percentile, tail_s = tail(latencies)
    values = {
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "realtime_x": audio_s / sum(latencies),
        "peak_mem_mb": peak / 1e6,
        "sdr_db": statistics.median(scores) if scores else math.nan,
    }
    details = {
        "samples": len(latencies),
        "tail_percentile": percentile,
        "sdr_samples": len(scores),
        "latencies_ms": [round(x * 1e3, 3) for x in latencies],
        "memory_pass_s": memory_s,
        "quality_pass_s": quality_s,
    }
    return values, details


def per_layer(workload, tally: Tally, seconds: float, names: list[str], spans_path: Path):
    """Interleave untraced and traced ops (batch also adds 1-worker passes)
    and derive the per-layer metrics from the traced ones' spans.

    The kinds run in mirrored rounds (A B B A ...), so a drift in machine
    speed during the run does not bias one kind against another."""
    import spans
    from workloads import BatchFiles

    recorder = spans.SpanRecorder()
    batch = isinstance(workload, BatchFiles)
    kinds = ("plain", "traced", "single") if batch else ("plain", "traced")
    rounds = kinds + kinds[::-1]
    wall = {kind: [] for kind in kinds}
    cpu_s, failed_jobs = 0.0, []
    i = 1
    deadline = time.perf_counter() + seconds
    while True:
        kind = rounds[(i - 1) % len(rounds)]
        op = tally.run(
            workload,
            i,
            recorder=recorder if kind == "traced" else None,
            **({"workers": 1} if kind == "single" else {}),
        )
        wall[kind].append(op.seconds)
        if kind == "plain":
            cpu_s += op.cpu_s
        if batch and kind == "traced" and op.result is not None:
            failed_jobs.append(workload.failed_jobs(op.result))
        i += 1
        if time.perf_counter() >= deadline and all(wall.values()):
            break
    recorder.write(spans_path)

    mix, stem_sets, gains, who = workload.enhance_inputs()
    from hearmix import pipeline

    _, peak = traced_peak(pipeline.enhance, mix, stem_sets, gains, who)
    plain = statistics.median(wall["plain"])
    measured = dict(
        zip(
            RUN_METRICS,
            (
                peak / mix.samples.nbytes,
                cpu_s / (sum(wall["plain"]) * workload.workers) if batch else 0.0,
                statistics.median(wall["single"]) / plain if batch else 0.0,
                statistics.median(failed_jobs) if failed_jobs else 0.0,
                100.0 * (statistics.median(wall["traced"]) - plain) / plain,
            ),
        )
    )
    stats = spans.summarize(recorder.spans)
    n_traced = len(wall["traced"])
    values = {
        name: measured[name] if name in measured else spans.layer_metric(name, stats, n_traced)
        for name in names
    }
    details = {
        "samples": {kind: len(times) for kind, times in wall.items()},
        "median_ms": {kind: statistics.median(times) * 1e3 for kind, times in wall.items()},
        "spans": len(recorder.spans),
        "spans_path": str(spans_path.relative_to(ROOT)),
    }
    if batch:
        details["planted_bad"] = workload.planted_bad()
    return values, details


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_package()
    import machine
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    work_dir = work_root / args.workload
    tally = Tally()
    try:
        workload, setup_median, setup_times, warm_s = set_up(
            WORKLOADS[args.workload], args.seed, work_dir, tally
        )
        if args.trace:
            metric_specs = spec["per_layer"]
            spans_path = work_root / "spans" / f"{args.workload}-seed{args.seed}.jsonl"
            names = [m["name"] for m in metric_specs]
            values, details = per_layer(workload, tally, args.seconds, names, spans_path)
        else:
            metric_specs = spec["end_to_end"]
            values, details = end_to_end(workload, tally, args.seconds)
            values["setup_s"] = import_s + setup_median + warm_s
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    details.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        import_s=import_s,
        setup_runs_s=setup_times,
        warm_up_s=warm_s,
        error_rate=len(tally.failures) / tally.attempted,
        failures=tally.failures[:10],
        machine=machine.describe(),
    )
    for failure in tally.failures:
        print(failure, file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_specs}
    print(json.dumps({"details": details}))
    print(
        json.dumps(
            {
                "correct": not tally.failures and all(math.isfinite(m["value"]) for m in metrics.values()),
                "attempted": tally.attempted,
                "failed": len(tally.failures),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
