"""Span recorder for the traced run.

The recorder wraps every public function of the ``hearmix`` layer modules
at each module attribute that holds it, so calls the chain makes through
those names are recorded, internal ones included (``normalize_to_loudness``
calling ``integrated_loudness``, ``nalr_process`` calling
``design_nalr_fir``). Wrapping happens from outside: no source file changes.

A span is (id, parent id, name, thread id, op, start ns, end ns, bytes).
The parent is the innermost open span of the same thread, so the two batch
worker threads never nest into each other. Spans stay in memory until the
run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

LAYERS = ("audio", "stems", "pipeline", "levels", "hearing", "spatial", "metrics")


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    thread: int
    op: int
    start_ns: int
    end_ns: int
    nbytes: int


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


# bytes a call moved: the file a reader read or a writer wrote
_BYTES_OF = {
    "audio.read_wav": lambda args, kwargs: _file_size(kwargs.get("path", args[0] if args else None)),
    "audio.write_wav": lambda args, kwargs: _file_size(
        kwargs.get("path", args[1] if len(args) > 1 else None)
    ),
}


def layer_functions(package: str = "hearmix") -> dict[str, object]:
    """Public functions of each layer module, keyed "<layer>.<function>"."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = value
    return found


class SpanRecorder:
    """Records spans while installed; ``install``/``uninstall`` swap the
    wrapped and original functions at every module attribute."""

    def __init__(self, package: str = "hearmix"):
        self.package = package
        self.spans: list[Span] = []
        self.op = 0
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list[tuple[object, str, object, object]] = []
        functions = layer_functions(package)
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in functions.items()}
        modules = [importlib.import_module(package)] + [
            importlib.import_module(f"{package}.{layer}") for layer in LAYERS
        ]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers:
                    self._patches.append((module, attr, value, wrappers[id(value)]))

    def _wrap(self, name: str, fn):
        bytes_of = _BYTES_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                nbytes = bytes_of(args, kwargs) if bytes_of is not None else 0
                self.spans.append(
                    Span(span_id, parent, name, threading.get_ident(), self.op, start, end, nbytes)
                )

        return traced

    def install(self, op: int) -> None:
        self.op = op
        for module, attr, _original, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _wrapper in self._patches:
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span._asdict()) + "\n")


class LayerStats(NamedTuple):
    calls: int
    total_ns: int
    self_ns: int
    nbytes: int


def summarize(spans: list[Span]) -> dict[str, LayerStats]:
    """Calls, wall time, self time (wall minus direct children) and bytes
    per span name, summed over all spans."""
    child_ns: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            child_ns[span.parent] += span.end_ns - span.start_ns
    totals: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0, 0])
    for span in spans:
        wall = span.end_ns - span.start_ns
        entry = totals[span.name]
        entry[0] += 1
        entry[1] += wall
        entry[2] += wall - child_ns[span.id]
        entry[3] += span.nbytes
    return {name: LayerStats(*values) for name, values in totals.items()}


_EMPTY = LayerStats(0, 0, 0, 0)


def layer_metric(name: str, stats: dict[str, LayerStats], n_ops: int) -> float:
    """Value of one span-derived per-layer metric, per traced op.

    A function the program no longer has simply has no spans, so its
    metrics read 0 instead of failing the run.
    """
    if name == "audio.bytes_read":
        return stats.get("audio.read_wav", _EMPTY).nbytes / n_ops
    if name == "audio.bytes_written":
        return stats.get("audio.write_wav", _EMPTY).nbytes / n_ops
    if name == "levels.compress.fire_ratio":
        enhances = stats.get("pipeline.enhance", _EMPTY).calls
        return stats.get("levels.compress", _EMPTY).calls / enhances if enhances else 0.0
    function, _, stat = name.rpartition(".")
    entry = stats.get(function, _EMPTY)
    if stat == "self_ms":
        return entry.self_ns / 1e6 / n_ops
    if stat == "wall_ms":
        return entry.total_ns / 1e6 / n_ops
    if stat == "calls":
        return entry.calls / n_ops
    if stat == "mb_per_s":
        return entry.nbytes / 1e6 / (entry.total_ns / 1e9) if entry.total_ns else 0.0
    raise KeyError(f"no span-derived metric named {name!r}")
