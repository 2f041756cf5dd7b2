"""In-memory layer spans, recorded by wrapping public functions.

The benchmark times each layer from outside the program: :meth:`Spans.install`
replaces every public function of :data:`LAYERS` with a wrapper that
records one span per call — layer name, start, end, parent span and the
sweep cell ``(workload, P, heuristic, fraction)`` it ran for.  The
wrapper is bound in the defining module *and* in every ``repro`` module
that imported the name, so calls through re-exports are seen too.
Nothing under ``src/`` changes and nothing is patched outside the
process that installs the spans.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from time import perf_counter

#: (layer, module, attribute) — a dotted attribute names a method.
LAYERS = (
    ("sparse.build", "repro.sparse.cholesky", "build_cholesky"),
    ("sparse.build", "repro.sparse.lu", "build_lu"),
    ("sparse.build", "repro.sparse.treegraph", "build_etree_problem"),
    ("rapid.inspector.order_with", "repro.rapid.inspector", "order_with"),
    ("core.listsched.run_list_scheduler", "repro.core.listsched", "run_list_scheduler"),
    ("core.rcp.rcp_priorities", "repro.core.rcp", "rcp_priorities"),
    ("core.dcg.build_dcg", "repro.core.dcg", "build_dcg"),
    ("core.liveness.analyze_memory", "repro.core.liveness", "analyze_memory"),
    ("machine.simulator.compile", "repro.machine.simulator", "CompiledSchedule.__init__"),
    ("core.maps.plan_maps", "repro.core.maps", "plan_maps"),
    ("machine.compiled.lower_schedule", "repro.machine.compiled", "lower_schedule"),
    ("machine.compiled.get_exec_plan", "repro.machine.compiled", "get_exec_plan"),
    ("machine.simulator.run", "repro.machine.simulator", "Simulator.run"),
    ("experiments.run_cell", "repro.experiments.common", "ExperimentContext.run_cell"),
    ("experiments.baseline_pt", "repro.experiments.common", "ExperimentContext.baseline_pt"),
    ("analysis.analyze_schedule", "repro.analysis.engine", "analyze_schedule"),
    ("analysis.schedule_bounds", "repro.analysis.bounds", "schedule_bounds"),
)

#: Layer names in table order, without repeats.
LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))

_RUN_CELL = "experiments.run_cell"


class Spans:
    """Span store of one process; spans are kept as
    ``[layer, start, end, parent_index, cell]`` lists."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._cell: tuple = (None, None, None, None)

    def _wrap(self, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            cell = self._cell
            if layer == _RUN_CELL:  # run_cell(self, key, p, heuristic, fraction, ...)
                self._cell = tuple(args[1:5])
            span = [layer, perf_counter(), 0.0, stack[-1] if stack else -1, self._cell]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                self._cell = cell

        return traced

    def install(self) -> None:
        """Wrap every layer function; rebinds each name wherever a
        loaded ``repro`` module holds the original object."""
        for layer, modname, attr in LAYERS:
            owner = importlib.import_module(modname)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(layer, original))
            if path:
                continue
            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("repro")
                        and getattr(mod, name, None) is original):
                    setattr(mod, name, getattr(owner, name))

    def layer_table(self) -> dict[str, dict]:
        """Per layer: self seconds and calls; self time is a span's
        duration minus that of its child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table = {name: {"self_s": 0.0, "calls": 0} for name in LAYER_NAMES}
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            table[layer]["self_s"] += end - start - child[i]
            table[layer]["calls"] += 1
        return table

    def covered_s(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` inside top-level spans."""
        return sum(
            min(end, t1) - max(start, t0)
            for _, start, end, parent, _ in self.spans
            if parent < 0 and end > t0 and start < t1
        )

    def chrome_doc(self) -> dict:
        """Chrome ``trace_event`` document: one complete event per span
        on this process's track."""
        pid = os.getpid()
        origin = self.spans[0][1] if self.spans else 0.0
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
            "args": {"name": f"perf {self.workload} (in-process spans)"},
        }]
        for layer, start, end, parent, cell in self.spans:
            events.append({
                "name": layer, "cat": "layer", "ph": "X", "pid": pid, "tid": 0,
                "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
                "args": {
                    "workload": cell[0], "procs": cell[1],
                    "heuristic": cell[2], "fraction": cell[3],
                    "parent": self.spans[parent][0] if parent >= 0 else None,
                },
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def span_cost_s(n: int = 20000) -> float:
    """Measured cost of one recorded span around a no-op call."""
    probe = Spans("calibration")
    noop = probe._wrap("calibration", lambda: None)
    t = perf_counter()
    for _ in range(n):
        noop()
    return (perf_counter() - t) / n
