"""Spans timed from outside the program.

The tracer replaces a public function in the module namespace where its
caller looks it up, so `simulator.run` and `scheduling.build_adhoc_schedule`
call the timed wrapper without any change to the program.  Spans are kept in
memory; `summary` folds them into per-round totals and self times.
"""

from __future__ import annotations

import importlib
import resource
import statistics
import time
from contextlib import ExitStack, contextmanager

# (module where the caller looks the function up, attribute, span name).
# simulator.run is the root; the benchmark calls it as `simulator.run`.
TARGETS = (
    ("mcis.simulator", "run", "simulator.run"),
    ("mcis.simulator", "build_cell_grid", "geometry.build_cell_grid"),
    ("mcis.simulator", "assign_flows", "routing.assign_flows"),
    ("mcis.simulator", "build_adhoc_schedule", "scheduling.build_adhoc_schedule"),
    ("mcis.simulator", "verify_schedule", "scheduling.verify_schedule"),
    ("mcis.simulator", "build_bs_schedule", "scheduling.build_bs_schedule"),
    ("mcis.scheduling", "flow_hops", "scheduling.flow_hops"),
    ("mcis.scheduling", "edge_color", "scheduling.edge_color"),
    ("mcis.scheduling", "build_interference_graph", "scheduling.build_interference_graph"),
    ("mcis.scheduling", "vertex_color", "scheduling.vertex_color"),
)

SPAN_NAMES = tuple(name for _, _, name in TARGETS)


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def patched(module_name: str, attr: str, make_wrapper):
    """Replace module.attr by make_wrapper(original) for the duration.

    Yields False, and patches nothing, when the attribute does not exist.
    """
    module = importlib.import_module(module_name)
    original = getattr(module, attr, None)
    if original is None:
        yield False
        return
    setattr(module, attr, make_wrapper(original))
    try:
        yield True
    finally:
        setattr(module, attr, original)


class Tracer:
    """Records one span per wrapped call: name, start, end, parent, round,
    and the growth of the process's peak RSS across the call."""

    def __init__(self):
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.round = 0
        self._stack: list[int] = []

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            rss0 = peak_rss_mb()
            span = {"name": name, "round": self.round,
                    "parent": stack[-1] if stack else -1}
            spans.append(span)
            stack.append(idx)
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                span["rss_mb"] = peak_rss_mb() - rss0

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target that exists; note the others as absent."""
        with ExitStack() as stack:
            for module_name, attr, name in TARGETS:
                found = stack.enter_context(patched(
                    module_name, attr, lambda fn, name=name: self._wrap(name, fn)))
                if not found and name not in self.absent:
                    self.absent.append(name)
            yield self

    def summary(self) -> dict:
        """Per-layer times: for every span name, the median over rounds of
        the round's summed duration (`.s`) and self time (`.self_s`), and the
        summed peak-RSS growth of the first round (`.rss_mb`).

        Absent spans read 0: no time can be spent in a function that is gone.
        """
        rounds = sorted({span["round"] for span in self.spans})
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] >= 0:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals = {r: {} for r in rounds}
        for i, span in enumerate(self.spans):
            acc = totals[span["round"]].setdefault(
                span["name"], {"s": 0.0, "self_s": 0.0, "rss_mb": 0.0})
            duration = span["end"] - span["start"]
            acc["s"] += duration
            acc["self_s"] += duration - child_time[i]
            acc["rss_mb"] += span["rss_mb"]
        out = {}
        for name in SPAN_NAMES:
            for field in ("s", "self_s"):
                values = [totals[r].get(name, {}).get(field, 0.0) for r in rounds]
                out[f"{name}.{field}"] = statistics.median(values) if values else 0.0
            first = totals[rounds[0]].get(name, {}) if rounds else {}
            out[f"{name}.rss_mb"] = first.get("rss_mb", 0.0)
        return out

