#!/usr/bin/env python3
"""Benchmark command for the mcis simulator.

    python3 perfbench/run.py --workload scah-scaling --seed 0 --seconds 20 --trace 0

Builds the workload's cases from the seed, then calls `mcis.simulator.run`
once per case per round, in whole rounds, until another round would pass
--seconds (at least one round).  An untimed phase then rebuilds each instance
with the public construction calls and checks it.  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics (wall_s, setup_s, peak_rss_mb) with
no wrapper installed.  --trace 1 wraps the program's public functions where
their callers look them up, reports the per-layer span times and counts, and
writes the spans to perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT_DIR = HERE / "out"
WORKLOAD_NAMES = ("scah-scaling", "mcis-load", "mcis-da")

# Per-layer metrics of a traced run: times from the spans, then exact counts
# from the untimed rebuild, summed over the round's cases (maxima for *_max).
SPAN_METRICS = (
    ("simulator.run.s", "s"),
    ("simulator.run.self_s", "s"),
    ("geometry.build_cell_grid.s", "s"),
    ("routing.assign_flows.s", "s"),
    ("scheduling.build_adhoc_schedule.self_s", "s"),
    ("scheduling.flow_hops.s", "s"),
    ("scheduling.edge_color.s", "s"),
    ("scheduling.build_interference_graph.s", "s"),
    ("scheduling.build_interference_graph.rss_mb", "MB"),
    ("scheduling.vertex_color.s", "s"),
    ("scheduling.verify_schedule.s", "s"),
    ("scheduling.build_bs_schedule.s", "s"),
)
COUNT_NAMES = (
    "routing.flows", "routing.eligible", "routing.adhoc_flows", "routing.fallbacks",
    "routing.hops", "routing.bs_lookups",
    "scheduling.hop_degree_max", "scheduling.edge_colors", "scheduling.minislots",
    "scheduling.igraph_nodes", "scheduling.igraph_edges", "scheduling.igraph_degree_max",
    "scheduling.vertex_colors", "scheduling.audit_pairs",
    "simulator.hop_frames",
)


def process_age_s() -> float:
    """Seconds since the kernel started this process (start time in ticks)."""
    with open("/proc/self/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def timed_rounds(cases, seconds: float, tracer):
    """Call run for every case, in whole rounds, while the next round is
    expected to end within `seconds`.  Returns the per-round wall times, the
    last report of each case, each case's raised-call count, setup_s, and
    the peak RSS at the end of the first round.

    Later rounds grow the heap a little further, by an amount that depends on
    how many rounds fit in `seconds`, so the first round's peak is the one
    that does not depend on the machine's speed."""
    from mcis import simulator
    from spans import peak_rss_mb

    reports = [None] * len(cases)
    raised = [0] * len(cases)
    round_s = []
    setup_s = process_age_s()
    start = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        while True:
            if tracer:
                tracer.round = len(round_s)
            t0 = time.perf_counter()
            for i, case in enumerate(cases):
                try:
                    reports[i] = simulator.run(case.cfg, case.seed, case.horizon,
                                               **case.run_kwargs())
                except Exception:   # a failed operation; keep measuring the rest
                    raised[i] += 1
                    reports[i] = None
                    traceback.print_exc()
            round_s.append(time.perf_counter() - t0)
            if len(round_s) == 1:
                first_round_rss_mb = peak_rss_mb()
            if time.perf_counter() - start + round_s[-1] > seconds:
                break
    return round_s, reports, raised, setup_s, first_round_rss_mb


def check_cases(workload, reports):
    """Rebuild and check every case that returned a report.

    Returns the failures of each case, the failures that span cases, and the
    per-layer counts summed over the cases."""
    import checks
    from workloads import K8

    case_failures = [[] for _ in workload.cases]
    counts = dict.fromkeys(COUNT_NAMES, 0)
    built_key, inst, inst_result = None, None, None
    for i, (case, report) in enumerate(zip(workload.cases, reports)):
        if report is None:
            continue
        key = (case.cfg, case.seed)
        if key != built_key:       # consecutive cases may share one instance
            inst = None        # drop the previous instance before building
            inst = checks.build_instance(case.cfg, case.seed)
            inst_result = checks.instance_checks(inst, case.cfg)
            built_key = key
        failures, inst_counts = inst_result
        case_failures[i] = (list(failures)
                            + checks.consistency_violations(inst.table, report)
                            + checks.throughput_violations(case, report, inst, K8)
                            + checks.concentration_violations(case.cfg, report))
        inst_counts = dict(inst_counts, **{
            "simulator.hop_frames": inst.schedule.hop_count * case.horizon})
        for name, value in inst_counts.items():
            counts[name] = max(counts[name], value) if name.endswith("_max") \
                else counts[name] + value
    shared = []
    if workload.scaling and all(r is not None for r in reports):
        shared = checks.scaling_violations(workload.cases, reports)
    return case_failures, shared, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcis" / "__init__.py").is_file():
        print(f"error: the mcis sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    round_s, reports, raised, setup_s, peak_rss_mb = timed_rounds(
        workload.cases, args.seconds, tracer)

    case_failures, shared, counts = check_cases(workload, reports)
    rounds = len(round_s)
    attempted = rounds * len(workload.cases)
    failed = 0
    for case, n_raised, failures in zip(workload.cases, raised, case_failures):
        # A case whose instance fails a check fails in every round it ran.
        failed += n_raised if n_raised else (rounds if failures else 0)
        for msg in failures:
            print(f"check failed [{case.label}]: {msg}")
    for msg in shared:
        print(f"check failed [{args.workload}]: {msg}")
    print(f"{args.workload} seed={args.seed}: {rounds} round(s) of "
          f"{len(workload.cases)} run call(s), {failed} failed")

    if args.trace:
        summary = tracer.summary()
        metrics = {name: {"value": summary[name], "unit": unit}
                   for name, unit in SPAN_METRICS}
        metrics.update((name, {"value": counts[name], "unit": "count"})
                       for name in COUNT_NAMES)
        if tracer.absent:
            print(f"absent spans (reported as 0): {', '.join(tracer.absent)}")
        OUT_DIR.mkdir(exist_ok=True)
        out = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                   "absent": tracer.absent, "spans": tracer.spans,
                                   "round_s": round_s, "counts": counts}, indent=1))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(round_s), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    # Failed operations are counted in `failed`; `correct` speaks of the rest.
    print(json.dumps({"correct": not shared, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
