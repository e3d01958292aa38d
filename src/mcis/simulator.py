"""Fluid-model playback of the ad hoc TDMA frame and the BS round-robin frame.

Time unit: one slot = one second = one full ad hoc edge-color frame.  The BS
frame spans k8+1 slots (one BS-cell per cluster active per slot).  Traffic is
fluid: sources are saturated unless a flow carries a finite rate demand, each
scheduled hop moves up to its per-frame budget, and delays are transit
constants (relay_slots per ad hoc hop, c / concurrency per BS service);
queueing delay is excluded by the model.  Infrastructure bits count once, at
uplink completion into the wired core (the wire and downlink are unconstrained
and symmetric).
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .analytic import bs_concurrency
from .config import NetworkConfig
from .errors import ConfigError, HorizonTooShortError, NoPacketsError, ScheduleInvalidError
from .geometry import build_cell_grid
from .routing import FlowTable, Mode, adhoc_transmitter_count, assign_flows
from .scheduling import (
    AdHocSchedule,
    InterferenceParams,
    build_adhoc_schedule,
    build_bs_schedule,
    verify_schedule,
)


@dataclass
class MetricsReport:
    per_node_throughput: float      # delivered bits / (n * measured seconds)
    T_A: float                      # aggregate ad hoc bits/sec
    T_I: float                      # aggregate infrastructure bits/sec
    D_a: float                      # mean ad hoc packet delay, slots
    D_i: float                      # mean infrastructure packet delay, slots
    D: float                        # delivered-traffic-weighted mean delay
    hop_histogram: dict             # hop count -> delivering ad hoc flows
    n_t: int                        # sources whose destination was in ad hoc reach
    audit: int                      # auditor violations (0 for accepted runs)
    delivered_adhoc_bits: float
    delivered_infra_bits: float
    adhoc_flow_count: int
    infra_flow_count: int
    fallback_flow_count: int
    mean_adhoc_hops: float
    seed: int
    horizon: int
    warmup: int


def run(cfg: NetworkConfig, seed: int, horizon: int, *,
        k8: int = 8,
        relay_slots: float = 1.0,
        warmup_superframes: int = 2,
        demand: float | None = None,
        interior_margin: float = 0.0,
        audit: bool = True) -> MetricsReport:
    """Build topology, flows, and schedules for one seed, then play them.

    horizon is in slots and must cover the warm-up plus at least one BS frame.
    demand caps every flow at that many bits/sec (None = saturated sources).
    interior_margin > 0 restricts the metrics to flows whose endpoints both
    lie at least that far from the unit-square border (boundary-effect
    filter); the schedule itself still carries every flow.
    Raises ScheduleInvalidError if the auditor finds any violation.
    """
    if k8 < 0:
        raise ConfigError(f"k8 must be >= 0, got {k8}")
    frame = k8 + 1
    warmup = warmup_superframes * frame
    if horizon < frame or horizon <= warmup:
        raise HorizonTooShortError(
            f"horizon={horizon} slots does not cover warmup={warmup} plus one "
            f"{frame}-slot frame")
    topology = build_cell_grid(cfg, positions=None)
    table = assign_flows(topology, cfg, seed)
    if demand is not None:
        for flow in table.flows:
            flow.rate = demand
    schedule = build_adhoc_schedule(topology, table, cfg)
    violations = 0
    if audit:
        found = verify_schedule(schedule, topology, InterferenceParams.from_config(cfg))
        violations = len(found)
        if violations:
            raise ScheduleInvalidError(
                f"{violations} violations, first: {found[0]}")
    bs_schedule = build_bs_schedule(cfg.b0, k8)

    window = float(horizon - warmup)
    adhoc_bits, flow_hop_counts = _play_adhoc(cfg, table, schedule, horizon, warmup)
    infra_bits = _play_infra(cfg, table, bs_schedule, horizon, warmup)

    node_count = cfg.n
    if interior_margin > 0.0:
        pos = topology.node_positions
        inner = np.all((pos >= interior_margin) & (pos <= 1.0 - interior_margin),
                       axis=1)
        keep = np.asarray([bool(inner[f.src] and inner[f.dst])
                           for f in table.flows])
        adhoc_bits = np.where(keep, adhoc_bits, 0.0)
        infra_bits = np.where(keep, infra_bits, 0.0)
        node_count = int(inner.sum())

    total_a = float(adhoc_bits.sum())
    total_i = float(infra_bits.sum())
    t_a = total_a / window
    t_i = total_i / window

    delivered_mask = adhoc_bits > 0.0
    hist: dict[int, int] = {}
    for h in flow_hop_counts[delivered_mask].tolist():
        hist[h] = hist.get(h, 0) + 1
    if total_a > 0.0:
        mean_hops = float((adhoc_bits * flow_hop_counts).sum() / total_a)
        d_a = relay_slots * mean_hops
    else:
        mean_hops = 0.0
        d_a = 0.0
    d_i = cfg.bs_service_constant / bs_concurrency(cfg) if total_i > 0.0 else 0.0
    total = total_a + total_i
    d = (total_a * d_a + total_i * d_i) / total if total > 0.0 else 0.0

    return MetricsReport(
        per_node_throughput=(t_a + t_i) / node_count if node_count else 0.0,
        T_A=t_a, T_I=t_i, D_a=d_a, D_i=d_i, D=d,
        hop_histogram=hist,
        n_t=adhoc_transmitter_count(table),
        audit=violations,
        delivered_adhoc_bits=total_a,
        delivered_infra_bits=total_i,
        adhoc_flow_count=len(table.adhoc_flows),
        infra_flow_count=len(table.infra_flows),
        fallback_flow_count=sum(1 for f in table.flows if f.fallback),
        mean_adhoc_hops=mean_hops,
        seed=seed, horizon=horizon, warmup=warmup,
    )


def _play_adhoc(cfg: NetworkConfig, table: FlowTable, schedule: AdHocSchedule,
                horizon: int, warmup: int):
    """Per-frame fluid propagation along every flow's hop chain.

    Returns bits delivered inside the measurement window per flow (indexed by
    position in table.flows) and each flow's hop count.
    """
    n_flows = len(table.flows)
    hop_counts = np.zeros(n_flows, dtype=np.int64)
    delivered = np.zeros(n_flows, dtype=np.float64)
    m = schedule.hop_count
    if m == 0 or cfg.W_A <= 0.0:
        return delivered, hop_counts
    e_slots = schedule.edge_color_count
    minis = schedule.minislot_count
    budget = cfg.W_A / (cfg.C_A * e_slots * minis)   # bits per hop per frame

    # Hops sorted by (flow, hop_index) so that hop i feeds hop i+1.
    order = np.lexsort((schedule.hop_index, schedule.flow_id))
    fid = schedule.flow_id[order]
    hidx = schedule.hop_index[order]
    slot = schedule.slot[order]
    for f, h in zip(fid.tolist(), hidx.tolist()):
        hop_counts[f] = max(hop_counts[f], h + 1)

    is_first = hidx == 0
    last_of_flow: dict[int, int] = {}
    for i, f in enumerate(fid.tolist()):
        last_of_flow[f] = i
    is_last = np.zeros(len(fid), dtype=bool)
    is_last[list(last_of_flow.values())] = True

    rates = np.asarray([
        table.flows[f].rate if table.flows[f].rate is not None else math.inf
        for f in fid.tolist()])
    inject = np.minimum(budget, rates)               # per-frame source feed

    by_slot = [np.flatnonzero(slot == s) for s in range(e_slots)]
    slot_first = [idx[is_first[idx]] for idx in by_slot]
    slot_last = [is_last[idx] for idx in by_slot]
    slot_next = [idx + 1 for idx in by_slot]         # valid where not last

    queues = np.zeros(len(fid) + 1, dtype=np.float64)  # +1: scratch sink
    first_ids = np.flatnonzero(is_first)
    for t in range(horizon):
        queues[first_ids] += inject[first_ids]
        measured = t >= warmup
        for s in range(e_slots):
            idx = by_slot[s]
            if len(idx) == 0:
                continue
            moved = np.minimum(queues[idx], budget)
            queues[idx] -= moved
            last_mask = slot_last[s]
            nxt = np.where(last_mask, len(fid), slot_next[s])
            queues[nxt] += moved
            if measured and last_mask.any():
                delivered[fid[idx[last_mask]]] += moved[last_mask]
            queues[len(fid)] = 0.0
    return delivered, hop_counts


def _play_infra(cfg: NetworkConfig, table: FlowTable, bs_schedule,
                horizon: int, warmup: int) -> np.ndarray:
    """BS-cell round-robin uplink service; bits count at wired-core ingress."""
    n_flows = len(table.flows)
    delivered = np.zeros(n_flows, dtype=np.float64)
    if cfg.W_I <= 0.0:
        return delivered
    slot_budget = (min(cfg.C_I, bs_concurrency(cfg)) / cfg.C_I) * cfg.W_I   # bits per active slot

    flows_of_bs: dict[int, list[int]] = {}
    for i, f in enumerate(table.flows):
        if f.mode is Mode.INFRA:
            flows_of_bs.setdefault(f.uplink_bs, []).append(i)
    if not flows_of_bs:
        return delivered
    frame = bs_schedule.frame_length
    slot_of = bs_schedule.slot_of_bs_cell
    backlog = np.asarray([
        0.0 if table.flows[i].rate is not None else math.inf
        for i in range(n_flows)])
    rate = np.asarray([
        table.flows[i].rate if table.flows[i].rate is not None else 0.0
        for i in range(n_flows)])
    bs_list = [(bs, np.asarray(ids)) for bs, ids in sorted(flows_of_bs.items())]
    for t in range(horizon):
        finite = np.isfinite(backlog)
        if finite.any():
            backlog[finite] += rate[finite]
        active = t % frame
        measured = t >= warmup
        for bs, ids in bs_list:
            if slot_of[bs] != active:
                continue
            share = slot_budget / len(ids)
            moved = np.minimum(backlog[ids], share)
            # Redistribute slack from rate-limited flows to saturated ones.
            slack = float(share * len(ids) - moved.sum())
            if slack > 1e-12:
                hungry = ~np.isfinite(backlog[ids])
                if hungry.any():
                    moved = moved + np.where(hungry, slack / hungry.sum(), 0.0)
            sub = np.isfinite(backlog[ids])
            if sub.any():
                backlog[ids[sub]] -= moved[sub]
            if measured:
                delivered[ids] += moved
    return delivered


def measure_throughput(report: MetricsReport) -> dict:
    """Per-node and per-mode throughput from a completed run."""
    return {
        "lambda_measured": report.per_node_throughput,
        "T_A": report.T_A,
        "T_I": report.T_I,
    }


def measure_delay(report: MetricsReport) -> dict:
    """Delay decomposition; requires at least one delivered packet."""
    if report.delivered_adhoc_bits <= 0.0 and report.delivered_infra_bits <= 0.0:
        raise NoPacketsError("run delivered no traffic")
    return {"D_a": report.D_a, "D_i": report.D_i, "D": report.D}


METRICS_CSV_HEADER = [
    "n", "b", "m", "C", "C_A", "C_I", "W", "W_A", "W_I", "H", "delta",
    "antenna_mode", "theta", "phi", "seed", "horizon",
    "lambda_measured", "T_A", "T_I", "D_a", "D_i", "D",
    "n_t", "audit", "adhoc_flows", "infra_flows", "fallback_flows",
    "mean_adhoc_hops", "hop_histogram",
]


def report_csv_row(cfg: NetworkConfig, report: MetricsReport) -> list:
    hist = ";".join(f"{h}:{c}" for h, c in sorted(report.hop_histogram.items()))
    return [
        cfg.n, cfg.b, cfg.m, cfg.C, cfg.C_A, cfg.C_I, cfg.W, cfg.W_A, cfg.W_I,
        cfg.H, cfg.delta, cfg.antenna_mode.value, cfg.theta, cfg.phi,
        report.seed, report.horizon,
        report.per_node_throughput, report.T_A, report.T_I,
        report.D_a, report.D_i, report.D,
        report.n_t, report.audit, report.adhoc_flow_count,
        report.infra_flow_count, report.fallback_flow_count,
        report.mean_adhoc_hops, hist,
    ]


def report_to_csv(cfg: NetworkConfig, report: MetricsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_CSV_HEADER)
    writer.writerow(report_csv_row(cfg, report))
    return buf.getvalue()
