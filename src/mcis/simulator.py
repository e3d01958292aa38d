"""One run: build the network once, then play its two frames and measure them.

`build` places the nodes, routes the flows and builds and audits the ad hoc
schedule; `play` plays the ad hoc TDMA frame and the BS round-robin frame
and computes the metrics.  `run` is `build` then `play`, and the CLI's
`--dump-flows`/`--dump-schedule` write the network that the same `build`
returned.

Time unit: one slot = one second = one full ad hoc edge-color frame.  The BS
frame spans k8+1 slots (one BS-cell per cluster active per slot).  Traffic is
fluid: sources are saturated, or every flow carries the same finite `demand`,
and each scheduled hop moves up to its per-frame budget.  Delays are transit
constants, one slot per ad hoc hop and c / concurrency per BS service;
queueing delay is excluded by the model.  Infrastructure bits count once, at
uplink completion into the wired core (the wire and downlink are unconstrained
and symmetric).

Both playbacks run over the columnar flow table and the schedule arrays: the
ad hoc frame steps its hops in dependency order (`_hop_depth`), the BS frame
serves each slot's flows with one masked update.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analytic import bs_concurrency
from .config import NetworkConfig, require_network
from .errors import ConfigError, HorizonTooShortError, ScheduleInvalidError
from .geometry import Topology, build_cell_grid
from .routing import EMPTY_CELL, HOP_BUDGET, FlowTable, assign_flows
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
    audit: int                      # auditor violations: 0, since `build` raises on any
    delivered_adhoc_bits: float
    delivered_infra_bits: float
    adhoc_flow_count: int
    infra_flow_count: int
    fallback_flow_count: int
    mean_adhoc_hops: float
    seed: int
    horizon: int
    warmup: int
    fallback_empty_cell: int        # fallbacks with no reachable forward relay
    fallback_hop_budget: int        # fallbacks whose chain would exceed H hops


def check_run(cfg: NetworkConfig, horizon: int, k8: int, warmup_superframes: int) -> int:
    """The warm-up in slots, once the run's arguments pass their checks.

    Raises ConfigError for n < 3, k8 < 0 or a negative warm-up, and
    HorizonTooShortError unless the horizon covers the warm-up plus one BS
    frame.
    """
    require_network(cfg)
    if k8 < 0:
        raise ConfigError(f"k8 must be >= 0, got {k8}")
    if warmup_superframes < 0:
        raise ConfigError(f"warm-up must be >= 0 super-frames, got {warmup_superframes}")
    frame = k8 + 1
    warmup = warmup_superframes * frame
    if horizon < frame or horizon <= warmup:
        raise HorizonTooShortError(
            f"horizon={horizon} slots does not cover warmup={warmup} plus one "
            f"{frame}-slot frame")
    return warmup


def run(cfg: NetworkConfig, seed: int, horizon: int, *,
        k8: int = 8,
        warmup_superframes: int = 2,
        demand: float | None = None,
        interior_margin: float = 0.0) -> MetricsReport:
    """Build the network for one seed, then play it (see `build` and `play`).

    The arguments are checked before anything is built.
    """
    check_run(cfg, horizon, k8, warmup_superframes)
    return play(cfg, build(cfg, seed), seed, horizon, k8=k8,
                warmup_superframes=warmup_superframes, demand=demand,
                interior_margin=interior_margin)


def build(cfg: NetworkConfig, seed: int) -> tuple[Topology, FlowTable, AdHocSchedule]:
    """Topology, flow table and audited ad hoc schedule for one seed of a
    network that passes `require_network`.

    Raises ScheduleInvalidError if the auditor finds any violation.
    """
    topology = build_cell_grid(cfg, positions=None)
    table = assign_flows(topology, cfg, seed)
    schedule = build_adhoc_schedule(topology, table, cfg)
    found = verify_schedule(schedule, topology, InterferenceParams.from_config(cfg))
    if found:
        raise ScheduleInvalidError(f"{len(found)} violations, first: {found[0]}")
    return topology, table, schedule


def play(cfg: NetworkConfig, network: tuple[Topology, FlowTable, AdHocSchedule],
         seed: int, horizon: int, *,
         k8: int = 8,
         warmup_superframes: int = 2,
         demand: float | None = None,
         interior_margin: float = 0.0) -> MetricsReport:
    """Play a built network's two frames and measure them.

    horizon is in slots and must cover the warm-up plus at least one BS frame.
    demand caps every flow at that many bits/sec (None = saturated sources).
    interior_margin > 0 restricts the metrics to flows whose endpoints both
    lie at least that far from the unit-square border (boundary-effect
    filter); the schedule itself still carries every flow.  D_a is the
    delivered-bit-weighted mean hop count (one slot per hop).  Raises as
    `check_run` does.
    """
    warmup = check_run(cfg, horizon, k8, warmup_superframes)
    topology, table, schedule = network
    bs_schedule = build_bs_schedule(cfg.b0, k8)

    window = float(horizon - warmup)
    n_flows = len(table.src)
    adhoc_bits, flow_hop_counts = _play_adhoc(cfg, schedule, n_flows, horizon, warmup,
                                              demand)
    infra_bits = _play_infra(cfg, table, bs_schedule, horizon, warmup, demand)

    node_count = cfg.n
    if interior_margin > 0.0:
        pos = topology.node_positions
        inner = np.all((pos >= interior_margin) & (pos <= 1.0 - interior_margin),
                       axis=1)
        keep = inner[table.src] & inner[table.dst]
        adhoc_bits = np.where(keep, adhoc_bits, 0.0)
        infra_bits = np.where(keep, infra_bits, 0.0)
        node_count = int(inner.sum())

    total_a = float(adhoc_bits.sum())
    total_i = float(infra_bits.sum())
    t_a = total_a / window
    t_i = total_i / window

    hops, flows = np.unique(flow_hop_counts[adhoc_bits > 0.0], return_counts=True)
    if total_a > 0.0:
        mean_hops = float((adhoc_bits * flow_hop_counts).sum() / total_a)
    else:
        mean_hops = 0.0
    d_i = cfg.bs_service_constant / bs_concurrency(cfg) if total_i > 0.0 else 0.0
    total = total_a + total_i
    d = (total_a * mean_hops + total_i * d_i) / total if total > 0.0 else 0.0
    adhoc_flows = int(np.count_nonzero(table.adhoc))

    return MetricsReport(
        per_node_throughput=(t_a + t_i) / node_count if node_count else 0.0,
        T_A=t_a, T_I=t_i, D_a=mean_hops, D_i=d_i, D=d,
        hop_histogram=dict(zip(hops.tolist(), flows.tolist())),
        n_t=int(np.count_nonzero(table.eligible)),
        audit=0,
        delivered_adhoc_bits=total_a,
        delivered_infra_bits=total_i,
        adhoc_flow_count=adhoc_flows,
        infra_flow_count=n_flows - adhoc_flows,
        fallback_flow_count=int(np.count_nonzero(table.fallback_cause)),
        mean_adhoc_hops=mean_hops,
        seed=seed, horizon=horizon, warmup=warmup,
        fallback_empty_cell=int(np.count_nonzero(table.fallback_cause == EMPTY_CELL)),
        fallback_hop_budget=int(np.count_nonzero(table.fallback_cause == HOP_BUDGET)),
    )


def _hop_depth(first: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """Each hop's position in its run of strictly increasing slots along its
    flow, for hops sorted by (flow, hop index); first marks each flow's
    first hop.

    Within a frame a hop's queue changes only by its own send and its
    predecessor's, and it receives before it sends exactly when the
    predecessor's slot is lower.  Stepping the hops by depth 0, 1, ...
    therefore applies every queue's operations in slot order.
    """
    pos = np.arange(len(slot))
    reset = first.copy()
    reset[1:] |= slot[1:] <= slot[:-1]
    return pos - np.maximum.accumulate(np.where(reset, pos, 0))


def _play_adhoc(cfg: NetworkConfig, schedule: AdHocSchedule, n_flows: int,
                horizon: int, warmup: int, demand: float | None = None):
    """Per-frame fluid propagation along every flow's hop chain.

    Returns bits delivered inside the measurement window per flow (indexed by
    flow id) and each flow's hop count.  Each source feeds
    min(budget, demand) bits per frame (budget when demand is None).
    """
    hop_counts = np.zeros(n_flows, dtype=np.int64)
    delivered = np.zeros(n_flows, dtype=np.float64)
    if schedule.hop_count == 0 or cfg.W_A <= 0.0:
        return delivered, hop_counts
    budget = cfg.W_A / (cfg.C_A * schedule.edge_color_count
                        * schedule.minislot_count)   # bits per hop per frame
    inject = budget if demand is None else min(budget, demand)

    # Hops sorted by (flow, hop_index) so that hop i feeds hop i+1.
    order = np.lexsort((schedule.hop_index, schedule.flow_id))
    fid = schedule.flow_id[order]
    slot = schedule.slot[order]
    first = np.ones(len(fid), dtype=bool)
    first[1:] = fid[1:] != fid[:-1]
    last = np.ones(len(fid), dtype=bool)
    last[:-1] = first[1:]
    hop_counts[fid[last]] = schedule.hop_index[order][last] + 1
    first_ids = np.flatnonzero(first)

    # Per depth: the hops that pass their bits on, then those that deliver.
    depth = _hop_depth(first, slot)
    levels = []
    for d in range(int(depth.max()) + 1):
        relay = np.flatnonzero((depth == d) & ~last)
        final = np.flatnonzero((depth == d) & last)
        levels.append((np.concatenate([relay, final]), relay + 1, len(relay), fid[final]))

    queues = np.zeros(len(fid), dtype=np.float64)
    for t in range(horizon):
        queues[first_ids] += inject
        measured = t >= warmup
        for idx, nxt, split, flows in levels:
            moved = np.minimum(queues[idx], budget)
            queues[idx] -= moved
            queues[nxt] += moved[:split]
            if measured:
                delivered[flows] += moved[split:]
    return delivered, hop_counts


def _play_infra(cfg: NetworkConfig, table: FlowTable, bs_schedule,
                horizon: int, warmup: int, demand: float | None = None) -> np.ndarray:
    """BS-cell round-robin uplink service; bits count at wired-core ingress.

    In each slot every active BS splits its slot budget evenly over its
    uplink flows; a flow moves its share or, under a finite demand, its
    backlog if that is smaller.
    """
    delivered = np.zeros(len(table.src), dtype=np.float64)
    if cfg.W_I <= 0.0:
        return delivered
    slot_budget = (min(cfg.C_I, bs_concurrency(cfg)) / cfg.C_I) * cfg.W_I   # bits per active slot
    infra = np.flatnonzero(~table.adhoc)
    bs = table.uplink_bs[infra]
    share = slot_budget / np.bincount(bs)[bs]
    slot_of = bs_schedule.slot_of_bs_cell[bs]
    # Per BS frame slot: positions into `infra` of the flows served then.
    served = [np.flatnonzero(slot_of == s) for s in range(bs_schedule.frame_length)]
    # A saturated source's backlog stays infinite.
    backlog = np.full(len(infra), math.inf if demand is None else 0.0)
    feed = 0.0 if demand is None else demand
    for t in range(horizon):
        backlog += feed
        now = served[t % bs_schedule.frame_length]
        moved = np.minimum(backlog[now], share[now])
        backlog[now] -= moved
        if t >= warmup:
            delivered[infra[now]] += moved
    return delivered


METRICS_CSV_HEADER = [
    "n", "b", "m", "C", "C_A", "C_I", "W", "W_A", "W_I", "H", "delta",
    "antenna_mode", "theta", "phi", "seed", "horizon",
    "lambda_measured", "T_A", "T_I", "D_a", "D_i", "D",
    "n_t", "audit", "adhoc_flows", "infra_flows", "fallback_flows",
    "mean_adhoc_hops", "hop_histogram", "fallback_empty_cell", "fallback_hop_budget",
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
        report.fallback_empty_cell, report.fallback_hop_budget,
    ]

