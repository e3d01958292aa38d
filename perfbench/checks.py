"""Untimed checks on a workload's outputs, computed in the benchmark's own code.

Each check returns a list of failure messages; an empty list is a pass.  The
schedule audit is independent of `mcis.scheduling.verify_schedule`: it finds
its candidate pairs another way and applies the interference and beam-cover
predicates with its own arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

import mcis
from mcis.config import AntennaMode

from spans import patched

REL_TOL = 1e-9
MAX_MESSAGES = 5


@dataclass
class Instance:
    """One network as `run` builds it: topology, flows, schedule and the
    interference graph the vertex coloring used (None if it was not seen)."""

    topology: object
    table: object
    schedule: object
    graph: object


def build_instance(cfg, seed: int) -> Instance:
    """Rebuild the instance `run(cfg, seed, ...)` played, with public calls."""
    graphs = []

    def keep(fn):
        def wrapper(*args, **kwargs):
            graph = fn(*args, **kwargs)
            graphs.append(graph)
            return graph
        return wrapper

    topology = mcis.build_cell_grid(cfg)
    table = mcis.assign_flows(topology, cfg, seed)
    with patched("mcis.scheduling", "build_interference_graph", keep):
        schedule = mcis.build_adhoc_schedule(topology, table, cfg)
    return Instance(topology, table, schedule, graphs[-1] if graphs else None)


def _capped(messages: list, total: int, what: str) -> list:
    if total > MAX_MESSAGES:
        return messages[:MAX_MESSAGES] + [f"... {total} {what} in all"]
    return messages


def _angle(ax, ay, bx, by):
    """Unsigned angle between vectors a and b, in [0, pi]."""
    return np.arctan2(np.abs(ax * by - ay * bx), ax * bx + ay * by)


def audit_schedule(schedule, positions: np.ndarray, delta: float,
                   phi: float | None = None) -> tuple[list, int]:
    """Half-duplex and interference audit of an ad hoc schedule.

    No node may appear in two hops of one slot.  Within each (slot, mini-slot,
    channel) group, no other transmitter may lie closer to a receiver than
    (1 + delta) times that receiver's link length; with a node beamwidth phi
    (directional mode) a pair counts only if the interferer's beam, aimed at
    its own receiver, covers the victim receiver and the victim's beam, aimed
    at its own transmitter, covers the interferer.

    Returns the failures and the number of simultaneous same-channel hop
    pairs (unordered) that the audit had to consider.
    """
    tx = np.asarray(schedule.tx, dtype=np.int64)
    rx = np.asarray(schedule.rx, dtype=np.int64)
    if len(tx) == 0:
        return [], 0
    slot = np.asarray(schedule.slot, dtype=np.int64)
    n = len(positions)
    failures = []

    keys = np.concatenate([slot * n + tx, slot * n + rx])
    uniq, counts = np.unique(keys, return_counts=True)
    clashes = uniq[counts > 1]
    failures += _capped([f"node {k % n} is in two hops of slot {k // n}"
                         for k in clashes[:MAX_MESSAGES].tolist()],
                        len(clashes), "node-slot clashes")

    triples = np.column_stack([slot, schedule.mini, schedule.channel])
    _, group = np.unique(triples, axis=0, return_inverse=True)
    group = group.ravel()
    sizes = np.bincount(group)
    pairs = int((sizes * (sizes - 1) // 2).sum())

    # Distinct groups sit 10 apart on a third axis, further than any two
    # points of the unit square, so a 3-d radius search stays within a group.
    tp = positions[tx]
    rp = positions[rx]
    z = 10.0 * group.astype(np.float64)
    reach = (1.0 + delta) * np.hypot(*(tp - rp).T)
    near = cKDTree(np.column_stack([tp, z])).sparse_distance_matrix(
        cKDTree(np.column_stack([rp, z])), float(reach.max()), output_type="ndarray")
    i = near["i"].astype(np.int64)     # interfering hop
    j = near["j"].astype(np.int64)     # victim hop
    hit = (near["v"] < reach[j]) & (tx[i] != tx[j])
    i, j = i[hit], j[hit]
    if phi is not None:
        half = phi / 2.0
        tx_beam = _angle(*(rp[i] - tp[i]).T, *(rp[j] - tp[i]).T) <= half
        rx_beam = _angle(*(tp[j] - rp[j]).T, *(tp[i] - rp[j]).T) <= half
        keep = tx_beam & rx_beam
        i, j = i[keep], j[keep]
    order = np.lexsort((i, j))
    i, j = i[order], j[order]
    failures += _capped(
        [f"slot {slot[b]} mini {schedule.mini[b]} channel {schedule.channel[b]}: "
         f"tx {tx[a]} corrupts {tx[b]}->{rx[b]}"
         for a, b in zip(i[:MAX_MESSAGES].tolist(), j[:MAX_MESSAGES].tolist())],
        len(i), "interfering pairs")
    return failures, pairs


def routing_violations(table, positions: np.ndarray, H: int, tx_range: float) -> list:
    """Every ad hoc chain has at most H hops, each at most r(n) long; each
    relay lies strictly further along the S-D segment than the one before
    (the destination itself may lie behind the last relay)."""
    failures = []
    bad = 0
    for fid, flow in enumerate(table.flows):
        if flow.mode is not mcis.Mode.ADHOC:
            continue
        chain = [flow.src, *flow.adhoc_path, flow.dst]
        pts = positions[chain]
        problems = []
        if len(chain) - 1 > H:
            problems.append(f"{len(chain) - 1} hops > H={H}")
        longest = float(np.hypot(*(pts[1:] - pts[:-1]).T).max())
        if longest > tx_range * (1.0 + 1e-12):
            problems.append(f"hop of {longest:.6g} > r={tx_range:.6g}")
        if flow.adhoc_path:
            seg = pts[-1] - pts[0]
            t = (pts[1:-1] - pts[0]) @ seg / (seg @ seg)
            if t[0] <= 0.0 or np.any(np.diff(t) <= 0.0):
                problems.append("relays do not advance along the segment")
        if problems:
            bad += 1
            if len(failures) < MAX_MESSAGES:
                failures.append(f"flow {fid} ({flow.src}->{flow.dst}): "
                                + "; ".join(problems))
    return _capped(failures, bad, "bad chains")


def hop_degree_max(schedule) -> int:
    """Delta of the hop multigraph: most hops touching one node."""
    if schedule.hop_count == 0:
        return 0
    return int(np.bincount(np.concatenate([schedule.tx, schedule.rx])).max())


def vertex_color_count(schedule) -> int:
    return max(schedule.tx_color.values(), default=0)


def coloring_violations(schedule, graph) -> list:
    """Greedy bounds: edge colors <= 2 Delta - 1, vertex colors <= Delta_G + 1."""
    failures = []
    if schedule.hop_count == 0:
        return failures
    delta_h = hop_degree_max(schedule)
    if schedule.edge_color_count > 2 * delta_h - 1:
        failures.append(f"{schedule.edge_color_count} edge colors > 2*{delta_h}-1")
    if graph is not None and vertex_color_count(schedule) > graph.max_degree() + 1:
        failures.append(f"{vertex_color_count(schedule)} vertex colors > "
                        f"{graph.max_degree()}+1")
    return failures


def _close(measured: float, expected: float) -> bool:
    return math.isclose(measured, expected, rel_tol=REL_TOL, abs_tol=0.0)


def bs_concurrency_bound(cfg) -> int:
    """m_eff: m for omni, floor(2 pi / theta) * C_I for directional."""
    if cfg.antenna_mode is AntennaMode.DIRECTIONAL:
        return math.floor(2.0 * math.pi / cfg.theta + 1e-9) * cfg.C_I
    return cfg.m


def throughput_violations(case, report, inst: Instance, k8: int) -> list:
    """Saturated: T_A = adhoc_flows W_A / (C_A edge_colors minislots) and
    T_I = b' W_I min(C_I, m_eff) / C_I / (k8 + 1), where b' counts the base
    stations with an uplink flow; one with no flow has nothing to send.
    Below capacity: T_A + T_I = demand x flows."""
    schedule = inst.schedule
    cfg = case.cfg
    if case.demand is not None:
        flows = report.adhoc_flow_count + report.infra_flow_count
        expected = case.demand * flows
        got = report.T_A + report.T_I
        if not _close(got, expected):
            return [f"T_A + T_I = {got!r}, demand x flows = {expected!r}"]
        return []
    failures = []
    t_a = 0.0
    if schedule.hop_count:
        t_a = report.adhoc_flow_count * cfg.W_A / (
            cfg.C_A * schedule.edge_color_count * schedule.minislot_count)
    if not _close(report.T_A, t_a):
        failures.append(f"T_A = {report.T_A!r}, expected {t_a!r}")
    serving = len({f.uplink_bs for f in inst.table.flows if f.mode is mcis.Mode.INFRA})
    t_i = serving * cfg.W_I * min(cfg.C_I, bs_concurrency_bound(cfg)) / cfg.C_I / (k8 + 1)
    if not _close(report.T_I, t_i):
        failures.append(f"T_I = {report.T_I!r}, expected {t_i!r}")
    return failures


def concentration_violations(cfg, report) -> list:
    """n_t within [0.5, 1.5] n min(1, pi H^2 r^2)."""
    r = cfg.r_factor * math.sqrt(2.0 * math.log(cfg.n) / (math.pi * cfg.n))
    expected = cfg.n * min(1.0, math.pi * (cfg.H * r) ** 2)
    if not 0.5 * expected <= report.n_t <= 1.5 * expected:
        return [f"n_t = {report.n_t} outside [0.5, 1.5] x {expected:.1f}"]
    return []


def consistency_violations(table, report) -> list:
    """The rebuilt flow table is the one the report describes."""
    adhoc = sum(1 for f in table.flows if f.mode is mcis.Mode.ADHOC)
    seen = {"adhoc flows": (adhoc, report.adhoc_flow_count),
            "infra flows": (len(table.flows) - adhoc, report.infra_flow_count),
            "fallbacks": (sum(1 for f in table.flows if f.fallback),
                          report.fallback_flow_count),
            "n_t": (sum(1 for f in table.flows if f.eligible_adhoc), report.n_t)}
    return [f"rebuilt {name} {mine} != reported {theirs}"
            for name, (mine, theirs) in seen.items() if mine != theirs]


def scaling_violations(cases, reports, max_spread: float = 2.0) -> list:
    """lambda / (W / sqrt(n ln n)) and D_a / (H^3 ln n / n) each spread at
    most max_spread across the cases, one per n."""
    lam, d_a = [], []
    for case, report in zip(cases, reports):
        cfg, n = case.cfg, case.cfg.n
        lam.append(report.per_node_throughput / (cfg.W / math.sqrt(n * math.log(n))))
        d_a.append(report.D_a / (cfg.H ** 3 * math.log(n) / n))
    failures = []
    for name, ratios in (("lambda", lam), ("D_a", d_a)):
        if min(ratios) <= 0.0 or max(ratios) / min(ratios) > max_spread:
            failures.append(f"{name} ratio spread over n: {ratios}")
    return failures


def instance_checks(inst: Instance, cfg) -> tuple[list, dict]:
    """Checks that depend on the instance only, and its per-layer counts."""
    positions = inst.topology.node_positions
    phi = cfg.phi if cfg.antenna_mode is AntennaMode.DIRECTIONAL else None
    failures, audit_pairs = audit_schedule(inst.schedule, positions, cfg.delta, phi)
    failures += routing_violations(inst.table, positions, cfg.H, inst.topology.tx_range)
    if int(inst.table.per_node_load.sum()) != inst.schedule.hop_count:
        failures.append(f"per_node_load sums to {int(inst.table.per_node_load.sum())}, "
                        f"schedule has {inst.schedule.hop_count} hops")
    failures += coloring_violations(inst.schedule, inst.graph)
    flows = inst.table.flows
    infra = sum(1 for f in flows if f.mode is mcis.Mode.INFRA)
    graph = inst.graph
    counts = {
        "routing.flows": len(flows),
        "routing.eligible": sum(1 for f in flows if f.eligible_adhoc),
        "routing.adhoc_flows": len(flows) - infra,
        "routing.fallbacks": sum(1 for f in flows if f.fallback),
        "routing.hops": sum(f.hop_count for f in flows),
        "routing.bs_lookups": 2 * infra,
        "scheduling.hop_degree_max": hop_degree_max(inst.schedule),
        "scheduling.edge_colors": inst.schedule.edge_color_count,
        "scheduling.minislots": inst.schedule.minislot_count,
        "scheduling.igraph_nodes": graph.order if graph is not None else 0,
        "scheduling.igraph_edges": graph.edge_count if graph is not None else 0,
        "scheduling.igraph_degree_max": graph.max_degree() if graph is not None else 0,
        "scheduling.vertex_colors": vertex_color_count(inst.schedule),
        "scheduling.audit_pairs": audit_pairs,
    }
    return failures, counts
