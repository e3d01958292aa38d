"""Slot-by-slot reference for the playbacks in `mcis.simulator`.

`play_adhoc` steps every (frame, edge-color slot) in turn and `play_infra`
every (slot, base station), reading each flow from the table's `Flow`
records; every flow carries `demand` (None = saturated).  They are slow and
kept only as the oracles the array playbacks are compared against.
"""

from __future__ import annotations

import math

import numpy as np

from mcis.analytic import bs_concurrency
from mcis.routing import Mode


def play_adhoc(cfg, table, schedule, horizon: int, warmup: int, demand=None):
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
        demand if demand is not None else math.inf
        for f in fid.tolist()])
    inject = np.minimum(budget, rates)               # per-frame source feed

    by_slot = [np.flatnonzero(slot == s) for s in range(e_slots)]
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


def play_infra(cfg, table, bs_schedule, horizon: int, warmup: int, demand=None):
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
        0.0 if demand is not None else math.inf
        for i in range(n_flows)])
    rate = np.asarray([
        demand if demand is not None else 0.0
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
