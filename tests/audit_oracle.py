"""Pairwise reference for `mcis.scheduling.verify_schedule`.

The audit loops over each (slot, mini-slot, channel) group in Python and, in
directional mode, calls the scalar `interferes` predicate once per candidate
pair.  It is slow and kept only as the oracle the elementwise auditor is
compared against.
"""

from __future__ import annotations

import math

import numpy as np

from conflict_oracle import interferes
from mcis.config import AntennaMode
from mcis.geometry import Topology
from mcis.scheduling import AdHocSchedule, InterferenceParams, Violation


def verify_schedule_exact(schedule: AdHocSchedule, topology: Topology,
                          params: InterferenceParams) -> list:
    """Brute-force audit: every simultaneous same-channel pair is tested with
    the interference predicate, and every node for duplex conflicts."""
    violations: list[Violation] = []
    m = schedule.hop_count
    if m == 0:
        return violations
    pos = topology.node_positions
    tx, rx = schedule.tx, schedule.rx
    slot, mini, channel = schedule.slot, schedule.mini, schedule.channel

    # Duplex: a node in two hops of the same (slot, mini) cannot both
    # transmit and receive (or double-transmit) at once.
    time_key = slot * (schedule.minislot_count + 1) + mini
    both = np.concatenate([time_key, time_key])
    nodes = np.concatenate([tx, rx])
    order = np.lexsort((nodes, both))
    bk, nk = both[order], nodes[order]
    dup = np.flatnonzero((bk[1:] == bk[:-1]) & (nk[1:] == nk[:-1]))
    for idx in dup.tolist():
        t = int(bk[idx])
        violations.append(Violation(
            kind="duplex",
            slot=t // (schedule.minislot_count + 1),
            mini=t % (schedule.minislot_count + 1),
            channel=-1, node_a=int(nk[idx]), node_b=-1))

    # Interference: group by (slot, mini, channel).
    group_key = (slot * (schedule.minislot_count + 1) + mini) \
        * (int(channel.max()) + 1) + channel
    order = np.argsort(group_key, kind="stable")
    directional = params.mode is AntennaMode.DIRECTIONAL
    gk = group_key[order]
    starts = np.flatnonzero(np.r_[True, gk[1:] != gk[:-1]])
    ends = np.r_[starts[1:], len(gk)]
    link_len = np.hypot(pos[tx, 0] - pos[rx, 0], pos[tx, 1] - pos[rx, 1])
    for lo, hi in zip(starts.tolist(), ends.tolist()):
        if hi - lo < 2:
            continue
        idx = order[lo:hi]
        tpos = pos[tx[idx]]
        rpos = pos[rx[idx]]
        thr = (1.0 + params.delta) * link_len[idx]
        # gap[i, j]: distance from transmitter j to receiver i.
        gap = np.hypot(rpos[:, 0][:, None] - tpos[:, 0][None, :],
                       rpos[:, 1][:, None] - tpos[:, 1][None, :])
        bad = gap < thr[:, None]
        np.fill_diagonal(bad, False)
        for i, j in zip(*np.nonzero(bad)):
            if tx[idx[i]] == tx[idx[j]]:
                continue
            if directional and not interferes(
                    tuple(tpos[i]), tuple(rpos[i]), tuple(tpos[j]), params,
                    tx_b_boresight=math.atan2(rpos[j, 1] - tpos[j, 1],
                                              rpos[j, 0] - tpos[j, 0]),
                    rx_a_boresight=math.atan2(tpos[i, 1] - rpos[i, 1],
                                              tpos[i, 0] - rpos[i, 0])):
                continue
            violations.append(Violation(
                kind="interference",
                slot=int(slot[idx[i]]), mini=int(mini[idx[i]]),
                channel=int(channel[idx[i]]),
                node_a=int(tx[idx[i]]), node_b=int(tx[idx[j]])))
    return violations
