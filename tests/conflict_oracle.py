"""Pairwise reference for `mcis.scheduling.build_interference_graph`.

`interferes` states the interference model for one link and one competing
transmitter.  The scan follows the definition literally: every pair of
transmitters within reach is tested with it, once per hop of the victim and,
in directional mode, once per beam of the interferer.  It is slow and kept
only as the oracle the vectorized builder (and, through `audit_oracle`, the
schedule auditor) is compared against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from mcis.config import TWO_PI, AntennaMode
from mcis.scheduling import InterferenceGraph, InterferenceParams, _hop_arrays


def _covers(origin, boresight: float, width: float, target) -> bool:
    """Flat-top beam test: target within width/2 of the boresight direction."""
    angle = math.atan2(target[1] - origin[1], target[0] - origin[0])
    diff = (angle - boresight + math.pi) % TWO_PI - math.pi
    return abs(diff) <= width / 2.0


def interferes(tx_a, rx_a, tx_b, params: InterferenceParams, *,
               tx_b_boresight: float | None = None,
               rx_a_boresight: float | None = None) -> bool:
    """Would tx_b's same-channel transmission corrupt the tx_a -> rx_a link?

    Omni: dist(tx_b, rx_a) < (1 + delta) * dist(tx_a, rx_a).  Directional
    additionally requires tx_b's beam to cover rx_a and rx_a's receive beam
    (pointed at tx_a by default) to cover tx_b; unsupplied boresights default
    to the worst case (tx_b aimed at rx_a).
    """
    link = math.hypot(rx_a[0] - tx_a[0], rx_a[1] - tx_a[1])
    gap = math.hypot(rx_a[0] - tx_b[0], rx_a[1] - tx_b[1])
    if gap >= (1.0 + params.delta) * link:
        return False
    if params.mode is AntennaMode.OMNI:
        return True
    if tx_b_boresight is None:
        tx_b_boresight = math.atan2(rx_a[1] - tx_b[1], rx_a[0] - tx_b[0])
    if rx_a_boresight is None:
        rx_a_boresight = math.atan2(tx_a[1] - rx_a[1], tx_a[0] - rx_a[0])
    return (_covers(tx_b, tx_b_boresight, params.phi, rx_a)
            and _covers(rx_a, rx_a_boresight, params.phi, tx_b))


def conflict_pairs_exact(pos, tx, rx, params) -> np.ndarray:
    """Reference pairwise construction (any mode)."""
    hop_of: dict[int, list[int]] = {}
    for i, t in enumerate(tx.tolist()):
        hop_of.setdefault(t, []).append(i)
    nodes = sorted(hop_of)
    lengths = np.hypot(pos[tx, 0] - pos[rx, 0], pos[tx, 1] - pos[rx, 1])
    reach = (2.0 + params.delta) * (lengths.max() if len(lengths) else 0.0)
    node_pos = pos[np.asarray(nodes, dtype=np.int64)]
    tree = cKDTree(node_pos)
    cand = tree.query_pairs(reach, output_type="ndarray")
    directional = params.mode is AntennaMode.DIRECTIONAL
    pos_l = pos.tolist()
    tx_l = tx.tolist()
    rx_l = rx.tolist()

    def hits(u: int, v: int) -> bool:
        # Does u's transmission corrupt any of v's hops?
        pu = pos_l[u]
        for hv in hop_of[v]:
            target = pos_l[rx_l[hv]]
            if not directional:
                if math.hypot(target[0] - pu[0], target[1] - pu[1]) \
                        < (1.0 + params.delta) * lengths[hv]:
                    return True
                continue
            rx_bore = math.atan2(pos_l[tx_l[hv]][1] - target[1],
                                 pos_l[tx_l[hv]][0] - target[0])
            for hu in hop_of[u]:
                aim = pos_l[rx_l[hu]]
                bore = math.atan2(aim[1] - pu[1], aim[0] - pu[0])
                if interferes(pos_l[tx_l[hv]], target, pu, params,
                              tx_b_boresight=bore, rx_a_boresight=rx_bore):
                    return True
        return False

    out = []
    for i, j in cand:
        u = nodes[i]
        v = nodes[j]
        if hits(u, v) or hits(v, u):
            out.append((u, v))
    return np.asarray(out, dtype=np.int64).reshape(-1, 2)


def oracle_graph(topology, hops, params) -> InterferenceGraph:
    """The conflict graph built by the pairwise scan."""
    tx, rx = _hop_arrays(hops)
    pairs = conflict_pairs_exact(topology.node_positions, tx, rx, params)
    nodes = np.unique(tx)
    u, v = np.searchsorted(nodes, pairs.T)
    return InterferenceGraph.from_keys(nodes, np.unique(u * len(nodes) + v))
