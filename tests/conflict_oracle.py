"""Pairwise reference for `mcis.scheduling.build_interference_graph`.

The scan follows the definition literally: every pair of transmitters within
reach is tested with the scalar `interferes` predicate, once per hop of the
victim and, in directional mode, once per beam of the interferer.  It is slow
and kept only as the oracle the vectorized builder is compared against.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

from mcis.config import AntennaMode
from mcis.scheduling import InterferenceGraph, _hop_arrays, interferes


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
    return InterferenceGraph.from_edge_array(np.unique(tx), pairs)
