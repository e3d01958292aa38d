"""Interference model, greedy colorings, TDMA assembly, and the schedule auditor.

The ad hoc TDMA frame is an edge coloring of the hop multigraph (one slot per
color, so every node is in at most one hop per slot) subdivided into
mini-slots: a vertex coloring of the transmitter interference graph maps each
transmitter to (mini-slot, channel) = (ceil(s / C_A), (s mod C_A) + 1).
The interference graph is built in one vectorized pass for both antenna
modes; the pairwise definition it must match lives in the test suite
(`tests/conflict_oracle.py`) as the oracle.
Base-station cells run a round-robin frame of k8+1 slots over square clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .config import TWO_PI, AntennaMode, NetworkConfig
from .errors import ClusterMismatchError
from .geometry import Topology
from .analytic import sector_count


@dataclass
class InterferenceParams:
    delta: float
    mode: AntennaMode = AntennaMode.OMNI
    theta: float = TWO_PI
    phi: float = TWO_PI

    @classmethod
    def from_config(cls, cfg: NetworkConfig) -> "InterferenceParams":
        return cls(delta=cfg.delta, mode=cfg.antenna_mode,
                   theta=cfg.theta, phi=cfg.phi)


def _covers(origin, boresight: float, width: float, target) -> bool:
    """Flat-top beam test: target within width/2 of the boresight direction."""
    angle = math.atan2(target[1] - origin[1], target[0] - origin[0])
    diff = (angle - boresight + math.pi) % TWO_PI - math.pi
    return abs(diff) <= width / 2.0


def interferes(tx_a, rx_a, tx_b, params: InterferenceParams, *,
               tx_b_boresight: float | None = None,
               rx_a_boresight: float | None = None,
               tx_b_beamwidth: float | None = None,
               rx_a_beamwidth: float | None = None) -> bool:
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
    tx_width = params.phi if tx_b_beamwidth is None else tx_b_beamwidth
    rx_width = params.phi if rx_a_beamwidth is None else rx_a_beamwidth
    return (_covers(tx_b, tx_b_boresight, tx_width, rx_a)
            and _covers(rx_a, rx_a_boresight, rx_width, tx_b))


@dataclass
class InterferenceGraph:
    """Undirected conflict graph over transmitting nodes (CSR adjacency)."""

    nodes: np.ndarray        # sorted node ids
    indptr: np.ndarray
    indices: np.ndarray      # positions into `nodes`

    @property
    def order(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.indices) // 2

    def max_degree(self) -> int:
        if self.order == 0:
            return 0
        return int(np.max(np.diff(self.indptr), initial=0))

    def neighbors(self, i: int) -> np.ndarray:
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        iu = int(np.searchsorted(self.nodes, u))
        iv = int(np.searchsorted(self.nodes, v))
        if iu >= self.order or self.nodes[iu] != u:
            return False
        if iv >= self.order or self.nodes[iv] != v:
            return False
        return iv in self.neighbors(iu)

    @classmethod
    def from_edge_array(cls, nodes: np.ndarray, pairs: np.ndarray) -> "InterferenceGraph":
        """Build from an (m, 2) array of node-id pairs (deduplicated here)."""
        nodes = np.asarray(nodes)
        order = len(nodes)
        if len(pairs) == 0:
            return cls(nodes=nodes,
                       indptr=np.zeros(order + 1, dtype=np.int64),
                       indices=np.empty(0, dtype=np.int64))
        a = np.searchsorted(nodes, pairs[:, 0])
        b = np.searchsorted(nodes, pairs[:, 1])
        keep = a != b
        a, b = a[keep], b[keep]
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        key = np.unique(lo.astype(np.int64) * order + hi)
        lo = key // order
        hi = key % order
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order_idx = np.argsort(src, kind="stable")
        src = src[order_idx]
        dst = dst[order_idx]
        indptr = np.zeros(order + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(nodes=nodes, indptr=indptr, indices=dst)


def _hop_arrays(hops) -> tuple[np.ndarray, np.ndarray]:
    hops = list(hops)
    if not hops:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    arr = np.asarray(hops, dtype=np.int64)
    return arr[:, 0], arr[:, 1]


# Rows of (transmitter, hop) candidates the builder expands at a time; the
# blocks, each deduplicated on its own, hold its peak memory down.
_BLOCK_ROWS = 1 << 15


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) over the (start, count) pairs."""
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(int(counts.sum()))


def _in_beam(angle: np.ndarray, boresight: np.ndarray, width: float) -> np.ndarray:
    """Flat-top beam test on precomputed angles, elementwise."""
    return np.abs((angle - boresight + math.pi) % TWO_PI - math.pi) <= width / 2.0


def build_interference_graph(topology: Topology, hops,
                             params: InterferenceParams) -> InterferenceGraph:
    """Conflict graph: u ~ v iff one's transmission can corrupt the other's
    reception for some pair of their scheduled hops.

    Both antenna modes share one vectorized pass over the (transmitter,
    receiver) pairs within the largest guard distance.  A transmitter u hits
    hop h when dist(u, rx_h) < (1 + delta)|h|; in directional mode rx_h's beam,
    aimed at tx_h, must also cover u, and one of u's beams, each aimed at one
    of u's receivers, must cover rx_h.
    """
    tx, rx = _hop_arrays(hops)
    nodes = np.unique(tx)
    if len(nodes) == 0:
        pairs = np.empty((0, 2), dtype=np.int64)
    else:
        pairs = _conflict_pairs(topology.node_positions, tx, rx, nodes, params)
    return InterferenceGraph.from_edge_array(nodes, pairs)


def _conflict_pairs(pos, tx, rx, nodes, params) -> np.ndarray:
    """(u, v) node-id pairs, u < v, of the conflict graph over `nodes`."""
    order = len(nodes)
    # Distinct hops, grouped by sender (a position in `nodes`).
    htx, hrx = np.divmod(np.unique(tx * len(pos) + rx), len(pos))
    sender = np.searchsorted(nodes, htx)
    hop_first = np.searchsorted(sender, np.arange(order))
    hop_count = np.diff(np.append(hop_first, len(htx)))
    link = pos[hrx] - pos[htx]
    thr = (1.0 + params.delta) * np.hypot(link[:, 0], link[:, 1])
    receivers, receiver = np.unique(hrx, return_inverse=True)
    cand = cKDTree(pos[nodes]).sparse_distance_matrix(
        cKDTree(pos[receivers]), float(thr.max()), output_type="ndarray")
    # Rank thresholds and distances together: the integer key (receiver,
    # falling threshold rank) orders each receiver's hops exactly, and a
    # candidate at distance d hits the prefix of its receiver's hops whose
    # threshold ranks above d.
    values, rank = np.unique(np.concatenate([thr, cand["v"]]), return_inverse=True)
    k = len(values)
    hop_key = receiver * k + (k - 1 - rank[:len(thr)])
    by_key = np.argsort(hop_key, kind="stable")
    hop_key = hop_key[by_key]
    base = cand["j"] * k
    first = np.searchsorted(hop_key, base)
    count = np.searchsorted(hop_key, base + (k - 1 - rank[len(thr):])) - first
    u_all = cand["i"]
    directional = params.mode is AntennaMode.DIRECTIONAL
    if directional:
        # Each angle comes from its own difference, never a negated one:
        # atan2 tells +0 from -0, and a relay, as interferer, lies at distance
        # 0 from the receiver of every hop that reaches it.
        back = pos[htx] - pos[hrx]
        rx_bore = np.arctan2(back[:, 1], back[:, 0])
        tx_bore = np.arctan2(link[:, 1], link[:, 0])
    rows = count * hop_count[u_all] if directional else count
    block = (np.cumsum(rows) - rows) // _BLOCK_ROWS
    bounds = np.r_[0, np.flatnonzero(np.diff(block)) + 1, len(rows)]
    keys = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        u = np.repeat(u_all[lo:hi], count[lo:hi])
        h = by_key[_ranges(first[lo:hi], count[lo:hi])]
        keep = sender[h] != u
        u, h = u[keep], h[keep]
        if directional:
            seen = pos[nodes[u]] - pos[hrx[h]]
            keep = _in_beam(np.arctan2(seen[:, 1], seen[:, 0]), rx_bore[h], params.phi)
            u, h = u[keep], h[keep]
            gap = pos[hrx[h]] - pos[nodes[u]]
            each = np.repeat(np.arange(len(u)), hop_count[u])
            aims = _ranges(hop_first[u], hop_count[u])
            keep = each[_in_beam(np.arctan2(gap[each, 1], gap[each, 0]),
                                 tx_bore[aims], params.phi)]
            u, h = u[keep], h[keep]
        v = sender[h]
        keys.append(np.unique(np.minimum(u, v) * order + np.maximum(u, v)))
    key = np.unique(np.concatenate(keys))
    return np.column_stack([nodes[key // order], nodes[key % order]])


def _lowest_free_bit(mask: int) -> int:
    return ((~mask) & (mask + 1)).bit_length() - 1


def edge_color(edges, n_nodes: int | None = None) -> np.ndarray:
    """Greedy proper edge coloring of a multigraph; uses <= 2*maxdeg - 1 colors.

    Edges are (u, v) pairs processed in the given order; colors are 0-based.
    """
    if isinstance(edges, np.ndarray):
        edges = edges.tolist()
    else:
        edges = list(edges)
    if not edges:
        return np.empty(0, dtype=np.int64)
    if n_nodes is None:
        n_nodes = max(max(u, v) for u, v in edges) + 1
    masks = [0] * n_nodes
    colors = np.empty(len(edges), dtype=np.int64)
    for i, (u, v) in enumerate(edges):
        c = _lowest_free_bit(masks[u] | masks[v])
        bit = 1 << c
        masks[u] |= bit
        masks[v] |= bit
        colors[i] = c
    return colors


def vertex_color(graph: InterferenceGraph) -> np.ndarray:
    """Greedy proper vertex coloring in node-id order; <= maxdeg + 1 colors, 1-based."""
    order = graph.order
    colors = np.zeros(order, dtype=np.int64)
    if order == 0:
        return colors
    cap = graph.max_degree() + 2
    indptr = graph.indptr
    indices = graph.indices
    for i in range(order):
        used = np.zeros(cap + 1, dtype=bool)
        used[colors[indices[indptr[i]:indptr[i + 1]]]] = True
        colors[i] = int(np.argmax(~used[1:])) + 1
    return colors


def minislot_of(s: int, C_A: int) -> tuple[int, int]:
    """Vertex color s >= 1 to (mini_slot, channel) = (ceil(s/C_A), (s mod C_A)+1)."""
    if s < 1 or C_A < 1:
        raise ValueError(f"need s >= 1 and C_A >= 1, got s={s}, C_A={C_A}")
    return (s + C_A - 1) // C_A, (s % C_A) + 1


def interfering_cell_bound(delta: float, mode: AntennaMode = AntennaMode.OMNI,
                           phi: float = TWO_PI) -> float:
    """Constant bound on interfering cells: 4(1+delta)^2 omni,
    81(2+delta)^2 * phi^2 / (4 pi^2) directional."""
    if mode is AntennaMode.DIRECTIONAL:
        return 81.0 * (2.0 + delta) ** 2 * (phi / TWO_PI) ** 2
    return 4.0 * (1.0 + delta) ** 2


def bs_interfaces_directional(theta: float, C_I: int) -> int:
    """Interfaces a directional BS carries: floor(2 pi / theta) sectors x C_I channels."""
    return sector_count(theta) * C_I


@dataclass
class BsSchedule:
    """Round-robin frame over BS-cells; one cell per cluster active per slot."""

    frame_length: int                 # k8 + 1
    slot_of_bs_cell: np.ndarray       # (b0*b0,) slot in [0, k8]


def build_bs_schedule(b0: int, k8: int = 8) -> BsSchedule:
    """Tile the b0 x b0 BS grid with sqrt(k8+1)-sided clusters."""
    frame = k8 + 1
    q = math.isqrt(frame)
    if q * q != frame:
        raise ClusterMismatchError(f"k8+1 = {frame} is not a perfect square")
    rows, cols = np.divmod(np.arange(b0 * b0), b0)
    slots = (rows % q) * q + (cols % q)
    return BsSchedule(frame_length=frame, slot_of_bs_cell=slots.astype(np.int64))


@dataclass
class AdHocSchedule:
    """TDMA assignment for every ad hoc hop.

    Slots are 0-based edge colors; mini-slots and channels are 1-based.
    Invariant: no node appears in two hops of the same slot, and
    (mini, channel) is derived from the transmitter's vertex color.
    """

    edge_color_count: int
    minislot_count: int
    flow_id: np.ndarray
    hop_index: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    slot: np.ndarray
    mini: np.ndarray
    channel: np.ndarray
    tx_color: dict = field(default_factory=dict)   # node id -> vertex color

    @property
    def hop_count(self) -> int:
        return len(self.tx)


def flow_hops(flows) -> list:
    """(flow_id, hop_index, tx, rx) for every hop of every ad hoc flow."""
    out = []
    for fid, flow in enumerate(flows):
        if flow.mode.value != "adhoc":
            continue
        chain = [flow.src, *flow.adhoc_path, flow.dst]
        for k in range(len(chain) - 1):
            out.append((fid, k, chain[k], chain[k + 1]))
    return out


def build_adhoc_schedule(topology: Topology, flowtable, cfg: NetworkConfig) -> AdHocSchedule:
    """Compose hop edge coloring, the interference graph vertex coloring, and
    the mini-slot/channel map into a complete conflict-free schedule."""
    hops = flow_hops(flowtable.flows)
    if not hops:
        empty = np.empty(0, dtype=np.int64)
        return AdHocSchedule(0, 0, empty, empty, empty, empty, empty, empty, empty)
    arr = np.asarray(hops, dtype=np.int64)
    fid, hidx, tx, rx = arr[:, 0], arr[:, 1], arr[:, 2], arr[:, 3]
    slots = edge_color(arr[:, 2:4], n_nodes=topology.n)
    params = InterferenceParams.from_config(cfg)
    graph = build_interference_graph(topology, arr[:, 2:4], params)
    colors = vertex_color(graph)
    color_of = dict(zip(graph.nodes.tolist(), colors.tolist()))
    s_vals = colors[np.searchsorted(graph.nodes, tx)]
    mini = (s_vals + cfg.C_A - 1) // cfg.C_A
    channel = (s_vals % cfg.C_A) + 1
    max_color = int(colors.max())
    return AdHocSchedule(
        edge_color_count=int(slots.max()) + 1,
        minislot_count=(max_color + cfg.C_A - 1) // cfg.C_A,
        flow_id=fid, hop_index=hidx, tx=tx, rx=rx,
        slot=slots, mini=mini, channel=channel,
        tx_color=color_of,
    )


@dataclass(frozen=True)
class Violation:
    kind: str          # "interference" or "duplex"
    slot: int
    mini: int
    channel: int       # -1 for duplex entries
    node_a: int
    node_b: int        # for interference: the competing transmitter


def verify_schedule(schedule: AdHocSchedule, topology: Topology,
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


SCHEDULE_CSV_HEADER = ["slot", "mini_slot", "channel", "tx", "rx", "flow_id"]


def schedule_to_csv(schedule: AdHocSchedule) -> str:
    import csv as _csv
    import io as _io
    buf = _io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(SCHEDULE_CSV_HEADER)
    for i in range(schedule.hop_count):
        writer.writerow([int(schedule.slot[i]), int(schedule.mini[i]),
                         int(schedule.channel[i]), int(schedule.tx[i]),
                         int(schedule.rx[i]), int(schedule.flow_id[i])])
    return buf.getvalue()
