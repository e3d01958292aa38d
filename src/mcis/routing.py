"""Flow assignment and straight-line relay paths through cells.

A flow whose destination lies within H hops (distance at most H * r(n)) runs
in ad hoc mode along the cells crossed by its source-destination segment;
everything else goes uplink to the nearest base station, across the wire,
and downlink from the destination's base station.

One feasibility rule picks relays: a candidate must not be the source, the
destination or an earlier relay, must lie within r(n) of the current node,
strictly ahead of it along the segment, and inside the corridor of LANES
flanking cells each side of the line.  Each corridor cell offers one feasible
member: the first counting from position `src mod size` in the cell's id
order.  This stateless rotation spreads the flows crossing a cell over its
members and keeps flows independent of each other.  The walk commits the
offer with the most forward progress, the earliest corridor cell on ties.
All flows of a block are stepped together in numpy.

The flow table is columnar: one array per field, one row per flow, and the
relay chains in one CSR pair (`path_start`, `path_nodes`).  `FlowTable.flows`
builds per-flow `Flow` records on first access for readers that want them;
the simulator never does.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property

import numpy as np

from .config import NetworkConfig
from .geometry import Topology, grid_index


class Mode(Enum):
    ADHOC = "adhoc"
    INFRA = "infra"


# Why an ad hoc eligible flow fell back to infrastructure mode
# (`FlowTable.fallback_cause`); 0 for every other flow.
EMPTY_CELL = 1      # no reachable forward relay
HOP_BUDGET = 2      # the chain would exceed H hops


@dataclass
class Flow:
    """One row of a `FlowTable`, as plain Python values."""

    src: int
    dst: int
    mode: Mode
    adhoc_path: list = field(default_factory=list)  # relay node ids, in order
    uplink_bs: int = -1
    downlink_bs: int = -1
    eligible_adhoc: bool = False     # destination within H * r(n)
    fallback_cause: int = 0          # why an eligible flow fell back, or 0

    @property
    def fallback(self) -> bool:
        """Eligible, but no feasible relay chain."""
        return self.fallback_cause != 0

    @property
    def hop_count(self) -> int:
        return len(self.adhoc_path) + 1 if self.mode is Mode.ADHOC else 0


@dataclass(init=False, eq=False)
class FlowTable:
    """Columnar flows: row i of every per-flow array describes flow i."""

    src: np.ndarray
    dst: np.ndarray
    adhoc: np.ndarray                # bool: the flow runs in ad hoc mode
    eligible: np.ndarray             # bool: destination within H * r(n)
    fallback_cause: np.ndarray       # 0, EMPTY_CELL or HOP_BUDGET
    uplink_bs: np.ndarray            # BS of the source; -1 for ad hoc flows
    downlink_bs: np.ndarray          # BS of the destination; -1 for ad hoc flows
    # Relays of flow i, in order: path_nodes[path_start[i]:path_start[i + 1]];
    # only ad hoc flows have any.
    path_start: np.ndarray
    path_nodes: np.ndarray
    per_node_load: np.ndarray        # flows transmitted by each node (src or relay)

    def __init__(self, flows: list | None = None, per_node_load: np.ndarray | None = None,
                 **columns):
        """The columns by keyword, as `assign_flows` builds them, or `flows`,
        a list of `Flow` records, for a table assembled by hand."""
        if flows is not None:
            columns = _columns(flows)
        names = {f.name for f in fields(self)} - {"per_node_load"}
        if columns.keys() != names:
            raise TypeError(f"FlowTable needs `flows` or the columns {sorted(names)}")
        self.__dict__.update(columns, per_node_load=per_node_load)

    @cached_property
    def flows(self) -> list:
        """The rows as `Flow` records, built on first access."""
        paths = self.path_nodes.tolist()
        bounds = self.path_start.tolist()
        return [Flow(src=s, dst=d, mode=Mode.ADHOC if a else Mode.INFRA,
                     adhoc_path=paths[lo:hi], uplink_bs=up, downlink_bs=down,
                     eligible_adhoc=e, fallback_cause=c)
                for s, d, a, e, c, up, down, lo, hi in zip(
                    self.src.tolist(), self.dst.tolist(), self.adhoc.tolist(),
                    self.eligible.tolist(), self.fallback_cause.tolist(),
                    self.uplink_bs.tolist(), self.downlink_bs.tolist(),
                    bounds[:-1], bounds[1:])]


def _columns(flows: list) -> dict:
    """FlowTable columns holding the given `Flow` records."""
    def column(values, dtype):
        return np.asarray(list(values), dtype=dtype)

    adhoc = column((f.mode is Mode.ADHOC for f in flows), bool)
    paths = [f.adhoc_path if a else [] for f, a in zip(flows, adhoc.tolist())]
    path_start = np.zeros(len(flows) + 1, dtype=np.int64)
    np.cumsum([len(p) for p in paths], out=path_start[1:])
    return dict(src=column((f.src for f in flows), np.int64),
                dst=column((f.dst for f in flows), np.int64),
                adhoc=adhoc,
                eligible=column((f.eligible_adhoc for f in flows), bool),
                fallback_cause=column((f.fallback_cause for f in flows), np.int8),
                uplink_bs=column((f.uplink_bs for f in flows), np.int64),
                downlink_bs=column((f.downlink_bs for f in flows), np.int64),
                path_start=path_start,
                path_nodes=column((v for p in paths for v in p), np.int64))


# Flanking cell lanes the relay corridor takes on each side of the S-D line.
LANES = 1
# Walking flows stepped together; bounds the walk's transient arrays to a few
# MB, below the interference-graph builder's peak.
BLOCK = 512
# Search-key stride per flow of a block: with progress t clipped to [-2, 3],
# slot * _SLOT + t keeps every flow's candidates in an interval of their own.
_SLOT = 8.0


def _ranks(counts):
    """0, 1, ..., counts[i] - 1 for every i, concatenated."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1] if len(ends) else 0) - np.repeat(ends - counts, counts)


def _heads(sorted_keys):
    """True where a sorted array starts a new run of equal keys."""
    head = np.ones(len(sorted_keys), dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return head


def _search_key(slot, t):
    return slot * _SLOT + np.clip(t, -2.0, 3.0)


def _corridors(x0, y0, x1, y1, s):
    """Corridor of every segment i: the cells along it plus LANES flanking
    lanes each side, ordered by progress along the driving axis (x unless the
    segment is steeper than 45 degrees).  Returns (segment index, flat cell
    id) arrays, grouped by segment in input order."""
    steep = np.abs(y1 - y0) > np.abs(x1 - x0)
    # Steep segments drive along y: the same walk with the axes swapped.
    x0, y0, x1, y1 = (np.where(steep, b, a) for a, b in ((x0, y0), (y0, x0), (x1, y1), (y1, x1)))
    along = np.where(steep, s, 1)       # flat-id strides
    across = np.where(steep, 1, s)
    run = x1 - x0
    slope = np.divide(y1 - y0, run, out=np.zeros_like(run), where=run != 0)
    lo, hi = np.minimum(x0, x1), np.maximum(x0, x1)
    k0 = np.minimum(np.trunc(x0 * s).astype(np.int64), s - 1)
    k1 = np.minimum(np.trunc(x1 * s).astype(np.int64), s - 1)
    steps = np.abs(k1 - k0) + 1
    seg = np.repeat(np.arange(len(x0)), steps)
    k = k0[seg] + np.where(k1 >= k0, 1, -1)[seg] * _ranks(steps)
    mid = np.minimum(np.maximum((k + 0.5) / s, lo[seg]), hi[seg])
    c = np.minimum(np.trunc((y0[seg] + slope[seg] * (mid - x0[seg])) * s).astype(np.int64),
                   s - 1)
    lane = c[:, None] + np.arange(-LANES, LANES + 1)
    inside = (lane >= 0) & (lane < s)
    cells = k[:, None] * along[seg, None] + lane * across[seg, None]
    return np.broadcast_to(seg[:, None], lane.shape)[inside], cells[inside]


def _walk_flows(topology, src, dst, max_hops):
    """Relay chains for the flows src[i] -> dst[i] (integer arrays).

    Returns (cause, count, relays): each flow's fallback cause (0 when its
    walk reached the destination, else EMPTY_CELL or HOP_BUDGET), its number
    of relays (0 for a flow whose walk failed), and all relays, flow by flow
    and each flow's in order.  Flows whose destination is in range need no
    relay; the others are walked BLOCK at a time.
    """
    pos = topology.node_positions
    gap = pos[dst] - pos[src]
    far = np.flatnonzero(gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]
                         > topology.tx_range * topology.tx_range)
    cause = np.zeros(len(src), dtype=np.int8)
    count = np.zeros(len(src), dtype=np.int64)
    relays = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(far), BLOCK):
        block = far[lo:lo + BLOCK]
        cause[block], count[block], block_relays = _walk_block(
            topology, src[block], dst[block], max_hops)
        relays.append(block_relays)
    return cause, count, np.concatenate(relays)


def _walk_block(topology, src, dst, max_hops):
    """Step every flow of the block together; no destination is in range.

    A flow's candidates are the members of its corridor cells, other than
    its source and destination, whose offset from the line is within the
    corridor's reach, sorted by progress t along the segment.  Each step
    takes, per flow, the candidates with t in (cur_t, cur_t + r / |SD|]
    that lie within r of the current node; each corridor cell offers its
    first one in rotation order, and the offer with the most progress is
    committed.  Earlier relays have t <= cur_t, so no banned set is needed.
    Returns (cause, count, relays) for the block, as `_walk_flows` does.
    """
    pos = topology.node_positions
    r = topology.tx_range
    r2 = r * r
    side = 1.0 / topology.cell_side_count
    sx, sy = pos[src, 0], pos[src, 1]
    ex, ey = pos[dst, 0], pos[dst, 1]
    ddx = ex - sx
    ddy = ey - sy
    dist2 = ddx * ddx + ddy * ddy
    inv_l2 = 1.0 / dist2
    seg_len = np.sqrt(dist2)
    corridor = (LANES + 0.5) * side * seg_len       # flanking-lane reach x |SD|

    # One row per (corridor cell, member), in corridor order, flow-major.
    flow_of_cell, cells = _corridors(sx, sy, ex, ey, topology.cell_side_count)
    first = topology.cell_start[cells]
    size = topology.cell_start[cells + 1] - first
    entry = np.repeat(np.arange(len(cells)), size)
    place = _ranks(size)                            # member position, id order
    node = topology.cell_nodes[first[entry] + place]
    f = flow_of_cell[entry]
    px, py = pos[node, 0], pos[node, 1]
    t = ((px - sx[f]) * ddx[f] + (py - sy[f]) * ddy[f]) * inv_l2[f]
    # Cross product with the direction: perpendicular offset * |SD|.
    perp = np.abs((px - sx[f]) * ddy[f] - (py - sy[f]) * ddx[f])
    keep = np.flatnonzero((node != src[f]) & (node != dst[f]) & (perp <= corridor[f]))
    node, f, entry, t, px, py = (a[keep] for a in (node, f, entry, t, px, py))
    # Rotation order: members from position src mod size on, in id order.
    # A cell offers its feasible candidate with the lowest key; keys follow
    # the corridor order across cells, so sorting by key groups the cells.
    offer_order = np.lexsort(((place[keep] - src[f]) % size[entry], entry))
    key = np.empty(len(node), dtype=np.int64)
    key[offer_order] = np.arange(len(node))
    search = _search_key(f, t)
    by_t = np.argsort(search)
    node, f, entry, t, px, py, key, search = (
        a[by_t] for a in (node, f, entry, t, px, py, key, search))
    reach_t = r / seg_len

    steps = np.zeros(len(src), dtype=np.int64)
    cur_x, cur_y, cur_t = sx.copy(), sy.copy(), np.zeros(len(src))
    cause = np.zeros(len(src), dtype=np.int8)
    walked_flow, walked_node = [], []
    active = np.arange(len(src))
    while active.size:
        cdx = ex[active] - cur_x[active]
        cdy = ey[active] - cur_y[active]
        arrived = cdx * cdx + cdy * cdy <= r2
        over = steps[active] >= max_hops
        cause[active[over]] = HOP_BUDGET
        active = active[~(arrived | over)]
        if not active.size:
            break
        # Each flow's progress window, widened by 1e-9 against the rounding
        # of the search key (keys stay below 2^12, where an ulp is under
        # 1e-12); the exact tests follow.
        lo = np.searchsorted(search, _search_key(active, cur_t[active]) - 1e-9, "left")
        hi = np.searchsorted(search, _search_key(active, cur_t[active] + reach_t[active])
                             + 1e-9, "right")
        cand = np.repeat(lo, hi - lo) + _ranks(hi - lo)
        cf = f[cand]
        gx = px[cand] - cur_x[cf]
        gy = py[cand] - cur_y[cf]
        cand = cand[(t[cand] > cur_t[cf] + 1e-12) & (gx * gx + gy * gy <= r2)]
        cand = cand[np.argsort(key[cand])]
        offers = cand[_heads(entry[cand])]
        # Stable: the most progress, then the earliest corridor cell.
        offers = offers[np.lexsort((-t[offers], f[offers]))]
        chosen = offers[_heads(f[offers])]
        moved = f[chosen]
        stuck = np.ones(len(src), dtype=bool)
        stuck[moved] = False
        cause[active[stuck[active]]] = EMPTY_CELL
        cur_x[moved], cur_y[moved], cur_t[moved] = px[chosen], py[chosen], t[chosen]
        steps[moved] += 1
        walked_flow.append(moved)
        walked_node.append(node[chosen])
        active = moved

    none = np.empty(0, dtype=np.int64)
    walked_flow = np.concatenate([none, *walked_flow])
    by_flow = np.argsort(walked_flow, kind="stable")        # then in step order
    relays = np.concatenate([none, *walked_node])[by_flow]
    ok = cause == 0
    return cause, np.where(ok, steps, 0), relays[ok[walked_flow[by_flow]]]


def assign_flows(topology: Topology, cfg: NetworkConfig, seed: int) -> FlowTable:
    """One flow per node to a uniform destination, relayed with balanced load.

    A node drawing itself redraws once and is dropped if it repeats.  Ad hoc
    eligible flows that cannot form a relay chain within the hop budget fall
    back to infrastructure mode, with their cause recorded.
    """
    n = topology.n
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n, size=n) if n > 0 else np.empty(0, dtype=int)
    second = rng.integers(0, n, size=n) if n > 0 else np.empty(0, dtype=int)
    sources = np.arange(n)
    dests = np.where(first == sources, second, first)
    src = np.flatnonzero(dests != sources)
    dst = dests[src]

    pos = topology.node_positions
    reach = cfg.H * topology.tx_range
    gap = pos[dst] - pos[src]
    eligible = gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1] <= reach * reach
    cause = np.zeros(len(src), dtype=np.int8)
    count = np.zeros(len(src), dtype=np.int64)
    cause[eligible], count[eligible], relays = _walk_flows(
        topology, src[eligible], dst[eligible], cfg.H)
    adhoc = eligible & (cause == 0)
    path_start = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(count, out=path_start[1:])
    b0 = topology.bs_cell_side_count
    bs_cell = grid_index(pos[:, 1], b0) * b0 + grid_index(pos[:, 0], b0)
    load = np.bincount(np.concatenate([src[adhoc], relays]), minlength=n)
    return FlowTable(src=src, dst=dst, adhoc=adhoc, eligible=eligible,
                     fallback_cause=cause,
                     uplink_bs=np.where(adhoc, -1, bs_cell[src]),
                     downlink_bs=np.where(adhoc, -1, bs_cell[dst]),
                     path_start=path_start, path_nodes=relays, per_node_load=load)


FLOW_CSV_HEADER = ["flow_id", "src", "dst", "mode", "hop_count", "bs_up", "bs_down"]


def flow_table_to_csv(table: FlowTable) -> str:
    """Serialize the flow table with the stable documented header."""
    hops = np.where(table.adhoc, np.diff(table.path_start) + 1, 0)
    modes = np.where(table.adhoc, Mode.ADHOC.value, Mode.INFRA.value).tolist()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FLOW_CSV_HEADER)
    writer.writerows(zip(range(len(modes)), table.src.tolist(), table.dst.tolist(), modes,
                         hops.tolist(), table.uplink_bs.tolist(), table.downlink_bs.tolist()))
    return buf.getvalue()
