"""Mode decision, straight-line relay paths through cells, and flow assignment.

A flow whose destination lies within H hops (distance at most H * r(n)) runs
in ad hoc mode along the cells crossed by its source-destination segment;
everything else goes uplink to the nearest base station, across the wire,
and downlink from the destination's base station.

One feasibility rule picks relays: a candidate must not be the source, the
destination or an earlier relay, must lie within r(n) of the current node,
strictly ahead of it along the segment, and inside the corridor of LANES
flanking cells each side of the line.  Each corridor cell offers one feasible
member, by one of two rules: the member closest to the line (lowest id on
ties) for a single path, or, when `assign_flows` balances relay load, the
first counting from position `src mod size` in the cell's id order (a
stateless rotation, so flows are independent of each other).  The walk
commits the offer with the most forward progress, the earliest corridor cell
on ties.  All flows of a block are stepped together in numpy.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import NetworkConfig
from .errors import EmptyCellError, HopBudgetExceededError, McisError
from .geometry import Topology, grid_index, segment_intersects_square, supercover_cells


class Mode(Enum):
    ADHOC = "adhoc"
    INFRA = "infra"


@dataclass
class Flow:
    src: int
    dst: int
    mode: Mode
    adhoc_path: list = field(default_factory=list)  # relay node ids, in order
    uplink_bs: int = -1
    downlink_bs: int = -1
    rate: float | None = None        # bits/sec demand; None = saturated
    eligible_adhoc: bool = False     # destination within H * r(n)
    fallback: bool = False           # eligible but no feasible relay chain

    @property
    def hop_count(self) -> int:
        return len(self.adhoc_path) + 1 if self.mode is Mode.ADHOC else 0


@dataclass
class FlowTable:
    flows: list
    per_node_load: np.ndarray        # flows transmitted by each node (src or relay)

    @property
    def adhoc_flows(self) -> list:
        return [f for f in self.flows if f.mode is Mode.ADHOC]

    @property
    def infra_flows(self) -> list:
        return [f for f in self.flows if f.mode is Mode.INFRA]


def decide_mode(src_pos, dst_pos, H: int, tx_range: float) -> Mode:
    """Ad hoc iff the destination lies in the H-hop disk of radius H * r(n)."""
    dx = dst_pos[0] - src_pos[0]
    dy = dst_pos[1] - src_pos[1]
    if math.hypot(dx, dy) <= H * tx_range:
        return Mode.ADHOC
    return Mode.INFRA


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


def _walk_flows(topology, src, dst, max_hops, rotate):
    """Relay chains for the flows src[i] -> dst[i] (integer arrays).

    Returns one entry per flow: its relay ids in order, or the
    EmptyCellError or HopBudgetExceededError that ended its walk.  Each cell
    offers by the rotation rule when `rotate` is set, else its member
    closest to the line.  Flows whose destination is in range need no relay;
    the others are walked BLOCK at a time.
    """
    pos = topology.node_positions
    gap = pos[dst] - pos[src]
    far = np.flatnonzero(gap[:, 0] * gap[:, 0] + gap[:, 1] * gap[:, 1]
                         > topology.tx_range * topology.tx_range)
    routes = [[] for _ in range(len(src))]
    for lo in range(0, len(far), BLOCK):
        block = far[lo:lo + BLOCK]
        for i, route in zip(block.tolist(),
                            _walk_block(topology, src[block], dst[block], max_hops, rotate)):
            routes[i] = route
    return routes


def _walk_block(topology, src, dst, max_hops, rotate):
    """Step every flow of the block together; no destination is in range.

    A flow's candidates are the members of its corridor cells, other than
    its source and destination, whose offset from the line is within the
    corridor's reach, sorted by progress t along the segment.  Each step
    takes, per flow, the candidates with t in (cur_t, cur_t + r / |SD|]
    that lie within r of the current node; each corridor cell offers its
    one with the lowest key, and the offer with the most progress is
    committed.  Earlier relays have t <= cur_t, so no banned set is needed.
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
    if rotate:
        # First member counting from position src mod size, in id order.
        offer_order = np.lexsort(((place[keep] - src[f]) % size[entry], entry))
    else:
        # Closest to the line, lowest id on ties.
        offer_order = np.lexsort((node, perp[keep], entry))
    # A cell offers its feasible candidate with the lowest key; keys follow
    # the corridor order across cells, so sorting by key groups the cells.
    key = np.empty(len(node), dtype=np.int64)
    key[offer_order] = np.arange(len(node))
    search = _search_key(f, t)
    by_t = np.argsort(search)
    node, f, entry, t, px, py, key, search = (
        a[by_t] for a in (node, f, entry, t, px, py, key, search))
    reach_t = r / seg_len

    steps = np.zeros(len(src), dtype=np.int64)
    cur_x, cur_y, cur_t = sx.copy(), sy.copy(), np.zeros(len(src))
    fail: dict[int, Exception] = {}
    walked_flow, walked_node = [], []
    active = np.arange(len(src))
    while active.size:
        cdx = ex[active] - cur_x[active]
        cdy = ey[active] - cur_y[active]
        arrived = cdx * cdx + cdy * cdy <= r2
        over = steps[active] >= max_hops
        for i in active[over].tolist():
            fail[i] = HopBudgetExceededError(
                f"flow {src[i]}->{dst[i]} exceeds H={max_hops} hops")
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
        for i in active[stuck[active]].tolist():
            fail[i] = EmptyCellError(f"flow {src[i]}->{dst[i]}: no reachable forward "
                                     f"relay from t={cur_t[i]:.3f}")
        cur_x[moved], cur_y[moved], cur_t[moved] = px[chosen], py[chosen], t[chosen]
        steps[moved] += 1
        walked_flow.append(moved)
        walked_node.append(node[chosen])
        active = moved

    none = np.empty(0, dtype=np.int64)
    by_flow = np.argsort(np.concatenate([none, *walked_flow]), kind="stable")
    relays = np.concatenate([none, *walked_node])[by_flow].tolist()    # in step order
    ends = np.cumsum(steps).tolist()
    return [fail.get(i) or relays[end - k:end]
            for i, (end, k) in enumerate(zip(ends, steps.tolist()))]


def build_adhoc_path(src: int, dst: int, topology: Topology,
                     max_hops: int | None = None) -> list:
    """Relay sequence for one ad hoc flow, each relay closest to the line.

    Raises EmptyCellError when no forward relay is reachable and
    HopBudgetExceededError past max_hops (default: unbounded).
    """
    if max_hops is None:
        max_hops = topology.n
    route, = _walk_flows(topology, np.asarray([src]), np.asarray([dst]), max_hops,
                         rotate=False)
    if isinstance(route, McisError):
        raise route
    return route


def assign_flows(topology: Topology, cfg: NetworkConfig, seed: int,
                 build_paths: bool = True) -> FlowTable:
    """One flow per node to a uniform destination, relayed with balanced load.

    A node drawing itself redraws once and is dropped if it repeats.  Ad hoc
    eligible flows that cannot form a relay chain within the hop budget fall
    back to infrastructure mode (fallback flag set).  Relay cells offer by
    the rotation rule, which spreads the flows crossing a cell over its
    members.
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
    routes = iter(_walk_flows(topology, src[eligible], dst[eligible], cfg.H, rotate=True)
                  if build_paths else [])
    b0 = topology.bs_cell_side_count
    bs_cell = (grid_index(pos[:, 1], b0) * b0 + grid_index(pos[:, 0], b0)).tolist()
    flows: list[Flow] = []
    senders: list[int] = []         # one entry per ad hoc transmission
    for s, d, e in zip(src.tolist(), dst.tolist(), eligible.tolist()):
        flow = Flow(src=s, dst=d, mode=Mode.ADHOC if e else Mode.INFRA, eligible_adhoc=e)
        if e and build_paths:
            route = next(routes)
            if isinstance(route, list):
                flow.adhoc_path = route
            else:
                flow.mode = Mode.INFRA
                flow.fallback = True
        if flow.mode is Mode.INFRA:
            flow.uplink_bs = bs_cell[s]
            flow.downlink_bs = bs_cell[d]
        else:
            senders.append(s)
            senders += flow.adhoc_path
        flows.append(flow)
    load = np.bincount(np.asarray(senders, dtype=np.int64), minlength=n)
    return FlowTable(flows=flows, per_node_load=load)


def lines_through_cell(table: FlowTable, cell, topology: Topology) -> int:
    """Exact count of ad hoc S-D segments intersecting the cell's closed square."""
    s = topology.cell_side_count
    side = 1.0 / s
    row, col = cell
    left = col * side
    bottom = row * side
    pos = topology.node_positions
    count = 0
    for flow in table.flows:
        if flow.mode is not Mode.ADHOC:
            continue
        x0, y0 = pos[flow.src]
        x1, y1 = pos[flow.dst]
        if segment_intersects_square(x0, y0, x1, y1, left, bottom, side):
            count += 1
    return count


def lines_per_cell(table: FlowTable, topology: Topology) -> np.ndarray:
    """Supercover tally of ad hoc S-D lines for every cell (s x s array)."""
    s = topology.cell_side_count
    counts = np.zeros((s, s), dtype=np.int64)
    pos = topology.node_positions.tolist()
    for flow in table.flows:
        if flow.mode is not Mode.ADHOC:
            continue
        x0, y0 = pos[flow.src]
        x1, y1 = pos[flow.dst]
        for row, col in supercover_cells(x0, y0, x1, y1, s):
            counts[row, col] += 1
    return counts


def max_flows_per_node(table: FlowTable) -> int:
    """Largest number of flows terminating at any single node."""
    inbound: dict[int, int] = {}
    for flow in table.flows:
        inbound[flow.dst] = inbound.get(flow.dst, 0) + 1
    return max(inbound.values(), default=0)


def adhoc_transmitter_count(table: FlowTable) -> int:
    """Sources whose destination fell inside the H-hop disk."""
    return sum(1 for f in table.flows if f.eligible_adhoc)


FLOW_CSV_HEADER = ["flow_id", "src", "dst", "mode", "hop_count", "bs_up", "bs_down"]


def flow_table_to_csv(table: FlowTable) -> str:
    """Serialize the flow table with the stable documented header."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FLOW_CSV_HEADER)
    for i, f in enumerate(table.flows):
        writer.writerow([i, f.src, f.dst, f.mode.value, f.hop_count,
                         f.uplink_bs, f.downlink_bs])
    return buf.getvalue()
