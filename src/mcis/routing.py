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
ties) for a single path, or the first from a per-cell round-robin pointer
when `assign_flows` balances relay load; the walk commits the offer with the
most forward progress.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .config import NetworkConfig
from .errors import EmptyCellError, HopBudgetExceededError
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


def _corridor_cells(x0, y0, x1, y1, s):
    """Cells along the segment plus LANES flanking lanes each side, ordered by
    progress along the driving axis (x unless the segment is steeper than
    45 degrees).  Returns flat cell ids."""
    steep = abs(y1 - y0) > abs(x1 - x0)
    if steep:   # drive along y: the same walk with the axes swapped
        x0, y0, x1, y1 = y0, x0, y1, x1
    along, across = (s, 1) if steep else (1, s)     # flat-id strides
    slope = (y1 - y0) / (x1 - x0) if x1 != x0 else 0.0
    lo, hi = min(x0, x1), max(x0, x1)
    k0 = min(int(x0 * s), s - 1)
    k1 = min(int(x1 * s), s - 1)
    step = 1 if k1 >= k0 else -1
    cells: list[int] = []
    for k in range(k0, k1 + step, step):
        mid = min(max((k + 0.5) / s, lo), hi)
        c = min(int((y0 + slope * (mid - x0)) * s), s - 1)
        for lane in range(c - LANES, c + LANES + 1):
            if 0 <= lane < s:
                cells.append(k * along + lane * across)
    return cells


def _walk_relays(src, dst, topology, max_hops, pos, pointers=None):
    """Greedy relay chain through the cells flanking the S-D segment.

    A node is a feasible next relay when it is not banned (source,
    destination, earlier relays), lies within tx_range of the current node,
    strictly ahead of it along the segment, and inside the corridor of LANES
    cells each side of the line.  Each cell offers its feasible member
    closest to the line (lowest id on ties) or, given per-cell round-robin
    `pointers`, its first feasible member from the pointer on.  Each step
    commits the offer with the most forward progress, then moves that cell's
    pointer past the relay.  Raises EmptyCellError when no forward relay is
    reachable and HopBudgetExceededError past max_hops.
    """
    r = topology.tx_range
    r2 = r * r
    s = topology.cell_side_count
    members = topology._members
    side = 1.0 / s
    sx, sy = pos[src]
    dx_, dy_ = pos[dst]
    ddx = dx_ - sx
    ddy = dy_ - sy
    dist2 = ddx * ddx + ddy * ddy
    if dist2 <= r2:
        return []
    inv_l2 = 1.0 / dist2
    seg_len = math.sqrt(dist2)
    corridor = (LANES + 0.5) * side * seg_len   # flanking-lane reach x |SD|
    cells = _corridor_cells(sx, sy, dx_, dy_, s)
    # Projection of each cell's center along the segment, for the scan window.
    proj = [(((cell % s + 0.5) * side - sx) * ddx
             + ((cell // s + 0.5) * side - sy) * ddy) / seg_len for cell in cells]
    # Cells past this projection gap cannot hold a node within range; the
    # 2.8-side slack covers center-to-corner plus same-step lane dips.
    window = r + 2.8 * side
    banned = {src, dst}
    relays: list[int] = []
    cur_x, cur_y = sx, sy
    cur_t = 0.0
    scan_from = 0
    n_cells = len(cells)
    while True:
        cdx = dx_ - cur_x
        cdy = dy_ - cur_y
        if cdx * cdx + cdy * cdy <= r2:
            if len(relays) + 1 > max_hops:
                raise HopBudgetExceededError(
                    f"flow {src}->{dst} needs {len(relays) + 1} hops > H={max_hops}")
            return relays
        if len(relays) >= max_hops:
            raise HopBudgetExceededError(f"flow {src}->{dst} exceeds H={max_hops} hops")
        cur_proj = cur_t * seg_len
        best = None     # (t, node, cell)
        for idx in range(scan_from, n_cells):
            if proj[idx] - cur_proj > window:
                break
            cell = cells[idx]
            nodes = members[cell]
            if not nodes:
                continue
            if pointers is not None and pointers[cell]:
                nodes = nodes[pointers[cell]:] + nodes[:pointers[cell]]
            # Members are in id order, so without pointers the first of
            # equally close candidates has the lowest id.
            offer = None
            for node in nodes:
                if node in banned:
                    continue
                px, py = pos[node]
                ex = px - cur_x
                ey = py - cur_y
                if ex * ex + ey * ey > r2:
                    continue
                t = ((px - sx) * ddx + (py - sy) * ddy) * inv_l2
                if t <= cur_t + 1e-12:
                    continue
                # Cross product with the direction: perpendicular offset * |SD|.
                perp = abs((px - sx) * ddy - (py - sy) * ddx)
                if perp > corridor:
                    continue
                if offer is None or perp < offer_perp:
                    offer = (t, node, cell)
                    offer_perp = perp
                    if pointers is not None:
                        break
            if offer is not None and (best is None or offer[0] > best[0]):
                best = offer
        if best is None:
            raise EmptyCellError(
                f"flow {src}->{dst}: no reachable forward relay from t={cur_t:.3f}")
        t, node, cell = best
        if pointers is not None:
            nodes = members[cell]
            pointers[cell] = (nodes.index(node) + 1) % len(nodes)
        relays.append(node)
        banned.add(node)
        cur_x, cur_y = pos[node]
        cur_t = t
        # Never rescan cells that ended behind the committed relay's window.
        while scan_from < n_cells and proj[scan_from] < t * seg_len - window:
            scan_from += 1


def build_adhoc_path(src: int, dst: int, topology: Topology,
                     max_hops: int | None = None) -> list:
    """Relay sequence for one ad hoc flow, each relay closest to the line."""
    pos = topology.node_positions.tolist()
    if max_hops is None:
        max_hops = topology.n  # effectively unbounded
    return _walk_relays(src, dst, topology, max_hops, pos)


def assign_flows(topology: Topology, cfg: NetworkConfig, seed: int,
                 build_paths: bool = True) -> FlowTable:
    """One flow per node to a uniform destination, relayed with balanced load.

    A node drawing itself redraws once and is dropped if it repeats.  Ad hoc
    eligible flows that cannot form a relay chain within the hop budget fall
    back to infrastructure mode (fallback flag set).
    """
    n = topology.n
    rng = np.random.default_rng(seed)
    first = rng.integers(0, n, size=n) if n > 0 else np.empty(0, dtype=int)
    second = rng.integers(0, n, size=n) if n > 0 else np.empty(0, dtype=int)
    sources = np.arange(n)
    dests = np.where(first == sources, second, first)
    keep = dests != sources

    pos = topology.node_positions.tolist()
    reach = cfg.H * topology.tx_range
    reach2 = reach * reach
    pointers = [0] * (topology.cell_side_count ** 2)
    b0 = topology.bs_cell_side_count
    bs_cell = (grid_index(topology.node_positions[:, 1], b0) * b0
               + grid_index(topology.node_positions[:, 0], b0)).tolist()
    flows: list[Flow] = []
    load = np.zeros(n, dtype=np.int64)
    for src in range(n):
        if not keep[src]:
            continue
        dst = int(dests[src])
        sx, sy = pos[src]
        dx_, dy_ = pos[dst]
        ddx = dx_ - sx
        ddy = dy_ - sy
        eligible = ddx * ddx + ddy * ddy <= reach2
        flow = Flow(src=src, dst=dst, mode=Mode.ADHOC if eligible else Mode.INFRA,
                    eligible_adhoc=eligible)
        if eligible and build_paths:
            try:
                flow.adhoc_path = _walk_relays(src, dst, topology, cfg.H, pos, pointers)
            except (EmptyCellError, HopBudgetExceededError):
                flow.mode = Mode.INFRA
                flow.fallback = True
                flow.adhoc_path = []
        if flow.mode is Mode.INFRA:
            flow.uplink_bs = bs_cell[src]
            flow.downlink_bs = bs_cell[dst]
        else:
            load[src] += 1
            for relay in flow.adhoc_path:
                load[relay] += 1
        flows.append(flow)
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
