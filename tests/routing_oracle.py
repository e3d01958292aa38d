"""Per-flow references for `mcis.routing` and the cell grids it reads.

The walk follows the feasibility rule one flow and one corridor cell at a
time: a candidate must not be the source, the destination or an earlier
relay, must lie within r(n) of the current node, strictly ahead of it along
the segment, and inside the corridor of LANES flanking cells each side of
the line.  Each cell offers its first feasible member counting from position
`src mod size` in id order; each step commits the offer with the most
forward progress (the earliest corridor cell on ties).  It is slow and kept
only as the oracle the batched walker is compared against.

The scalar eligibility rule (`decide_mode`) is the oracle for
`assign_flows`' eligibility column, `bs_cell_of` for its BS columns and
`cell_members` for the topology's cell index.  `lines_per_cell` tallies the
ad hoc S-D lines crossing each cell along the `supercover_cells` walk, for
acceptance criterion 7; the exact per-cell count (`lines_through_cell`, on
`segment_intersects_square`) is its oracle.
"""

from __future__ import annotations

import math

import numpy as np

from mcis.geometry import grid_index
from mcis.routing import EMPTY_CELL, HOP_BUDGET, LANES, Mode


def cell_members(topology, row: int, col: int) -> list[int]:
    """Ids of the nodes in routing cell (row, col), ascending."""
    cell = row * topology.cell_side_count + col
    return topology.cell_nodes[topology.cell_start[cell]:topology.cell_start[cell + 1]].tolist()


def bs_cell_of(topology, x: float, y: float) -> int:
    """Flattened index of the BS-cell (= BS id) containing the point."""
    b0 = topology.bs_cell_side_count
    row = int(grid_index(np.asarray([y]), b0)[0])
    col = int(grid_index(np.asarray([x]), b0)[0])
    return row * b0 + col


def decide_mode(src_pos, dst_pos, H: int, tx_range: float) -> Mode:
    """Ad hoc iff the destination lies in the H-hop disk of radius H * r(n)."""
    dx = dst_pos[0] - src_pos[0]
    dy = dst_pos[1] - src_pos[1]
    if math.hypot(dx, dy) <= H * tx_range:
        return Mode.ADHOC
    return Mode.INFRA


def segment_intersects_square(x0, y0, x1, y1, left, bottom, side) -> bool:
    """Exact closed-segment vs closed-axis-aligned-square intersection test."""
    right = left + side
    top = bottom + side
    # Quick accept: an endpoint inside.
    if left <= x0 <= right and bottom <= y0 <= top:
        return True
    if left <= x1 <= right and bottom <= y1 <= top:
        return True
    # Separating axis for segment vs box (slab clipping).
    dx = x1 - x0
    dy = y1 - y0
    t0, t1 = 0.0, 1.0
    for p, q_low, q_high in ((dx, left - x0, right - x0), (dy, bottom - y0, top - y0)):
        if p == 0.0:
            if q_low > 0.0 or q_high < 0.0:
                return False
            continue
        ta = q_low / p
        tb = q_high / p
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def lines_through_cell(table, cell, topology) -> int:
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


def supercover_cells(x0: float, y0: float, x1: float, y1: float, s: int) -> list:
    """Cells of an s x s unit grid crossed by the closed segment, in order.

    Covers every cell whose closed square the segment intersects with
    positive overlap; exact corner grazes may add the diagonal neighbours.
    """
    eps = 1e-12
    cx = min(int(x0 * s), s - 1)
    cy = min(int(y0 * s), s - 1)
    ex = min(int(x1 * s), s - 1)
    ey = min(int(y1 * s), s - 1)
    cells = [(cy, cx)]
    dx = x1 - x0
    dy = y1 - y0
    step_x = 1 if dx > 0 else -1
    step_y = 1 if dy > 0 else -1
    # Parametric distance to the next vertical / horizontal grid line.
    if abs(dx) < eps:
        t_max_x = math.inf
        t_dx = math.inf
    else:
        next_x = (cx + (1 if step_x > 0 else 0)) / s
        t_max_x = (next_x - x0) / dx
        t_dx = abs(1.0 / (s * dx))
    if abs(dy) < eps:
        t_max_y = math.inf
        t_dy = math.inf
    else:
        next_y = (cy + (1 if step_y > 0 else 0)) / s
        t_max_y = (next_y - y0) / dy
        t_dy = abs(1.0 / (s * dy))
    while (cy, cx) != (ey, ex):
        if t_max_x < t_max_y - eps:
            cx += step_x
            t_max_x += t_dx
        elif t_max_y < t_max_x - eps:
            cy += step_y
            t_max_y += t_dy
        else:
            # Corner crossing: include both side cells, then step diagonally.
            if 0 <= cx + step_x < s:
                cells.append((cy, cx + step_x))
            if 0 <= cy + step_y < s:
                cells.append((cy + step_y, cx))
            cx += step_x
            cy += step_y
            t_max_x += t_dx
            t_max_y += t_dy
        if not (0 <= cx < s and 0 <= cy < s):
            break
        cells.append((cy, cx))
        if len(cells) > 4 * s + 4:    # straight segments cannot visit more
            raise RuntimeError("grid walk failed to terminate")
    return cells


def lines_per_cell(table, topology) -> np.ndarray:
    """Supercover tally of ad hoc S-D lines for every cell (s x s array)."""
    s = topology.cell_side_count
    counts = np.zeros((s, s), dtype=np.int64)
    pos = topology.node_positions
    ends = np.column_stack([pos[table.src[table.adhoc]], pos[table.dst[table.adhoc]]])
    for x0, y0, x1, y1 in ends.tolist():
        for row, col in supercover_cells(x0, y0, x1, y1, s):
            counts[row, col] += 1
    return counts


def corridor_cells(x0, y0, x1, y1, s):
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


def walk_relays(src, dst, topology, max_hops):
    """Greedy relay chain through the cells flanking the S-D segment: the
    relays in order, or the fallback cause, EMPTY_CELL when no forward relay
    is reachable and HOP_BUDGET past max_hops.
    """
    pos = topology.node_positions.tolist()
    r = topology.tx_range
    r2 = r * r
    s = topology.cell_side_count
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
    cells = corridor_cells(sx, sy, dx_, dy_, s)
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
            return HOP_BUDGET if len(relays) + 1 > max_hops else relays
        if len(relays) >= max_hops:
            return HOP_BUDGET
        cur_proj = cur_t * seg_len
        best = None     # (t, node)
        for idx in range(scan_from, n_cells):
            if proj[idx] - cur_proj > window:
                break
            cell = cells[idx]
            nodes = cell_members(topology, cell // s, cell % s)
            if not nodes:
                continue
            start = src % len(nodes)
            offer = None
            for node in nodes[start:] + nodes[:start]:
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
                offer = (t, node)
                break
            if offer is not None and (best is None or offer[0] > best[0]):
                best = offer
        if best is None:
            return EMPTY_CELL
        t, node = best
        relays.append(node)
        banned.add(node)
        cur_x, cur_y = pos[node]
        cur_t = t
        # Never rescan cells that ended behind the committed relay's window.
        while scan_from < n_cells and proj[scan_from] < t * seg_len - window:
            scan_from += 1
