"""Per-flow reference for the batched relay walk in `mcis.routing`.

The walk follows the feasibility rule one flow and one corridor cell at a
time: a candidate must not be the source, the destination or an earlier
relay, must lie within r(n) of the current node, strictly ahead of it along
the segment, and inside the corridor of LANES flanking cells each side of
the line.  Each cell offers its feasible member closest to the line (lowest
id on ties) or, with `rotate`, its first feasible member counting from
position `src mod size` in id order; each step commits the offer with the
most forward progress (the earliest corridor cell on ties).  It is slow and
kept only as the oracle the batched walker is compared against.
"""

from __future__ import annotations

import math

from mcis.errors import EmptyCellError, HopBudgetExceededError
from mcis.routing import LANES


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


def walk_relays(src, dst, topology, max_hops, rotate=False):
    """Greedy relay chain through the cells flanking the S-D segment.

    Raises EmptyCellError when no forward relay is reachable and
    HopBudgetExceededError past max_hops.
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
            if len(relays) + 1 > max_hops:
                raise HopBudgetExceededError(
                    f"flow {src}->{dst} needs {len(relays) + 1} hops > H={max_hops}")
            return relays
        if len(relays) >= max_hops:
            raise HopBudgetExceededError(f"flow {src}->{dst} exceeds H={max_hops} hops")
        cur_proj = cur_t * seg_len
        best = None     # (t, node)
        for idx in range(scan_from, n_cells):
            if proj[idx] - cur_proj > window:
                break
            cell = cells[idx]
            nodes = topology.cell_members(cell // s, cell % s)
            if not nodes:
                continue
            if rotate:
                start = src % len(nodes)
                nodes = nodes[start:] + nodes[:start]
            # Members are in id order, so without rotation the first of
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
                    offer = (t, node)
                    offer_perp = perp
                    if rotate:
                        break
            if offer is not None and (best is None or offer[0] > best[0]):
                best = offer
        if best is None:
            raise EmptyCellError(
                f"flow {src}->{dst}: no reachable forward relay from t={cur_t:.3f}")
        t, node = best
        relays.append(node)
        banned.add(node)
        cur_x, cur_y = pos[node]
        cur_t = t
        # Never rescan cells that ended behind the committed relay's window.
        while scan_from < n_cells and proj[scan_from] < t * seg_len - window:
            scan_from += 1
