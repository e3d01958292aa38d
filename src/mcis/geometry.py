"""Random placement, transmission range, and the two square tessellations.

The unit square carries two grids: a coarse b0 x b0 grid of BS-cells with one
base station at each center, and a fine s x s grid of routing cells whose area
approximates the cell-size rule a(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import TWO_PI, AntennaMode, NetworkConfig
from .errors import DegenerateScaleError, NonSquareBsError


def transmission_range(n: int, r_factor: float = 1.0) -> float:
    """Per-hop transmission range r(n) = r_factor * sqrt(2 ln n / (pi n)).

    The built-in sqrt(2) margin keeps r(n) strictly above the connectivity
    threshold sqrt(ln n / (pi n)) for every n >= 2.
    """
    if n < 2:
        raise ValueError(f"transmission_range needs n >= 2, got {n}")
    if r_factor < 1.0:
        raise ValueError(f"r_factor must be >= 1, got {r_factor}")
    return r_factor * math.sqrt(2.0 * math.log(n) / (math.pi * n))


def place_nodes(n: int, seed: int) -> np.ndarray:
    """n i.i.d. uniform points in [0,1]^2; identical seed, identical output."""
    if n < 0:
        raise ValueError(f"place_nodes needs n >= 0, got {n}")
    rng = np.random.default_rng(seed)
    return rng.random((n, 2))


def place_bs(b: int) -> np.ndarray:
    """The b0 x b0 grid of BS-cell centers ((col+0.5)/b0, (row+0.5)/b0).

    Row-major order, so index row*b0 + col is the BS of that BS-cell.
    """
    b0 = math.isqrt(b)
    if b0 < 1 or b0 * b0 != b:
        raise NonSquareBsError(f"b={b} is not a perfect square")
    coords = (np.arange(b0) + 0.5) / b0
    ys, xs = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xs.ravel(), ys.ravel()])


def _loglog_term(n: int, H: int) -> tuple[float, float]:
    """ln(H^2 ln n) and ln ln(H^2 ln n), guarding the iterated log."""
    inner = H * H * math.log(n)
    if inner <= math.e:
        raise DegenerateScaleError(
            f"H^2 * ln(n) = {inner:.4g} <= e; iterated log undefined (n={n}, H={H})"
        )
    outer = math.log(inner)
    return outer, math.log(outer)


def cell_area(
    n: int,
    C_A: int,
    H: int,
    phi: float = TWO_PI,
    mode: AntennaMode = AntennaMode.OMNI,
) -> float:
    """Routing-cell area a(n).

    a(n) = min( max(100 ln n / n, ln^{3/2} n / (sqrt(C_A) n)),
                ln^{3/2} n * ln(H^2 ln n) / (n^{3/2} ln ln(H^2 ln n)) )
    In directional mode the interference-driven term picks up a phi/(2 pi)
    factor.  The result is not guaranteed to exceed 50 ln n / n; callers that
    rely on per-cell occupancy must check that separately.
    """
    if n < 3:
        raise ValueError(f"cell_area needs n >= 3, got {n}")
    log_n = math.log(n)
    outer, outer_log = _loglog_term(n, H)
    connectivity = 100.0 * log_n / n
    interference = log_n ** 1.5 / (math.sqrt(C_A) * n)
    if mode is AntennaMode.DIRECTIONAL:
        interference *= phi / TWO_PI
    destination = log_n ** 1.5 * outer / (n ** 1.5 * outer_log)
    return min(max(connectivity, interference), destination)


@dataclass
class Topology:
    """Node/BS positions plus the two grids and the per-hop range.

    Immutable by convention once built; safe to share across workers.
    """

    node_positions: np.ndarray          # (n, 2) in [0,1]^2
    bs_positions: np.ndarray            # (b, 2) BS-cell centers
    cell_side_count: int                # s: fine grid is s x s
    bs_cell_side_count: int             # b0
    tx_range: float                     # r(n) in unit-square lengths
    # CSR cell-to-members index over flattened cells (row * s + col): the
    # members of cell c are cell_nodes[cell_start[c]:cell_start[c + 1]], in
    # id order.
    cell_start: np.ndarray = field(init=False, repr=False)
    cell_nodes: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = self.cell_side_count
        rows = grid_index(self.node_positions[:, 1], s)
        cols = grid_index(self.node_positions[:, 0], s)
        flat = rows * s + cols
        self.cell_nodes = np.argsort(flat, kind="stable")
        self.cell_start = np.zeros(s * s + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=s * s), out=self.cell_start[1:])

    @property
    def n(self) -> int:
        return len(self.node_positions)

    def cell_members(self, row: int, col: int) -> list[int]:
        cell = row * self.cell_side_count + col
        return self.cell_nodes[self.cell_start[cell]:self.cell_start[cell + 1]].tolist()

    def bs_cell_of(self, x: float, y: float) -> int:
        """Flattened index of the BS-cell (= BS id) containing the point."""
        b0 = self.bs_cell_side_count
        row = int(grid_index(np.asarray([y]), b0)[0])
        col = int(grid_index(np.asarray([x]), b0)[0])
        return row * b0 + col


def grid_index(coords: np.ndarray, s: int) -> np.ndarray:
    """Map coordinates in [0,1] to cell indices in [0, s).

    A point exactly on a shared boundary k/s belongs to the cell whose low
    edge it is, i.e. index k; the top edge of the square clamps to s-1.
    """
    idx = np.floor(np.asarray(coords) * s).astype(np.int64)
    return np.clip(idx, 0, s - 1)


def cell_side_count_for_area(area: float) -> int:
    """Grid side s = round(1 / sqrt(a(n))), at least 1."""
    return max(1, round(1.0 / math.sqrt(area)))


def build_cell_grid(cfg: NetworkConfig, positions: np.ndarray = None,
                    cell_area_override: float = None) -> Topology:
    """Place (or accept) node positions and index them into the two grids."""
    if positions is None:
        positions = place_nodes(cfg.n, cfg.rng_seed)
    area = cell_area_override
    if area is None:
        area = cell_area(cfg.n, cfg.C_A, cfg.H, cfg.phi, cfg.antenna_mode)
    return Topology(
        node_positions=positions,
        bs_positions=place_bs(cfg.b),
        cell_side_count=cell_side_count_for_area(area),
        bs_cell_side_count=cfg.b0,
        tx_range=transmission_range(cfg.n, cfg.r_factor) if cfg.n >= 2 else 0.0,
    )


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
