import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from routing_oracle import bs_cell_of, cell_members, segment_intersects_square, supercover_cells
from scipy import stats

from mcis.config import AntennaMode, validate_config
from mcis.errors import DegenerateScaleError, NonSquareBsError
from mcis.geometry import (
    build_cell_grid,
    cell_area,
    cell_side_count_for_area,
    grid_index,
    place_bs,
    place_nodes,
    transmission_range,
)

E10 = 22026  # round(e^10)


def test_transmission_range_value():
    # sqrt(2 * ln(22026) / (pi * 22026)) evaluated independently.
    assert transmission_range(E10, 1.0) == pytest.approx(0.0170009, abs=2e-6)


def test_transmission_range_above_connectivity_threshold():
    for n in [2, 3, 10, 100, 10_000, 1_000_000]:
        assert transmission_range(n) > math.sqrt(math.log(n) / (math.pi * n))


@given(st.integers(min_value=3, max_value=10**9))
def test_transmission_range_monotone_decreasing(n):
    assert transmission_range(n + 1) < transmission_range(n)


def test_transmission_range_rejects_small_n():
    with pytest.raises(ValueError):
        transmission_range(1)


def test_place_nodes_empty_and_deterministic():
    assert place_nodes(0, 1).shape == (0, 2)
    a = place_nodes(10_000, 42)
    b = place_nodes(10_000, 42)
    assert np.array_equal(a, b)
    assert a.min() >= 0.0 and a.max() <= 1.0


def test_place_nodes_uniform_ks():
    pts = place_nodes(10_000, 3)
    # Two-sided KS against U(0,1); 1% critical value ~ 1.63 / sqrt(n).
    crit = 1.63 / math.sqrt(len(pts))
    for axis in (0, 1):
        stat = stats.kstest(pts[:, axis], "uniform").statistic
        assert stat < crit


def test_place_bs_fixed_grids():
    assert place_bs(1).tolist() == [[0.5, 0.5]]
    four = {tuple(p) for p in place_bs(4).tolist()}
    assert four == {(0.25, 0.25), (0.25, 0.75), (0.75, 0.25), (0.75, 0.75)}
    nine = place_bs(9)
    assert sorted(set(np.round(nine[:, 0], 12))) == pytest.approx([1 / 6, 1 / 2, 5 / 6])
    with pytest.raises(NonSquareBsError):
        place_bs(5)


def test_cell_area_example_value():
    # min(max(100 ln n / n, ln^1.5 n / (2 n)), third term) at n = e^10,
    # C_A = 4, H = 10; all three terms checked with an independent evaluation.
    n = E10
    log_n = math.log(n)
    assert 100 * log_n / n == pytest.approx(0.0454, abs=2e-4)
    assert log_n ** 1.5 / (2 * n) == pytest.approx(7.178e-4, rel=1e-3)
    assert cell_area(n, 4, 10) == pytest.approx(3.457e-5, rel=1e-3)


def test_cell_area_directional_full_beam_identical():
    omni = cell_area(E10, 4, 10)
    directional = cell_area(E10, 4, 10, phi=2 * math.pi, mode=AntennaMode.DIRECTIONAL)
    assert directional == omni


@given(st.integers(min_value=16, max_value=10**7), st.integers(min_value=1, max_value=64),
       st.integers(min_value=2, max_value=50))
def test_cell_area_monotone_in_channels(n, c_a, h):
    assert cell_area(n, 2 * c_a, h) <= cell_area(n, c_a, h)


def test_cell_area_degenerate_scale():
    with pytest.raises(DegenerateScaleError):
        cell_area(3, 1, 1)   # H^2 ln 3 ~ 1.1 <= e


def test_grid_side_rounding():
    assert cell_side_count_for_area(0.25) == 2
    assert cell_side_count_for_area(1.0) == 1
    assert cell_side_count_for_area(0.9) == 1


def test_boundary_point_assignment():
    # (0.5, 0.5) on a 2x2 grid sits on the shared corner; it belongs to the
    # cell whose low edges it lies on: (row 1, col 1).
    idx = grid_index(np.asarray([0.5]), 2)
    assert idx[0] == 1
    assert grid_index(np.asarray([1.0]), 2)[0] == 1   # top edge clamps
    assert grid_index(np.asarray([0.0]), 2)[0] == 0


def make_topology(n=500, seed=0, area=None, **cfg_over):
    raw = dict(n=n, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0, W_I=10.0,
               H=10, rng_seed=seed)
    raw.update(cfg_over)
    cfg = validate_config(raw)
    return build_cell_grid(cfg, cell_area_override=area)


def test_cell_assignment_partitions_nodes():
    topo = make_topology(n=777, seed=5)
    total = sum(len(cell_members(topo, r, c))
                for r in range(topo.cell_side_count)
                for c in range(topo.cell_side_count))
    assert total == topo.n
    counted = np.zeros(topo.n, dtype=int)
    for r in range(topo.cell_side_count):
        for c in range(topo.cell_side_count):
            for node in cell_members(topo, r, c):
                counted[node] += 1
    assert np.all(counted == 1)


def test_cell_occupancy_concentration():
    # With a(n) = 100 ln n / n (above the 50 ln n / n occupancy gate) every
    # cell holds within [0.1, 10] x n a(n) nodes in at least 95% of seeds.
    n = 10_000
    area = 100 * math.log(n) / n
    passes = 0
    for seed in range(20):
        topo = make_topology(n=n, seed=seed, area=area)
        s = topo.cell_side_count
        counts = [len(cell_members(topo, r, c)) for r in range(s) for c in range(s)]
        target = n * area
        if min(counts) >= 0.1 * target and max(counts) <= 10 * target:
            passes += 1
    assert passes >= 19


def test_supercover_matches_exact_intersection():
    rng = np.random.default_rng(12)
    for s in (2, 3, 5, 8):
        side = 1.0 / s
        for _ in range(60):
            x0, y0, x1, y1 = rng.random(4)
            walked = set(supercover_cells(x0, y0, x1, y1, s))
            exact = {(r, c) for r in range(s) for c in range(s)
                     if segment_intersects_square(x0, y0, x1, y1,
                                                  c * side, r * side, side)}
            assert walked == exact
            assert len(walked) <= 2 * s


def test_supercover_single_cell_segment():
    assert supercover_cells(0.1, 0.1, 0.2, 0.2, 4) == [(0, 0)]


def test_topology_bs_cell_lookup():
    topo = make_topology(n=10, seed=0)
    assert bs_cell_of(topo, 0.1, 0.1) == 0
    # BS positions are exactly the BS-cell centers, indexed row-major.
    for bs_id, (x, y) in enumerate(topo.bs_positions.tolist()):
        assert bs_cell_of(topo, x, y) == bs_id
