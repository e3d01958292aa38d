import hashlib
import math

import numpy as np
import pytest

from mcis.analytic import apply_preset
from mcis.config import validate_config
from mcis.errors import EmptyCellError, HopBudgetExceededError
from mcis.geometry import build_cell_grid
from mcis.routing import (
    FLOW_CSV_HEADER,
    Flow,
    FlowTable,
    Mode,
    _corridor_cells,
    _walk_relays,
    adhoc_transmitter_count,
    assign_flows,
    build_adhoc_path,
    decide_mode,
    flow_table_to_csv,
    lines_per_cell,
    lines_through_cell,
    max_flows_per_node,
)


def make_cfg(**over):
    raw = dict(n=300, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0,
               W_I=10.0, H=10, rng_seed=1)
    raw.update(over)
    return validate_config(raw)


def test_decide_mode_boundary():
    h, r = 4, 0.1
    assert decide_mode((0.1, 0.1), (0.1 + 0.5 * h * r, 0.1), h, r) is Mode.ADHOC
    assert decide_mode((0.1, 0.1), (0.1 + 1.0001 * h * r, 0.1), h, r) is Mode.INFRA
    # Distance exactly H * r(n) is still ad hoc.
    assert decide_mode((0.0, 0.0), (h * r, 0.0), h, r) is Mode.ADHOC


def test_adjacent_bs_cell_neighbors_stay_adhoc():
    # Nodes just either side of a BS-cell border communicate directly.
    cfg = make_cfg(n=2, b=4)
    positions = np.asarray([[0.49, 0.25], [0.51, 0.25]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    assert decide_mode(positions[0], positions[1], cfg.H, topo.tx_range) is Mode.ADHOC


def fixture_topology(positions, h=3, **over):
    cfg = make_cfg(n=len(positions), H=h, **over)
    return cfg, build_cell_grid(cfg, positions=np.asarray(positions, dtype=float),
                                cell_area_override=1 / 16)


def test_direct_hop_same_cell():
    cfg, topo = fixture_topology([[0.10, 0.10], [0.12, 0.13]])
    assert build_adhoc_path(0, 1, topo) == []


def test_adjacent_cells_direct_when_in_range():
    cfg, topo = fixture_topology([[0.35, 0.25], [0.55, 0.25]])
    assert topo.tx_range > 0.2
    assert build_adhoc_path(0, 1, topo) == []


def test_adjacent_cells_stall_when_out_of_range():
    cfg, topo = fixture_topology([[0.05, 0.25], [0.95, 0.25]])
    with pytest.raises((EmptyCellError, HopBudgetExceededError)):
        build_adhoc_path(0, 1, topo, max_hops=3)


def test_relay_path_uses_intermediate_node():
    positions = [[0.05, 0.50], [0.95, 0.50], [0.40, 0.50], [0.68, 0.50]]
    cfg, topo = fixture_topology(positions)
    path = build_adhoc_path(0, 1, topo)
    assert path == [2, 3]
    r = topo.tx_range
    chain = [0, *path, 1]
    pos = topo.node_positions
    for a, b in zip(chain, chain[1:]):
        assert math.dist(pos[a], pos[b]) <= r + 1e-12


def test_nearest_to_segment_tie_breaks_low_id():
    # Two candidates equidistant from the segment: lowest id wins.
    positions = [[0.05, 0.60], [0.95, 0.60],
                 [0.40, 0.63], [0.40, 0.57], [0.68, 0.60]]
    cfg, topo = fixture_topology(positions)
    assert build_adhoc_path(0, 1, topo)[0] == 2


def test_round_robin_balances_relay_load():
    positions = [[0.05, 0.60], [0.95, 0.60],
                 [0.40, 0.60], [0.40, 0.62], [0.40, 0.58],
                 [0.68, 0.60], [0.68, 0.62], [0.68, 0.58]]
    cfg, topo = fixture_topology(positions)
    pointers = [0] * topo.cell_side_count ** 2
    pos = topo.node_positions.tolist()
    loads = {i: 0 for i in range(2, 8)}
    for _ in range(9):
        for relay in _walk_relays(0, 1, topo, 3, pos, pointers):
            loads[relay] += 1
    first = [loads[i] for i in (2, 3, 4)]
    second = [loads[i] for i in (5, 6, 7)]
    assert max(first) - min(first) <= 1
    assert max(second) - min(second) <= 1
    assert sum(first) == 9 and sum(second) == 9


def route_digest(table):
    """SHA-256 over every flow's mode, relay path, BS ids and fallback flag."""
    digest = hashlib.sha256()
    for f in table.flows:
        digest.update(repr((f.src, f.dst, f.mode.value, list(f.adhoc_path),
                            f.uplink_bs, f.downlink_bs, f.fallback)).encode())
    return digest.hexdigest()


ROUTE_CASES = {
    "sc-ah n=2^10": (apply_preset(validate_config(dict(
        n=2 ** 10, b=4, m=4, C=3, C_A=1, C_I=2, W=120.0, W_A=120.0, W_I=0.0,
        H=10, rng_seed=11)), "sc-ah"),
        "37412aa924dc96e76f78e666089f4cdc05d52520a8836ad37021dc483b84274d"),
    "mcis-da n=2^9": (validate_config(dict(
        n=2 ** 9, b=16, m=12, C=16, C_A=4, C_I=12, W=120.0, W_A=100.0, W_I=10.0,
        H=20, antenna_mode="directional", theta=math.pi / 12, phi=math.pi / 2,
        rng_seed=12)),
        "53e3679f6ddab6d1b7fe07b27e4253f15ba0e8babc4d01d58a7653b252d63bd1"),
    "mcis n=2^12": (validate_config(dict(
        n=2 ** 12, b=16, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0, W_I=10.0,
        H=10, rng_seed=13)),
        "c8551db67330757dfc6c015c5431ef219305de63ffe80e0d80c8bbf5c956096c"),
}


@pytest.mark.parametrize("label", ROUTE_CASES)
def test_routes_pinned(label):
    # Digests recorded from the two-policy relay walk this one replaced.
    cfg, expected = ROUTE_CASES[label]
    table = assign_flows(build_cell_grid(cfg), cfg, seed=cfg.rng_seed)
    assert route_digest(table) == expected


def mirror_cells(cells, s):
    return [(c % s) * s + c // s for c in cells]


@pytest.mark.parametrize("seg,s", [
    ((0.10, 0.30, 0.90, 0.55), 10),     # shallow
    ((0.30, 0.05, 0.62, 0.97), 10),     # steep
    ((0.90, 0.55, 0.10, 0.30), 10),     # shallow, reversed
    ((0.62, 0.97, 0.30, 0.05), 7),      # steep, reversed
    ((0.00, 0.00, 1.00, 0.40), 8),      # from one corner to the far edge
    ((0.10, 0.00, 0.90, 0.00), 8),      # along the bottom border
    ((1.00, 0.20, 0.95, 1.00), 6),      # from the right border, steep
    ((0.42, 0.42, 0.43, 0.47), 5),      # inside one cell
])
def test_corridor_cells_mirror_across_diagonal(seg, s):
    x0, y0, x1, y1 = seg
    cells = _corridor_cells(x0, y0, x1, y1, s)
    assert _corridor_cells(y0, x0, y1, x1, s) == mirror_cells(cells, s)
    assert len(set(cells)) == len(cells)
    assert all(0 <= c < s * s for c in cells)


@pytest.mark.parametrize("seg", [(0.125, 0.25, 0.625, 0.75),
                                 (0.625, 0.75, 0.125, 0.25),
                                 (0.875, 0.0, 0.0, 0.875)])
def test_corridor_cells_45_degrees_drive_along_x(seg):
    # At exactly 45 degrees both the segment and its mirror step column by
    # column, three lanes of rows per column away from the border.
    s = 8
    x0, y0, x1, y1 = seg
    for cells in (_corridor_cells(x0, y0, x1, y1, s), _corridor_cells(y0, x0, y1, x1, s)):
        cols = [c % s for c in cells]
        step = 1 if cols[-1] >= cols[0] else -1
        assert cols == sorted(cols, reverse=step < 0)
        for col in set(cols):
            rows = [c // s for c in cells if c % s == col]
            assert rows == list(range(rows[0], rows[0] + len(rows)))
            assert len(rows) == 3 or 0 in rows or s - 1 in rows


def test_assign_flows_deterministic_and_total():
    cfg = make_cfg(n=300, rng_seed=9)
    topo = build_cell_grid(cfg)
    t1 = assign_flows(topo, cfg, seed=9)
    t2 = assign_flows(topo, cfg, seed=9)
    assert t1.flows == t2.flows
    assert np.array_equal(t1.per_node_load, t2.per_node_load)
    # Every kept flow originates at a distinct node.
    assert len({f.src for f in t1.flows}) == len(t1.flows)


def test_assign_flows_single_node_drops_self_flow():
    cfg = make_cfg(n=1, H=1)
    topo = build_cell_grid(cfg, positions=np.asarray([[0.5, 0.5]]), cell_area_override=0.25)
    table = assign_flows(topo, cfg, seed=0)
    assert table.flows == []
    assert max_flows_per_node(table) == 0


def test_assign_flows_modes_and_fallbacks():
    cfg = make_cfg(n=400, H=3, rng_seed=4)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=4)
    reach = cfg.H * topo.tx_range
    pos = topo.node_positions
    for f in table.flows:
        dist = math.dist(pos[f.src], pos[f.dst])
        assert f.eligible_adhoc == (dist <= reach + 1e-12)
        if f.mode is Mode.ADHOC:
            assert f.hop_count <= cfg.H
            chain = [f.src, *f.adhoc_path, f.dst]
            assert len(set(chain)) == len(chain)
            for a, b in zip(chain, chain[1:]):
                assert math.dist(pos[a], pos[b]) <= topo.tx_range + 1e-12
        else:
            assert f.uplink_bs == topo.bs_cell_of(*pos[f.src])
            assert f.downlink_bs == topo.bs_cell_of(*pos[f.dst])
            if f.fallback:
                assert f.eligible_adhoc
    assert adhoc_transmitter_count(table) == sum(f.eligible_adhoc for f in table.flows)


def manual_table(segments):
    flows = [Flow(src=2 * i, dst=2 * i + 1, mode=Mode.ADHOC) for i in range(len(segments))]
    return flows


def test_lines_through_cell_fixture():
    # Segment (0.1, 0.1) -> (0.9, 0.6) on a 2x2 grid crosses exactly
    # (0,0), (0,1) and (1,1); hand-checked crossings at x=0.5 (y=0.35)
    # and y=0.5 (x=0.74).
    cfg = make_cfg(n=2)
    positions = np.asarray([[0.1, 0.1], [0.9, 0.6]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    table = FlowTable(flows=[Flow(src=0, dst=1, mode=Mode.ADHOC)],
                      per_node_load=np.zeros(2, dtype=int))
    expect = {(0, 0): 1, (0, 1): 1, (1, 1): 1, (1, 0): 0}
    for (row, col), count in expect.items():
        assert lines_through_cell(table, (row, col), topo) == count
    assert lines_through_cell(FlowTable([], np.zeros(2, dtype=int)), (0, 0), topo) == 0


def test_lines_per_cell_matches_exact_counts():
    cfg = make_cfg(n=200, rng_seed=3)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=3)
    counts = lines_per_cell(table, topo)
    s = topo.cell_side_count
    rng = np.random.default_rng(0)
    for row, col in zip(rng.integers(0, s, 25), rng.integers(0, s, 25)):
        assert counts[row, col] == lines_through_cell(table, (int(row), int(col)), topo)


def test_max_flows_per_node_permutation():
    n = 12
    flows = [Flow(src=i, dst=(i + 1) % n, mode=Mode.INFRA) for i in range(n)]
    table = FlowTable(flows=flows, per_node_load=np.zeros(n, dtype=int))
    assert max_flows_per_node(table) == 1


def test_max_flows_per_node_concentration():
    # Destination multiplicity stays within 5 ln(H^2 ln n)/lnln(H^2 ln n).
    n = 100_000
    h = max(1, round(math.sqrt(n / math.log(n))))
    inner = h * h * math.log(n)
    bound = 5 * math.log(inner) / math.log(math.log(inner))
    cfg = make_cfg(n=n, H=h, C_A=1, C=3, W_A=120.0, W_I=0.0)
    passes = 0
    for seed in range(20):
        cfg_seed = cfg.with_overrides(rng_seed=seed)
        topo = build_cell_grid(cfg_seed)
        table = assign_flows(topo, cfg_seed, seed=seed, build_paths=False)
        if max_flows_per_node(table) <= bound:
            passes += 1
    assert passes >= 19


def test_flow_table_csv():
    cfg = make_cfg(n=50, rng_seed=2)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=2)
    text = flow_table_to_csv(table)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(FLOW_CSV_HEADER)
    assert len(lines) == len(table.flows) + 1
