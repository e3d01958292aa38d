import hashlib
import math

import numpy as np
import pytest
from routing_oracle import corridor_cells, walk_relays

from mcis.analytic import apply_preset
from mcis.config import validate_config
from mcis.errors import EmptyCellError, HopBudgetExceededError, McisError
from mcis.geometry import build_cell_grid
from mcis.routing import (
    FLOW_CSV_HEADER,
    Flow,
    FlowTable,
    Mode,
    _corridors,
    _walk_flows,
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
    # Nine flows from sources 0..8 to node 9 cross the same two relay cells
    # of three members each; a cell offers its first member counting from
    # position src mod 3, so each member relays three of them.
    sources = [[0.10, 0.56 + 0.01 * i] for i in range(9)]
    positions = sources + [[0.95, 0.60],
                           [0.40, 0.60], [0.40, 0.62], [0.40, 0.58],
                           [0.68, 0.60], [0.68, 0.62], [0.68, 0.58]]
    cfg, topo = fixture_topology(positions)
    loads = {i: 0 for i in range(10, 16)}
    routes = _walk_flows(topo, np.arange(9), np.full(9, 9), 3, rotate=True)
    for route in routes:
        for relay in route:
            loads[relay] += 1
    first = [loads[i] for i in (10, 11, 12)]
    second = [loads[i] for i in (13, 14, 15)]
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
        "5789981908d0353011afab1cd11a2d55254fbd8fb2d37e71b32618be8edef084"),
    "mcis-da n=2^9": (validate_config(dict(
        n=2 ** 9, b=16, m=12, C=16, C_A=4, C_I=12, W=120.0, W_A=100.0, W_I=10.0,
        H=20, antenna_mode="directional", theta=math.pi / 12, phi=math.pi / 2,
        rng_seed=12)),
        "aa8e2c013be1582f2eaee9f14100685c66af54edc8c26372247a1dd46a37b11f"),
    "mcis n=2^12": (validate_config(dict(
        n=2 ** 12, b=16, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0, W_I=10.0,
        H=10, rng_seed=13)),
        "f0ff0f579d2bce59e38deec402da2d0167d380dc34fcd062ad8be3845a9714d2"),
}


@pytest.mark.parametrize("label", ROUTE_CASES)
def test_routes_pinned(label):
    # Digests recorded when cells began to offer by the stateless rotation
    # (first feasible member from position src mod size) in place of
    # per-cell round-robin pointers.
    cfg, expected = ROUTE_CASES[label]
    table = assign_flows(build_cell_grid(cfg), cfg, seed=cfg.rng_seed)
    assert route_digest(table) == expected


def walking_flows(cfg, topo):
    """(src, dst) of every eligible flow whose destination is out of range."""
    table = assign_flows(topo, cfg, seed=cfg.rng_seed, build_paths=False)
    pos = topo.node_positions
    return [(f.src, f.dst) for f in table.flows
            if f.eligible_adhoc and math.dist(pos[f.src], pos[f.dst]) > topo.tx_range]


NEAREST_DIGESTS = {
    "sc-ah n=2^10": "73c9f43d183ca563362451e2c9a8bb704a73937ea54557c1512691b66628e9ea",
    "mcis-da n=2^9": "44f584fc7d3fe0bf804bd0b73af0794ea778965beeae382c90238b14ef1d48f8",
    "mcis n=2^12": "f082eb5dc54566423b9dfa54b650659b5c6bdb7147c9239336d4374318e34ec1",
}


@pytest.mark.parametrize("label", ROUTE_CASES)
def test_nearest_paths_pinned(label):
    # Digests recorded from the per-flow walk the batched one replaced: the
    # feasibility rule and the nearest-to-line offer are unchanged.
    cfg, _ = ROUTE_CASES[label]
    topo = build_cell_grid(cfg)
    digest = hashlib.sha256()
    for src, dst in walking_flows(cfg, topo):
        try:
            route = build_adhoc_path(src, dst, topo, max_hops=cfg.H)
        except (EmptyCellError, HopBudgetExceededError) as exc:
            route = type(exc).__name__
        digest.update(repr((src, dst, route)).encode())
    assert digest.hexdigest() == NEAREST_DIGESTS[label]


def oracle_route(src, dst, topo, max_hops, rotate):
    try:
        return walk_relays(src, dst, topo, max_hops, rotate)
    except (EmptyCellError, HopBudgetExceededError) as exc:
        return type(exc).__name__


def random_instance(seed):
    """A small instance with random cell size, hop budget and flows; every
    fifth one has positions on a 1/8 lattice, so nodes sit on cell borders
    and tie in distance."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 120))
    pos = rng.random((n, 2))
    if seed % 5 == 0:
        pos = np.round(pos * 8) / 8
    cfg = make_cfg(n=n, H=int(rng.integers(1, 8)))
    topo = build_cell_grid(cfg, positions=pos,
                           cell_area_override=[1 / 4, 1 / 16, 1 / 49, 1 / 100, 1 / 400][seed % 5])
    pairs = rng.integers(0, n, size=(80, 2))
    return cfg, topo, [(s, d) for s, d in pairs.tolist() if s != d]


@pytest.mark.parametrize("rotate", [False, True], ids=["nearest", "rotation"])
@pytest.mark.parametrize("label", [*ROUTE_CASES, "random"])
def test_batched_walk_equals_oracle(label, rotate):
    if label == "random":
        instances = [random_instance(seed) for seed in range(40)]
    else:
        cfg, _ = ROUTE_CASES[label]
        topo = build_cell_grid(cfg)
        instances = [(cfg, topo, walking_flows(cfg, topo))]
    for cfg, topo, pairs in instances:
        src, dst = np.asarray(pairs, dtype=np.int64).reshape(-1, 2).T
        routes = _walk_flows(topo, src, dst, cfg.H, rotate)
        for (s, d), route in zip(pairs, routes):
            got = type(route).__name__ if isinstance(route, McisError) else route
            assert got == oracle_route(s, d, topo, cfg.H, rotate), (s, d)


def corridor(x0, y0, x1, y1, s):
    """The batched corridor of one segment, as a list of flat cell ids."""
    _, cells = _corridors(*(np.asarray([v], dtype=float) for v in (x0, y0, x1, y1)), s)
    return cells.tolist()


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
    cells = corridor(x0, y0, x1, y1, s)
    assert corridor(y0, x0, y1, x1, s) == mirror_cells(cells, s)
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
    for cells in (corridor(x0, y0, x1, y1, s), corridor(y0, x0, y1, x1, s)):
        cols = [c % s for c in cells]
        step = 1 if cols[-1] >= cols[0] else -1
        assert cols == sorted(cols, reverse=step < 0)
        for col in set(cols):
            rows = [c // s for c in cells if c % s == col]
            assert rows == list(range(rows[0], rows[0] + len(rows)))
            assert len(rows) == 3 or 0 in rows or s - 1 in rows


@pytest.mark.parametrize("s", [1, 2, 5, 8, 13, 40])
def test_batched_corridor_equals_scalar(s):
    rng = np.random.default_rng(s)
    segs = rng.random((400, 4))
    segs[:50] = np.round(segs[:50] * s) / s                   # on grid lines
    segs[50:100, :2] = np.round(segs[50:100, :2])             # from the border
    segs[100:150, 2:] = segs[100:150, :2] + (segs[100:150, 2:] - 0.5) / (4 * s)  # short
    # Exactly 45 degrees, both ways: dyadic ends keep |dx| == |dy| exact.
    segs[150:200, :2] = rng.integers(0, 65, size=(50, 2)) / 64
    run = rng.integers(1, 33, size=50) / 64
    segs[150:200, 2] = segs[150:200, 0] + np.where(segs[150:200, 0] < 0.5, run, -run)
    segs[150:200, 3] = segs[150:200, 1] + np.where(segs[150:200, 1] < 0.5, run, -run)
    segs = np.clip(segs, 0.0, 1.0)
    seg, cells = _corridors(*segs.T, s)
    for i, (x0, y0, x1, y1) in enumerate(segs.tolist()):
        assert cells[seg == i].tolist() == corridor_cells(x0, y0, x1, y1, s), (x0, y0, x1, y1)


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
