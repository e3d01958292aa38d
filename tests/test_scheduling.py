import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conflict_oracle import oracle_graph
from mcis.analytic import apply_preset
from mcis.config import AntennaMode, validate_config
from mcis.errors import ClusterMismatchError
from mcis.geometry import build_cell_grid
from mcis.routing import assign_flows
from mcis.scheduling import (
    AdHocSchedule,
    InterferenceParams,
    bs_interfaces_directional,
    build_adhoc_schedule,
    build_bs_schedule,
    build_interference_graph,
    edge_color,
    flow_hops,
    interferes,
    interfering_cell_bound,
    minislot_of,
    verify_schedule,
    vertex_color,
)

TWO_PI = 2 * math.pi


def make_cfg(**over):
    raw = dict(n=200, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0,
               W_I=10.0, H=10, rng_seed=0)
    raw.update(over)
    return validate_config(raw)


def omni(delta=1.0):
    return InterferenceParams(delta=delta)


def directional(delta=1.0, theta=TWO_PI, phi=TWO_PI):
    return InterferenceParams(delta=delta, mode=AntennaMode.DIRECTIONAL,
                              theta=theta, phi=phi)


def test_interferes_omni_guard_zone():
    # Link length 1, guard zone 1: interferer inside 2.0 of the receiver.
    assert not interferes((0, 0), (1, 0), (3.1, 0), omni())
    assert interferes((0, 0), (1, 0), (2.9, 0), omni())
    assert not interferes((0, 0), (1, 0), (3.0, 0), omni())  # >= is safe


def test_interferes_directional_beam_miss():
    params = directional(phi=math.pi / 2)
    # Interferer on the transmitter side, inside the guard distance, aimed at
    # the receiver: interferes.
    assert interferes((0, 0), (1, 0), (-0.9, 0), params, tx_b_boresight=0.0)
    # Same geometry with the competing beam pointed 180 degrees away: clean.
    assert not interferes((0, 0), (1, 0), (-0.9, 0), params,
                          tx_b_boresight=math.pi)
    # Interferer behind the receiver falls outside its receive beam.
    assert not interferes((0, 0), (1, 0), (2.9, 0), params,
                          tx_b_boresight=math.pi)


def test_interferes_full_beam_equals_omni():
    rng = np.random.default_rng(5)
    for _ in range(200):
        tx_a, rx_a, tx_b = rng.random((3, 2))
        bore = rng.random() * TWO_PI
        assert interferes(tx_a, rx_a, tx_b, directional()) == \
            interferes(tx_a, rx_a, tx_b, omni())
        assert interferes(tx_a, rx_a, tx_b, directional(), tx_b_boresight=bore) == \
            interferes(tx_a, rx_a, tx_b, omni())


def chain_topology():
    cfg = make_cfg(n=6)
    positions = np.asarray([
        [0.10, 0.5], [0.20, 0.5],      # hop A: 0 -> 1
        [0.28, 0.5], [0.38, 0.5],      # hop B: 2 -> 3
        [0.90, 0.5], [0.80, 0.5],      # hop C: 4 -> 5 (far away)
    ])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=1 / 16)
    hops = [(0, 1), (2, 3), (4, 5)]
    return cfg, topo, hops


def test_interference_graph_matches_pairwise_oracle():
    cfg, topo, hops = chain_topology()
    params = omni()
    graph = build_interference_graph(topo, hops, params)
    pos = topo.node_positions
    hop_of = {0: (0, 1), 2: (2, 3), 4: (4, 5)}
    for u in (0, 2, 4):
        for v in (0, 2, 4):
            if u >= v:
                continue
            expect = False
            for a, b in ((u, v), (v, u)):
                ta, ra = hop_of[a]
                expect = expect or interferes(pos[ta], pos[ra], pos[b], params)
            assert graph.has_edge(u, v) == expect
    assert graph.has_edge(0, 2)
    assert not graph.has_edge(0, 4)
    assert not graph.has_edge(2, 4)


def test_interference_graph_separated_flows_no_edge():
    cfg = make_cfg(n=4, delta=1.0)
    positions = np.asarray([[0.05, 0.1], [0.10, 0.1], [0.90, 0.9], [0.95, 0.9]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=1 / 16)
    graph = build_interference_graph(topo, [(0, 1), (2, 3)], omni())
    assert graph.edge_count == 0


def test_interference_graph_full_beam_matches_omni():
    cfg = make_cfg(n=150, rng_seed=11)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=11)
    hops = [(t, r) for _, _, t, r in flow_hops(table.flows)]
    if not hops:
        pytest.skip("no ad hoc hops drawn")
    g_omni = build_interference_graph(topo, hops, omni())
    g_dir = build_interference_graph(topo, hops, directional())
    assert np.array_equal(g_omni.nodes, g_dir.nodes)
    assert np.array_equal(g_omni.indptr, g_dir.indptr)
    assert np.array_equal(g_omni.indices, g_dir.indices)


def routed(cfg):
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=cfg.rng_seed)
    hops = [(t, r) for _, _, t, r in flow_hops(table.flows)]
    return topo, hops, InterferenceParams.from_config(cfg)


def chain_with(hops):
    _, topo, _ = chain_topology()
    return topo, hops, omni()


SC_AH_BASE = dict(b=4, m=4, C=3, C_A=1, C_I=2, W=120.0, W_A=120.0, W_I=0.0, H=10)
MCIS_DA = dict(n=2 ** 9, b=16, m=12, C=16, C_A=4, C_I=12, W=120.0, W_A=100.0,
               W_I=10.0, H=20, antenna_mode="directional", theta=math.pi / 12,
               phi=math.pi / 2, rng_seed=0)
ORACLE_CASES = [
    pytest.param(lambda: routed(make_cfg(n=600, rng_seed=3, H=6)), id="omni-n600"),
    # The largest case: 1,846 transmitters, many hops per receiver.
    pytest.param(lambda: routed(apply_preset(
        validate_config(dict(SC_AH_BASE, n=2 ** 11, rng_seed=0)), "sc-ah")),
        id="omni-sc-ah-2^11"),
    *[pytest.param(lambda delta=delta, phi=phi: routed(make_cfg(
        n=300, rng_seed=5, antenna_mode="directional", delta=delta, phi=phi)),
        id=f"directional-delta{delta}-phi{label}")
      for delta in (0.5, 1.0)
      for phi, label in ((TWO_PI, "2pi"), (math.pi / 2, "pi/2"), (math.pi / 8, "pi/8"))],
    pytest.param(lambda: routed(validate_config(MCIS_DA)), id="mcis-da-2^9"),
    pytest.param(lambda: chain_with([]), id="no-hops"),
    pytest.param(lambda: chain_with([(2, 3), (2, 1)]), id="single-transmitter"),
]


@pytest.mark.parametrize("instance", ORACLE_CASES)
def test_interference_graph_equals_oracle(instance):
    topo, hops, params = instance()
    graph = build_interference_graph(topo, hops, params)
    oracle = oracle_graph(topo, hops, params)
    assert np.array_equal(graph.nodes, oracle.nodes)
    assert np.array_equal(graph.indptr, oracle.indptr)
    assert np.array_equal(graph.indices, oracle.indices)


def test_shrinking_phi_never_adds_edges():
    cfg = make_cfg(n=120, rng_seed=7, antenna_mode="directional")
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=7)
    hops = [(t, r) for _, _, t, r in flow_hops(table.flows)]
    if not hops:
        pytest.skip("no ad hoc hops drawn")
    prev = None
    for phi in [TWO_PI, math.pi, math.pi / 2, math.pi / 8]:
        g = build_interference_graph(topo, hops, directional(phi=phi))
        edges = {(int(g.nodes[i]), int(g.nodes[j]))
                 for i in range(g.order) for j in g.neighbors(i)}
        if prev is not None:
            assert edges <= prev
        prev = edges


def test_edge_color_triangle_and_star():
    tri = edge_color([(0, 1), (1, 2), (2, 0)])
    assert sorted(tri.tolist()) == [0, 1, 2]
    star = edge_color([(0, i) for i in range(1, 6)])
    assert sorted(star.tolist()) == [0, 1, 2, 3, 4]


def test_edge_color_parallel_edges_distinct():
    colors = edge_color([(3, 7), (3, 7), (3, 7)])
    assert len(set(colors.tolist())) == 3


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_edge_color_proper_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = 50
    m = int(rng.integers(1, 120))
    edges = [(int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(m)]
    edges = [(u, v) for u, v in edges if u != v]
    if not edges:
        return
    colors = edge_color(edges, n_nodes=n)
    degree = np.zeros(n, dtype=int)
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    assert colors.max() + 1 <= 2 * degree.max() - 1
    seen = {}
    for (u, v), c in zip(edges, colors.tolist()):
        for node in (u, v):
            assert (node, c) not in seen
            seen[(node, c)] = True


def graph_from_edges(n, edges):
    from mcis.scheduling import InterferenceGraph
    nodes = np.arange(n)
    return InterferenceGraph.from_edge_array(nodes, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def test_vertex_color_fixtures():
    empty = graph_from_edges(5, [])
    assert vertex_color(empty).tolist() == [1, 1, 1, 1, 1]
    k4 = graph_from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert sorted(vertex_color(k4).tolist()) == [1, 2, 3, 4]


@given(st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_vertex_color_proper_and_bounded(seed):
    rng = np.random.default_rng(seed)
    n = 50
    m = int(rng.integers(0, 200))
    edges = {(int(a), int(b)) for a, b in rng.integers(0, n, (m, 2)) if a != b}
    graph = graph_from_edges(n, sorted(edges))
    colors = vertex_color(graph)
    assert colors.min() >= 1
    assert colors.max() <= graph.max_degree() + 1
    for i in range(graph.order):
        for j in graph.neighbors(i):
            assert colors[i] != colors[j]


def test_minislot_of():
    assert minislot_of(1, 1) == (1, 1)
    assert minislot_of(3, 3) == (1, 1)
    assert minislot_of(4, 3) == (2, 2)
    with pytest.raises(ValueError):
        minislot_of(0, 3)


def test_interfering_cell_bound():
    assert interfering_cell_bound(1.0) == pytest.approx(16.0)
    assert interfering_cell_bound(1.0, AntennaMode.DIRECTIONAL, TWO_PI) == pytest.approx(729.0)
    assert interfering_cell_bound(1.0, AntennaMode.DIRECTIONAL, 1e-9) < 1e-10
    # Documented constant gap between the directional and omni bounds.
    gap = interfering_cell_bound(1.0, AntennaMode.DIRECTIONAL, TWO_PI) / interfering_cell_bound(1.0)
    assert gap == pytest.approx(81 * 9 / 16.0)


def test_build_bs_schedule():
    sched = build_bs_schedule(3, k8=8)
    assert sched.frame_length == 9
    assert sorted(sched.slot_of_bs_cell.tolist()) == list(range(9))
    big = build_bs_schedule(6, k8=8)
    grid = big.slot_of_bs_cell.reshape(6, 6)
    assert grid[0, 0] == grid[0, 3] == grid[3, 0]     # 3x3 cluster tiling
    with pytest.raises(ClusterMismatchError):
        build_bs_schedule(4, k8=4)
    two_by_two = build_bs_schedule(4, k8=3)
    assert two_by_two.frame_length == 4


def test_bs_frame_same_slot_cells_do_not_interfere():
    # Worst-case uplink links in same-slot BS-cells pass the predicate.
    b0, k8, delta = 6, 8, 1.0
    sched = build_bs_schedule(b0, k8=k8)
    side = 1.0 / b0
    centers = [((c + 0.5) * side, (r + 0.5) * side)
               for r in range(b0) for c in range(b0)]
    params = omni(delta)
    for slot in range(sched.frame_length):
        active = [i for i in range(b0 * b0) if sched.slot_of_bs_cell[i] == slot]
        for i in active:
            for j in active:
                if i == j:
                    continue
                # Receiver: BS i; transmitter: corner node of cell i;
                # competing transmitter: corner node of cell j nearest cell i.
                rx = centers[i]
                tx = (centers[i][0] + side / 2, centers[i][1] + side / 2)
                dx = math.copysign(side / 2, centers[i][0] - centers[j][0])
                dy = math.copysign(side / 2, centers[i][1] - centers[j][1])
                tx_b = (centers[j][0] + dx, centers[j][1] + dy)
                assert not interferes(tx, rx, tx_b, params)


def test_bs_interfaces_directional():
    assert bs_interfaces_directional(math.pi / 12, 12) == 288
    assert bs_interfaces_directional(TWO_PI, 5) == 5
    assert bs_interfaces_directional(math.pi / 2, 2) == 8


def single_hop_schedule(slot, mini, channel, hops):
    arr = np.asarray(hops, dtype=np.int64)
    m = len(arr)
    return AdHocSchedule(
        edge_color_count=int(max(slot)) + 1, minislot_count=int(max(mini)),
        flow_id=np.arange(m), hop_index=np.zeros(m, dtype=np.int64),
        tx=arr[:, 0], rx=arr[:, 1],
        slot=np.asarray(slot), mini=np.asarray(mini), channel=np.asarray(channel))


def test_verify_schedule_empty():
    cfg = make_cfg(n=4)
    topo = build_cell_grid(cfg, positions=np.asarray(
        [[0.1, 0.1], [0.2, 0.1], [0.3, 0.1], [0.4, 0.1]]), cell_area_override=0.25)
    empty = AdHocSchedule(0, 0, *(np.empty(0, dtype=np.int64),) * 7)
    assert verify_schedule(empty, topo, omni()) == []


def test_verify_schedule_flags_constructed_violation():
    cfg = make_cfg(n=4)
    positions = np.asarray([[0.0, 0.0], [0.1, 0.0], [0.15, 0.0], [0.16, 0.0]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    # Hop B's transmitter sits 0.05 from hop A's receiver (< 2 x 0.1) on the
    # same slot/mini/channel; hop B itself is too short to be disturbed.
    sched = single_hop_schedule([0, 0], [1, 1], [1, 1], [(0, 1), (2, 3)])
    violations = verify_schedule(sched, topo, omni())
    assert len(violations) == 1
    v = violations[0]
    assert v.kind == "interference" and (v.node_a, v.node_b) == (0, 2)


def test_verify_schedule_flags_duplex():
    cfg = make_cfg(n=3)
    positions = np.asarray([[0.0, 0.0], [0.4, 0.0], [0.8, 0.0]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    # Node 1 receives from 0 and transmits to 2 in the same (slot, mini).
    sched = single_hop_schedule([0, 0], [1, 1], [1, 2], [(0, 1), (1, 2)])
    violations = verify_schedule(sched, topo, omni())
    assert any(v.kind == "duplex" and v.node_a == 1 for v in violations)


def test_build_adhoc_schedule_single_flow_single_hop():
    cfg = make_cfg(n=2, C_A=1, C=3)
    positions = np.asarray([[0.45, 0.5], [0.5, 0.5]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    table = assign_flows(topo, cfg, seed=1)
    assert len(table.flows) >= 1
    sched = build_adhoc_schedule(topo, table, cfg)
    assert sched.edge_color_count == 1
    assert sched.minislot_count == 1
    assert sched.slot.tolist() == [0] * sched.hop_count
    assert set(sched.mini.tolist()) == {1}
    assert set(sched.channel.tolist()) == {1}


def test_build_adhoc_schedule_two_interfering_flows_split_channels():
    cfg = make_cfg(n=4, C_A=2, C=4)
    positions = np.asarray([[0.30, 0.5], [0.35, 0.5], [0.36, 0.5], [0.41, 0.5]])
    topo = build_cell_grid(cfg, positions=positions, cell_area_override=0.25)
    from mcis.routing import Flow, FlowTable, Mode
    table = FlowTable(flows=[Flow(src=0, dst=1, mode=Mode.ADHOC),
                             Flow(src=2, dst=3, mode=Mode.ADHOC)],
                      per_node_load=np.zeros(4, dtype=int))
    sched = build_adhoc_schedule(topo, table, cfg)
    assert sched.hop_count == 2
    # Vertex colors 1 and 2 map to the same mini-slot on different channels.
    assert sched.mini.tolist() == [1, 1]
    assert sorted(sched.channel.tolist()) == [1, 2]
    assert verify_schedule(sched, topo, omni()) == []


def test_schedule_invariants_random_instances():
    for seed in range(3):
        cfg = make_cfg(n=150, rng_seed=seed)
        topo = build_cell_grid(cfg)
        table = assign_flows(topo, cfg, seed=seed)
        sched = build_adhoc_schedule(topo, table, cfg)
        if sched.hop_count == 0:
            continue
        assert verify_schedule(sched, topo, omni()) == []
        # No node twice in one edge-color slot.
        seen = set()
        for i in range(sched.hop_count):
            for node in (int(sched.tx[i]), int(sched.rx[i])):
                key = (int(sched.slot[i]), node)
                assert key not in seen
                seen.add(key)
        # Channel bounds and the color -> (mini, channel) map.
        assert sched.channel.min() >= 1 and sched.channel.max() <= cfg.C_A
        assert sched.mini.min() >= 1 and sched.mini.max() <= sched.minislot_count
        for i in range(sched.hop_count):
            s = sched.tx_color[int(sched.tx[i])]
            assert (int(sched.mini[i]), int(sched.channel[i])) == minislot_of(s, cfg.C_A)
