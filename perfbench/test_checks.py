"""The benchmark's checks pass on real instances and fail on perturbed ones.

Run with: python -m pytest perfbench
"""

import dataclasses
import math

import numpy as np
import pytest

import checks
import mcis
from mcis.scheduling import AdHocSchedule
from spans import Tracer
from workloads import K8, Case, bs_share_per_flow


def _cfg(**over):
    raw = dict(n=400, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0, W_I=10.0,
               H=3, rng_seed=0)
    raw.update(over)
    return mcis.validate_config(raw)


OMNI = _cfg()
DIRECTIONAL = _cfg(m=12, C=16, C_I=12, H=6, antenna_mode="directional",
                   theta=math.pi / 12, phi=math.pi / 2)


@pytest.fixture(scope="module", params=[OMNI, DIRECTIONAL], ids=["omni", "directional"])
def played(request):
    cfg = request.param
    case = Case("test", cfg, 0, horizon=45, warmup_superframes=2)
    report = mcis.simulator.run(cfg, 0, 45, **case.run_kwargs())
    return case, report, checks.build_instance(cfg, 0)


def _schedule(hops, slot, mini=None, channel=None):
    """AdHocSchedule for (tx, rx) hops; mini-slot and channel default to 1."""
    hops = np.asarray(hops, dtype=np.int64)
    count = len(hops)
    ones = np.ones(count, dtype=np.int64)
    return AdHocSchedule(
        edge_color_count=int(max(slot)) + 1, minislot_count=1,
        flow_id=np.arange(count), hop_index=np.zeros(count, dtype=np.int64),
        tx=hops[:, 0], rx=hops[:, 1], slot=np.asarray(slot, dtype=np.int64),
        mini=ones if mini is None else np.asarray(mini),
        channel=ones if channel is None else np.asarray(channel))


# Hop 0 -> 1 is 0.05 long, so with delta = 1 any other transmitter closer
# than 0.1 to node 1 corrupts it.  Node 2 sits 0.05 from node 1.
CLOSE = np.array([[0.10, 0.10], [0.15, 0.10], [0.20, 0.10], [0.25, 0.10]])
FAR = np.array([[0.10, 0.10], [0.15, 0.10], [0.80, 0.80], [0.85, 0.80]])


def test_real_instances_pass_every_check(played):
    case, report, inst = played
    failures, counts = checks.instance_checks(inst, case.cfg)
    assert failures == []
    assert checks.consistency_violations(inst.table, report) == []
    assert checks.throughput_violations(case, report, inst, K8) == []
    assert checks.concentration_violations(case.cfg, report) == []
    assert counts["scheduling.audit_pairs"] > 0
    assert counts["routing.bs_lookups"] == 2 * report.infra_flow_count


def test_audit_flags_two_close_same_channel_transmitters():
    failures, pairs = checks.audit_schedule(_schedule([(0, 1), (2, 3)], [0, 0]), CLOSE, 1.0)
    assert pairs == 1
    assert any("tx 2 corrupts 0->1" in f for f in failures)
    assert checks.audit_schedule(_schedule([(0, 1), (2, 3)], [0, 0]), FAR, 1.0) == ([], 1)


def test_audit_separates_channels_and_slots():
    other_channel = _schedule([(0, 1), (2, 3)], [0, 0], channel=[1, 2])
    assert checks.audit_schedule(other_channel, CLOSE, 1.0) == ([], 0)
    other_slot = _schedule([(0, 1), (2, 3)], [0, 1])
    assert checks.audit_schedule(other_slot, CLOSE, 1.0) == ([], 0)


def test_audit_flags_node_in_two_hops_of_one_slot():
    failures, _ = checks.audit_schedule(_schedule([(0, 1), (1, 2)], [0, 0], channel=[1, 2]),
                                        FAR, 1.0)
    assert any("node 1 is in two hops of slot 0" in f for f in failures)


def test_directional_audit_applies_beam_cover():
    # Node 2 aims its beam at node 3, directly away from node 1.
    schedule = _schedule([(0, 1), (2, 3)], [0, 0])
    assert checks.audit_schedule(schedule, CLOSE, 1.0, phi=math.pi / 2)[0] == []
    assert checks.audit_schedule(schedule, CLOSE, 1.0, phi=2 * math.pi)[0] != []


LINE = np.array([[0.1 * k, 0.5] for k in range(1, 6)])   # 0.1 apart on y = 0.5


def _chain_table(path, dst=4):
    flow = mcis.Flow(src=0, dst=dst, mode=mcis.Mode.ADHOC, adhoc_path=list(path),
                     eligible_adhoc=True)
    return mcis.FlowTable(flows=[flow], per_node_load=np.zeros(5, dtype=np.int64))


def test_routing_flags_chain_longer_than_H():
    table = _chain_table([1, 2, 3])                          # 4 hops
    assert checks.routing_violations(table, LINE, H=4, tx_range=0.15) == []
    failures = checks.routing_violations(table, LINE, H=3, tx_range=0.15)
    assert len(failures) == 1 and "4 hops > H=3" in failures[0]


def test_routing_flags_long_hop_and_backward_relay():
    long_hop = checks.routing_violations(_chain_table([2, 3]), LINE, 4, 0.15)
    assert "hop of" in long_hop[0]
    backward = checks.routing_violations(_chain_table([2, 1, 3]), LINE, 9, 0.25)
    assert "do not advance" in backward[0]


def test_routing_allows_final_hop_to_step_back():
    pts = LINE.copy()
    pts[3] = [0.42, 0.5]                 # last relay, just past the destination
    pts[4] = [0.40, 0.5]
    assert checks.routing_violations(_chain_table([1, 2, 3]), pts, 9, 0.15) == []


def test_instance_checks_flag_load_and_coloring_mismatches(played):
    case, _, inst = played
    load = inst.table.per_node_load.copy()
    load[0] += 1
    bad_load = dataclasses.replace(inst, table=dataclasses.replace(inst.table, per_node_load=load))
    assert any("per_node_load" in f for f in checks.instance_checks(bad_load, case.cfg)[0])

    delta_h = checks.hop_degree_max(inst.schedule)
    many_slots = dataclasses.replace(inst.schedule, edge_color_count=2 * delta_h)
    assert any("edge colors" in f for f in checks.coloring_violations(many_slots, inst.graph))

    colors = dict(inst.schedule.tx_color)
    colors[next(iter(colors))] = inst.graph.max_degree() + 2
    many_colors = dataclasses.replace(inst.schedule, tx_color=colors)
    assert any("vertex colors" in f for f in checks.coloring_violations(many_colors, inst.graph))


@pytest.mark.parametrize("field", ["T_A", "T_I"])
def test_saturated_identity_flags_report_off_by_one_percent(played, field):
    case, report, inst = played
    bad = dataclasses.replace(report, **{field: getattr(report, field) * 1.01})
    failures = checks.throughput_violations(case, bad, inst, K8)
    assert len(failures) == 1 and failures[0].startswith(field)


def test_below_capacity_identity():
    cfg = OMNI
    case = Case("half", cfg, 0, horizon=45, warmup_superframes=2,
                demand=bs_share_per_flow(cfg) / 2)
    report = mcis.simulator.run(cfg, 0, 45, **case.run_kwargs())
    inst = checks.build_instance(cfg, 0)
    assert checks.throughput_violations(case, report, inst, K8) == []
    bad = dataclasses.replace(report, T_I=report.T_I * 1.01)
    assert checks.throughput_violations(case, bad, inst, K8) != []


def test_consistency_and_concentration_flag_perturbed_reports(played):
    case, report, inst = played
    bad = dataclasses.replace(report, fallback_flow_count=report.fallback_flow_count + 1)
    assert checks.consistency_violations(inst.table, bad) == [
        f"rebuilt fallbacks {report.fallback_flow_count} != reported "
        f"{report.fallback_flow_count + 1}"]
    assert checks.concentration_violations(case.cfg, dataclasses.replace(report, n_t=0)) != []


def test_scaling_flags_spread_above_two():
    reports, cases = [], []
    for n in (400, 800):
        cfg = mcis.apply_preset(_cfg(n=n, C=3, C_A=1, W_A=120.0, W_I=0.0), "sc-ah")
        cases.append(Case(f"n={n}", cfg, 0, horizon=126, warmup_superframes=11))
        reports.append(mcis.simulator.run(cfg, 0, 126, **cases[-1].run_kwargs()))
    assert checks.scaling_violations(cases, reports) == []
    bad = [reports[0], dataclasses.replace(reports[1], D_a=reports[1].D_a * 5)]
    assert any(f.startswith("D_a") for f in checks.scaling_violations(cases, bad))


def test_tracer_nests_spans_and_reports_absent_functions(monkeypatch):
    import mcis.scheduling
    monkeypatch.delattr(mcis.scheduling, "vertex_color")
    tracer = Tracer()
    with tracer.installed():
        assert not hasattr(mcis.scheduling, "vertex_color")
    assert tracer.absent == ["scheduling.vertex_color"]
    monkeypatch.undo()

    tracer = Tracer()
    with tracer.installed():
        mcis.simulator.run(OMNI, 0, 45)
    assert mcis.simulator.build_cell_grid is mcis.geometry.build_cell_grid
    names = [span["name"] for span in tracer.spans]
    assert names[0] == "simulator.run" and "scheduling.vertex_color" in names
    root = tracer.spans[0]
    children = [s for s in tracer.spans if s["parent"] == 0]
    summary = tracer.summary()
    assert summary["simulator.run.self_s"] == pytest.approx(
        (root["end"] - root["start"]) - sum(s["end"] - s["start"] for s in children))
    coloring = next(s for s in tracer.spans if s["name"] == "scheduling.vertex_color")
    assert tracer.spans[coloring["parent"]]["name"] == "scheduling.build_adhoc_schedule"


def test_reported_names_match_benchmark_json(played):
    import json

    import run
    from workloads import WORKLOADS
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == (
        [name for name, _ in run.SPAN_METRICS] + list(run.COUNT_NAMES))
    case, _, inst = played
    counted = set(checks.instance_checks(inst, case.cfg)[1]) | {"simulator.hop_frames"}
    assert counted == set(run.COUNT_NAMES)
