import math

import pytest
from playback_oracle import play_adhoc, play_infra
from test_routing import ROUTE_CASES

from mcis.analytic import expected_hops
from mcis.config import validate_config
from mcis.errors import ConfigError, HorizonTooShortError
from mcis.geometry import build_cell_grid
from mcis.routing import Flow, assign_flows
from mcis.scheduling import build_adhoc_schedule, build_bs_schedule
from mcis.simulator import (
    METRICS_CSV_HEADER,
    _play_adhoc,
    _play_infra,
    build,
    play,
    report_csv_row,
    run,
)


def make_cfg(**over):
    raw = dict(n=300, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0,
               W_I=10.0, H=10, rng_seed=0)
    raw.update(over)
    return validate_config(raw)


def test_smallest_instance_single_hop():
    # Seed 1 draws exactly one ad hoc flow with a single hop: delay is one
    # relay slot and the lone flow gets the whole ad hoc band.
    cfg = make_cfg(n=4, C_A=1, C=3, H=2, rng_seed=1)
    rep = run(cfg, 1, 18, warmup_superframes=1)
    assert rep.adhoc_flow_count == 1
    assert rep.hop_histogram == {1: 1}
    assert rep.D_a == pytest.approx(1.0)
    assert rep.T_A == pytest.approx(cfg.W_A)


def test_run_deterministic():
    cfg = make_cfg(rng_seed=3)
    a = run(cfg, 3, 45)
    b = run(cfg, 3, 45)
    assert a == b


def test_horizon_too_short():
    cfg = make_cfg()
    with pytest.raises(HorizonTooShortError):
        run(cfg, 0, 5)           # below one BS frame
    with pytest.raises(HorizonTooShortError):
        run(cfg, 0, 18)          # equal to the default warm-up


def test_negative_warmup_rejected_and_play_of_build_is_run():
    cfg = make_cfg(n=100)
    with pytest.raises(ConfigError, match="warm-up"):
        run(cfg, 0, 45, warmup_superframes=-1)
    network = build(cfg, 0)
    with pytest.raises(ConfigError, match="warm-up"):
        play(cfg, network, 0, 45, warmup_superframes=-1)
    assert play(cfg, network, 0, 45, demand=0.5) == run(cfg, 0, 45, demand=0.5)


def test_all_infra_half_slot_delay():
    # One BS, two interfaces, two infrastructure channels, c = 1: every
    # packet transits in 1/2 slot.
    cfg = make_cfg(n=100, b=1, m=2, C=3, C_A=1, C_I=2, W=120.0, W_A=100.0,
                   W_I=10.0, H=1, bs_service_constant=1.0)
    rep = run(cfg, 0, 27, warmup_superframes=1)
    assert rep.infra_flow_count > 0
    assert rep.D_i == pytest.approx(0.5)
    assert rep.T_I > 0


def test_zero_demand_run_is_all_zeros():
    cfg = make_cfg(n=120)
    rep = run(cfg, 1, 27, demand=0.0)
    assert rep.per_node_throughput == 0.0
    assert rep.T_A == 0.0 and rep.T_I == 0.0
    assert rep.delivered_adhoc_bits == 0.0 and rep.delivered_infra_bits == 0.0
    assert rep.D == 0.0


def test_measured_rates_match_schedule_structure():
    # In steady state every surviving ad hoc flow carries exactly
    # W_A / (C_A * E * M) bits per frame.
    cfg = make_cfg(n=500, H=6, rng_seed=2)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=2)
    sched = build_adhoc_schedule(topo, table, cfg)
    alive = int(table.adhoc.sum())
    budget = cfg.W_A / (cfg.C_A * sched.edge_color_count * sched.minislot_count)
    rep = run(cfg, 2, 27, warmup_superframes=1)
    window = 27 - 9
    assert rep.delivered_adhoc_bits == pytest.approx(alive * budget * window, rel=1e-9)
    assert rep.T_A == pytest.approx(alive * budget, rel=1e-9)
    # Conservation: delivered never exceeds what sources injected.
    assert rep.delivered_adhoc_bits <= alive * budget * 27 + 1e-9


def test_delay_between_components():
    cfg = make_cfg(n=400, H=8, rng_seed=5)
    rep = run(cfg, 5, 45)
    assert rep.delivered_adhoc_bits > 0 and rep.delivered_infra_bits > 0
    assert min(rep.D_a, rep.D_i) <= rep.D <= max(rep.D_a, rep.D_i)


def test_bs_saturation_within_sigma1_bounds():
    # Saturated infra traffic: per-BS throughput sits at the round-robin duty
    # cycle of the full W_I, so T_I / (b W_I) lands in [1/(k8+1), 1].
    cfg = make_cfg(n=600, b=16, m=8, C=9, C_A=1, C_I=8, W=120.0, W_A=100.0,
                   W_I=10.0, H=1, rng_seed=1)
    rep = run(cfg, 1, 27, warmup_superframes=1)
    ratio = rep.T_I / (cfg.b * cfg.W_I)
    assert 1 / 9 - 1e-9 <= ratio <= 1.0


def test_infra_throughput_scales_with_interfaces():
    reports = {}
    for m in (2, 4, 8):
        cfg = make_cfg(n=600, b=16, m=m, C=9, C_A=1, C_I=8, W=120.0,
                       W_A=100.0, W_I=10.0, H=1, rng_seed=1)
        reports[m] = run(cfg, 1, 27, warmup_superframes=1)
    t2, t4, t8 = reports[2].T_I, reports[4].T_I, reports[8].T_I
    assert t4 / t2 == pytest.approx(2.0, rel=0.05)
    assert t8 / t2 == pytest.approx(4.0, rel=0.05)


def test_mean_hops_tracks_hop_distribution():
    target = float(expected_hops(10))
    for seed in range(3):
        cfg = make_cfg(n=10_000, H=10, rng_seed=seed)
        rep = run(cfg, seed, 45, warmup_superframes=3)
        assert rep.mean_adhoc_hops == pytest.approx(target, rel=0.10)


def test_directional_delay_gain_over_omni():
    base = dict(n=200, b=1, m=12, C=13, C_A=1, C_I=12, W=120.0, W_A=100.0,
                W_I=10.0, H=1, bs_service_constant=1.0, rng_seed=0)
    omni = run(make_cfg(**base), 0, 27, warmup_superframes=1)
    directional = run(make_cfg(**base, antenna_mode="directional",
                               theta=math.pi / 12, phi=2 * math.pi),
                      0, 27, warmup_superframes=1)
    assert omni.D_i / directional.D_i == pytest.approx(24.0, rel=0.10)
    # Throughput contributed by infrastructure is unchanged by BS beams.
    assert directional.T_I == pytest.approx(omni.T_I)


def test_hop_histogram_counts_delivering_flows():
    cfg = make_cfg(n=400, H=8, rng_seed=7)
    rep = run(cfg, 7, 45)
    assert sum(rep.hop_histogram.values()) == rep.adhoc_flow_count
    assert all(1 <= h <= cfg.H for h in rep.hop_histogram)


def test_report_csv_round_trip():
    cfg = make_cfg(n=150, rng_seed=4)
    row = report_csv_row(cfg, run(cfg, 4, 27))
    assert len(row) == len(METRICS_CSV_HEADER)
    assert report_csv_row(cfg, run(cfg, 4, 27)) == row


@pytest.mark.parametrize("label", ROUTE_CASES)
def test_playbacks_equal_slot_by_slot_oracle(label):
    cfg, _ = ROUTE_CASES[label]
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=cfg.rng_seed)
    sched = build_adhoc_schedule(topo, table, cfg)
    bs_sched = build_bs_schedule(cfg.b0, 8)
    horizon, frame = 45, bs_sched.frame_length
    budget = cfg.W_A / (cfg.C_A * sched.edge_color_count * sched.minislot_count)
    for demand in (None, 0.3 * budget, 0.01 * budget, 0.0):
        for warmup in (0, horizon - frame):
            bits, hops = _play_adhoc(cfg, sched, len(table.src), horizon, warmup, demand)
            want_bits, want_hops = play_adhoc(cfg, table, sched, horizon, warmup, demand)
            assert bits.tobytes() == want_bits.tobytes(), (demand, warmup)
            assert hops.tobytes() == want_hops.tobytes()
            infra = _play_infra(cfg, table, bs_sched, horizon, warmup, demand)
            want = play_infra(cfg, table, bs_sched, horizon, warmup, demand)
            assert infra.tobytes() == want.tobytes(), (demand, warmup)
            if demand != 0.0:
                assert bits.sum() > 0.0 and (cfg.W_I == 0.0 or infra.sum() > 0.0)


def test_run_builds_no_flow_record(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("run built a Flow record")

    monkeypatch.setattr(Flow, "__init__", refuse)
    cfg = make_cfg(rng_seed=0)
    for kwargs in ({}, {"demand": 0.05, "interior_margin": 0.1}):
        rep = run(cfg, 0, 45, **kwargs)
        assert rep.adhoc_flow_count > 0 and rep.infra_flow_count > 0


def test_fallbacks_split_by_cause():
    cfg = make_cfg(rng_seed=0)
    rep = run(cfg, 0, 45)
    assert rep.fallback_empty_cell > 0 and rep.fallback_hop_budget > 0
    assert rep.fallback_empty_cell + rep.fallback_hop_budget == rep.fallback_flow_count
    row = dict(zip(METRICS_CSV_HEADER, report_csv_row(cfg, rep)))
    assert (row["fallback_empty_cell"], row["fallback_hop_budget"]) == (
        rep.fallback_empty_cell, rep.fallback_hop_budget)
    assert METRICS_CSV_HEADER[-2:] == ["fallback_empty_cell", "fallback_hop_budget"]
