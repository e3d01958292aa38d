import math

import pytest

from mcis.analytic import expected_hops
from mcis.config import validate_config
from mcis.errors import HorizonTooShortError, NoPacketsError
from mcis.geometry import build_cell_grid
from mcis.routing import assign_flows
from mcis.scheduling import build_adhoc_schedule
from mcis.simulator import (
    METRICS_CSV_HEADER,
    measure_delay,
    measure_throughput,
    report_to_csv,
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
    assert measure_throughput(rep) == {
        "lambda_measured": 0.0, "T_A": 0.0, "T_I": 0.0}
    with pytest.raises(NoPacketsError):
        measure_delay(rep)


def test_measured_rates_match_schedule_structure():
    # In steady state every surviving ad hoc flow carries exactly
    # W_A / (C_A * E * M) bits per frame.
    cfg = make_cfg(n=500, H=6, rng_seed=2)
    topo = build_cell_grid(cfg)
    table = assign_flows(topo, cfg, seed=2)
    sched = build_adhoc_schedule(topo, table, cfg)
    alive = len(table.adhoc_flows)
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
    d = measure_delay(rep)
    assert d == {"D_a": rep.D_a, "D_i": rep.D_i, "D": rep.D}


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
    rep = run(cfg, 4, 27)
    text = report_to_csv(cfg, rep)
    lines = text.strip().split("\n")
    assert lines[0] == ",".join(METRICS_CSV_HEADER)
    assert len(lines) == 2
    assert report_to_csv(cfg, run(cfg, 4, 27)) == text
