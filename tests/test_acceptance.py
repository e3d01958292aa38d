"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
and elapsed times.  Tolerances are fixed here; nothing is calibrated at
runtime.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from routing_oracle import lines_per_cell

from mcis import analytic
from mcis.analytic import (
    Condition,
    apply_preset,
    classify_regime,
    delay,
    expected_hops,
    prob_adhoc,
)
from mcis.config import AntennaMode, validate_config
from mcis.fitting import fit_scaling
from mcis.geometry import build_cell_grid, cell_area
from mcis.harness import SweepSpec, run_sweep
from mcis.routing import assign_flows
from mcis.scheduling import (
    InterferenceParams,
    build_adhoc_schedule,
    build_interference_graph,
    flow_hops,
    interfering_cell_bound,
    verify_schedule,
    vertex_color,
)
from mcis.simulator import run

TWO_PI = 2 * math.pi


def announce(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def base_config(**over):
    raw = dict(n=10_000, b=4, m=4, C=3, C_A=1, C_I=2, W=120.0, W_A=120.0,
               W_I=0.0, H=10, rng_seed=0)
    raw.update(over)
    return validate_config(raw)


def test_criterion_1_exact_hop_formula():
    t0 = time.time()
    ok = True
    for H in range(1, 101):
        brute = sum(Fraction(i * (i * i - (i - 1) * (i - 1)), H * H)
                    for i in range(1, H + 1))
        if expected_hops(H) != brute:
            ok = False
            break
        gap = float(expected_hops(H)) - 2 * H / 3 - (0.5 - 1 / (6 * H))
        if abs(gap) > 1e-12:
            ok = False
            break
    announce("criterion 1 exact hop formula", ok,
             f"H=1..100 exact rational match, identity |gap| <= 1e-12, "
             f"elapsed {time.time() - t0:.2f}s (budget 1s)")


def test_criterion_2_regime_partition():
    t0 = time.time()
    ns = [64, 256, 1024, 4096, 16384, 65536, 262144, 10**6, 10**7, 10**8]
    cas = [1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384]
    hs = [1, 2, 3, 5, 10, 30, 100, 300, 1000, 10000]
    total = True
    for n in ns:
        for c_a in cas:
            for h in hs:
                total = total and classify_regime(n, c_a, h) in Condition

    # The classic reductions land in their named branches.
    sc_ah = apply_preset(base_config(), "sc-ah")
    low = analytic.per_node_throughput(sc_ah).condition
    mid_cfg = apply_preset(base_config(C_A=40, C=42, W_A=100.0, W_I=10.0), "mc-ah")
    mid = analytic.per_node_throughput(mid_cfg).condition
    high_cfg = apply_preset(base_config(C_A=600, C=602, W_A=100.0, W_I=10.0), "mc-ah")
    high = analytic.per_node_throughput(high_cfg).condition
    ok = (total and low is Condition.CONNECTIVITY
          and mid is Condition.INTERFERENCE
          and high is Condition.DESTINATION_BOTTLENECK)
    announce("criterion 2 regime partition", ok,
             f"10x10x10 grid total; sc-ah->{low.value}, mid band->{mid.value}, "
             f"above F2->{high.value}, elapsed {time.time() - t0:.2f}s (budget 1s)")


def test_criterion_3_schedule_soundness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    checked = 0
    ok = True
    detail = ""
    for case in range(50):
        n = int(rng.integers(60, 201))
        c_a = int(rng.integers(1, 5))
        h = int(rng.integers(4, 13))
        delta = float(rng.choice([0.5, 1.0, 2.0]))
        seed = int(rng.integers(0, 2**31))
        cfg = base_config(n=n, C_A=c_a, C=c_a + 2, W_A=100.0, W_I=10.0,
                          H=h, delta=delta, rng_seed=seed)
        topo = build_cell_grid(cfg)
        table = assign_flows(topo, cfg, seed=seed)
        sched = build_adhoc_schedule(topo, table, cfg)
        if sched.hop_count == 0:
            continue
        checked += 1
        params = InterferenceParams.from_config(cfg)
        violations = verify_schedule(sched, topo, params)
        if violations:
            ok, detail = False, f"case {case}: {len(violations)} violations"
            break
        # Edge-coloring properness and bound, brute-verified.
        incidence: dict[int, int] = {}
        used: set = set()
        for i in range(sched.hop_count):
            for node in (int(sched.tx[i]), int(sched.rx[i])):
                incidence[node] = incidence.get(node, 0) + 1
                key = (int(sched.slot[i]), node)
                if key in used:
                    ok, detail = False, f"case {case}: improper edge coloring"
                    break
                used.add(key)
            if not ok:
                break
        if not ok:
            break
        max_deg = max(incidence.values())
        if sched.edge_color_count > max(1, 2 * max_deg - 1):
            ok, detail = False, f"case {case}: {sched.edge_color_count} edge colors"
            break
        # Vertex-coloring properness and bound on the interference graph.
        hops = flow_hops(table)[:, 2:]
        graph = build_interference_graph(topo, hops, params)
        colors = vertex_color(graph)
        if colors.max() > graph.max_degree() + 1:
            ok, detail = False, f"case {case}: {colors.max()} vertex colors"
            break
        for i in range(graph.order):
            for j in graph.neighbors(i):
                if colors[i] == colors[j]:
                    ok, detail = False, f"case {case}: improper vertex coloring"
                    break
    announce("criterion 3 schedule soundness", ok,
             detail or f"50 instances (n<=200), {checked} schedules audited clean, "
             f"colorings proper and bounded, elapsed {time.time() - t0:.1f}s "
             f"(budget 2min)")


def test_criterion_4_infrastructure_capacity_law():
    t0 = time.time()
    # (a) C_I <= m: measured aggregate infra throughput inside the
    # round-robin window [1/(k8+1), 1] of b * W_I.
    cfg = base_config(n=600, b=16, m=8, C=9, C_A=1, C_I=8, W=120.0,
                      W_A=100.0, W_I=10.0, H=1, rng_seed=1)
    rep = run(cfg, 1, 27, warmup_superframes=1)
    ratio = rep.T_I / (cfg.b * cfg.W_I)
    ok_a = 1 / 9 - 1e-9 <= ratio <= 1.0 + 1e-9

    # (b) interface-limited regime: T_I scales 1:2:4 over m = 2, 4, 8.
    t_i = {}
    for m in (2, 4, 8):
        cfg_m = base_config(n=600, b=16, m=m, C=9, C_A=1, C_I=8, W=120.0,
                            W_A=100.0, W_I=10.0, H=1, rng_seed=1)
        t_i[m] = run(cfg_m, 1, 27, warmup_superframes=1).T_I
    r2 = t_i[4] / t_i[2]
    r4 = t_i[8] / t_i[2]
    ok_b = abs(r2 - 2.0) <= 0.1 and abs(r4 - 4.0) <= 0.2
    announce("criterion 4 infrastructure capacity law", ok_a and ok_b,
             f"T_I/(b W_I)={ratio:.4f} in [1/9, 1]; m-scaling ratios "
             f"{r2:.3f}:{r4:.3f} vs 2:4 (5%), elapsed {time.time() - t0:.1f}s "
             f"(budget 1min)")


def test_criterion_5_delay_gains():
    t0 = time.time()
    common = dict(n=300, b=1, W=120.0, W_A=100.0, W_I=10.0, H=1,
                  bs_service_constant=1.0, rng_seed=0)
    sc_is = run(base_config(m=2, C=2, C_A=1, C_I=1, **common), 0, 27,
                warmup_superframes=1)
    omni = run(base_config(m=12, C=13, C_A=1, C_I=12, **common), 0, 27,
               warmup_superframes=1)
    da = run(base_config(m=12, C=13, C_A=1, C_I=12,
                         antenna_mode="directional", theta=math.pi / 12,
                         **common), 0, 27, warmup_superframes=1)
    g_omni = sc_is.D_i / omni.D_i
    g_da_omni = omni.D_i / da.D_i
    g_da_scis = sc_is.D_i / da.D_i
    ok = (abs(g_omni - 12.0) <= 1.2 and abs(g_da_omni - 24.0) <= 2.4
          and abs(g_da_scis - 288.0) <= 28.8)
    announce("criterion 5 delay gains", ok,
             f"SC-IS/MC-IS={g_omni:.2f} (12 +- 10%), MC-IS/DA={g_da_omni:.2f} "
             f"(24 +- 10%), SC-IS/DA={g_da_scis:.1f} (288 +- 10%), "
             f"elapsed {time.time() - t0:.1f}s (budget 1min)")


def test_criterion_6_adhoc_scaling_reproduction():
    t0 = time.time()
    values = tuple(2 ** k for k in range(10, 17))
    base = base_config(n=1024)
    spec = SweepSpec(param="n", values=values, seeds=5, horizon=126,
                     preset="sc-ah", warmup_superframes=11)
    results = run_sweep(base, spec)
    lam_ratio = []
    da_ratio = []
    lam_means = []
    da_means = []
    preds_lam = []
    for n in values:
        rows = [(cfg, rep) for value, _, cfg, rep in results if value == n]
        cfg = rows[0][0]
        lam = float(np.mean([rep.per_node_throughput for _, rep in rows]))
        d_a = float(np.mean([rep.D_a for _, rep in rows]))
        lam_pred = cfg.W / math.sqrt(n * math.log(n))
        da_pred = cfg.H ** 3 * math.log(n) / n
        lam_means.append(lam)
        da_means.append(d_a)
        preds_lam.append(lam_pred)
        lam_ratio.append(lam / lam_pred)
        da_ratio.append(d_a / da_pred)
    lam_spread = max(lam_ratio) / min(lam_ratio)
    da_spread = max(da_ratio) / min(da_ratio)
    fit = fit_scaling(values, lam_means, preds_lam)
    fallback_share = float(np.mean([rep.fallback_flow_count / rep.n_t
                                    for _, _, _, rep in results]))
    ok = lam_spread <= 2.0 and da_spread <= 2.0
    announce("criterion 6 ad hoc scaling reproduction", ok,
             f"n=2^10..2^16 x5 seeds: lambda spread {lam_spread:.3f} <= 2, "
             f"D_a spread {da_spread:.3f} <= 2, log-log slope {fit.slope:.3f}, "
             f"elapsed {time.time() - t0:.0f}s (budget 15min); "
             f"mean fallback share of eligible flows {fallback_share:.3f} "
             f"(lambda counts fallback flows as zero delivered bits)")


def test_criterion_7_concentration():
    t0 = time.time()
    n = 10_000
    cfg = apply_preset(base_config(), "sc-ah")
    h = cfg.H
    a = cell_area(n, cfg.C_A, h)
    line_bound = 20 * n * h ** 3 * a * a
    nt_expect = n * prob_adhoc(h, n, cfg.r_factor)
    nt_pass = 0
    line_pass = 0
    seeds = 20
    for seed in range(seeds):
        cfg_seed = cfg.with_overrides(rng_seed=seed)
        topo = build_cell_grid(cfg_seed)
        table = assign_flows(topo, cfg_seed, seed=seed)
        n_t = int(table.eligible.sum())
        if 0.5 * nt_expect <= n_t <= 1.5 * nt_expect:
            nt_pass += 1
        if lines_per_cell(table, topo).max() <= line_bound:
            line_pass += 1
    ok = nt_pass >= 19 and line_pass >= 19
    announce("criterion 7 concentration", ok,
             f"n_t in [0.5, 1.5] x n P(adhoc): {nt_pass}/{seeds}; max S-D lines "
             f"per cell <= {line_bound:.0f}: {line_pass}/{seeds}, "
             f"elapsed {time.time() - t0:.0f}s (budget 5min)")


def test_criterion_8_directional_collapse():
    t0 = time.time()
    # (a) Interference graph and schedule, bit for bit.
    cfg_o = base_config(n=200, C_A=4, C=6, W_A=100.0, W_I=10.0, rng_seed=6)
    cfg_d = cfg_o.with_overrides(antenna_mode=AntennaMode.DIRECTIONAL,
                                 theta=TWO_PI, phi=TWO_PI)
    topo = build_cell_grid(cfg_o)
    table = assign_flows(topo, cfg_o, seed=6)
    hops = flow_hops(table)[:, 2:]
    g_o = build_interference_graph(topo, hops, InterferenceParams.from_config(cfg_o))
    g_d = build_interference_graph(topo, hops, InterferenceParams.from_config(cfg_d))
    graphs_equal = (np.array_equal(g_o.nodes, g_d.nodes)
                    and np.array_equal(g_o.indptr, g_d.indptr)
                    and np.array_equal(g_o.indices, g_d.indices))
    s_o = build_adhoc_schedule(topo, table, cfg_o)
    s_d = build_adhoc_schedule(topo, table, cfg_d)
    sched_equal = all(np.array_equal(getattr(s_o, f), getattr(s_d, f))
                      for f in ("slot", "mini", "channel", "tx", "rx"))

    # (b) Analytic branches, bit for bit, across all four conditions.
    analytic_equal = True
    for c_a, h in [(4, 60), (40, 800), (3000, 500), (4, 1)]:
        cfg1 = base_config(n=22026, C_A=c_a, C=c_a + 2, W_A=100.0, W_I=10.0, H=h)
        cfg2 = cfg1.with_overrides(antenna_mode=AntennaMode.DIRECTIONAL,
                                   theta=TWO_PI, phi=TWO_PI)
        o1 = analytic.per_node_throughput(cfg1)
        o2 = analytic.per_node_throughput(cfg2)
        analytic_equal = analytic_equal and (
            o1.lambda_a == o2.lambda_a and o1.lambda_i == o2.lambda_i
            and analytic.aggregate_adhoc(cfg1) == analytic.aggregate_adhoc(cfg2)
            and cell_area(cfg1.n, c_a, h) == cell_area(
                cfg2.n, c_a, h, phi=cfg2.phi, mode=cfg2.antenna_mode))

    # (c) Interfering-cell constants: documented gap, nothing else.
    deltas = [0.5, 1.0, 2.0]
    k_gap_ok = all(
        interfering_cell_bound(d, AntennaMode.DIRECTIONAL, TWO_PI)
        / interfering_cell_bound(d)
        == pytest.approx(81 * (2 + d) ** 2 / (4 * (1 + d) ** 2), rel=1e-12)
        for d in deltas)

    # (d) Delay with kappa = 1 equals omni whenever m >= C_I.
    cfg_m = base_config(n=22026, m=12, C=13, C_A=1, C_I=12, W_A=100.0, W_I=10.0)
    d_omni = delay(cfg_m)
    d_dir = delay(cfg_m.with_overrides(antenna_mode=AntennaMode.DIRECTIONAL,
                                       theta=TWO_PI, phi=TWO_PI))
    delay_equal = d_omni.d_i == d_dir.d_i and d_omni.d_a == d_dir.d_a

    ok = graphs_equal and sched_equal and analytic_equal and k_gap_ok and delay_equal
    announce("criterion 8 directional collapse", ok,
             f"graph={graphs_equal}, schedule={sched_equal}, "
             f"analytic={analytic_equal}, k9/k5 gap={k_gap_ok}, "
             f"delay={delay_equal}, elapsed {time.time() - t0:.1f}s (budget 1min)")
