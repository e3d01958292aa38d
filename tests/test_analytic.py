import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcis.analytic import (
    Condition,
    aggregate_adhoc,
    aggregate_infra,
    apply_preset,
    bs_concurrency,
    classify_regime,
    delay,
    expected_hops,
    per_node_throughput,
    preset,
    prob_adhoc,
    sector_count,
    thresholds,
)
from mcis.config import validate_config
from mcis.errors import DegenerateScaleError

E10 = 22026
TWO_PI = 2 * math.pi


def make_cfg(**over):
    raw = dict(n=E10, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0,
               W_I=10.0, H=10)
    raw.update(over)
    return validate_config(raw)


def test_threshold_values_at_e10():
    t = thresholds(E10, 10)
    assert t.f1 == pytest.approx(10.0, abs=1e-4)
    assert t.g1 == pytest.approx(6.039, abs=2e-3)
    assert t.g3 == pytest.approx(46.93, abs=1e-2)
    assert t.g3 == pytest.approx(math.e ** 5 / math.sqrt(10), rel=1e-4)


def test_g2_exceeds_g1_for_single_channel():
    for n in [3, 10, 100, 10_000, E10, 10**7]:
        t = thresholds(n, 5)
        assert t.g2(1) > t.g1
        # g2(1) = n^(1/3) / ln^(1/2) n exactly.
        assert t.g2(1) == pytest.approx(n ** (1 / 3) / math.log(n) ** 0.5)


def test_thresholds_degenerate_scale():
    with pytest.raises(DegenerateScaleError):
        thresholds(3, 1)


def test_classify_examples():
    assert classify_regime(E10, 4, 10) is Condition.CONNECTIVITY
    assert classify_regime(E10, 4, 1) is Condition.INTERFACE_BOTTLENECK


@given(st.integers(min_value=16, max_value=10**8),
       st.integers(min_value=1, max_value=4096),
       st.integers(min_value=1, max_value=10**5))
def test_classify_total_function(n, c_a, h):
    assert classify_regime(n, c_a, h) in Condition


def test_classify_partition_on_grid():
    ns = [64, 256, 1024, 4096, 16384, 65536, 262144, 10**6, 10**7, 10**8]
    cas = [1, 2, 4, 8, 16, 64, 256, 1024, 4096, 16384]
    hs = [1, 2, 3, 5, 10, 30, 100, 300, 1000, 10000]
    seen = set()
    for n in ns:
        for c_a in cas:
            for h in hs:
                seen.add(classify_regime(n, c_a, h))
    assert seen == set(Condition)


def brute_force_mean_hops(H: int) -> Fraction:
    # P(h = i) = (i^2 - (i-1)^2) / H^2: ratio of the i-th annulus to the disk.
    total = Fraction(0)
    for i in range(1, H + 1):
        total += Fraction(i * (i * i - (i - 1) * (i - 1)), H * H)
    return total


def test_expected_hops_examples():
    assert expected_hops(1) == 1
    assert expected_hops(2) == Fraction(42, 24)
    assert expected_hops(3) == Fraction(22, 9)


def test_expected_hops_matches_brute_force():
    for H in range(1, 101):
        assert expected_hops(H) == brute_force_mean_hops(H)


@given(st.integers(min_value=1, max_value=2000))
def test_expected_hops_identity(H):
    # E[h] - 2H/3 = 1/2 - 1/(6H) exactly; hence 1 <= E[h] <= H.
    lhs = expected_hops(H) - Fraction(2 * H, 3)
    assert lhs == Fraction(1, 2) - Fraction(1, 6 * H)
    assert 1 <= expected_hops(H) <= H
    assert abs(float(lhs) - (0.5 - 1 / (6 * H))) < 1e-12


def test_prob_adhoc():
    assert prob_adhoc(2, E10, 1.0) == pytest.approx(3.632e-3, rel=1e-3)
    assert prob_adhoc(10**4, 100, 1.0) == 1.0       # clamped at 1
    for h in range(1, 20):
        assert prob_adhoc(h + 1, 10_000) >= prob_adhoc(h, 10_000)


def test_per_node_throughput_connectivity_branch():
    cfg = make_cfg(b=4, m=4, C_I=2, W_I=10.0, W_A=100.0, H=10)
    order = per_node_throughput(cfg)
    assert order.condition is Condition.CONNECTIVITY
    assert order.lambda_a == pytest.approx(100.0 / (10 * math.log(E10)), rel=1e-12)
    assert order.lambda_a == pytest.approx(1.0, abs=1e-4)


def test_lambda_i_formula():
    cfg = make_cfg(n=100, b=4, m=4, C=6, C_A=4, C_I=2, W_I=10.0, W_A=100.0, H=10)
    order = per_node_throughput(cfg)
    assert order.lambda_i == pytest.approx(min(4 / 100, 4 * 4 / (100 * 2)) * 10.0)
    assert order.lambda_i == pytest.approx(0.4)


def test_directional_full_beam_collapses_to_omni():
    for c_a, h in [(4, 10), (4, 1), (40, 800), (3000, 500)]:
        omni = per_node_throughput(make_cfg(C_A=c_a, C=c_a + 2, H=h))
        directional = per_node_throughput(make_cfg(
            C_A=c_a, C=c_a + 2, H=h, antenna_mode="directional",
            theta=TWO_PI, phi=TWO_PI))
        assert directional.lambda_a == omni.lambda_a      # bit-for-bit
        assert directional.lambda_i == omni.lambda_i
        assert directional.condition is omni.condition


def test_directional_gains_in_low_regimes():
    omni = per_node_throughput(make_cfg(H=10))
    directional = per_node_throughput(make_cfg(
        antenna_mode="directional", phi=math.pi, theta=math.pi))
    assert directional.lambda_a == pytest.approx(4.0 * omni.lambda_a)


def test_aggregate_adhoc_branches():
    cfg = make_cfg(H=10, W_A=100.0)
    assert aggregate_adhoc(cfg) == pytest.approx(E10 * 100 / (10 * math.log(E10)))
    cfg = make_cfg(H=2, W_A=100.0, C_A=4)
    # Interface-bottleneck: H^2 ln n W_A / C_A = 4 * 10 * 25.
    assert classify_regime(E10, 4, 2) is Condition.INTERFACE_BOTTLENECK
    assert aggregate_adhoc(cfg) == pytest.approx(1000.0, rel=1e-4)
    zero = make_cfg(W_A=0.0, W_I=60.0)
    assert aggregate_adhoc(zero) == 0.0


def test_aggregate_infra():
    assert aggregate_infra(4, 2, 2, 10.0) == pytest.approx(40.0)
    assert aggregate_infra(4, 2, 4, 10.0) == pytest.approx(20.0)
    # Continuity at C_I = m.
    assert aggregate_infra(4, 4, 4, 10.0) == pytest.approx(40.0)


@given(st.integers(1, 10), st.sampled_from([2, 4, 8, 16]),
       st.integers(1, 32), st.floats(0.1, 100))
def test_aggregate_infra_monotone(b0, m, c_i, w_i):
    b = b0 * b0
    assert aggregate_infra(b, m, c_i, w_i) <= aggregate_infra(b + 2 * b0 + 1, m, c_i, w_i)
    assert aggregate_infra(b, m, c_i, w_i) <= aggregate_infra(b, m + 2, c_i, w_i)
    assert aggregate_infra(b, m, c_i, w_i) <= aggregate_infra(b, m, c_i, w_i * 2)
    if m >= c_i:
        assert aggregate_infra(b, m, c_i, w_i) == aggregate_infra(b, m + 2, c_i, w_i)


def test_delay_omni_and_directional():
    omni = delay(make_cfg(C_I=12, C=16, m=12, bs_service_constant=1.0))
    assert omni.d_i == pytest.approx(1 / 12)
    assert omni.d_a == pytest.approx(10 ** 3 * math.log(E10) / E10)
    assert omni.total == omni.d_a + omni.d_i

    da = delay(make_cfg(C_I=12, C=16, m=12, bs_service_constant=1.0,
                        antenna_mode="directional", theta=math.pi / 12))
    assert da.d_i == pytest.approx(1 / 288)
    sc_is = delay(make_cfg(C_I=1, C=5, m=2, bs_service_constant=1.0))
    assert sc_is.d_i / da.d_i == pytest.approx(288.0)
    assert omni.d_i / da.d_i == pytest.approx(24.0)


def test_delay_directional_beamwidth_steps():
    prev = None
    for k in [1, 2, 3, 4, 6, 12, 24]:
        d = delay(make_cfg(C_I=12, C=16, m=12, antenna_mode="directional",
                           theta=TWO_PI / k))
        if prev is not None:
            assert d.d_i < prev
        prev = d.d_i


def test_sector_count():
    assert sector_count(TWO_PI) == 1
    assert sector_count(math.pi / 12) == 24
    assert sector_count(math.pi / 2) == 4


def test_bs_concurrency_directional():
    # floor(2 pi / theta) sectors, each reusing all C_I channels.
    def directional(theta, C_I):
        return make_cfg(C=4 + C_I, C_I=C_I, antenna_mode="directional", theta=theta)
    assert bs_concurrency(directional(math.pi / 12, 12)) == 288
    assert bs_concurrency(directional(TWO_PI, 5)) == 5
    assert bs_concurrency(directional(math.pi / 2, 2)) == 8


def test_preset_sc_ah():
    cfg = make_cfg(n=E10, W=120.0, W_A=100.0, W_I=10.0)
    sc = apply_preset(cfg, "sc-ah")
    assert sc.C_A == 1 and sc.W_I == 0.0 and sc.W_A == sc.W
    assert sc.H == round(math.sqrt(E10 / math.log(E10)))
    order = per_node_throughput(sc)
    assert order.condition is Condition.CONNECTIVITY
    assert order.lambda_i == 0.0
    # W / sqrt(n ln n) up to the rounding of H.
    target = sc.W / math.sqrt(E10 * math.log(E10))
    assert order.lambda_a == pytest.approx(target, rel=0.05)


def test_preset_mc_ah_low_channels_matches_sc_ah_branch():
    cfg = make_cfg(C_A=4, C=6)
    mc = apply_preset(cfg, "mc-ah")
    assert per_node_throughput(mc).condition is Condition.CONNECTIVITY


def test_preset_sc_is():
    sc = apply_preset(make_cfg(), "sc-is")
    assert (sc.C_A, sc.C_I, sc.m) == (1, 1, 2)
    with pytest.raises(ValueError):
        preset("nope", 100, 1.0)

