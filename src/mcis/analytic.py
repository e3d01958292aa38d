"""Closed-form throughput/delay formulas and regime classification.

All order-level formulas are evaluated with implied constants set to 1 so
they can be compared numerically and as ratios.  Logarithms are natural.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .config import TWO_PI, AntennaMode, NetworkConfig
from .geometry import _loglog_term, transmission_range


class Condition(Enum):
    """Which of the four capacity requirements dominates."""

    CONNECTIVITY = "connectivity"
    INTERFERENCE = "interference"
    DESTINATION_BOTTLENECK = "destination-bottleneck"
    INTERFACE_BOTTLENECK = "interface-bottleneck"


@dataclass(frozen=True)
class Thresholds:
    """Boundaries partitioning (C_A, H) space at a given n."""

    f1: float       # channel-count boundary: ln n
    f2: float       # channel-count boundary: n (lnln(H^2 ln n) / ln(H^2 ln n))^2
    g1: float       # hop boundary, low-channel case
    g3: float       # hop boundary, high-channel case
    n: float
    log_n: float

    def g2(self, C_A: int) -> float:
        """Hop boundary for the middle channel band."""
        return self.n ** (1.0 / 3.0) * C_A ** (1.0 / 6.0) / self.log_n ** 0.5


def thresholds(n: int, H: int) -> Thresholds:
    if n < 3:
        raise ValueError(f"thresholds needs n >= 3, got {n}")
    if H < 1:
        raise ValueError(f"thresholds needs H >= 1, got {H}")
    log_n = math.log(n)
    outer, outer_log = _loglog_term(n, H)
    return Thresholds(
        f1=log_n,
        f2=n * (outer_log / outer) ** 2,
        g1=n ** (1.0 / 3.0) / log_n ** (2.0 / 3.0),
        g3=n ** 0.5 / log_n ** 0.5,
        n=float(n),
        log_n=log_n,
    )


def classify_regime(n: int, C_A: int, H: int) -> Condition:
    """Map (n, C_A, H) to the dominating requirement.

    The channel axis splits at F1 and F2 (ties go to the lower case); within
    a case, H below the case's G threshold means the per-interface rate is
    the binding constraint.
    """
    t = thresholds(n, H)
    if C_A <= t.f1:
        return Condition.CONNECTIVITY if H >= t.g1 else Condition.INTERFACE_BOTTLENECK
    if C_A <= t.f2:
        return Condition.INTERFERENCE if H >= t.g2(C_A) else Condition.INTERFACE_BOTTLENECK
    return Condition.DESTINATION_BOTTLENECK if H >= t.g3 else Condition.INTERFACE_BOTTLENECK


def expected_hops(H: int) -> Fraction:
    """Mean hop count under the H-max-hop rule: (4H^3 + 3H^2 - H) / (6H^2), exact."""
    if H < 1:
        raise ValueError(f"expected_hops needs H >= 1, got {H}")
    return Fraction(4 * H**3 + 3 * H**2 - H, 6 * H**2)


def prob_adhoc(H: int, n: int, r_factor: float = 1.0) -> float:
    """Probability a flow runs in ad hoc mode: min(1, pi H^2 r(n)^2)."""
    r = transmission_range(n, r_factor)
    return min(1.0, math.pi * (H * r) ** 2)


@dataclass(frozen=True)
class ThroughputOrder:
    lambda_a: float
    lambda_i: float
    condition: Condition
    formula_id: str


def _lambda_i(cfg: NetworkConfig) -> float:
    """Infrastructure share per node: min(b/n, b m / (n C_I)) * W_I, unclamped."""
    return min(cfg.b / cfg.n, cfg.b * cfg.m / (cfg.n * cfg.C_I)) * cfg.W_I


def per_node_throughput(cfg: NetworkConfig) -> ThroughputOrder:
    """Per-node throughput order for the branch selected by classify_regime."""
    cond = classify_regime(cfg.n, cfg.C_A, cfg.H)
    n, C_A, H, W_A = cfg.n, cfg.C_A, cfg.H, cfg.W_A
    log_n = math.log(n)
    directional = cfg.antenna_mode is AntennaMode.DIRECTIONAL
    if cond is Condition.CONNECTIVITY:
        lam = W_A / (H * log_n)
        if directional:
            lam *= (TWO_PI / cfg.phi) ** 2
        fid = "connectivity"
    elif cond is Condition.INTERFERENCE:
        lam = W_A / (math.sqrt(C_A) * H * math.sqrt(log_n))
        if directional:
            lam *= TWO_PI / cfg.phi
        fid = "interference"
    elif cond is Condition.DESTINATION_BOTTLENECK:
        outer, outer_log = _loglog_term(n, H)
        lam = n ** 0.5 * outer_log * W_A / (C_A * H * log_n ** 0.5 * outer)
        fid = "destination-bottleneck"
    else:
        lam = H * H * (log_n / n) * (W_A / C_A)
        fid = "interface-bottleneck"
    return ThroughputOrder(lambda_a=lam, lambda_i=_lambda_i(cfg),
                           condition=cond, formula_id=fid)


def aggregate_adhoc(cfg: NetworkConfig) -> float:
    """Aggregate ad hoc throughput order for the selected branch."""
    cond = classify_regime(cfg.n, cfg.C_A, cfg.H)
    n, C_A, H, W_A = cfg.n, cfg.C_A, cfg.H, cfg.W_A
    log_n = math.log(n)
    directional = cfg.antenna_mode is AntennaMode.DIRECTIONAL
    if cond is Condition.CONNECTIVITY:
        total = n * W_A / (H * log_n)
        if directional:
            total *= (TWO_PI / cfg.phi) ** 2
    elif cond is Condition.INTERFERENCE:
        total = n * W_A / (math.sqrt(C_A) * H * math.sqrt(log_n))
        if directional:
            total *= TWO_PI / cfg.phi
    elif cond is Condition.DESTINATION_BOTTLENECK:
        outer, outer_log = _loglog_term(n, H)
        total = n ** 1.5 * outer_log * W_A / (C_A * H * log_n ** 0.5 * outer)
    else:
        total = H * H * log_n * W_A / C_A
    return total


def aggregate_infra(b: int, m: int, C_I: int, W_I: float) -> float:
    """Aggregate infrastructure throughput: b W_I, scaled by m/C_I when short of interfaces."""
    if C_I <= m:
        return b * W_I
    return b * (m / C_I) * W_I


@dataclass(frozen=True)
class DelayOrder:
    d_a: float      # ad hoc term, slots
    d_i: float      # infrastructure term, slots
    total: float


def sector_count(theta: float) -> int:
    """Non-overlapping sectors of beamwidth theta around a circle: floor(2 pi / theta)."""
    # Guard against 24.0 rounding down to 23 when theta divides 2*pi exactly.
    return math.floor(TWO_PI / theta + 1e-9)


def bs_concurrency(cfg: NetworkConfig) -> int:
    """Simultaneous services per base station.

    Omni: min(C_I, m).  Directional: floor(2 pi / theta) sectors, each reusing
    all C_I channels.
    """
    if cfg.antenna_mode is AntennaMode.DIRECTIONAL:
        return sector_count(cfg.theta) * cfg.C_I
    return min(cfg.C_I, cfg.m)


def delay(cfg: NetworkConfig) -> DelayOrder:
    """Average-delay order: d_a = H^3 ln n / n, d_i = c / (BS concurrency)."""
    d_a = cfg.H ** 3 * math.log(cfg.n) / cfg.n
    d_i = cfg.bs_service_constant / bs_concurrency(cfg)
    return DelayOrder(d_a=d_a, d_i=d_i, total=d_a + d_i)


def preset(kind: str, n: int, W: float) -> dict:
    """Config overrides reproducing the classic single/multi-channel settings.

    sc-ah: pure ad hoc, one shared channel, H ~ sqrt(n / ln n).
    mc-ah: pure ad hoc, channels kept from the base config.
    sc-is: infrastructure-capable but single channel per group, m = 2.
    """
    h_full = max(1, round(math.sqrt(n / math.log(n))))
    if kind == "sc-ah":
        return {"H": h_full, "C_A": 1, "W_A": W, "W_I": 0.0}
    if kind == "mc-ah":
        return {"H": h_full, "W_A": W, "W_I": 0.0}
    if kind == "sc-is":
        return {"C_A": 1, "C_I": 1, "C": 2, "m": 2}
    raise ValueError(f"unknown preset {kind!r}; use sc-ah, mc-ah, or sc-is")


def apply_preset(cfg: NetworkConfig, kind: str) -> NetworkConfig:
    """Merge preset overrides into a config, keeping the splits consistent."""
    over = preset(kind, cfg.n, cfg.W)
    if "W_A" in over:
        over.setdefault("W", over["W_A"] + 2.0 * over.get("W_I", cfg.W_I))
    if "C_A" in over and "C" not in over:
        over["C"] = over["C_A"] + over.get("C_I", cfg.C_I)
    return cfg.with_overrides(**over)


@dataclass(frozen=True)
class OptimalPoint:
    lambda_opt: float
    d_opt: float


def optimal_point(cfg: NetworkConfig) -> OptimalPoint:
    """Best achievable per-node throughput and the delay at that point.

    Evaluated at the infrastructure-dominant split (W_I -> W/2): per-node
    throughput min(1, b/n) * W, delay c / min(C_I, m).
    """
    return OptimalPoint(
        lambda_opt=min(1.0, cfg.b / cfg.n) * cfg.W,
        d_opt=cfg.bs_service_constant / min(cfg.C_I, cfg.m),
    )
