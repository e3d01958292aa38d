"""The benchmark's workloads: seeded configs for `mcis.simulator.run`.

Each workload turns a seed into a list of cases.  One round of a workload is
one `run` call per case, in order; the program sees only the configs built
here.  Why each workload was chosen is in README.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from mcis import apply_preset, validate_config
from mcis.config import NetworkConfig

K8 = 8      # BS frame of k8 + 1 = 9 slots, the simulator's default


@dataclass(frozen=True)
class Case:
    label: str
    cfg: NetworkConfig
    seed: int
    horizon: int
    warmup_superframes: int
    demand: float | None = None      # bits/sec per flow; None = saturated

    def run_kwargs(self) -> dict:
        return {"k8": K8, "warmup_superframes": self.warmup_superframes,
                "demand": self.demand}


@dataclass(frozen=True)
class Workload:
    cases: list
    scaling: bool = False     # cases sweep n; check the scaling laws across them


def scah_scaling(seed: int) -> Workload:
    """The sc-ah preset of acceptance criterion 6 at n = 2^10 .. 2^13."""
    base = dict(b=4, m=4, C=3, C_A=1, C_I=2, W=120.0, W_A=120.0, W_I=0.0, H=10)
    cases = [Case(f"n=2^{k}",
                  apply_preset(validate_config(dict(base, n=2 ** k, rng_seed=seed)), "sc-ah"),
                  seed, horizon=126, warmup_superframes=11)
             for k in range(10, 14)]
    return Workload(cases, scaling=True)


def bs_share_per_flow(cfg: NetworkConfig) -> float:
    """Mean per-flow base-station share, bits/sec: the uplink capacity of all
    b base stations, b W_I min(C_I, m) / C_I / (k8 + 1), over n flows."""
    return cfg.b * cfg.W_I * min(cfg.C_I, cfg.m) / cfg.C_I / (K8 + 1) / cfg.n


def mcis_load(seed: int) -> Workload:
    """MC-IS omni at n = 2^16, b = 256: loads 1/4, 1/2 of the BS share, saturated."""
    cfg = validate_config(dict(n=2 ** 16, b=256, m=4, C=6, C_A=4, C_I=2, W=120.0,
                               W_A=100.0, W_I=10.0, H=10, rng_seed=seed))
    share = bs_share_per_flow(cfg)
    return Workload([
        Case("load=1/4", cfg, seed, horizon=45, warmup_superframes=2, demand=share / 4),
        Case("load=1/2", cfg, seed, horizon=45, warmup_superframes=2, demand=share / 2),
        Case("saturated", cfg, seed, horizon=45, warmup_superframes=2),
    ])


def mcis_da(seed: int) -> Workload:
    """MC-IS-DA from the abstract's 288x example, six instances at n = 2^9."""
    cases = []
    for s in range(6 * seed, 6 * seed + 6):
        cfg = validate_config(dict(n=2 ** 9, b=16, m=12, C=16, C_A=4, C_I=12, W=120.0,
                                   W_A=100.0, W_I=10.0, H=20, antenna_mode="directional",
                                   theta=math.pi / 12, phi=math.pi / 2, rng_seed=s))
        cases.append(Case(f"seed={s}", cfg, s, horizon=45, warmup_superframes=3))
    return Workload(cases)


WORKLOADS = {
    "scah-scaling": scah_scaling,
    "mcis-load": mcis_load,
    "mcis-da": mcis_da,
}
