"""Sweep execution and measured-vs-analytic table assembly."""

from __future__ import annotations

import csv
import io
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

from . import analytic
from .config import NetworkConfig
from .errors import ConfigError, McisError
from .simulator import METRICS_CSV_HEADER, report_csv_row, run


@dataclass(frozen=True)
class SweepSpec:
    param: str                 # NetworkConfig field to sweep
    values: tuple
    seeds: int
    horizon: int
    preset: str | None = None  # applied after the value override
    k8: int = 8
    warmup_superframes: int = 2

    def __post_init__(self) -> None:
        names = {f.name for f in fields(NetworkConfig)}
        if self.param not in names:
            raise ConfigError(f"swept parameter {self.param!r} is not a config field")
        if len(self.values) < 1:
            raise ConfigError("sweep needs at least one value")
        if self.seeds < 1:
            raise ConfigError("sweep needs at least one seed")
        if self.k8 < 0:
            raise ConfigError(f"k8 must be >= 0, got {self.k8}")


def point_config(base: NetworkConfig, spec: SweepSpec, value) -> NetworkConfig:
    """Apply one swept value (and the optional preset) to the base config."""
    overrides = {spec.param: value}
    if spec.param in ("C_A", "C_I"):
        other = base.C_I if spec.param == "C_A" else base.C_A
        overrides["C"] = int(value) + other
    if spec.param in ("W_A", "W_I"):
        w_a = value if spec.param == "W_A" else base.W_A
        w_i = value if spec.param == "W_I" else base.W_I
        overrides["W"] = w_a + 2.0 * w_i
    if spec.param == "b":
        overrides["b0"] = 0      # rederive
    cfg = base.with_overrides(**overrides)
    if spec.preset:
        cfg = analytic.apply_preset(cfg, spec.preset)
    return cfg


def _run_point(args):
    cfg, value, seed, spec = args
    report = run(cfg, seed, spec.horizon, k8=spec.k8,
                 warmup_superframes=spec.warmup_superframes)
    return value, seed, cfg, report


ANALYTIC_COLUMNS = [
    "analytic_condition", "analytic_lambda_a", "analytic_lambda_i",
    "analytic_T_A", "analytic_T_I", "analytic_D_a", "analytic_D_i", "analytic_D",
]

SWEEP_CSV_HEADER = ["swept_param", "swept_value"] + METRICS_CSV_HEADER + ANALYTIC_COLUMNS


def analytic_columns(cfg: NetworkConfig) -> list:
    order = analytic.per_node_throughput(cfg)
    d = analytic.delay(cfg)
    return [
        order.condition.value, order.lambda_a, order.lambda_i,
        analytic.aggregate_adhoc(cfg),
        analytic.aggregate_infra(cfg.b, cfg.m, cfg.C_I, cfg.W_I),
        d.d_a, d.d_i, d.total,
    ]


def run_sweep(base: NetworkConfig, spec: SweepSpec, workers: int = 1) -> list:
    """One run per (value, seed); rows ordered by (value, seed) regardless of
    completion order.  A failing point aborts with the point identified."""
    tasks = []
    for value in spec.values:
        cfg = point_config(base, spec, value)
        for seed in range(base.rng_seed, base.rng_seed + spec.seeds):
            tasks.append((cfg.with_overrides(rng_seed=seed), value, seed, spec))
    results = []
    if workers <= 1:
        iterator = map(_run_point, tasks)
    else:
        pool = ProcessPoolExecutor(max_workers=workers)
        iterator = pool.map(_run_point, tasks)
    try:
        for task, outcome in zip(tasks, iterator):
            results.append(outcome)
    except McisError as exc:
        done = len(results)
        _, value, seed, _ = tasks[done]
        raise McisError(
            f"sweep point {spec.param}={value} seed={seed} failed: {exc}") from exc
    finally:
        if workers > 1:
            pool.shutdown()
    results.sort(key=lambda row: (spec.values.index(row[0]), row[1]))
    return results


def sweep_to_csv(spec: SweepSpec, results) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SWEEP_CSV_HEADER)
    for value, seed, cfg, report in results:
        writer.writerow([spec.param, value] + report_csv_row(cfg, report)
                        + analytic_columns(cfg))
    return buf.getvalue()


SIMULATE_CSV_HEADER = [
    "kind", "n", "b", "m", "C_A", "C_I", "W_A", "W_I", "H", "seed",
    "lambda", "T_A", "T_I", "D_a", "D_i", "D",
]


def simulate_table(cfg: NetworkConfig, report) -> str:
    """Measured row, analytic row, and their ratio row, one CSV."""
    order = analytic.per_node_throughput(cfg)
    d = analytic.delay(cfg)
    measured = [report.per_node_throughput, report.T_A, report.T_I,
                report.D_a, report.D_i, report.D]
    predicted = [order.lambda_a + order.lambda_i,
                 analytic.aggregate_adhoc(cfg),
                 analytic.aggregate_infra(cfg.b, cfg.m, cfg.C_I, cfg.W_I),
                 d.d_a, d.d_i, d.total]
    ratio = [m / p if p else float("nan") for m, p in zip(measured, predicted)]
    prefix = [cfg.n, cfg.b, cfg.m, cfg.C_A, cfg.C_I, cfg.W_A, cfg.W_I,
              cfg.H, report.seed]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SIMULATE_CSV_HEADER)
    writer.writerow(["measured"] + prefix + measured)
    writer.writerow(["analytic"] + prefix + predicted)
    writer.writerow(["ratio"] + prefix + ratio)
    return buf.getvalue()
