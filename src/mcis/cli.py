"""Command-line front end: classify, simulate, sweep, fit, plot, preset."""

from __future__ import annotations

import argparse
import csv
import sys

from . import analytic
from .config import dump_config, load_config_file
from .errors import ConfigError, DegenerateFitError, McisError
from .fitting import fit_scaling
from .harness import SweepSpec, run_sweep, simulate_table, sweep_to_csv
from .simulator import run
from .svgplot import render_plot

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_CHECK_FAILED = 3


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _load(args) -> "NetworkConfig":
    cfg = load_config_file(args.config)
    if getattr(args, "preset", None):
        cfg = analytic.apply_preset(cfg, args.preset)
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_overrides(rng_seed=args.seed)
    return cfg


def cmd_classify(args) -> int:
    cfg = _load(args)
    t = analytic.thresholds(cfg.n, cfg.H)
    order = analytic.per_node_throughput(cfg)
    print(f"condition = {order.condition.value}")
    print(f"F1 = {t.f1!r}")
    print(f"F2 = {t.f2!r}")
    print(f"G1 = {t.g1!r}")
    print(f"G2 = {t.g2(cfg.C_A)!r}")
    print(f"G3 = {t.g3!r}")
    print(f"branch = {order.formula_id}")
    print(f"lambda_a = {order.lambda_a!r}")
    print(f"lambda_i = {order.lambda_i!r}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    cfg = _load(args)
    report = run(cfg, cfg.rng_seed, args.horizon, k8=args.k8,
                 warmup_superframes=args.warmup,
                 interior_margin=args.interior_margin)
    _write(args.out, simulate_table(cfg, report))
    if args.dump_flows or args.dump_schedule:
        from .geometry import build_cell_grid
        from .routing import assign_flows, flow_table_to_csv
        from .scheduling import build_adhoc_schedule, schedule_to_csv
        topo = build_cell_grid(cfg)
        table = assign_flows(topo, cfg, cfg.rng_seed)
        if args.dump_flows:
            _write(args.dump_flows, flow_table_to_csv(table))
        if args.dump_schedule:
            _write(args.dump_schedule,
                   schedule_to_csv(build_adhoc_schedule(topo, table, cfg)))
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load(args)
    values = []
    for chunk in args.values.split(","):
        text = chunk.strip()
        values.append(float(text) if "." in text or "e" in text.lower() else int(text))
    spec = SweepSpec(param=args.param, values=tuple(values), seeds=args.seeds,
                     horizon=args.horizon, preset=args.preset, k8=args.k8,
                     warmup_superframes=args.warmup)
    results = run_sweep(cfg, spec, workers=args.workers)
    _write(args.out, sweep_to_csv(spec, results))
    return EXIT_OK


def _read_csv_columns(path: str, names: list) -> list:
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot read CSV file {path}: {exc.strerror}") from None
    with fh:
        reader = csv.DictReader(fh)
        headers = reader.fieldnames or []
        for name in names:
            if name not in headers:
                raise McisError(f"missing column {name!r} in {path}")
        rows = list(reader)
    return [[float(row[name]) for row in rows] for name in names]


def cmd_fit(args) -> int:
    x, measured, predicted = _read_csv_columns(
        args.csv, [args.x, args.measured, args.predicted])
    result = fit_scaling(x, measured, predicted)
    print(f"slope = {result.slope!r}")
    print(f"intercept = {result.intercept!r}")
    print(f"ratio_spread = {result.ratio_spread!r}")
    for xv, ratio in zip(x, result.ratios):
        print(f"ratio[{xv:g}] = {ratio!r}")
    if args.max_spread is not None and result.ratio_spread > args.max_spread:
        print(f"FAIL: ratio spread {result.ratio_spread:.4g} > {args.max_spread}")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_plot(args) -> int:
    xs, ys = _read_csv_columns(args.csv, [args.x, args.y])
    _write(args.out, render_plot(xs, ys, args.x, args.y, loglog=args.loglog))
    return EXIT_OK


def cmd_preset(args) -> int:
    cfg = load_config_file(args.config)
    merged = analytic.apply_preset(cfg, args.preset)
    _write(args.out, dump_config(merged))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcis",
        description="Multi-channel infrastructure-supported network simulator "
                    "and analytic oracle")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, preset_default=None):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="override rng_seed")
        p.add_argument("--preset", choices=["sc-ah", "mc-ah", "sc-is"],
                       default=preset_default)

    p = sub.add_parser("classify", help="print the dominating condition and thresholds")
    add_common(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run one seed and emit measured vs analytic CSV")
    add_common(p)
    p.add_argument("--horizon", type=int, default=180, help="slots to simulate")
    p.add_argument("--warmup", type=int, default=2, help="super-frames excluded")
    p.add_argument("--k8", type=int, default=8, help="BS frame length minus one")
    p.add_argument("--interior-margin", type=float, default=0.0,
                   help="count only flows this far inside the unit square")
    p.add_argument("--dump-flows", default=None, help="also write the flow table CSV")
    p.add_argument("--dump-schedule", default=None, help="also write the TDMA CSV")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep, one CSV row per (value, seed)")
    add_common(p)
    p.add_argument("--param", required=True)
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--seeds", type=int, default=1)
    p.add_argument("--horizon", type=int, default=180)
    p.add_argument("--warmup", type=int, default=2)
    p.add_argument("--k8", type=int, default=8)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="log-log fit of measured vs swept value")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--measured", required=True)
    p.add_argument("--predicted", required=True)
    p.add_argument("--max-spread", type=float, default=None,
                   help="exit 3 when the measured/predicted spread exceeds this")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("plot", help="deterministic SVG scatter/line plot from a CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--loglog", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("preset", help="write a config with preset overrides applied")
    p.add_argument("--config", required=True)
    p.add_argument("--preset", required=True, choices=["sc-ah", "mc-ah", "sc-is"])
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_preset)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DegenerateFitError as exc:
        print(f"fit error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except McisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
