import csv
import math

import pytest

from mcis import analytic
from mcis.cli import main
from mcis.config import dump_config, load_config_file, validate_config
from mcis.errors import ConfigError, DegenerateFitError
from mcis.fitting import fit_scaling
from mcis.harness import SweepSpec, point_config, run_sweep
from mcis.svgplot import render_plot


def write_cfg(tmp_path, **over):
    raw = dict(n=300, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0, W_A=100.0,
               W_I=10.0, H=10, rng_seed=0)
    raw.update(over)
    cfg = validate_config(raw)
    path = tmp_path / "net.cfg"
    path.write_text(dump_config(cfg))
    return path, cfg


def test_classify_command_output(tmp_path, capsys):
    path, cfg = write_cfg(tmp_path, n=22026)
    assert main(["classify", "--config", str(path), "--preset", "sc-ah"]) == 0
    out = capsys.readouterr().out
    assert "condition = connectivity" in out
    assert "F1 = " in out and "G3 = " in out


def test_classify_interface_bottleneck(tmp_path, capsys):
    path, cfg = write_cfg(tmp_path, n=22026, H=1)
    assert main(["classify", "--config", str(path)]) == 0
    assert "interface-bottleneck" in capsys.readouterr().out


def test_malformed_config_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 10\nnot_a_key = 3\n")
    assert main(["classify", "--config", str(bad)]) == 1
    assert "not_a_key" in capsys.readouterr().err


def test_simulate_deterministic_and_analytic_columns(tmp_path):
    path, cfg = write_cfg(tmp_path, n=200)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["simulate", "--config", str(path), "--horizon", "27",
                 "--out", str(out1)]) == 0
    assert main(["simulate", "--config", str(path), "--horizon", "27",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().strip().split("\n")
    assert len(lines) == 4
    analytic_row = lines[2].split(",")
    order = analytic.per_node_throughput(cfg)
    assert float(analytic_row[10]) == order.lambda_a + order.lambda_i


def test_sweep_rows_and_order(tmp_path):
    path, cfg = write_cfg(tmp_path, n=200)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--param", "m",
                 "--values", "4,2", "--seeds", "2", "--horizon", "27",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 5
    got = [(row.split(",")[1], row.split(",")[16]) for row in lines[1:]]
    assert [v for v, _ in got] == ["4", "4", "2", "2"]   # input value order kept


def test_sweep_seeds_start_at_seed_option(tmp_path):
    path, cfg = write_cfg(tmp_path, n=200)
    outs = {}
    for seed in (0, 5):
        outs[seed] = tmp_path / f"sweep{seed}.csv"
        assert main(["sweep", "--config", str(path), "--seed", str(seed),
                     "--param", "m", "--values", "4", "--seeds", "2",
                     "--horizon", "27", "--out", str(outs[seed])]) == 0
    assert outs[0].read_bytes() != outs[5].read_bytes()
    with open(outs[5], newline="") as fh:
        assert [row["seed"] for row in csv.DictReader(fh)] == ["5", "6"]


def test_sweep_spec_validation():
    with pytest.raises(ConfigError):
        SweepSpec(param="nonsense", values=(1,), seeds=1, horizon=27)
    with pytest.raises(ConfigError):
        SweepSpec(param="n", values=(), seeds=1, horizon=27)
    with pytest.raises(ConfigError):
        SweepSpec(param="n", values=(10,), seeds=0, horizon=27)


def test_point_config_keeps_splits_consistent():
    cfg = validate_config(dict(n=300, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0,
                               W_A=100.0, W_I=10.0, H=10))
    spec = SweepSpec(param="C_A", values=(8,), seeds=1, horizon=27)
    assert point_config(cfg, spec, 8).C == 10
    spec = SweepSpec(param="W_I", values=(5.0,), seeds=1, horizon=27)
    assert point_config(cfg, spec, 5.0).W == 110.0


def test_fit_scaling_synthetic():
    x = [10, 20, 40, 80, 160]
    predicted = [1 / v for v in x]
    measured = [3 * p for p in predicted]
    fit = fit_scaling(x, measured, predicted)
    assert fit.ratio_spread == pytest.approx(1.0)
    assert fit.slope == pytest.approx(-1.0, abs=1e-9)
    assert all(r == pytest.approx(3.0) for r in fit.ratios)


def test_fit_scaling_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_scaling([1, 2, 3], [1, 2, 3], [1, 2, 3])
    with pytest.raises(DegenerateFitError):
        fit_scaling([5, 5, 5, 5], [1, 2, 3, 4], [1, 2, 3, 4])


def test_fit_command_exit_codes(tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("x,meas,pred\n" + "\n".join(
        f"{v},{3.0 / v},{1.0 / v}" for v in (10, 20, 40, 80)) + "\n")
    assert main(["fit", "--csv", str(csv_path), "--x", "x",
                 "--measured", "meas", "--predicted", "pred"]) == 0
    assert main(["fit", "--csv", str(csv_path), "--x", "x",
                 "--measured", "meas", "--predicted", "pred",
                 "--max-spread", "2.0"]) == 0
    csv_path.write_text("x,meas,pred\n10,1,1\n20,9,1\n40,1,1\n80,1,1\n")
    assert main(["fit", "--csv", str(csv_path), "--x", "x",
                 "--measured", "meas", "--predicted", "pred",
                 "--max-spread", "2.0"]) == 3


def test_plot_determinism_and_missing_column(tmp_path):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("x,y\n1,2\n3,4\n")
    out1 = tmp_path / "p1.svg"
    out2 = tmp_path / "p2.svg"
    assert main(["plot", "--csv", str(csv_path), "--x", "x", "--y", "y",
                 "--out", str(out1)]) == 0
    assert main(["plot", "--csv", str(csv_path), "--x", "x", "--y", "y",
                 "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert b"<svg" in out1.read_bytes() and b"circle" in out1.read_bytes()
    code = main(["plot", "--csv", str(csv_path), "--x", "x", "--y", "zz",
                 "--out", str(out1)])
    assert code == 2


def test_plot_empty_axes_only():
    svg = render_plot([], [], "a", "b")
    assert "<svg" in svg and "circle" not in svg
    two = render_plot([1, 2], [5, 1], "a", "b")
    assert two.count("circle") == 2 and "polyline" in two


def test_preset_command_round_trips(tmp_path):
    path, cfg = write_cfg(tmp_path, n=22026)
    out = tmp_path / "scah.cfg"
    assert main(["preset", "--config", str(path), "--preset", "sc-ah",
                 "--out", str(out)]) == 0
    merged = load_config_file(out)
    assert merged.C_A == 1 and merged.W_I == 0.0
    assert merged.H == round(math.sqrt(22026 / math.log(22026)))


def test_sweep_beamwidth_monotone_delay():
    # Narrower BS beams cut the measured infrastructure delay at every step.
    cfg = validate_config(dict(n=200, b=1, m=12, C=13, C_A=1, C_I=12,
                               W=120.0, W_A=100.0, W_I=10.0, H=1,
                               antenna_mode="directional", rng_seed=0))
    spec = SweepSpec(param="theta",
                     values=(2 * math.pi, math.pi / 2, math.pi / 12),
                     seeds=1, horizon=27, warmup_superframes=1)
    results = run_sweep(cfg, spec)
    d_i = [rep.D_i for _, _, _, rep in results]
    assert d_i[0] > d_i[1] > d_i[2]
    assert d_i[0] / d_i[2] == pytest.approx(24.0)


def test_run_sweep_failure_names_point(tmp_path):
    cfg = validate_config(dict(n=50, b=4, m=4, C=6, C_A=4, C_I=2, W=120.0,
                               W_A=100.0, W_I=10.0, H=1))
    spec = SweepSpec(param="n", values=(50, 3), seeds=1, horizon=27)
    from mcis.errors import McisError
    # n=3 with H=1 hits the degenerate iterated-log guard; the sweep reports
    # which point died.
    with pytest.raises(McisError, match="n=3 seed=0"):
        run_sweep(cfg, spec)


@pytest.mark.parametrize("argv", [
    ["simulate", "--seed", "-1"],
    ["simulate", "--k8", "-1"],
    ["sweep", "--k8", "-1", "--param", "m", "--values", "4"],
], ids=["seed", "k8", "sweep-k8"])
def test_negative_seed_and_k8_exits_1(tmp_path, capsys, argv):
    path, cfg = write_cfg(tmp_path, n=100)
    argv = [argv[0], "--config", str(path), "--horizon", "27", *argv[1:]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


def test_negative_rng_seed_in_config_exits_1(tmp_path, capsys):
    path, cfg = write_cfg(tmp_path, n=100)
    path.write_text(path.read_text().replace("rng_seed = 0", "rng_seed = -1"))
    assert main(["simulate", "--config", str(path), "--horizon", "27"]) == 1
    assert "rng_seed" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["r_factor = nan", "bs_service_constant = -1"])
def test_nan_or_negative_constant_in_config_exits_1(tmp_path, capsys, line):
    path, cfg = write_cfg(tmp_path)
    key = line.split(" = ")[0]
    text = "\n".join(line if row.startswith(key + " =") else row
                     for row in path.read_text().splitlines())
    path.write_text(text + "\n")
    assert main(["simulate", "--config", str(path), "--horizon", "27"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--config", "{missing}"],
    ["simulate", "--config", "{missing}"],
    ["fit", "--csv", "{missing}", "--x", "x", "--measured", "m", "--predicted", "p"],
    ["plot", "--csv", "{missing}", "--x", "x", "--y", "y", "--out", "{out}"],
], ids=["classify", "simulate", "fit", "plot"])
def test_missing_input_file_exits_1(tmp_path, capsys, argv):
    missing = tmp_path / "absent.txt"
    argv = [a.format(missing=missing, out=tmp_path / "p.svg") for a in argv]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert str(missing) in err and err.count("\n") == 1
