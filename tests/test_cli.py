import csv
import hashlib
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcis.routing
import mcis.scheduling
import mcis.simulator

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
    with pytest.raises(ConfigError):
        SweepSpec(param="n", values=(10,), seeds=1, horizon=27, warmup_superframes=-1)


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
    ["simulate", "--warmup", "-1"],
    ["sweep", "--warmup", "-1", "--param", "m", "--values", "4"],
], ids=["seed", "k8", "sweep-k8", "warmup", "sweep-warmup"])
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


@pytest.mark.parametrize("param,value", [("n", "1e3"), ("m", "abc")],
                         ids=["n-float-text", "m-not-a-number"])
def test_sweep_value_of_wrong_kind_exits_1(tmp_path, capsys, param, value):
    path, cfg = write_cfg(tmp_path, n=100)
    assert main(["sweep", "--config", str(path), "--param", param,
                 "--values", value, "--horizon", "27"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and param in err and err.count("\n") == 1


def test_sweep_antenna_mode_by_name(tmp_path):
    path, cfg = write_cfg(tmp_path, n=100)
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(path), "--param", "antenna_mode",
                 "--values", "omni,directional", "--horizon", "27",
                 "--out", str(out)]) == 0
    rows = list(csv.DictReader(out.open()))
    assert [(r["swept_value"], r["antenna_mode"]) for r in rows] == [
        ("omni", "omni"), ("directional", "directional")]


@pytest.mark.parametrize("command", ["classify", "simulate", "sweep", "preset"])
@pytest.mark.parametrize("n", [0, 2])
def test_fewer_than_three_nodes_exits_1(tmp_path, capsys, command, n):
    path, cfg = write_cfg(tmp_path, n=n)
    extra = {"sweep": ["--param", "m", "--values", "4"],
             "preset": ["--preset", "sc-ah"]}.get(command, [])
    assert main([command, "--config", str(path), *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "n >= 3" in err


def test_fit_non_numeric_cell_exits_2(tmp_path, capsys):
    csv_path = tmp_path / "rows.csv"
    csv_path.write_text("x,meas,pred\n10,1,1\n20,oops,1\n40,1\n")
    assert main(["fit", "--csv", str(csv_path), "--x", "x",
                 "--measured", "meas", "--predicted", "pred"]) == 2
    err = capsys.readouterr().err
    assert "line 3" in err and "'oops'" in err and err.count("\n") == 1


# SHA-256 of the `--dump-flows` and `--dump-schedule` files for `write_cfg`'s
# network (n = 300, seed 0), recorded before the dumps reused the run's build.
FLOWS_SHA256 = "9c548fea16aaddee3bf782a97ac65d01e6f4a0c5e385a55d0a77f9dc8376f6cf"
SCHEDULE_SHA256 = "bb9e1d98a766cb41d47ea23bac8a42aa3ea93aa37f598fc4e58e52665ff2612f"


def test_simulate_dumps_reuse_the_run_network(tmp_path, monkeypatch):
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    # Patch each builder wherever a caller may look it up.
    for name, home in (("assign_flows", mcis.routing),
                       ("build_adhoc_schedule", mcis.scheduling)):
        wrapper = counted(home, name)
        monkeypatch.setattr(home, name, wrapper)
        monkeypatch.setattr(mcis.simulator, name, wrapper)
    path, cfg = write_cfg(tmp_path)
    flows, schedule = tmp_path / "flows.csv", tmp_path / "schedule.csv"
    assert main(["simulate", "--config", str(path), "--horizon", "27",
                 "--dump-flows", str(flows), "--dump-schedule", str(schedule),
                 "--out", str(tmp_path / "run.csv")]) == 0
    assert sorted(calls) == ["assign_flows", "build_adhoc_schedule"]
    assert hashlib.sha256(flows.read_bytes()).hexdigest() == FLOWS_SHA256
    assert hashlib.sha256(schedule.read_bytes()).hexdigest() == SCHEDULE_SHA256


# Option values for the fuzz test: out of range, non-finite and non-numeric
# ones among a few valid ones.
INTEGERS = ("-1", "0", "1", "2")
NOT_INTEGERS = ("nan", "inf", "abc")
REALS = ("-1", "0", "0.1", "2", "nan", "inf", "abc")


@st.composite
def cli_argv(draw, config, table):
    """An argument vector from the CLI grammar: a subcommand, its required
    options, each optional one present or not, and every value drawn from a
    small set."""
    def pick(*values):
        return draw(st.sampled_from(values))

    def option(flag, *values):
        value = pick(None, *values)
        return [] if value is None else [f"{flag}={value}"]

    integer_flags = []

    def integer(flag, *valid):
        integer_flags.append(flag)
        return option(flag, *INTEGERS, *valid)

    def path(name):
        return str(config.parent / name)

    command = pick("classify", "simulate", "sweep", "fit", "plot", "preset")
    argv = [command]
    if command in ("fit", "plot"):
        columns = ("x", "y", "zero", "neg", "bad", "absent")
        argv += [f"--csv={pick(table, table, path('absent.csv'))}", f"--x={pick(*columns)}"]
        if command == "fit":
            argv += [f"--measured={pick(*columns)}", f"--predicted={pick(*columns)}"]
            return argv + option("--max-spread", *REALS)
        return argv + [f"--y={pick(*columns)}", f"--out={path('plot.svg')}",
                       *["--loglog"] * draw(st.booleans())]
    argv += [f"--config={pick(config, config, path('absent.cfg'))}"]
    if command == "preset":
        return argv + [f"--preset={pick('sc-ah', 'mc-ah', 'sc-is', 'bogus')}",
                       *option("--out", path("preset.cfg"))]
    argv += option("--preset", "sc-ah", "mc-ah", "sc-is")
    argv += integer("--seed")
    if command != "classify":
        argv += [f"--horizon={pick('-1', '0', '27', '45', '60')}", f"--out={path('out.csv')}"]
        argv += integer("--warmup") + integer("--k8", "3", "8")
    if command == "simulate":
        argv += option("--interior-margin", *REALS)
        argv += option("--dump-flows", path("flows.csv"))
        argv += option("--dump-schedule", path("schedule.csv"))
    if command == "sweep":
        values = draw(st.lists(st.sampled_from(("-1", "0", "2", "4", "48", "nan", "inf",
                                                "abc", "omni")), min_size=1, max_size=3))
        param = pick("n", "m", "H", "C_A", "W_I", "delta", "theta", "antenna_mode", "b", "bogus")
        argv += [f"--param={param}", f"--values={','.join(values)}"]
        argv += integer("--seeds") + option("--workers", "-1", "0", "1")  # never a pool
    # Now and then a value that argparse must refuse for an integer option.
    if draw(st.integers(0, 7)) == 0:
        argv.append(f"{pick(*integer_flags)}={pick(*NOT_INTEGERS)}")
    return argv


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """A 48-node config and a CSV whose columns are good, zero, negative and
    non-finite, in one directory that the fuzzed commands also write to."""
    directory = tmp_path_factory.mktemp("fuzz")
    config, _ = write_cfg(directory, n=48)
    table = directory / "table.csv"
    table.write_text("x,y,zero,neg,bad\n1,3,0,-1,1\n2,5,0,-2,nan\n4,9,0,-3,inf\n"
                     "8,17,0,-4,4\n16,33,0,-5,5\n")
    return config, str(table)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_cli_fuzz_exits_with_documented_code(fuzz_inputs, data):
    argv = data.draw(cli_argv(*fuzz_inputs), label="argv")
    try:
        code = main(argv)
    except SystemExit as exc:       # argparse usage errors exit 2
        code = exc.code
    assert code in (0, 1, 2, 3)
