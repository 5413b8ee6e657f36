"""Command-line interface: exit codes, outputs, determinism."""

import subprocess
import sys
import warnings

import numpy as np
import pytest

from mcckf.bench import Scenario, run_monte_carlo
from mcckf.cli import main, openblas_kernel
from mcckf.config import shipped_config_path
from mcckf.correntropy import KernelSpec
from mcckf.filters import ALGORITHMS, run_filter
from mcckf.model import InitialCondition
from oracles import scalar_model

FAST = [
    "--set", "monte_carlo.runs=3",
    "--set", "monte_carlo.horizon=40",
]


def test_simulate_deterministic_bytes(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["simulate", "--seed", "7", "--out", str(out_a)]) == 0
    assert main(["simulate", "--seed", "7", "--out", str(out_b)]) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "meta.txt").read_bytes() == (out_b / "meta.txt").read_bytes()
    meta = (out_a / "meta.txt").read_text()
    assert "config_sha256=" in meta and "seed=7" in meta and "version=" in meta
    # output bits can depend on the numpy version and the BLAS kernel
    assert meta.splitlines()[4:] == [
        f"numpy={np.__version__}", f"openblas_kernel={openblas_kernel()}"
    ]


def test_simulate_different_seed_differs(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["simulate", "--seed", "7", "--out", str(out_a)])
    main(["simulate", "--seed", "8", "--out", str(out_b)])
    assert (out_a / "trajectory.csv").read_bytes() != (out_b / "trajectory.csv").read_bytes()


def test_equivalence_small_run_passes(tmp_path):
    out = tmp_path / "eq"
    code = main(["equivalence", "--out", str(out), *FAST])
    assert code == 0
    for name in ("conventional", "sr1a", "sr1b"):
        assert (out / f"rmse_{name}.csv").exists()
    diff = (out / "diff.csv").read_text().splitlines()
    assert diff[0] == "step,conventional_vs_sr1a,conventional_vs_sr1b,sr1a_vs_sr1b"
    assert len(diff) == 41


def test_equivalence_of_sr1b_with_the_dense_oracle_at_weight_1(tmp_path, capsys):
    # the dense oracle runs batched like the weighted filters; with the weight
    # pinned to 1 (sigma = inf) sr1b agrees with it
    out = tmp_path / "eq_kf"
    code = main([
        "equivalence", "--out", str(out), "--runs", "2", "--set", "monte_carlo.horizon=40",
        "--set", "kernel.sigma=inf", "--algorithms", "sr1b,kf_reference",
    ])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert sorted(p.name for p in out.iterdir()) == [
        "diff.csv", "meta.txt", "rmse_kf_reference.csv", "rmse_sr1b.csv"
    ]
    assert len((out / "rmse_kf_reference.csv").read_text().splitlines()) == 41


def test_equivalence_zero_tolerance_fails(tmp_path):
    code = main(["equivalence", "--out", str(tmp_path / "eq0"), "--tolerance", "0", *FAST])
    assert code == 1


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf"])
def test_equivalence_bad_tolerance_exits_2(tmp_path, capsys, tolerance):
    out = tmp_path / "eq"
    code = main(["equivalence", "--out", str(out), "--tolerance", tolerance, *FAST])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --tolerance")
    assert not out.exists()


def test_equivalence_csv_files_end_lines_alike(tmp_path):
    out = tmp_path / "eq"
    assert main(["equivalence", "--out", str(out), *FAST]) == 0
    files = sorted(out.glob("*.csv"))
    assert [p.name for p in files] == [
        "diff.csv", "rmse_conventional.csv", "rmse_sr1a.csv", "rmse_sr1b.csv"
    ]
    for path in files:
        lines = path.read_bytes().split(b"\n")
        assert lines[-1] == b""
        assert all(line.endswith(b"\r") and b"\r" not in line[:-1] for line in lines[:-1])


def test_uncreatable_out_exits_2(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = main(["simulate", "--out", str(blocker / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_simulate_with_a_huge_noise_variance_writes_a_finite_trajectory(tmp_path):
    # R's Cholesky pivot floor stays finite where its row's sum of squares
    # overflows, so the model validates and simulates
    out = tmp_path / "sim"
    assert main(["simulate", "--out", str(out), "--set", "model.range_noise_var=1e200"]) == 0
    rows = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert rows.shape[0] == 300 and np.isfinite(rows).all()


def test_simulate_non_finite_trajectory_exits_1(tmp_path, capsys):
    out = tmp_path / "sim"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["simulate", "--out", str(out), "--set", "model.rho=1e200"])
    assert code == 1
    assert capsys.readouterr().err == "error: simulated trajectory is not finite at step 2\n"
    assert not out.exists()


@pytest.mark.parametrize("command", ["equivalence", "example1", "sweep", "simulate"])
@pytest.mark.parametrize(
    "key, value, reason",
    [
        pytest.param(
            "range_noise_var", "nan", "range_noise_var must be finite, got nan",
            id="range_noise_var",
        ),
        pytest.param("rho", "nan", "rho must be finite, got nan", id="rho"),
        # the radar model's initial covariance divides by the sampling period
        # and by its square
        pytest.param(
            "sampling_period", "0", "sampling_period must be positive, got 0.0",
            id="sampling_period_zero",
        ),
        pytest.param(
            "sampling_period", "-10", "sampling_period must be positive, got -10.0",
            id="sampling_period_negative",
        ),
        pytest.param(
            "sampling_period", "1e-200",
            "initial covariance is not finite: sampling period 1e-200 squared is 0",
            id="tiny_period",
        ),
        pytest.param(
            "sampling_period", "1e200",
            "initial covariance is not finite: sampling period 1e+200 squared is inf",
            id="huge_period",
        ),
    ],
)
def test_non_finite_model_value_exits_2(tmp_path, capsys, command, key, value, reason):
    # RadarConstants rejects the value when it is made, in a message that
    # names the field
    out = tmp_path / "x"
    code = main([command, "--out", str(out), "--set", f"model.{key}={value}", *FAST])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: bad [model]: {reason}\n"
    assert not out.exists()


def test_example1_exits_1_when_runs_diverge(tmp_path, capsys):
    out = tmp_path / "ex1"
    code = main([
        "example1", "--out", str(out), "--runs", "2",
        "--set", "model.rho=1e200", "--set", "monte_carlo.horizon=40",
    ])
    assert code == 1
    captured = capsys.readouterr()
    assert "diverged runs: {'conventional': 2, 'sr1a': 2, 'sr1b': 2}" in captured.err
    assert "sr1b: mean total RMSE nan (0 completed, 2 diverged)" in captured.out
    assert sorted(p.name for p in out.iterdir()) == [
        "meta.txt", "rmse_conventional.csv", "rmse_sr1a.csv", "rmse_sr1b.csv"
    ]


DIVERGED_ALL = "diverged runs: {'conventional': 2, 'sr1a': 2, 'sr1b': 2}\n"


@pytest.mark.parametrize(
    "command, err",
    [
        ("example1", DIVERGED_ALL),
        ("equivalence", DIVERGED_ALL),
        ("sweep", "ordering violated: sr1b broke at 0.1, conventional at 0.1\n"),
    ],
    ids=["example1", "equivalence", "sweep"],
)
def test_overflowing_runs_exit_1_without_numpy_warnings(tmp_path, capsys, command, err):
    # every run overflows; the command reports that itself
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([
            command, "--out", str(tmp_path / "x"), "--runs", "2",
            "--set", "model.rho=1e200", "--set", "monte_carlo.horizon=40",
        ])
    assert code == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("example1", ["--set", "monte_carlo.runs"], "is not of the form section.key=value"),
        ("example1", ["--set", "runs=2"], "is not of the form section.key"),
        ("example1", ["--set", "monte_carlo.runs="], "monte_carlo.runs has an empty value"),
        ("example1", ["--config", "{tmp}/missing.ini"], "cannot read config file"),
        ("example1", ["--config", "{tmp}/missing.ini"], "missing.ini: No such file or directory"),
        ("example1", ["--config", "{tmp}"], "cannot read config file"),
        ("example1", ["--config", "{tmp}/unknown.ini"], "unknown config section [filter]"),
        ("equivalence", ["--config", "{tmp}/partial.ini"], "missing config key kernel.sigma\n"),
        (
            "example1", ["--config", "{tmp}/unknown_key.ini"],
            "config error: unknown config key kernel.bandwidth\n",
        ),
        *(
            (command, ["--set", f"{key}=2"], f"config error: unknown config key {key}\n")
            for command, key in (
                ("example1", "kernel.bogus"),
                ("sweep", "sweep.runs"),
                ("example1", "model.init_bearing_entry"),
                ("example1", "model.init_bearing_rate_extra"),
            )
        ),
        ("example1", ["--set", "bogus.key=1"], "config error: unknown config section [bogus]\n"),
        ("example1", ["--set", "bogus.key="], "override bogus.key has an empty value"),
        ("simulate", ["--set", "monte_carlo.horizon=0"], "monte_carlo.horizon must be >= 1"),
        ("sweep", ["--set", "sweep.deltas=abc"], "bad sweep.deltas 'abc'"),
        ("sweep", ["--set", "sweep.deltas=1e-2 1e-1"], "positive and strictly decreasing"),
        ("sweep", ["--set", "sweep.deltas=inf"], "finite, positive and strictly decreasing"),
        ("sweep", ["--set", "sweep.deltas=1e-1 nan"], "finite, positive and strictly decreasing"),
        ("sweep", ["--config", "{tmp}/empty_grid.ini"], "delta grid must be non-empty"),
        # the whole line: a delta whose square is 0 or overflows breaks the grid's rule
        *(
            (
                "sweep", ["--set", f"sweep.deltas={delta}"],
                "config error: bad sweep.deltas: delta grid must be non-empty, finite, positive "
                f"and strictly decreasing, each with a positive finite square, got [{delta}]\n",
            )
            for delta in ("1e+200", "1e-170")
        ),
        ("example1", ["--algorithms", "fancy"], "expected distinct algorithm names"),
        ("example1", ["--algorithms", "sr1b,sr1b"], "expected distinct algorithm names"),
        ("sweep", ["--algorithms", "sr1b,sr1b"], "expected distinct algorithm names"),
        ("equivalence", ["--algorithms", "sr1b"], "need at least 2 algorithm(s)"),
        ("example1", ["--algorithms", ""], "need at least 1 algorithm(s), got []"),
        ("example1", ["--config", "{tmp}/headless.ini"], "File contains no section headers."),
        ("example1", ["--config", "{tmp}/keyless.ini"], "Source contains parsing errors:"),
        ("example1", ["--set", "monte_carlo.runs=abc"], "bad value for monte_carlo.runs: 'abc' ("),
        ("example1", ["--seed", "-1"], "monte_carlo.seed must be >= 0, got -1"),
        ("example1", ["--runs", "0"], "monte_carlo.runs must be >= 1, got 0"),
        ("sweep", ["--runs", "0"], "monte_carlo.runs must be >= 1, got 0"),
        ("example1", ["--set", "kernel.sigma=1e-170"], "kernel bandwidth must be"),
        ("example1", ["--set", "kernel.sigma=1e200"], "kernel bandwidth must be"),
        (
            "example1", ["--set", "shot_noise.magnitude_high=9223372036854775808"],
            "magnitude bounds must lie in [-9223372036854775808, 9223372036854775807]",
        ),
        (
            "example1", ["--set", "shot_noise.magnitude_low=-9223372036854775809"],
            "magnitude bounds must lie in [-9223372036854775808, 9223372036854775807]",
        ),
    ],
    ids=[
        "no_equals", "no_dot", "empty_value", "unreadable_config",
        "unreadable_config_names_the_reason", "directory_as_config", "unknown_section",
        "missing_sigma", "unknown_key_in_config", "unknown_override_key", "removed_key-sweep.runs",
        "removed_key-model.init_bearing_entry", "removed_key-model.init_bearing_rate_extra",
        "unknown_override_section", "empty_value_of_an_unknown_key",
        "zero_horizon", "bad_deltas", "increasing_deltas", "infinite_delta", "nan_delta",
        "empty_grid", "huge_delta", "tiny_delta",
        "unknown_algorithm", "duplicate_algorithm-example1", "duplicate_algorithm-sweep",
        "too_few_algorithms", "empty_algorithms", "config_without_section_header",
        "config_line_without_value", "non_integer_runs", "negative_seed", "zero_runs-example1",
        "zero_runs-sweep", "underflowing_sigma", "overflowing_sigma",
        "magnitude_high_beyond_int64", "magnitude_low_beyond_int64",
    ],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, command, args, message):
    (tmp_path / "unknown.ini").write_text("[filter]\nname = sr1b\n")
    (tmp_path / "partial.ini").write_text("[model]\nrho = 0.5\n")
    (tmp_path / "unknown_key.ini").write_text("[kernel]\nsigma = 10\nbandwidth = 3\n")
    (tmp_path / "empty_grid.ini").write_text("[kernel]\nsigma = inf\n[sweep]\ndeltas =\n")
    (tmp_path / "headless.ini").write_text("rho = 0.5\n")
    (tmp_path / "keyless.ini").write_text("[model]\nrho\n")
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    out = tmp_path / "x"
    assert main([command, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    # --algorithms is no config key: its list is checked by mcckf.filters
    prefix = "error: " if "--algorithms" in args else "config error: "
    assert err.startswith(prefix) and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, message",
    [
        *(
            (
                command,
                "model.sampling_period=1e-160",
                "initial covariance contains non-finite entries",
            )
            for command in ("equivalence", "example1", "simulate")
        ),
        ("example1", "model.bearing_noise_var=0", "model validation failed: R not positive"),
        *(
            (command, "model.bearing_noise_var=-1", "model validation failed: R not positive")
            for command in ("equivalence", "example1", "simulate")
        ),
        *(
            (command, "model.maneuver_var_1=-1", "model validation failed: Q not positive")
            for command in ("example1", "sweep", "simulate")
        ),
        ("sweep", "model.maneuver_var_2=0", "model validation failed: Q not positive"),
        # the whole line: a zero variance leaves the initial covariance singular
        # too, but the model is built first and names its own covariance
        *(
            ("simulate", key, f"error: model validation failed: {name} not positive definite\n")
            for key, name in (
                ("model.range_noise_var=-1", "R"),
                ("model.bearing_noise_var=0", "R"),
                ("model.maneuver_var_2=0", "Q"),
            )
        ),
    ],
    ids=[
        "small_period-equivalence", "small_period-example1",
        "small_period-simulate", "singular_r-example1", "negative_r-equivalence",
        "negative_r-example1", "negative_r-simulate", "negative_q-example1", "negative_q-sweep",
        "negative_q-simulate", "singular_q-sweep", "negative_range_r-simulate",
        "singular_r-simulate", "singular_q-simulate",
    ],
)
def test_unusable_model_values_exit_2_with_one_line(tmp_path, capsys, command, key, message):
    # simulate reads no --runs
    out = tmp_path / "od" / "x"
    runs = [] if command == "simulate" else ["--runs", "1"]
    code = main([command, "--out", str(out), *runs, "--set", key])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err
    # the model is built before the output directory is made
    assert not (tmp_path / "od").exists()


def test_sweep_unusable_out_fails_before_the_sweep(tmp_path, capsys, monkeypatch):
    def sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before --out was made")

    monkeypatch.setattr("mcckf.cli.run_conditioning_sweep", sweep)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["sweep", "--out", str(out), "--runs", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_example1_single_algorithm(tmp_path):
    out = tmp_path / "ex1"
    code = main(["example1", "--algorithms", "sr1b", "--out", str(out), *FAST])
    assert code == 0
    assert (out / "rmse_sr1b.csv").exists()
    assert not (out / "rmse_conventional.csv").exists()


def test_example1_zero_runs_exits_2(tmp_path):
    assert main(["example1", "--runs", "0", "--out", str(tmp_path / "x")]) == 2


def test_shipped_profile_as_config_file_writes_the_same_bytes(tmp_path):
    """``--config`` with the shipped profile's own path reads it like the
    default: every output file, meta.txt and its config hash included, is
    the same."""
    shipped = str(shipped_config_path("example1"))
    runs = ["example1", "--algorithms", "sr1b,conventional", *FAST]
    assert main([*runs, "--out", str(tmp_path / "default")]) == 0
    assert main([*runs, "--config", shipped, "--out", str(tmp_path / "given")]) == 0
    names = sorted(path.name for path in (tmp_path / "default").iterdir())
    assert names == ["meta.txt", "rmse_conventional.csv", "rmse_sr1b.csv"]
    for name in names:
        given = (tmp_path / "given" / name).read_bytes()
        assert given == (tmp_path / "default" / name).read_bytes(), name


def test_example1_deterministic_output(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["example1", "--algorithms", "sr1b", "--seed", "3", "--out", str(out_a), *FAST])
    main(["example1", "--algorithms", "sr1b", "--seed", "3", "--out", str(out_b), *FAST])
    assert (out_a / "rmse_sr1b.csv").read_bytes() == (out_b / "rmse_sr1b.csv").read_bytes()


def test_sweep_single_easy_delta_all_healthy(tmp_path, capsys):
    out = tmp_path / "sw"
    code = main([
        "sweep", "--out", str(out), "--runs", "2",
        "--set", "sweep.deltas=1e-1",
        "--set", "monte_carlo.horizon=40",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "breakdown_delta" in printed
    assert printed.count("none") == 3
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + 3


def test_sweep_ordering_exit_code(tmp_path):
    code = main([
        "sweep", "--out", str(tmp_path / "sw"), "--runs", "2",
        "--set", "sweep.deltas=1e-1 1e-5",
        "--set", "monte_carlo.horizon=60",
    ])
    assert code == 0


@pytest.mark.parametrize(
    "algorithms, code, err",
    [
        # sr1b and conventional both break at the only delta
        (
            "sr1b,conventional", 1,
            "ordering violated: sr1b broke at 1e-13, conventional at 1e-13\n",
        ),
        # without sr1b there is no ordering to check
        ("conventional,sr1a", 0, ""),
    ],
    ids=["with_sr1b", "without_sr1b"],
)
def test_sweep_ordering_at_a_breaking_delta(tmp_path, capsys, algorithms, code, err):
    assert main([
        "sweep", "--out", str(tmp_path / "sw"), "--runs", "1",
        "--algorithms", algorithms, "--set", "sweep.deltas=1e-13",
    ]) == code
    assert capsys.readouterr().err == err


def test_sweep_runs_per_delta_come_from_monte_carlo_runs(tmp_path):
    out = tmp_path / "sw"
    assert main([
        "sweep", "--out", str(out), "--algorithms", "conventional",
        "--set", "sweep.deltas=1e-13", "--set", "monte_carlo.runs=2",
    ]) == 0
    assert (out / "sweep.csv").read_text().splitlines() == [
        "delta,algorithm,scalar_rmse,status,breakdown_flag",
        "1e-13,conventional,nan,diverged 2/2,1",
    ]


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "command, option",
    [
        ("simulate", ["--runs", "2"]),
        ("simulate", ["--algorithms", "sr1b"]),
        ("simulate", ["--tolerance", "0.1"]),
        ("example1", ["--tolerance", "0.1"]),
        ("equivalence", ["--verbose"]),
        ("sweep", ["--verbose"]),
    ],
    ids=[
        "simulate-runs", "simulate-algorithms", "simulate-tolerance", "example1-tolerance",
        "equivalence-verbose", "sweep-verbose",
    ],
)
def test_option_a_command_does_not_read_is_a_usage_error(tmp_path, capsys, command, option):
    # each command takes only the options it reads
    out = tmp_path / "x"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), *option])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    # the usage line is the command's own, which lists the options it takes
    assert err.startswith(f"usage: mcckf {command} ")
    assert f"mcckf {command}: error: unrecognized arguments: {' '.join(option)}\n" in err
    assert not out.exists()


def test_algorithm_lists_have_one_check(tmp_path, capsys):
    expected = f"expected distinct algorithm names from {ALGORITHMS}, got "
    init = InitialCondition(np.zeros(1), np.eye(1))
    model = scalar_model(f=0.5)
    with pytest.raises(ValueError) as exc:
        run_filter("fancy", model, init, np.zeros((2, 1)), KernelSpec(1.0))
    assert str(exc.value) == expected + "['fancy']"
    scenario = Scenario("scalar", model, init, 2)
    with pytest.raises(ValueError) as exc:
        run_monte_carlo(["sr1b", "sr1b"], scenario, 1, 1, KernelSpec(1.0))
    assert str(exc.value) == expected + "['sr1b', 'sr1b']"
    out = tmp_path / "x"
    assert main(["example1", "--out", str(out), "--algorithms", "sr1b,sr1b"]) == 2
    assert capsys.readouterr().err == f"error: {exc.value}\n"
    assert not out.exists()


def test_outputs_confined_to_out_dir(tmp_path, monkeypatch):
    workdir = tmp_path / "cwd"
    workdir.mkdir()
    monkeypatch.chdir(workdir)
    out = tmp_path / "only-here"
    main(["simulate", "--seed", "1", "--out", str(out)])
    assert sorted(p.name for p in out.iterdir()) == ["meta.txt", "trajectory.csv"]
    assert list(workdir.iterdir()) == []


def test_console_entry_point_subprocess(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "mcckf.cli", "simulate", "--seed", "2",
         "--out", str(tmp_path / "out"),
         "--set", "monte_carlo.horizon=10"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "out" / "trajectory.csv").exists()
