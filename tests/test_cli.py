"""Command-line interface: exit codes, outputs, determinism."""

import subprocess
import sys
import warnings

import pytest

from mcckf.cli import main

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


def test_simulate_negative_variance_exits_2(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main(["simulate", "--out", str(out), "--set", "model.range_noise_var=-1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not positive semidefinite" in err
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("key, name", [("bearing_noise_var", "R"), ("maneuver_var_2", "Q")])
def test_simulate_singular_noise_covariance_exits_2(tmp_path, capsys, key, name):
    # the semidefinite covariance simulates; the filters would reject it
    out = tmp_path / "sim"
    code = main(["simulate", "--out", str(out), "--set", f"model.{key}=0"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: model validation failed: {name} not positive definite\n"
    )
    assert not out.exists()


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
        pytest.param("range_noise_var", "nan", "must be finite", id="range_noise_var"),
        pytest.param("rho", "nan", "must be finite", id="rho"),
        # the radar model divides by the sampling period
        pytest.param("sampling_period", "0", "must be positive", id="sampling_period_zero"),
        pytest.param(
            "sampling_period", "-10", "must be positive", id="sampling_period_negative"
        ),
    ],
)
def test_non_finite_model_value_exits_2(tmp_path, capsys, command, key, value, reason):
    code = main([command, "--out", str(tmp_path / "x"), "--set", f"model.{key}={value}", *FAST])
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"config error: bad value for model.{key}: {value!r} ({reason})\n"


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


def test_equivalence_missing_sigma_exits_2(tmp_path):
    config = tmp_path / "partial.ini"
    config.write_text("[model]\nrho = 0.5\n")
    code = main(["equivalence", "--config", str(config), "--out", str(tmp_path / "x"), *FAST])
    assert code == 2


def test_unknown_config_key_exits_2(tmp_path):
    config = tmp_path / "bad.ini"
    config.write_text("[kernel]\nsigma = 10\nbandwidth = 3\n")
    assert main(["example1", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
    assert main(["example1", "--set", "kernel.bogus=1", "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize(
    "command, key",
    [
        ("sweep", "sweep.runs"),
        ("example1", "model.init_bearing_entry"),
        ("example1", "model.init_bearing_rate_extra"),
    ],
)
def test_removed_config_keys_exit_2(tmp_path, capsys, command, key):
    out = tmp_path / "x"
    code = main([
        command, "--out", str(out), "--set", f"{key}=2",
        "--set", "sweep.deltas=1e-1", *FAST,
    ])
    assert code == 2
    assert capsys.readouterr().err == f"config error: unknown config key {key}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "command, args, message",
    [
        ("example1", ["--set", "monte_carlo.runs"], "is not of the form section.key=value"),
        ("example1", ["--set", "runs=2"], "is not of the form section.key"),
        ("example1", ["--set", "monte_carlo.runs="], "monte_carlo.runs has an empty value"),
        ("example1", ["--config", "{tmp}/missing.ini"], "cannot read config file"),
        ("example1", ["--config", "{tmp}/unknown.ini"], "unknown config section [filter]"),
        ("simulate", ["--set", "monte_carlo.horizon=0"], "monte_carlo.horizon must be >= 1"),
        ("sweep", ["--set", "sweep.deltas=abc"], "bad sweep.deltas 'abc'"),
        ("sweep", ["--set", "sweep.deltas=1e-2 1e-1"], "positive and strictly decreasing"),
        ("sweep", ["--set", "sweep.deltas=inf"], "finite, positive and strictly decreasing"),
        ("sweep", ["--set", "sweep.deltas=1e-1 nan"], "finite, positive and strictly decreasing"),
        ("example1", ["--algorithms", "fancy"], "unknown algorithm 'fancy'"),
        ("equivalence", ["--algorithms", "sr1b"], "need at least 2 algorithm(s)"),
    ],
    ids=[
        "no_equals", "no_dot", "empty_value", "unreadable_config", "unknown_section",
        "zero_horizon", "bad_deltas", "increasing_deltas", "infinite_delta", "nan_delta",
        "unknown_algorithm",
        "too_few_algorithms",
    ],
)
def test_config_errors_exit_2_with_one_line(tmp_path, capsys, command, args, message):
    (tmp_path / "unknown.ini").write_text("[filter]\nname = sr1b\n")
    args = [arg.replace("{tmp}", str(tmp_path)) for arg in args]
    out = tmp_path / "x"
    assert main([command, "--out", str(out), *args]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1
    assert message in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, message",
    [
        ("sweep", "sweep.deltas=1e200", "finite square, got 1e+200"),
        *(
            (command, "model.sampling_period=1e-200", "sampling period 1e-200 squared is 0")
            for command in ("example1", "simulate")
        ),
        *(
            (command, "model.sampling_period=1e-160", "initial covariance is not finite")
            for command in ("equivalence", "example1", "simulate")
        ),
    ],
    ids=[
        "huge_delta", "tiny_period-example1", "tiny_period-simulate",
        "small_period-equivalence", "small_period-example1", "small_period-simulate",
    ],
)
def test_unusable_model_values_exit_2_with_one_line(tmp_path, capsys, command, key, message):
    # each of these once escaped as a traceback from building the model
    out = tmp_path / "od" / "x"
    code = main([command, "--out", str(out), "--runs", "1", "--set", key])
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


def test_sweep_empty_grid_exits_2(tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("[kernel]\nsigma = inf\n[sweep]\ndeltas =\n")
    assert main(["sweep", "--config", str(config), "--out", str(tmp_path / "x")]) == 2


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


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
