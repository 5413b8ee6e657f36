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
