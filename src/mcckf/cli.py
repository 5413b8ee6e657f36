"""Batch command-line front end for the experiments.

Exit codes are a stable contract for CI: 0 when the run's success criterion
holds, 1 when it is violated, 2 on usage or configuration errors. All outputs
land under the chosen output directory alongside a meta.txt recording the
merged-config hash, the seed, the library version, the numpy version and the
OpenBLAS kernel that numpy's bundled library runs; every output file is
written here, each CSV through one writer. A usage or configuration error is
found before the output directory is made.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .bench import build_example2, radar_scenario, run_conditioning_sweep, run_monte_carlo
from .config import ConfigError, ExperimentConfig
from .filters import ALGORITHMS, WEIGHTED_FILTERS, _check_algorithms
from .sim import SeedSpec, simulate


# argparse settings of each option; a command takes --config, --out, --seed
# and --set, plus the options build_parser lists for it
_OPTIONS = {
    "--config": {"help": "configuration file (INI); defaults to the shipped profile"},
    "--out": {"default": "mcckf_out", "help": "output directory (default: %(default)s)"},
    "--seed": {"type": int, "help": "master seed (overrides monte_carlo.seed)"},
    "--set": {
        "dest": "overrides",
        "action": "append",
        "default": [],
        "metavar": "KEY=VALUE",
        "help": "dotted config override, e.g. shot_noise.fraction=0.1 (repeatable)",
    },
    "--runs": {"type": int, "help": "Monte Carlo runs (overrides monte_carlo.runs)"},
    "--algorithms": {
        "default": ",".join(WEIGHTED_FILTERS),
        "help": f"comma-separated subset of: {','.join(ALGORITHMS)} (default: %(default)s)",
    },
    "--tolerance": {
        "type": float,
        "default": 1e-6,
        "help": "maximum allowed relative curve difference (default: %(default)s)",
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcckf",
        description="Correntropy-weighted Kalman filter experiments (batch, non-interactive).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        (
            "equivalence", cmd_equivalence, "example1",
            "run the radar benchmark with every algorithm and check curve agreement",
            ["--runs", "--algorithms", "--tolerance"],
        ),
        (
            "example1", cmd_example1, "example1",
            "shot-noise radar Monte Carlo, RMSE CSV per algorithm",
            ["--runs", "--algorithms"],
        ),
        (
            "sweep", cmd_sweep, "sweep",
            "ill-conditioning breakdown sweep over delta",
            ["--runs", "--algorithms"],
        ),
        ("simulate", cmd_simulate, "example1", "emit one simulated trajectory as CSV", []),
    ]
    for name, func, profile, help_text, options in commands:
        command = sub.add_parser(name, help=help_text)
        for option in ["--config", "--out", "--seed", "--set", *options]:
            command.add_argument(option, **_OPTIONS[option])
        command.set_defaults(func=func, profile=profile, parser=command)
    return parser


def _load_config(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"monte_carlo.seed={args.seed}")
    if getattr(args, "runs", None) is not None:  # simulate reads no runs
        overrides.append(f"monte_carlo.runs={args.runs}")
    return ExperimentConfig.load(args.config, overrides, profile=args.profile)


def _algorithm_list(args, minimum: int = 1) -> list[str]:
    names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    _check_algorithms(names)
    if len(names) < minimum:
        raise ValueError(f"need at least {minimum} algorithm(s), got {names}")
    return names


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_rows(path, header, rows) -> None:
    """Write a header and rows as CSV. Floats get 17 significant digits, so
    parsing the file back recovers them exactly; other cells go through
    ``str``."""
    try:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(
                [f"{v:.17g}" if isinstance(v, float) else str(v) for v in row]
                for row in rows
            )
    except OSError as exc:
        raise OSError(f"failed writing CSV to {path}: {exc}") from exc


def openblas_kernel() -> str:
    """The kernel numpy's bundled OpenBLAS picked, or ``unknown``."""
    import ctypes  # local: only this lookup needs it

    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            corename = ctypes.CDLL(str(path)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.restype = ctypes.c_char_p
        return corename().decode()
    return "unknown"


def _write_meta(out: Path, command: str, cfg: ExperimentConfig, seed: int) -> None:
    lines = [
        f"command={command}",
        f"config_sha256={cfg.sha256()}",
        f"seed={seed}",
        f"version={__version__}",
        f"numpy={np.__version__}",
        f"openblas_kernel={openblas_kernel()}",
    ]
    (out / "meta.txt").write_text("\n".join(lines) + "\n")


def _relative_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-300)
    return np.abs(a - b) / scale


def _monte_carlo(args, command: str, minimum: int = 1):
    """The radar Monte Carlo of ``equivalence`` and ``example1``: writes
    ``rmse_<algorithm>.csv`` and ``meta.txt`` and returns the output
    directory, the reports and a status of 1 when any run diverged."""
    cfg = _load_config(args)
    names = _algorithm_list(args, minimum)
    scenario = radar_scenario(cfg.radar_constants(), cfg.shot_spec())
    spec, runs, seed = cfg.kernel_spec(), cfg.runs(), cfg.seed()
    out = _out_dir(args)
    reports = run_monte_carlo(names, scenario, runs, seed, spec)
    for name, report in reports.items():
        n = report.per_component.shape[1]
        header = ["step", *(f"rmse_x{i + 1}" for i in range(n)), "total"]
        pairs = zip(report.per_component, report.total)
        rows = ([k, *cells, total] for k, (cells, total) in enumerate(pairs, start=1))
        _write_rows(out / f"rmse_{name}.csv", header, rows)
    _write_meta(out, command, cfg, seed)
    diverged = {name: report.diverged_runs for name, report in reports.items()}
    if any(diverged.values()):
        print(f"diverged runs: {diverged}", file=sys.stderr)
    return out, reports, int(any(diverged.values()))


def cmd_equivalence(args) -> int:
    if not 0.0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and nonnegative, got {args.tolerance:g}")
    out, reports, status = _monte_carlo(args, "equivalence", minimum=2)
    pairs = list(combinations(reports, 2))
    diffs = {
        (a, b): _relative_diff(reports[a].total, reports[b].total) for a, b in pairs
    }
    _write_rows(
        out / "diff.csv",
        ["step"] + [f"{a}_vs_{b}" for a, b in pairs],
        ([k, *row] for k, row in enumerate(zip(*diffs.values()), start=1)),
    )
    max_diff = max(float(d.max()) for d in diffs.values())
    print(f"max relative total-RMSE difference: {max_diff:.3e} (tolerance {args.tolerance:g})")
    return status or (0 if max_diff < args.tolerance else 1)


def cmd_example1(args) -> int:
    _, reports, status = _monte_carlo(args, "example1")
    for name, report in reports.items():
        print(
            f"{name}: mean total RMSE {report.scalar_summary:.6g} "
            f"({report.completed_runs} completed, {report.diverged_runs} diverged)"
        )
    return status


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    names = _algorithm_list(args)
    spec, runs, seed = cfg.kernel_spec(), cfg.runs(), cfg.seed()
    deltas, constants = cfg.sweep_deltas(), cfg.radar_constants()
    # the grid rule has checked every delta, and the rest of a delta's model
    # comes from the constants, so one model checks them all before --out is made
    build_example2(deltas[0], constants)
    out = _out_dir(args)
    report = run_conditioning_sweep(names, deltas, runs, seed, spec, constants)
    _write_rows(
        out / "sweep.csv",
        ["delta", "algorithm", "scalar_rmse", "status", "breakdown_flag"],
        (
            [
                e.delta,
                e.algorithm,
                e.scalar_rmse,
                f"diverged {e.diverged_runs}/{e.diverged_runs + e.completed_runs}"
                if e.diverged_runs
                else "ok",
                int(e.blown_up),
            ]
            for e in report.entries
        ),
    )
    _write_meta(out, "sweep", cfg, seed)
    print("algorithm      breakdown_delta")
    for name in names:
        broke = report.breakdown_delta[name]
        print(f"{name:<14} {'none' if broke is None else f'{broke:g}'}")
    if "sr1b" not in names:
        return 0
    sr1b_break = report.breakdown_delta["sr1b"]
    for name in names:
        if name == "sr1b":
            continue
        other = report.breakdown_delta[name]
        if sr1b_break is not None and (other is None or other <= sr1b_break):
            print(
                f"ordering violated: sr1b broke at {sr1b_break:g}, "
                f"{name} at {'never' if other is None else f'{other:g}'}",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_simulate(args) -> int:
    cfg = _load_config(args)
    scenario = radar_scenario(cfg.radar_constants(), cfg.shot_spec())
    trajectory = simulate(
        scenario.model, scenario.init, scenario.horizon, SeedSpec(cfg.seed(), 0), scenario.shot
    )
    finite = np.isfinite(np.hstack([trajectory.truth, trajectory.measurements])).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        print(f"error: simulated trajectory is not finite at step {step}", file=sys.stderr)
        return 1
    out = _out_dir(args)
    truth, measurements = trajectory.truth, trajectory.measurements
    # the steps whose process (w) and measurement (v) noise carried an impulse
    shot_steps = [{k for k, ch, _ in trajectory.outlier_log if ch[0] == g} for g in "wv"]
    header = [
        "step", *(f"x{i + 1}" for i in range(truth.shape[1])),
        *(f"y{j + 1}" for j in range(measurements.shape[1])), "shot_w", "shot_v",
    ]
    rows = (
        [k, *x, *y, *(int(k in steps) for steps in shot_steps)]
        for k, (x, y) in enumerate(zip(truth, measurements), start=1)
    )
    _write_rows(out / "trajectory.csv", header, rows)
    _write_meta(out, "simulate", cfg, cfg.seed())
    print(f"wrote {trajectory.horizon} steps to {out / 'trajectory.csv'}")
    return 0


def main(argv=None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:  # with the command's usage line, not the top-level one
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        # every command reports overflowing runs or trajectories itself
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
