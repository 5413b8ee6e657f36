"""Batch command-line front end for the experiments.

Exit codes are a stable contract for CI: 0 when the run's success criterion
holds, 1 when it is violated, 2 on usage or configuration errors. All outputs
land under the chosen output directory alongside a meta.txt recording the
merged-config hash, the seed and the library version.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import combinations
from pathlib import Path

import numpy as np

from . import __version__
from .bench import (
    build_example2,
    radar_scenario,
    run_conditioning_sweep,
    run_monte_carlo,
    write_csv,
)
from .config import ConfigError, ExperimentConfig
from .filters import ALGORITHMS, WEIGHTED_FILTERS
from .model import validate_model
from .sim import SeedSpec, simulate, write_rows, write_trajectory_csv


def _add_common(sub, tolerance: bool = False):
    sub.add_argument("--config", help="configuration file (INI); defaults to the shipped profile")
    sub.add_argument("--out", default="mcckf_out", help="output directory (default: %(default)s)")
    sub.add_argument("--seed", type=int, help="master seed (overrides monte_carlo.seed)")
    sub.add_argument("--runs", type=int, help="Monte Carlo runs (overrides the config)")
    sub.add_argument(
        "--algorithms",
        help=f"comma-separated subset of: {','.join(ALGORITHMS)} "
        f"(default: {','.join(WEIGHTED_FILTERS)})",
    )
    sub.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="dotted config override, e.g. shot_noise.fraction=0.1 (repeatable)",
    )
    sub.add_argument(
        "--verbose", action="count", default=0, help="print per-cell detail"
    )
    if tolerance:
        sub.add_argument(
            "--tolerance",
            type=float,
            default=1e-6,
            help="maximum allowed relative curve difference (default: %(default)s)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcckf",
        description="Correntropy-weighted Kalman filter experiments (batch, non-interactive).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    eq = sub.add_parser(
        "equivalence",
        help="run the radar benchmark with every algorithm and check curve agreement",
    )
    _add_common(eq, tolerance=True)
    eq.set_defaults(func=cmd_equivalence, profile="example1")

    ex1 = sub.add_parser("example1", help="shot-noise radar Monte Carlo, RMSE CSV per algorithm")
    _add_common(ex1)
    ex1.set_defaults(func=cmd_example1, profile="example1")

    sw = sub.add_parser("sweep", help="ill-conditioning breakdown sweep over delta")
    _add_common(sw)
    sw.set_defaults(func=cmd_sweep, profile="sweep")

    si = sub.add_parser("simulate", help="emit one simulated trajectory as CSV")
    _add_common(si)
    si.set_defaults(func=cmd_simulate, profile="example1")
    return parser


def _load_config(args) -> ExperimentConfig:
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"monte_carlo.seed={args.seed}")
    if args.runs is not None:
        overrides.append(f"monte_carlo.runs={args.runs}")
    return ExperimentConfig.load(args.config, overrides, profile=args.profile)


def _algorithm_list(args, minimum: int = 1) -> list[str]:
    if args.algorithms:
        names = [name.strip() for name in args.algorithms.split(",") if name.strip()]
    else:
        names = list(WEIGHTED_FILTERS)
    for name in names:
        if name not in ALGORITHMS:
            raise ConfigError(f"unknown algorithm {name!r}, expected one of {ALGORITHMS}")
    if len(names) < minimum:
        raise ConfigError(f"need at least {minimum} algorithm(s), got {names}")
    return names


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(out: Path, command: str, cfg: ExperimentConfig, seed: int) -> None:
    lines = [
        f"command={command}",
        f"config_sha256={cfg.sha256()}",
        f"seed={seed}",
        f"version={__version__}",
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
    spec = cfg.kernel_spec()
    out = _out_dir(args)
    reports = run_monte_carlo(names, scenario, cfg.runs(), cfg.seed(), spec)
    for name, report in reports.items():
        write_csv(report, out / f"rmse_{name}.csv")
    _write_meta(out, command, cfg, cfg.seed())
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
    write_rows(
        out / "diff.csv",
        ["step"] + [f"{a}_vs_{b}" for a, b in pairs],
        ([k, *row] for k, row in enumerate(zip(*diffs.values()), start=1)),
    )
    max_diff = max(float(d.max()) for d in diffs.values())
    if args.verbose:
        for (a, b), d in diffs.items():
            print(f"  {a} vs {b}: max relative difference {float(d.max()):.3e}")
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
    spec = cfg.kernel_spec()
    deltas = cfg.sweep_deltas()
    constants = cfg.radar_constants()
    # build each delta's model first, so a bad delta leaves no output
    # directory behind, and an unusable --out fails before the sweep runs
    for delta in deltas:
        build_example2(delta, constants)
    out = _out_dir(args)
    report = run_conditioning_sweep(names, deltas, cfg.runs(), cfg.seed(), spec, constants)
    write_csv(report, out / "sweep.csv")
    _write_meta(out, "sweep", cfg, cfg.seed())
    if args.verbose:
        for entry in report.entries:
            print(
                f"  delta={entry.delta:g} {entry.algorithm}: rmse={entry.scalar_rmse:.6g} "
                f"diverged={entry.diverged_runs}/{entry.diverged_runs + entry.completed_runs} "
                f"blown_up={int(entry.blown_up)}"
            )
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
    violations = validate_model(scenario.model, scenario.init)
    if violations:
        raise ValueError("model validation failed: " + "; ".join(violations))
    finite = np.isfinite(np.hstack([trajectory.truth, trajectory.measurements])).all(axis=1)
    if not finite.all():
        step = int(np.argmin(finite)) + 1
        print(f"error: simulated trajectory is not finite at step {step}", file=sys.stderr)
        return 1
    out = _out_dir(args)
    write_trajectory_csv(trajectory, out / "trajectory.csv")
    _write_meta(out, "simulate", cfg, cfg.seed())
    print(f"wrote {trajectory.horizon} steps to {out / 'trajectory.csv'}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
