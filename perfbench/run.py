#!/usr/bin/env python3
"""Monte Carlo benchmark of the mcckf library.

    python3 perfbench/run.py --workload radar_mc --seed 1 --seconds 20 --trace 0

Workloads (see README.md for why each was chosen):

* ``radar_mc``: the shipped ``example1`` profile, all three filters through
  ``bench.run_monte_carlo``.
* ``cond_sweep``: the shipped ``sweep`` profile, all 14 deltas through
  ``bench.run_conditioning_sweep``.
* ``wide_single``: a random stable model (n=24, m=8, q=4) and one
  pre-generated trajectory, each filter through ``filters.run_filter``.

Each workload is a closed loop: one caller in one process starts the next
experiment call only after the previous one returned, until ``--seconds``
have passed. Every output is checked against ``reference.json``. The workload
seed selects one of ``REFERENCE_SLOTS`` recorded input sets (seed modulo the
slot count), because outputs are compared with values recorded from the
library as it was when the benchmark was introduced.

With ``--trace 0`` the end-to-end metrics are reported; with ``--trace 1``
untraced and traced experiment calls alternate, and the per-layer metrics come
from spans recorded around the functions listed in ``targets.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Without the library
sources next to this directory the script exits with code 2 and prints no
result. ``--record`` rewrites ``reference.json`` and is meant to be run only
on the library version the reference describes.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE_PATH = HERE / "reference.json"
TARGETS_PATH = HERE / "targets.json"

ALGORITHMS = ("conventional", "sr1a", "sr1b")
REFERENCE_SLOTS = 16
# Relative agreement required between algorithms and with the reference.
TOLERANCE = 1e-6
# Every timed loop makes at least this many experiment calls.
MIN_CALLS = 3
# Fresh interpreters started, one after another, to time set-up.
SETUP_PROBES = 11
# Durations are scaled to the machine speed at which calibration_s() takes
# this long (about the median on the 2-core machine the benchmark was built on).
CALIBRATION_REFERENCE_S = 0.015
EXPECTED_BREAKDOWN = {"conventional": 1e-5, "sr1a": 1e-5, "sr1b": 1e-13}


def sweep_rmse_tolerance(delta: float) -> float:
    """Relative tolerance for a sweep cell's summary RMSE at ``delta``.

    Ill-conditioning amplifies rounding. Scaling the filter state by
    (1 + 2**-52) after every step, a one-ulp change, moved the summary RMSE
    of the 16 recorded input sets by at most 5.1e-7 (relative) for every
    delta down to 1e-6, and by about 1e-12 / delta below that (3.3e-6 at
    1e-7, 1.2e-4 at 1e-8, 1e-3 at 1e-9, 1.0 at 1e-12, all sr1b). The
    tolerance is 100 times that trend, and never tighter than TOLERANCE.
    """
    return max(TOLERANCE, 1e-10 / delta)


class LibraryMissing(Exception):
    """The mcckf sources of this checkout cannot be imported."""


def import_library():
    """Import mcckf from this checkout's ``src``, never from an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import mcckf
    except ImportError as exc:
        raise LibraryMissing(f"cannot import mcckf from {src}: {exc}") from exc
    if not Path(mcckf.__file__).resolve().is_relative_to(src):
        raise LibraryMissing(f"mcckf resolved to {mcckf.__file__}, outside {src}")
    return mcckf


def max_relative_diff(a, b) -> float:
    import numpy as np

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    diff = np.abs(a - b) / np.maximum(np.abs(b), 1e-300)
    return float(np.nan_to_num(diff, nan=np.inf).max())


def rounded(values) -> list[float]:
    return [float(f"{float(v):.12g}") for v in values]


class RadarMc:
    """Shot-noise radar Monte Carlo: the paper's equivalence experiment."""

    name = "radar_mc"
    runs = 4

    def setup(self, data_seed):
        from mcckf import bench, config

        start = time.perf_counter()
        cfg = config.ExperimentConfig.load(profile="example1")
        config_s = time.perf_counter() - start
        model, init, _ = bench.build_example1(cfg.radar_constants())
        scenario = bench.Scenario(
            "radar_tracking", model, init, cfg.horizon(), cfg.shot_spec()
        )
        return {"scenario": scenario, "spec": cfg.kernel_spec(), "seed": data_seed}, config_s

    def ops(self, ctx) -> int:
        return self.runs * len(ALGORITHMS)

    def first_steps(self, ctx):
        from mcckf import filters, sim

        sc = ctx["scenario"]
        trajectory = sim.simulate(
            sc.model, sc.init, sc.horizon, sim.SeedSpec(ctx["seed"], 0), sc.shot
        )
        for alg in ALGORITHMS:
            filters.run_filter(alg, sc.model, sc.init, trajectory.measurements[:1], ctx["spec"])

    def experiment(self, ctx):
        from mcckf import bench

        return bench.run_monte_carlo(
            ALGORITHMS, ctx["scenario"], self.runs, ctx["seed"], ctx["spec"]
        )

    def fingerprint(self, ctx, out):
        return {"total_rmse": rounded(out["conventional"].total)}

    def check(self, ctx, ref, out) -> tuple[int, list[str]]:
        bad, notes = set(), []
        for alg in ALGORITHMS:
            report = out[alg]
            if report.completed_runs != self.runs or report.diverged_runs:
                bad.add(alg)
                notes.append(f"{alg}: {report.diverged_runs} diverged runs")
            diff = max_relative_diff(report.total, ref["total_rmse"])
            if not diff < TOLERANCE:
                bad.add(alg)
                notes.append(f"{alg}: total RMSE off the reference by {diff:.3e}")
        for a, b in itertools.combinations(ALGORITHMS, 2):
            diff = max_relative_diff(out[a].total, out[b].total)
            if not diff < TOLERANCE:
                bad.update((a, b))
                notes.append(f"{a} vs {b}: total RMSE curves differ by {diff:.3e}")
        return self.runs * len(bad), notes

    def steps(self, ctx, ref, out) -> int:
        horizon = ctx["scenario"].horizon
        return sum(out[alg].completed_runs * horizon for alg in ALGORITHMS)

    def diverged(self, out) -> dict[str, int]:
        return {alg: out[alg].diverged_runs for alg in ALGORITHMS}


class CondSweep:
    """Ill-conditioning sweep: divergence path and fixed per-run costs."""

    name = "cond_sweep"
    runs = 1

    def setup(self, data_seed):
        from mcckf import config

        start = time.perf_counter()
        cfg = config.ExperimentConfig.load(profile="sweep")
        ctx = {
            "deltas": cfg.sweep_deltas(),
            "spec": cfg.kernel_spec(),
            "constants": cfg.radar_constants(),
            "seed": data_seed,
        }
        return ctx, time.perf_counter() - start

    def ops(self, ctx) -> int:
        return self.runs * len(ALGORITHMS) * len(ctx["deltas"])

    def first_steps(self, ctx):
        from mcckf import bench, filters, sim

        sc = bench.ill_conditioned_scenario(ctx["deltas"][0], ctx["constants"])
        trajectory = sim.simulate(sc.model, sc.init, sc.horizon, sim.SeedSpec(ctx["seed"], 0))
        for alg in ALGORITHMS:
            filters.run_filter(alg, sc.model, sc.init, trajectory.measurements[:1], ctx["spec"])

    def experiment(self, ctx):
        from mcckf import bench

        return bench.run_conditioning_sweep(
            ALGORITHMS, ctx["deltas"], self.runs, ctx["seed"], ctx["spec"], ctx["constants"]
        )

    def fingerprint(self, ctx, out):
        from mcckf import bench

        # Completed filter steps are not part of the sweep report; replay the
        # per-delta Monte Carlo evaluations the sweep makes to count them.
        steps = 0
        for delta in ctx["deltas"]:
            scenario = bench.ill_conditioned_scenario(delta, ctx["constants"])
            reports = bench.run_monte_carlo(
                ALGORITHMS, scenario, self.runs, ctx["seed"], ctx["spec"]
            )
            steps += sum(s.steps_completed for r in reports.values() for s in r.statuses)
        return {
            "diverged": [[e.delta, e.algorithm, e.diverged_runs] for e in out.entries],
            "scalar_rmse": [
                [e.delta, e.algorithm, float(f"{e.scalar_rmse:.12g}")]
                for e in out.entries
                if math.isfinite(e.scalar_rmse)
            ],
            "completed_steps": steps,
        }

    def check(self, ctx, ref, out) -> tuple[int, list[str]]:
        expected = {(d, alg): n for d, alg, n in ref["diverged"]}
        bad_cells, notes = set(), []
        for e in out.entries:
            if expected.get((e.delta, e.algorithm)) != e.diverged_runs:
                bad_cells.add((e.delta, e.algorithm))
                notes.append(
                    f"delta {e.delta:g} {e.algorithm}: {e.diverged_runs} diverged, "
                    f"reference {expected.get((e.delta, e.algorithm))}"
                )
        if len(out.entries) != len(expected):
            notes.append(f"{len(out.entries)} sweep cells, reference {len(expected)}")
            bad_cells.update(expected)
        rmse = {(e.delta, e.algorithm): e.scalar_rmse for e in out.entries}
        for delta, alg, want in ref["scalar_rmse"]:
            got = rmse.get((delta, alg), math.nan)
            diff = max_relative_diff(got, want)
            if not diff < sweep_rmse_tolerance(delta):
                bad_cells.add((delta, alg))
                notes.append(f"delta {delta:g} {alg}: scalar RMSE off the reference by {diff:.3e}")
        for alg in ALGORITHMS:
            got = out.breakdown_delta.get(alg)
            if got != EXPECTED_BREAKDOWN[alg]:
                notes.append(f"{alg}: breakdown delta {got}, expected {EXPECTED_BREAKDOWN[alg]}")
                bad_cells.update((d, alg) for d in ctx["deltas"])
        return self.runs * len(bad_cells), notes

    def steps(self, ctx, ref, out) -> int:
        return ref["completed_steps"]

    def diverged(self, out) -> dict[str, int]:
        return {
            alg: sum(e.diverged_runs for e in out.entries if e.algorithm == alg)
            for alg in ALGORITHMS
        }


class WideSingle:
    """One long trajectory of a random 24-state model through each filter."""

    name = "wide_single"
    n, m, q = 24, 8, 4
    horizon = 300
    spectral_radius = 0.95
    # Keeps the correntropy weight live: its mean over a run lay between
    # about 0.2 and 0.7 on the recorded models (sigma = 10 gives about 0.002).
    sigma = 20.0

    def setup(self, data_seed):
        import numpy as np
        from mcckf import correntropy, model, sim

        rng = np.random.default_rng(data_seed)

        def spd(k):
            b = rng.standard_normal((k, k))
            return b @ b.T / k + np.eye(k)

        a = rng.standard_normal((self.n, self.n))
        f = self.spectral_radius * a / np.abs(np.linalg.eigvals(a)).max()
        g = rng.standard_normal((self.n, self.q))
        h = rng.standard_normal((self.m, self.n))
        ssm = model.StateSpaceModel(F=f, G=g, H=h, Q=spd(self.q), R=spd(self.m))
        init = model.InitialCondition(mean=np.zeros(self.n), covariance=spd(self.n))
        trajectory = sim.simulate(ssm, init, self.horizon, sim.SeedSpec(data_seed, 0))
        ctx = {
            "model": ssm,
            "init": init,
            "measurements": trajectory.measurements,
            "spec": correntropy.KernelSpec(self.sigma),
        }
        return ctx, 0.0

    def ops(self, ctx) -> int:
        return len(ALGORITHMS)

    def first_steps(self, ctx):
        from mcckf import filters

        for alg in ALGORITHMS:
            filters.run_filter(
                alg, ctx["model"], ctx["init"], ctx["measurements"][:1], ctx["spec"]
            )

    def experiment(self, ctx):
        from mcckf import filters

        return {
            alg: filters.run_filter(
                alg, ctx["model"], ctx["init"], ctx["measurements"], ctx["spec"]
            )
            for alg in ALGORITHMS
        }

    def fingerprint(self, ctx, out):
        import numpy as np

        estimates = out["conventional"].estimates()
        return {
            "norm": rounded(np.linalg.norm(estimates, axis=1)),
            "final": rounded(estimates[-1]),
        }

    def check(self, ctx, ref, out) -> tuple[int, list[str]]:
        import numpy as np

        bad, notes = set(), []
        for alg in ALGORITHMS:
            run = out[alg]
            if not run.status.completed or run.status.steps_completed != self.horizon:
                bad.add(alg)
                notes.append(f"{alg}: {run.status}")
                continue
            est = run.estimates()
            for label, got, want in (
                ("per-step norm", np.linalg.norm(est, axis=1), ref["norm"]),
                ("final estimate", est[-1], ref["final"]),
            ):
                diff = max_relative_diff(got, want)
                if not diff < TOLERANCE:
                    bad.add(alg)
                    notes.append(f"{alg}: {label} off the reference by {diff:.3e}")
        for a, b in itertools.combinations(ALGORITHMS, 2):
            ea, eb = out[a].estimates(), out[b].estimates()
            if ea.shape != eb.shape:
                bad.update((a, b))
                continue
            diff = float(
                (np.linalg.norm(ea - eb, axis=1) / np.linalg.norm(eb, axis=1)).max()
            )
            if not diff < TOLERANCE:
                bad.update((a, b))
                notes.append(f"{a} vs {b}: estimates differ by {diff:.3e}")
        return len(bad), notes

    def steps(self, ctx, ref, out) -> int:
        return sum(out[alg].status.steps_completed for alg in ALGORITHMS)

    def diverged(self, out) -> dict[str, int]:
        return {alg: int(not out[alg].status.completed) for alg in ALGORITHMS}


WORKLOADS = {w.name: w for w in (RadarMc(), CondSweep(), WideSingle())}


def calibration_s() -> float:
    """Time a fixed, library-independent mix of interpreter work and small
    numpy calls, of the same kind as the filters' steps. The machine's speed
    drifts by up to a factor of two within minutes, and this loop slows down
    with it."""
    import numpy as np

    a = np.eye(6) + np.arange(36.0).reshape(6, 6) / 360.0
    x = np.ones(6)
    acc = 0.0
    start = time.perf_counter()
    for _ in range(300):
        b = a @ a.T + np.eye(6)
        low = np.linalg.cholesky(b)
        x = np.linalg.solve(low, x) + 1.0
        r = np.linalg.qr(np.hstack([a, b[:, :2]]).T, mode="r")
        for i in range(6):
            acc += r[i, i] + low[i, i]
    return time.perf_counter() - start


def speed_scale(before: float, after: float) -> float:
    """Factor that converts a duration measured between two calibration loops
    to seconds at the reference speed."""
    return CALIBRATION_REFERENCE_S / ((before + after) / 2.0)


def probe_setup(workload, data_seed) -> dict:
    """Time one set-up in this (fresh) interpreter, up to the first filter steps."""
    start = time.perf_counter()
    import_library()
    imported = time.perf_counter()
    ctx, config_s = workload.setup(data_seed)
    workload.first_steps(ctx)
    done = time.perf_counter()
    calibration = statistics.median(calibration_s() for _ in range(3))
    return {
        "import_s": imported - start,
        "config_load_s": config_s,
        "setup_s": done - start,
        "calibration_s": calibration,
    }


def run_setup_probes(workload, seed) -> list[dict]:
    """Set-up timings from fresh interpreters, scaled to the reference speed."""
    results = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload.name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        scale = CALIBRATION_REFERENCE_S / probe.pop("calibration_s")
        results.append({key: value * scale for key, value in probe.items()})
    return results


def environment(seed, data_seed) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "seed": seed,
        "data_seed": data_seed,
    }


class Tally:
    """Operations attempted and failed across every checked experiment call."""

    def __init__(self, workload, ctx, ref):
        self.workload, self.ctx, self.ref = workload, ctx, ref
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, out) -> None:
        failed, notes = self.workload.check(self.ctx, self.ref, out)
        self.attempted += self.workload.ops(self.ctx)
        self.failed += failed
        self.notes.extend(notes)

    def crashed(self) -> None:
        ops = self.workload.ops(self.ctx)
        self.attempted += ops
        self.failed += ops
        self.notes.append(traceback.format_exc())


class Samples:
    """Durations of the timed calls of one kind: as measured, and scaled."""

    def __init__(self):
        self.wall: list[float] = []
        self.scaled: list[float] = []
        self.scales: list[float] = []

    def add(self, wall: float, scale: float) -> None:
        self.wall.append(wall)
        self.scaled.append(wall * scale)
        self.scales.append(scale)


def measure(workload, ctx, tally, seconds, tracer=None):
    """Closed loop of experiment calls for ``seconds``.

    Each call is bracketed by calibration loops. Returns the untraced
    samples, the traced samples, the per-layer totals of each traced call
    (scaled), and the last output, or None for it if a call raised. With a
    tracer, each untraced call is followed by a traced one.
    """
    plain, traced, layers, out = Samples(), Samples(), [], None
    modes = (False, True) if tracer else (False,)
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        for tracing in modes:
            before = calibration_s()
            if tracing:
                tracer.install()
            try:
                t0 = time.perf_counter()
                out = workload.experiment(ctx)
                wall = time.perf_counter() - t0
            except Exception:
                tally.crashed()
                return plain, traced, layers, None
            finally:
                if tracing:
                    tracer.uninstall()
            scale = speed_scale(before, calibration_s())
            if tracing:
                traced.add(wall, scale)
                totals = tracer.collect()
                for t in totals.values():
                    t.self_s *= scale
                    t.total_s *= scale
                layers.append(totals)
            else:
                plain.add(wall, scale)
            tally.check(out)
        now = time.perf_counter()
        round_s = statistics.median(plain.wall) + (
            statistics.median(traced.wall) if traced.wall else 0.0)
        if (len(plain.wall) >= MIN_CALLS and now + round_s > deadline) or (
            now > deadline + seconds
        ):
            return plain, traced, layers, out


def layer_metrics(tracer, layers) -> dict[str, tuple[float, str]]:
    metrics = {}
    first = layers[0]
    for layer in tracer.targets:
        counts = {(t[layer].calls, t[layer].failed) for t in layers}
        if len(counts) > 1:
            print(f"warning: {layer} call counts vary between calls: {counts}", file=sys.stderr)
        calls = first[layer].calls
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.failed"] = (first[layer].failed, "count")
        metrics[f"{layer}.self_s"] = (statistics.median(t[layer].self_s for t in layers), "s")
        per_call = [t[layer].total_s / t[layer].calls * 1e6 for t in layers if t[layer].calls]
        metrics[f"{layer}.us_per_call"] = (statistics.median(per_call) if per_call else 0.0, "us")
        if layer.startswith("linalg."):
            flops = first[layer].flops / calls if calls else 0.0
            if flops != flops:
                print(f"warning: no operation count for {layer}", file=sys.stderr)
                flops = 0.0
            metrics[f"{layer}.flops_per_call"] = (flops, "flop")
    return metrics


def run_benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    data_seed = args.seed % REFERENCE_SLOTS
    try:
        import_library()
    except LibraryMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ref = json.loads(REFERENCE_PATH.read_text())[workload.name][str(data_seed)]
    env = environment(args.seed, data_seed)

    probes = run_setup_probes(workload, args.seed)
    ctx, _ = workload.setup(data_seed)
    tally = Tally(workload, ctx, ref)
    tracer = Tracer(json.loads(TARGETS_PATH.read_text())) if args.trace else None

    try:
        warm = workload.experiment(ctx)  # lets lazy caches fill before timing
    except Exception:
        print(traceback.format_exc(), file=sys.stderr)
        return 1
    tally.check(warm)
    plain, traced, layers, out = measure(workload, ctx, tally, args.seconds, tracer)
    if out is None:
        print("\n".join(tally.notes), file=sys.stderr)
        return 1

    experiment_s = statistics.median(plain.scaled)
    steps = workload.steps(ctx, ref, out)
    if args.trace:
        metrics = layer_metrics(tracer, layers)
        for alg, count in workload.diverged(out).items():
            metrics[f"filters.diverged.{alg}"] = (count, "count")
        metrics["filters.steps"] = (steps, "count")
        metrics["setup.import_s"] = (statistics.median(p["import_s"] for p in probes), "s")
        metrics["setup.config_load_s"] = (
            statistics.median(p["config_load_s"] for p in probes), "s")
        metrics["trace.experiment_s"] = (statistics.median(traced.scaled), "s")
        metrics["trace.untraced_experiment_s"] = (experiment_s, "s")
        metrics["trace.overhead_s"] = (statistics.median(traced.scaled) - experiment_s, "s")
        metrics["trace.missing_targets"] = (len(tracer.missing), "count")
        metrics["calibration.speed_scale"] = (statistics.median(plain.scales), "x")
        if tracer.missing:
            print(f"trace targets missing: {', '.join(tracer.missing)}", file=sys.stderr)
    else:
        metrics = {
            "experiment_s": (experiment_s, "s"),
            "steps_per_s": (steps / experiment_s, "1/s"),
            "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "ok_share": (1.0 - tally.failed / tally.attempted, "share"),
        }

    for note in tally.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print("environment " + json.dumps(env))
    print(
        f"calls untraced={len(plain.wall)} traced={len(traced.wall)} "
        f"steps_per_call={steps} wall_median_s={statistics.median(plain.wall):.6g} "
        f"speed_scale_median={statistics.median(plain.scales):.4g}"
    )
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def record_reference() -> int:
    """Re-record reference.json from the library in this checkout."""
    import_library()
    reference = {}
    for workload in WORKLOADS.values():
        reference[workload.name] = {}
        for data_seed in range(REFERENCE_SLOTS):
            ctx, _ = workload.setup(data_seed)
            out = workload.experiment(ctx)
            ref = workload.fingerprint(ctx, out)
            failed, notes = workload.check(ctx, ref, out)
            if failed:
                print(f"{workload.name} seed {data_seed}: {notes}", file=sys.stderr)
                return 1
            reference[workload.name][str(data_seed)] = ref
            print(f"{workload.name} {data_seed} recorded", file=sys.stderr)
    REFERENCE_PATH.write_text(json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        return record_reference()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        print(json.dumps(probe_setup(WORKLOADS[args.workload], args.seed % REFERENCE_SLOTS)))
        return 0
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
