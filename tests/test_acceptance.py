"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timing.
"""

import time

import numpy as np

from mcckf.bench import build_example1, run_conditioning_sweep
from mcckf.cli import main
from mcckf.correntropy import KernelSpec, compute_lambda
from mcckf.filters import (
    FilterState,
    mcckf_measurement_update,
    mcckf_time_update,
    run_filter,
    sr1a_measurement_update,
    sr1b_measurement_update,
    sr_time_update,
)
from mcckf.linalg import (
    cholesky_lower,
    lower_triangularize,
    triangular_inverse,
    triangular_solve,
)
from mcckf.sim import SeedSpec, simulate
from oracles import gain_information_form, gain_innovation_form

MCC_ALGORITHMS = ("conventional", "sr1a", "sr1b")


def _report(name, checks):
    failing = [key for key, ok in checks.items() if not ok]
    print(f"[{'PASS' if not failing else 'FAIL'}] {name}"
          + (f" -- failing: {failing}" if failing else ""))
    assert not failing, f"{name}: failing checks {failing}"


def random_spd(rng, dim, cond):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = np.logspace(0.0, -np.log10(cond), dim)
    return q @ np.diag(eigs) @ q.T


def test_criterion_1_algebraic_equivalence():
    """Shared-seed Monte Carlo: the three algorithms coincide."""
    model, init, shot = build_example1()
    spec = KernelSpec(3e4)
    runs, horizon, n = 100, 300, 6
    sq_sum = {a: np.zeros((horizon, n)) for a in MCC_ALGORITHMS}
    max_estimate_diff = 0.0
    t0 = time.time()
    for run_index in range(runs):
        trajectory = simulate(model, init, horizon, SeedSpec(1, run_index), shot)
        estimates = {}
        for algorithm in MCC_ALGORITHMS:
            run = run_filter(algorithm, model, init, trajectory.measurements, spec)
            assert run.status.completed, f"{algorithm} diverged in run {run_index}"
            estimates[algorithm] = run.estimates()
            err = trajectory.truth - estimates[algorithm]
            sq_sum[algorithm] += err * err
        for i, a in enumerate(MCC_ALGORITHMS):
            for b in MCC_ALGORITHMS[i + 1 :]:
                max_estimate_diff = max(
                    max_estimate_diff, float(np.abs(estimates[a] - estimates[b]).max())
                )
    elapsed = time.time() - t0
    totals = {
        a: np.sqrt((sq_sum[a] / runs).sum(axis=1)) for a in MCC_ALGORITHMS
    }
    max_curve_rel = 0.0
    for i, a in enumerate(MCC_ALGORITHMS):
        for b in MCC_ALGORITHMS[i + 1 :]:
            scale = np.maximum(np.maximum(totals[a], totals[b]), 1e-300)
            max_curve_rel = max(max_curve_rel, float((np.abs(totals[a] - totals[b]) / scale).max()))
    print(
        f"criterion 1: M={runs}, N={horizon}, curve rel diff {max_curve_rel:.3e}, "
        f"estimate abs diff {max_estimate_diff:.3e}, elapsed {elapsed:.1f}s"
    )
    _report(
        "criterion 1: algebraic equivalence of the three algorithms",
        {
            "total RMSE curves coincide within relative 1e-6": max_curve_rel < 1e-6,
            "per-step estimates agree within absolute 1e-6": max_estimate_diff < 1e-6,
        },
    )


def test_criterion_2_breakdown_ordering():
    """Ill-conditioning sweep: robust square-root form breaks last."""
    t0 = time.time()
    deltas = [10.0**-e for e in range(1, 15)]
    report = run_conditioning_sweep(
        MCC_ALGORITHMS, deltas, 20, 7, KernelSpec(float("inf"))
    )
    elapsed = time.time() - t0
    blown = {(e.delta, e.algorithm): e.blown_up for e in report.entries}
    breakdown = report.breakdown_delta
    print(f"criterion 2: breakdown deltas {breakdown}, elapsed {elapsed:.1f}s")

    def strictly_later(first, second):
        # second breaks at a strictly smaller delta than first (None = never)
        if second is None:
            return first is not None or second is None
        return first is not None and second < first

    _report(
        "criterion 2: breakdown ordering under ill-conditioning",
        {
            "sr1b breaks strictly later than conventional": strictly_later(
                breakdown["conventional"], breakdown["sr1b"]
            ),
            "sr1b breaks strictly later than sr1a": strictly_later(
                breakdown["sr1a"], breakdown["sr1b"]
            ),
            "sr1b healthy at delta 1e-11": not blown[(1e-11, "sr1b")],
            "conventional blown up at delta 1e-6": blown[(1e-6, "conventional")],
            "sr1a blown up at delta 1e-5": blown[(1e-5, "sr1a")],
        },
    )


def test_criterion_3_classical_kf_reduction():
    """Weight pinned to one reduces every variant to the reference filter."""
    model, init, _ = build_example1()
    trajectory = simulate(model, init, 300, SeedSpec(19, 0), None)
    reference = run_filter("kf_reference", model, init, trajectory.measurements)
    assert reference.status.completed
    ref = reference.estimates()
    scale = np.maximum(1.0, np.abs(ref))
    checks = {}
    for algorithm in MCC_ALGORITHMS:
        run = run_filter(algorithm, model, init, trajectory.measurements, pin_weight=1.0)
        worst = float((np.abs(run.estimates() - ref) / scale).max())
        checks[f"{algorithm} matches reference within 1e-10 (got {worst:.2e})"] = (
            worst < 1e-10
        )
    # the large-bandwidth route drives the weight to one as well
    big_sigma = run_filter(
        "sr1b", model, init, trajectory.measurements, KernelSpec(1e12)
    )
    assert all(rep.lam > 1.0 - 1e-12 for rep in big_sigma.reports)
    worst = float((np.abs(big_sigma.estimates() - ref) / scale).max())
    checks[f"sigma=1e12 route matches reference (got {worst:.2e})"] = worst < 1e-10
    _report("criterion 3: classical filter reduction at weight one", checks)


def test_criterion_4_gain_formula_equivalence():
    """Information-form and innovation-form gains agree on random instances."""
    rng = np.random.default_rng(523)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 4))
        p = random_spd(rng, n, 10.0 ** rng.uniform(0, 3))
        h = rng.standard_normal((m, n))
        r = random_spd(rng, m, 10.0 ** rng.uniform(0, 2))
        for lam in (0.0, 0.3, 1.0):
            ka = gain_information_form(p, h, r, lam)
            kb = gain_innovation_form(p, h, r, lam)
            if lam == 0.0:
                assert not ka.any() and not kb.any()
                continue
            scale = max(np.linalg.norm(ka), np.linalg.norm(kb), 1e-300)
            worst = max(worst, float(np.linalg.norm(ka - kb) / scale))
    print(f"criterion 4: worst relative gain difference {worst:.3e}")
    _report(
        "criterion 4: gain-formula equivalence",
        {"1000 random instances agree within relative 1e-8": worst < 1e-8},
    )


def test_criterion_5_factorization_properties():
    """Cholesky reconstruction, Gram preservation, solve round-trips."""
    rng = np.random.default_rng(811)
    worst_chol = worst_gram = worst_solve = 0.0
    for _ in range(1000):
        dim = int(rng.integers(1, 11))
        a = random_spd(rng, dim, 10.0 ** rng.uniform(0, 6))
        l = cholesky_lower(a)
        worst_chol = max(
            worst_chol, float(np.linalg.norm(l @ l.T - a) / np.linalg.norm(a))
        )
        b = rng.standard_normal(dim)
        x = triangular_solve(l, b)
        worst_solve = max(
            worst_solve,
            float(np.linalg.norm(l @ x - b) / max(np.linalg.norm(b), 1e-300)),
        )
    for _ in range(1000):
        rows = int(rng.integers(1, 8))
        cols = int(rng.integers(rows, rows + 9))
        pre = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-2, 3)
        x = lower_triangularize(pre)
        gram = pre @ pre.T
        worst_gram = max(
            worst_gram,
            float(np.linalg.norm(x @ x.T - gram) / max(np.linalg.norm(gram), 1e-300)),
        )
    print(
        f"criterion 5: cholesky {worst_chol:.3e}, gram {worst_gram:.3e}, "
        f"solve {worst_solve:.3e}"
    )
    _report(
        "criterion 5: factorization property suite",
        {
            "cholesky reconstruction < 1e-12": worst_chol < 1e-12,
            "gram preservation < 1e-12": worst_gram < 1e-12,
            "solve residual < 1e-12": worst_solve < 1e-12,
        },
    )


def test_criterion_6_weight_properties():
    """Adjusting-weight range, extremes, and full-rejection behavior."""
    rng = np.random.default_rng(4031)
    spec = KernelSpec(0.9)
    in_range = True
    for _ in range(500):
        dim = int(rng.integers(1, 4))
        lam = compute_lambda(
            spec,
            rng.standard_normal(dim) * 10.0 ** rng.integers(-2, 3),
            triangular_inverse(cholesky_lower(random_spd(rng, dim, 50.0))),
        )
        in_range &= 0.0 <= lam <= 1.0
    one_at_zero = compute_lambda(spec, np.zeros(2), np.eye(2)) == 1.0
    below_one = compute_lambda(spec, np.array([0.1, 0.0]), np.eye(2)) < 1.0

    # zero weight rejects the measurement identically in all three algorithms
    model, init, _ = build_example1()
    pred_full = mcckf_time_update(model, FilterState.full(0, init.mean, init.covariance))
    pred_sr = sr_time_update(
        model, FilterState.square_root(0, init.mean, cholesky_lower(init.covariance))
    )
    y = np.array([123.0, 0.4])
    identity_updates = True
    zero_gains = True
    for update, pred in (
        (mcckf_measurement_update, pred_full),
        (sr1a_measurement_update, pred_sr),
        (sr1b_measurement_update, pred_sr),
    ):
        state, rep = update(model, pred, y, None, pin_weight=0.0)
        zero_gains &= not rep.gain.any()
        identity_updates &= np.array_equal(state.estimate, pred.estimate)
        identity_updates &= np.allclose(
            state.covariance_matrix(), pred.covariance_matrix(), rtol=1e-15
        )
    _report(
        "criterion 6: correntropy weight properties",
        {
            "weight in [0, 1]": in_range,
            "weight is 1 at zero innovation": one_at_zero,
            "weight below 1 for nonzero innovation": below_one,
            "zero weight yields zero gain in all three algorithms": zero_gains,
            "zero weight is an identity measurement update": identity_updates,
        },
    )


def test_criterion_7_shot_noise_statistics():
    """Outlier counts, magnitudes and placement over 100 seeded trajectories."""
    model, init, shot = build_example1()
    counts_ok = magnitudes_ok = window_ok = True
    for run_index in range(100):
        trajectory = simulate(model, init, 300, SeedSpec(101, run_index), shot)
        w_steps = {s for s, ch, _ in trajectory.outlier_log if ch.startswith("w")}
        v_steps = {s for s, ch, _ in trajectory.outlier_log if ch.startswith("v")}
        counts_ok &= len(w_steps) == 56 and len(v_steps) == 56
        magnitudes_ok &= all(m in range(0, 6) for _, _, m in trajectory.outlier_log)
        window_ok &= all(21 <= s <= 300 for s in w_steps | v_steps)
    _report(
        "criterion 7: shot-noise statistics",
        {
            "exactly round(0.20 * 280) = 56 corrupted steps per channel group": counts_ok,
            "all magnitudes in {0..5}": magnitudes_ok,
            "corruption confined to steps 21..300": window_ok,
        },
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Identical seed and config give byte-identical CSV output."""
    commands = {
        "simulate": ["simulate", "--seed", "5"],
        "example1": [
            "example1", "--seed", "5", "--algorithms", "sr1b",
            "--set", "monte_carlo.runs=2", "--set", "monte_carlo.horizon=30",
        ],
        "sweep": [
            "sweep", "--seed", "5", "--runs", "2",
            "--set", "sweep.deltas=1e-1", "--set", "monte_carlo.horizon=30",
        ],
        "equivalence": [
            "equivalence", "--seed", "5",
            "--set", "monte_carlo.runs=2", "--set", "monte_carlo.horizon=30",
        ],
    }
    checks = {}
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a"
        out_b = tmp_path / f"{name}_b"
        code_a = main([*argv, "--out", str(out_a)])
        code_b = main([*argv, "--out", str(out_b)])
        identical = code_a == code_b and sorted(
            p.name for p in out_a.iterdir()
        ) == sorted(p.name for p in out_b.iterdir())
        if identical:
            for file_a in out_a.iterdir():
                identical &= file_a.read_bytes() == (out_b / file_a.name).read_bytes()
        checks[f"{name} output byte-identical"] = identical
    _report("criterion 8: CLI determinism", checks)
