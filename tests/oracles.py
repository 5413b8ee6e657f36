"""Dense reference formulas used as test oracles: the weighted gain and the
condition number."""

import numpy as np


def gain_information_form(p, h, r, lam: float) -> np.ndarray:
    """Dense gain lam * (P^{-1} + lam H^T R^{-1} H)^{-1} H^T R^{-1}."""
    p = np.asarray(p, dtype=float)
    r_inv = np.linalg.inv(np.asarray(r, dtype=float))
    h = np.asarray(h, dtype=float)
    info = np.linalg.inv(p) + lam * (h.T @ r_inv @ h)
    return lam * np.linalg.solve(info, h.T @ r_inv)


def gain_innovation_form(p, h, r, lam: float) -> np.ndarray:
    """Dense gain lam * P H^T (lam H P H^T + R)^{-1}."""
    p = np.asarray(p, dtype=float)
    h = np.asarray(h, dtype=float)
    innov_cov = lam * (h @ p @ h.T) + np.asarray(r, dtype=float)
    return lam * np.linalg.solve(innov_cov.T, h @ p.T).T


def condition_estimate(m: np.ndarray) -> float:
    """2-norm condition number of a square matrix; +inf when singular
    or non-finite."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        return float("inf")
    try:
        c = float(np.linalg.cond(m, 2))
    except np.linalg.LinAlgError:
        return float("inf")
    return float("inf") if np.isnan(c) else c
