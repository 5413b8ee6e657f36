"""Dense reference formulas for the weighted gain, used as test oracles."""

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
