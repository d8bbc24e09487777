"""Exact Bayesian simulator for number-basis measurement of diagonal states.

A diagonal state stays diagonal under the Gaussian number measurement of
`gravibar.measurement`, and its populations then follow Bayes' rule on the
readout record. Per step, r = n + sqrt(t_m/dt) * xi with n the (fixed) true
level, and the squared Kraus weight exp(-dt (r - n)^2 / (2 t_m)) makes the
posterior after time t depend on the record only through the integrated
readout S = sum(r) dt = n t + sqrt(t_m) W(t):

    p_n(t) ∝ p_n(0) exp((2 n S - n^2 t) / (2 t_m)).

This is exact for any dt (no time-discretization error), and it samples
readouts from the exact POVM: a level drawn once by the Born rule, then
r = n + sigma xi. The engine's population stretches sample the same law;
this module computes it in independent code, sharing none with the engine,
so it is an independent oracle for the engine.
"""

from __future__ import annotations

import numpy as np


def log_weights(logp0: np.ndarray, s: np.ndarray, t: float, t_m: float) -> np.ndarray:
    """Unnormalized log posterior (..., dim) from log p0 and integrated readout s."""
    n = np.arange(logp0.shape[-1], dtype=float)
    return logp0 + (2.0 * n * s[..., None] - n**2 * t) / (2.0 * t_m)


def posterior(p0: np.ndarray, s: np.ndarray, t: float, t_m: float) -> np.ndarray:
    """Populations (..., dim) after time t with integrated readout s (...)."""
    logw = log_weights(np.log(p0), np.asarray(s, dtype=float), t, t_m)
    w = np.exp(logw - logw.max(axis=-1, keepdims=True))
    return w / w.sum(axis=-1, keepdims=True)


def simulate(
    p0s: np.ndarray,
    dt: float,
    t_m: float,
    n_steps: int,
    threshold: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Run one measurement-only trajectory per row of `p0s` (n_traj, dim).

    Returns the integrated readouts S after n_steps steps (n_traj,) and each
    trajectory's first time k*dt (k = 1..n_steps) at which its largest
    population reached `threshold` (NaN if never). Trajectories that have
    crossed keep accumulating S but drop out of the posterior evaluation.
    """
    n_traj, dim = p0s.shape
    levels = (rng.random(n_traj)[:, None] > np.cumsum(p0s, axis=1)).sum(axis=1)
    levels = np.minimum(levels, dim - 1)  # cumsum roundoff below 1
    s = np.zeros(n_traj)
    first = np.full(n_traj, np.nan)
    live = np.arange(n_traj)
    logp0 = np.log(p0s)
    for k in range(1, n_steps + 1):
        s += levels * dt + np.sqrt(t_m * dt) * rng.standard_normal(n_traj)
        logw = log_weights(logp0, s[live], k * dt, t_m)
        # largest population >= threshold  <=>  sum_n w_n / max_n w_n <= 1/threshold
        ratio = np.exp(logw - logw.max(axis=1, keepdims=True)).sum(axis=1)
        done = ratio <= 1.0 / threshold
        if done.any():
            first[live[done]] = k * dt
            live, logp0 = live[~done], logp0[~done]
    return s, first
