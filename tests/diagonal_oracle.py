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


def born_level(p: np.ndarray, u: float) -> int:
    """The level n* = #{k : p_0 + ... + p_k < u}, summed in order, at most
    dim - 1 (roundoff can leave the sum below u)."""
    total, count = 0.0, 0
    for q in p.tolist():
        total += q
        count += total < u
    return min(count, len(p) - 1)


def stretch_records(
    p0: np.ndarray, level: int, total: float, steps: int, xis: np.ndarray,
    first: int, stride: int, coef: float,
) -> tuple[np.ndarray, np.ndarray, float, int]:
    """One trajectory of a population stretch, alone and in the engine's
    order of operations, for a bit-for-bit check of its block evaluation.

    From the summed readout `total` after `steps` steps, each step of the
    readout noise `xis` (m,) adds xi + level to the sum S. At the record
    steps first, first + stride, ... (0-based) the log posterior over the
    levels n is (S slope_n + j curve_n) + log p0_n, with slope_n =
    -2 coef n and curve_n = coef n^2 at the j-th step of the stretch; its
    maximum is subtracted, it is exponentiated, summed level by level in
    order, and each level divided by the sum. Python floats do the
    scalar arithmetic, so no numpy reduction or layout enters but np.log
    and np.exp. Returns the readouts (k,), the populations (k, dim) and the
    carried (total, steps).
    """
    dim = len(p0)
    log_p0 = np.full(dim, -np.inf)
    log_p0[p0 > 0.0] = np.log(p0[p0 > 0.0])
    slope = [-2.0 * coef * float(n) for n in range(dim)]
    curve = [coef * float(n) * float(n) for n in range(dim)]
    readouts, pops = [], []
    for i, xi in enumerate(xis.tolist()):
        total += xi + level
        if i >= first and (i - first) % stride == 0:
            j = steps + i + 1
            logw = [total * a + b * j + c for a, b, c in zip(slope, curve, log_p0.tolist())]
            top = max(logw)
            w = np.exp(np.array([x - top for x in logw])).tolist()
            norm = w[0]
            for x in w[1:]:
                norm += x
            readouts.append(xi + level)
            pops.append([x / norm for x in w])
    return np.array(readouts), np.array(pops).reshape(-1, dim), total, steps + len(xis)
