"""Reference number measurement: the Gaussian measurement operator as a
dense matrix and the readout drawn from a density matrix.

The engine in `gravibar.measurement` never forms M(r); it weights factors
and populations by its diagonal. These are the textbook forms it is
checked against, applied through `fock_oracle.apply_normalized`.
"""

from __future__ import annotations

import math

import numpy as np
from fock_oracle import expect_number


def measurement_operator(r: float, dt: float, t_m: float, dim: int) -> np.ndarray:
    """Gaussian number-basis measurement operator for readout value r.

    Diagonal with entries (2 pi t_m/dt)^(-1/4) exp(-dt (r-n)^2/(4 t_m));
    the POVM integral of M^dag M over r is the identity.
    """
    if not np.isfinite(r):
        raise ValueError(f"readout must be finite, got {r}")
    ns = np.arange(dim, dtype=float)
    entries = (2.0 * math.pi * t_m / dt) ** (-0.25) * np.exp(
        -dt * (r - ns) ** 2 / (4.0 * t_m)
    )
    return np.diag(entries).astype(complex)


def sample_readout(state, dt: float, t_m: float, rng: np.random.Generator) -> float:
    """Draw one readout r = tr(N rho) + sqrt(t_m/dt) * xi, xi standard normal."""
    mean = expect_number(state)
    return mean + math.sqrt(t_m / dt) * rng.standard_normal()
