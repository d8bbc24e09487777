"""Finite-difference second derivative of a strain signal.

The reference for the analytic hddot of `gravibar.waveform.strain_sample`:
a 5-point central stencil on h alone, sharing no derivative code with it.
"""

from __future__ import annotations

import numpy as np

from gravibar.waveform import StrainSignal, strain_sample


def second_derivative(signal: StrainSignal, t: float, dt: float) -> float:
    """Finite-difference second derivative of h at `t` (5-point stencil)."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    coef = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dt**2)
    vals = [strain_sample(signal, t + o).h for o in offs]
    return float(np.dot(coef, vals))
