"""Strain helpers for the tests: one-instant samples, a finite-difference
second derivative and the writer of strain files.

`second_derivative` is the reference for the analytic hddot of
`gravibar.waveform.strain_samples`: a 5-point central stencil on h alone,
sharing no derivative code with it. `save_strain_series` writes the
two-column format `gravibar.waveform.load_strain_series` reads.
"""

from __future__ import annotations

import numpy as np

from gravibar.waveform import SampledStrain, StrainSignal, strain_samples


def sample(signal: StrainSignal, t: float) -> tuple[float, float]:
    """(h, hddot) of `signal` at the one time `t`."""
    h, hddot = strain_samples(signal, np.array([t], dtype=float))
    return float(h[0]), float(hddot[0])


def second_derivative(signal: StrainSignal, t: float, dt: float) -> float:
    """Finite-difference second derivative of h at `t` (5-point stencil)."""
    offs = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * dt
    coef = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / (12.0 * dt**2)
    vals = [sample(signal, t + o)[0] for o in offs]
    return float(np.dot(coef, vals))


def save_strain_series(path: str, series: SampledStrain) -> None:
    """Write a SampledStrain in the two-column format `load_strain_series` reads."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# time_s strain\n")
        for t, h in zip(series.times, series.h):
            fh.write(f"{float(t)!r} {float(h)!r}\n")
