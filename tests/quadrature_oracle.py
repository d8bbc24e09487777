"""Nested composite Simpson quadrature of hddot(s)*exp(i*omega*s).

The uniform grid has at least 20 samples per cycle of the fastest
frequency in the window, and is doubled until the modulus changes by less
than `tol` relative. The doublings are nested: the sums over the end,
old-interior and new-midpoint nodes are kept, and each refinement evaluates
the strain only at its new midpoints, so every node is evaluated once
(n + 1 evaluations in all for a final grid of n intervals). It shares no
code with the panel Gauss-Legendre rule of
`gravibar.dynamics.oscillatory_integral`, and is the reference for it on
analytic signals.
"""

from __future__ import annotations

import math

import numpy as np

from gravibar.dynamics import QuadratureConvergenceError
from gravibar.waveform import (
    ChirpSource,
    MonochromaticWave,
    StrainSignal,
    chirp_frequency,
    strain_samples,
)


def max_signal_frequency(signal: StrainSignal, window: tuple[float, float]) -> float:
    """Fastest angular frequency of an analytic signal within the window."""
    if isinstance(signal, MonochromaticWave):
        return signal.nu
    if isinstance(signal, ChirpSource):
        t1 = min(window[1], signal.coalescence * (1.0 - 1e-12))
        return float(chirp_frequency(signal.nu0, signal.k, max(t1, 0.0)))
    raise TypeError(f"not an analytic strain signal: {signal!r}")


def simpson_integral(
    signal: StrainSignal,
    omega: float,
    window: tuple[float, float],
    *,
    tol: float = 1e-6,
    max_nodes: int = 2**23,
) -> complex:
    """Integral of hddot(s)*exp(i*omega*s) over the window by nested Simpson."""
    t0, t1 = window
    if t1 <= t0:
        return 0.0 + 0.0j
    f_max = max(abs(omega), max_signal_frequency(signal, window))
    n = int(np.ceil((t1 - t0) * f_max / (2.0 * math.pi) * 20.0))
    n = max(n + (n % 2), 8)

    def integrand(s: np.ndarray) -> np.ndarray:
        _, hddot = strain_samples(signal, s)
        return hddot * np.exp(1j * omega * s)

    nodes = integrand(np.linspace(t0, t1, n + 1))
    ends = nodes[0] + nodes[-1]
    odd = nodes[1:-1:2].sum()
    even = nodes[2:-1:2].sum()
    estimate = complex((t1 - t0) / n / 3.0 * (ends + 4.0 * odd + 2.0 * even))
    while True:
        n *= 2
        if n > max_nodes:
            raise QuadratureConvergenceError(
                f"Simpson quadrature did not reach {tol:.1e} relative "
                f"within {max_nodes} nodes",
                estimate,
            )
        step = (t1 - t0) / n
        even += odd
        odd = integrand(t0 + step * np.arange(1, n, 2)).sum()
        refined = complex(step / 3.0 * (ends + 4.0 * odd + 2.0 * even))
        scale = max(abs(refined), abs(estimate))
        if abs(refined - estimate) <= tol * scale:
            return refined
        estimate = refined
