"""Sensitivity references: a curve built one detector at a time, and the
rates whose balance defines the strain floors.

For every grid frequency `sensitivity_rows` constructs the tuned bar
through `DetectorSpec.from_frequency` (L = l pi v_s / omega, mass from the
geometry, every field validated) and evaluates `characteristic_strain` on
it. It is the reference for the closed-form array expression of
`gravibar.sensitivity.sensitivity_curve`.

`characteristic_strain` and `min_strain_monochromatic` are the strains at
which a signal's excitation rate (`stimulated_rate_wavepacket`,
`monochromatic_rate`) equals the thermal rate in its classical-occupation
form (`thermal_rate_classical`).
"""

from __future__ import annotations

import math

import numpy as np

from gravibar.constants import HBAR, K_B
from gravibar.detector import DetectorSpec
from gravibar.sensitivity import characteristic_strain


def sensitivity_rows(template: DetectorSpec, frequencies_hz) -> np.ndarray:
    """(n, 2) rows (frequency_hz, h_c), one tuned detector per row."""
    rows = []
    for f in np.asarray(frequencies_hz, dtype=float):
        spec = DetectorSpec.from_frequency(
            template.material,
            2.0 * math.pi * f,
            radius=template.radius,
            mode_index=template.mode_index,
            quality=template.quality,
            temperature=template.temperature,
        )
        rows.append((float(f), characteristic_strain(spec)))
    return np.array(rows)


def stimulated_rate_wavepacket(spec: DetectorSpec, h0: float) -> float:
    """Golden-rule stimulated rate for a narrow wavepacket around resonance.

    Gamma = h0^2 M v_s^2 / (4 hbar pi^3), using the reduced single-graviton
    volume (c/omega)^3 for the density of states.
    """
    v_s = spec.material.sound_speed
    return h0**2 * spec.mass * v_s**2 / (4.0 * HBAR * math.pi**3)


def monochromatic_rate(spec: DetectorSpec, h0: float, n_cycles: float) -> float:
    """Excitation rate of a strictly monochromatic resonant wave after
    n_cycles cycles: Gamma = h0^2 N_c M v_s^2 / (pi hbar)."""
    v_s = spec.material.sound_speed
    return h0**2 * n_cycles * spec.mass * v_s**2 / (math.pi * HBAR)


def thermal_rate_classical(spec: DetectorSpec) -> float:
    """Thermal excitation rate with the classical occupation k_B T/(hbar omega).

    gamma_th = omega * nbar / Q -> k_B T / (hbar Q); this is the limit in
    which the strain-floor balance identities are exact.
    """
    return K_B * spec.temperature / (HBAR * spec.quality)
