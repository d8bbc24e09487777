"""Sensitivity bookkeeping: graviton counts, golden-rule rates, strain floors.

Links the semiclassical rates to the quantum picture (stimulated absorption
of single gravitons from a coherent wave) and converts detector parameters
into characteristic strain sensitivities comparable across bar designs.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import G, C_LIGHT, HBAR, K_B, normal, require
from .detector import DetectorSpec, DetectorSpecError, gamma_spontaneous


def graviton_number(h0: float, nu: float) -> float:
    """Number of gravitons in a wave of strain h0 at angular frequency nu.

    N = h0^2 c^5 / (32 pi G hbar nu^2): the wave's energy density divided by
    that of one quantum of energy hbar*nu in a box of size c/nu.
    """
    require(locals(), positive=("h0", "nu"))
    h0, nu = float(h0), float(nu)
    return normal(h0 * (h0 * (C_LIGHT**5 / (32.0 * math.pi * G * HBAR * (nu * nu)))),
                  "graviton number", "h0", h0)


def golden_rule_stimulated(spec: DetectorSpec, n_gravitons: float) -> float:
    """Stimulated absorption rate for a coherent wave of n_gravitons quanta.

    Gamma = (n/l^4) * 8 G M L^2 omega_l^4 / (pi^4 c^5); with n = 1 this is
    the spontaneous coefficient, and with n = graviton_number(h0, omega_l)
    it reproduces the classical-field stimulated rate.
    """
    require(locals(), nonnegative=("n_gravitons",))
    return n_gravitons * gamma_spontaneous(spec)


def characteristic_strain(spec: DetectorSpec) -> float:
    """Minimum detectable wavepacket strain h_c = 2 pi sqrt(pi k_B T/(M v_s^2 Q)).

    Defined by balancing the wavepacket stimulated rate against the thermal
    excitation rate (with classical occupation).
    """
    v_s = spec.material.sound_speed
    return 2.0 * math.pi * math.sqrt(
        math.pi * K_B * spec.temperature / (spec.mass * v_s**2 * spec.quality)
    )


def min_strain_monochromatic(spec: DetectorSpec, n_cycles: float) -> float:
    """Minimum detectable strain of a strictly monochromatic wave.

    h0 = sqrt(pi k_B T / (M v_s^2 Q N_c)); relates to the characteristic
    strain via h_c = 2 pi h0 sqrt(N_c).
    """
    if not n_cycles >= 1.0:
        raise ValueError(f"n_cycles must be >= 1, got {n_cycles}")
    require(locals(), finite=("n_cycles",))
    v_s = spec.material.sound_speed
    return math.sqrt(
        math.pi * K_B * spec.temperature
        / (spec.mass * v_s**2 * spec.quality * n_cycles)
    )


def classical_timedelay(spec: DetectorSpec, h0: float, omega: float) -> float:
    """Time for a classical wave to deposit one quantum through the bar's
    cross-section.

    The wave's energy density is E = (c^2/(32 pi G)) omega^2 h0^2, its flux
    j = c E / 4; the timescale is hbar*omega / (j * pi R^2). Resolving a
    quantum jump faster than this would rule out continuous classical
    energy transfer.
    """
    require(locals(), positive=("h0", "omega"))
    h0, omega = float(h0), float(omega)
    energy_density = C_LIGHT**2 / (32.0 * math.pi * G) * (omega * omega)  # per h0^2
    flux = C_LIGHT / 4.0 * energy_density
    area = math.pi * spec.radius**2
    return normal(HBAR * omega / (flux * area) / h0 / h0, "time delay", "h0", h0)


def sensitivity_curve(template: DetectorSpec, frequencies_hz) -> np.ndarray:
    """Characteristic strain across a frequency grid at fixed material, R, Q, T.

    At each frequency the bar length follows from L = l pi v_s / omega and
    the mass from the geometry, M = rho pi R^2 L, so the curve reflects a
    family of detectors of the template's material and radius tuned across
    the band. Returns an (n, 2) array of rows (frequency_hz, h_c).
    """
    frequencies_hz = np.asarray(frequencies_hz, dtype=float)
    if frequencies_hz.ndim != 1 or frequencies_hz.size < 1:
        raise ValueError("frequency grid must be a non-empty 1-D array")
    if np.any(np.diff(frequencies_hz) <= 0.0) and frequencies_hz.size > 1:
        raise ValueError("frequency grid must be ascending")
    require({"frequency": frequencies_hz}, DetectorSpecError, positive=("frequency",))
    v_s = template.material.sound_speed
    length = template.mode_index * math.pi * v_s / (2.0 * math.pi * frequencies_hz)
    mass = template.material.density * math.pi * template.radius**2 * length
    h_c = 2.0 * math.pi * np.sqrt(
        math.pi * K_B * template.temperature / (mass * v_s**2 * template.quality)
    )
    if not (h_c > 0.0).all():
        raise ValueError(f"h_c must be > 0, got {h_c.min()}")
    return np.column_stack((frequencies_hz, h_c))


__all__ = [
    "characteristic_strain",
    "classical_timedelay",
    "golden_rule_stimulated",
    "graviton_number",
    "min_strain_monochromatic",
    "sensitivity_curve",
]
