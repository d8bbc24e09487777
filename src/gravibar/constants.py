"""Physical constants and the one rule for the numbers of an input record.

All quantities are SI. The constants are the single source of truth for
every module in the package; CODATA 2018 values are used throughout.

Every input record checks its real-valued fields through `require`: a
number must be finite, then > 0 or >= 0 where the record asks, and nan
fails every test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants used by the rate and dynamics formulas.

    Attributes
    ----------
    G : float
        Newtonian gravitational constant [m^3 kg^-1 s^-2].
    c : float
        Speed of light in vacuum [m/s].
    hbar : float
        Reduced Planck constant [J s].
    k_B : float
        Boltzmann constant [J/K].
    """

    G: float = 6.67430e-11
    c: float = 2.99792458e8
    hbar: float = 1.054571817e-34
    k_B: float = 1.380649e-23


CONSTANTS = PhysicalConstants()

G = CONSTANTS.G
C_LIGHT = CONSTANTS.c
HBAR = CONSTANTS.hbar
K_B = CONSTANTS.k_B

# Solar mass [kg], used to express binary chirp masses.
SOLAR_MASS = 1.989e30


def require(record, error=ValueError, *, positive=(), nonnegative=(), finite=()) -> None:
    """Raise `error` naming the first listed field of `record` that is not
    finite, or not > 0 (`positive`) or >= 0 (`nonnegative`). None passes; an
    np.ndarray (under `finite`) is checked, and named, sample by sample."""
    for name in (*positive, *nonnegative):
        value = getattr(record, name)
        if not (value is None or 0.0 < value < math.inf or value == 0.0 and name in nonnegative):
            rule = (">= 0" if name in nonnegative else "> 0") if math.isfinite(value) else "finite"
            raise error(f"{name} must be {rule}, got {value}")
    for name in finite:
        value = getattr(record, name)
        if isinstance(value, np.ndarray):
            bad = np.flatnonzero(~np.isfinite(value))
            if bad.size:
                raise error(f"{name} must be finite, got {value.flat[bad[0]]} at sample {bad[0]}")
        elif not (value is None or -math.inf < value < math.inf):
            raise error(f"{name} must be finite, got {value}")
