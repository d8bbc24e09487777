"""Physical constants and the one rule for numbers, of records and of arguments.

All quantities are SI. The constants are the single source of truth for
every module in the package; CODATA 2018 values are used throughout.

Every input record checks its fields, and every public function (passing
its `locals()`) its arguments, through `require`: a number must be finite,
then > 0 or >= 0 where asked, and nan fails every test; a count must be an
integer, not a bool, of at least its floor. A closed form that squares a
strain or chi takes its arguments as Python floats, squares by
multiplication, and passes its result through `normal`, which names the
argument that overflowed or underflowed it.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from functools import partial

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


def require(record, error=ValueError, *, positive=(), nonnegative=(), finite=(),
            integer=None) -> None:
    """Raise `error` naming the first listed number of `record`, an object or a
    dict of names to values (a function's `locals()`), that breaks its rule:
    each of `integer` {name: low} an int, not a bool, >= low; then each of
    `positive` > 0, of `nonnegative` >= 0 and of `finite` finite (a complex
    number too). None passes the last three, and an np.ndarray is judged, and
    named, sample by sample."""
    value_of = record.__getitem__ if isinstance(record, dict) else partial(getattr, record)
    for name, low in (integer or {}).items():
        value = value_of(name)
        if not isinstance(value, numbers.Integral) or isinstance(value, bool):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise error(f"{name} must be >= {low}, got {value}")
    for rule, names in (("> 0", positive), (">= 0", nonnegative), ("finite", finite)):
        for name in names:
            value, at = value_of(name), ""
            if isinstance(value, np.ndarray):  # judged by its first failing sample
                keeps = _keeps(value, rule)
                if keeps.all():
                    continue
                first = int(np.argmin(keeps))
                value, at = value.flat[first], f" at sample {first}"
            if value is not None and not _keeps(value, rule):
                rule = rule if cmath.isfinite(value) else "finite"
                raise error(f"{name} must be {rule}, got {value}{at}")


def normal(value: float, what: str, name: str, arg: float) -> float:
    """`value`, the `what` of the argument `name` = `arg`, or ValueError naming
    the argument where `value` is not a normal float: infinite, nan, or below
    the smallest normal float, 0 included unless `arg` is 0 itself."""
    if not (sys.float_info.min <= value < math.inf or value == 0.0 == arg):
        raise ValueError(f"{name} must keep the {what} a normal float, got {arg}")
    return value


def _keeps(value, rule: str):
    """Whether a number, or each sample of an array, keeps `rule`."""
    holds = np.isfinite(value) if isinstance(value, np.ndarray) else cmath.isfinite(value)
    return holds if rule == "finite" else holds & (value > 0.0 if rule == "> 0" else value >= 0.0)
