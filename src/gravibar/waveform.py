"""Gravitational-wave drive signals.

Three strain models are supported: a monochromatic wave, a binary-inspiral
chirp, and a sampled strain series loaded from disk. Every signal exposes
h(t) together with its second time derivative, which is what drives the
resonator mode. Angular frequencies are in rad/s, times in seconds, strain
is dimensionless.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .constants import G, C_LIGHT, SOLAR_MASS, require


class StrainFormatError(ValueError):
    """Raised for malformed or non-uniform strain series files."""


class ChirpDomainError(ValueError):
    """Raised when a chirp is evaluated at or beyond coalescence."""


def chirp_rate_k(chirp_mass: float) -> float:
    """Chirp rate constant k = (48/5) * (G*M_c/(2 c^3))^(5/3).

    The instantaneous angular frequency of the emitted wave obeys
    dnu/dt = k * nu^(11/3); `chirp_mass` is in kg.
    """
    require(locals(), positive=("chirp_mass",))
    return (48.0 / 5.0) * (G * chirp_mass / (2.0 * C_LIGHT**3)) ** (5.0 / 3.0)


def coalescence_time(nu0: float, k: float) -> float:
    """Time at which the frequency of a chirp starting at nu0 diverges."""
    require(locals(), positive=("nu0", "k"))
    return 3.0 / (8.0 * k * nu0 ** (8.0 / 3.0))


def _chirp_log(nu0: float, k: float, t) -> np.ndarray:
    """The chirp's clock L = log(1 - eps), eps = (8/3) k nu0^(8/3) t = t/t_c.

    Raises ChirpDomainError at or after coalescence, where t >= t_c or eps >= 1
    (next to t_c, rounding can make the two disagree).
    """
    t = np.asarray(t, dtype=float)
    t_c = coalescence_time(nu0, k)
    rate = (8.0 / 3.0) * k * nu0 ** (8.0 / 3.0)
    t_last = np.max(t, initial=-np.inf)
    if t_last >= t_c or rate * t_last >= 1.0:
        raise ChirpDomainError(f"chirp evaluated at/after coalescence t_c = {t_c:.6g} s")
    return np.log1p(-rate * t)


def chirp_frequency(nu0: float, k: float, t):
    """Instantaneous angular frequency nu(t) = (nu0^(-8/3) - (8/3) k t)^(-3/8).

    Accepts scalar or array `t` (k > 0); raises ChirpDomainError at/after t_c.
    """
    out = nu0 * np.exp(-0.375 * _chirp_log(nu0, k, t))
    return float(out) if out.ndim == 0 else out


def chirp_phase(nu0: float, k: float, t):
    """Accumulated phase phi(t) = (3/(5k)) (nu0^(-5/3) - nu(t)^(-5/3)), phi(0)=0.

    Evaluated in a cancellation-free form, nu(t)^(-5/3) = nu0^(-5/3) e^(5L/8),
    so the constant-frequency limit k -> 0 recovers nu0*t to machine precision.
    """
    if k == 0.0:
        out = nu0 * np.asarray(t, dtype=float)
    else:
        scale = (3.0 / (5.0 * k)) * nu0 ** (-5.0 / 3.0)
        out = scale * -np.expm1(0.625 * _chirp_log(nu0, k, t))
    return float(out) if out.ndim == 0 else out


def resonance_crossing_time(k: float, omega: float) -> float:
    """Duration tau = 2*sqrt(2/k)*omega^(-11/6) the chirp spends on resonance."""
    require(locals(), positive=("k", "omega"))
    return 2.0 * math.sqrt(2.0 / k) * omega ** (-11.0 / 6.0)


def resonance_time(nu0: float, k: float, omega: float) -> float:
    """Time at which the chirp frequency reaches `omega`.

    Closed-form inversion of the frequency evolution. Raises
    ChirpDomainError when omega < nu0 (the sweep starts above resonance).
    """
    require(locals(), positive=("nu0", "k", "omega"))
    if omega < nu0:
        raise ChirpDomainError(
            f"resonance omega = {omega:.6g} rad/s is below the initial "
            f"frequency nu0 = {nu0:.6g} rad/s"
        )
    return (3.0 / (8.0 * k)) * (nu0 ** (-8.0 / 3.0) - omega ** (-8.0 / 3.0))


@dataclass(frozen=True)
class MonochromaticWave:
    """h(t) = h0 * sin(nu*t + phi0), supported for all t."""

    h0: float
    nu: float
    phi0: float = 0.0

    def __post_init__(self) -> None:
        require(self, positive=("nu",), nonnegative=("h0",), finite=("phi0",))


@dataclass(frozen=True)
class ChirpSource:
    """Binary-inspiral chirp h(t) = A(t)*sin(phi(t)) for t in [0, t_c).

    `h0` is the amplitude at resonance. With the default constant amplitude
    model A(t) = h0 everywhere. The "nu_two_thirds" model scales
    A(t) = h0 * (nu(t)/amplitude_ref)^(2/3); set `amplitude_ref` to the
    detector resonance so that the amplitude is h0 there (defaults to nu0).

    Attributes
    ----------
    chirp_mass : float
        Binary chirp mass [kg]; see `from_solar_masses`.
    h0 : float
        Strain amplitude at resonance.
    nu0 : float
        Initial angular frequency of the wave [rad/s].
    amplitude_model : str
        "constant" or "nu_two_thirds".
    amplitude_ref : float or None
        Reference angular frequency for the two-thirds model [rad/s].
    """

    chirp_mass: float
    h0: float
    nu0: float
    amplitude_model: str = "constant"
    amplitude_ref: float | None = None

    def __post_init__(self) -> None:
        require(self, positive=("chirp_mass", "nu0", "amplitude_ref"), nonnegative=("h0",))
        if self.amplitude_model not in ("constant", "nu_two_thirds"):
            raise ValueError(
                f"amplitude_model must be 'constant' or 'nu_two_thirds', "
                f"got {self.amplitude_model!r}"
            )

    @classmethod
    def from_solar_masses(cls, chirp_mass_msun: float, **kwargs) -> "ChirpSource":
        return cls(chirp_mass=chirp_mass_msun * SOLAR_MASS, **kwargs)

    @property
    def k(self) -> float:
        return chirp_rate_k(self.chirp_mass)

    @property
    def coalescence(self) -> float:
        return coalescence_time(self.nu0, self.k)

    def amplitude(self, t):
        """Strain envelope A(t) for times inside the support."""
        if self.amplitude_model == "constant":
            return np.broadcast_to(self.h0, np.shape(t)).astype(float) if np.ndim(t) else self.h0
        ref = self.amplitude_ref if self.amplitude_ref is not None else self.nu0
        return self.h0 * (chirp_frequency(self.nu0, self.k, t) / ref) ** (2.0 / 3.0)


@dataclass(frozen=True)
class SampledStrain:
    """Uniformly sampled strain series, zero outside its support.

    Attributes
    ----------
    t0 : float
        Time of the first sample [s].
    dt : float
        Sample spacing [s].
    h : np.ndarray
        Strain samples; at least 3 are required so second differences exist.
    """

    t0: float
    dt: float
    h: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "h", np.asarray(self.h, dtype=float))
        require(self, positive=("dt",), finite=("t0", "h"))
        if self.h.ndim != 1 or self.h.size < 3:
            raise ValueError("need at least 3 strain samples")

    @property
    def t_end(self) -> float:
        return self.t0 + (self.h.size - 1) * self.dt

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.h.size)

    @cached_property
    def hddot_samples(self) -> np.ndarray:
        """Second differences of the samples; one-sided at the edges."""
        h, dt2 = self.h, self.dt**2
        out = np.empty_like(h)
        out[1:-1] = (h[:-2] - 2.0 * h[1:-1] + h[2:]) / dt2
        if h.size >= 4:
            out[0] = (2.0 * h[0] - 5.0 * h[1] + 4.0 * h[2] - h[3]) / dt2
            out[-1] = (2.0 * h[-1] - 5.0 * h[-2] + 4.0 * h[-3] - h[-4]) / dt2
        else:
            out[0] = out[1]
            out[-1] = out[1]
        return out


StrainSignal = Union[MonochromaticWave, ChirpSource, SampledStrain]


def strain_samples(signal: StrainSignal, ts: np.ndarray):
    """Evaluate `(h, hddot)` of a signal at an array of times.

    Returns the arrays (h, hddot), both 0 outside the signal's support. For
    the chirp the second derivative uses the locally-monochromatic form
    hddot = -nu(t)^2 h(t); the tests check it against a finite-difference
    derivative (`tests/strain_oracle.py`).
    """
    ts = np.asarray(ts, dtype=float)
    if isinstance(signal, MonochromaticWave):
        h = signal.h0 * np.sin(signal.nu * ts + signal.phi0)
        return h, -signal.nu**2 * h
    if isinstance(signal, ChirpSource):
        ok = (ts >= 0.0) & (ts < signal.coalescence)
        if ok.all():
            return _chirp_samples(signal, ts)
        h = np.zeros(ts.shape)
        hddot = np.zeros(ts.shape)
        if ok.any():
            h[ok], hddot[ok] = _chirp_samples(signal, ts[ok])
        return h, hddot
    if isinstance(signal, SampledStrain):
        return tuple(np.interp(ts, signal.times, samples, left=0.0, right=0.0)
                     for samples in (signal.h, signal.hddot_samples))
    raise TypeError(f"not a strain signal: {signal!r}")


def _chirp_samples(chirp: ChirpSource, t: np.ndarray):
    """(h, hddot) of a chirp at times inside its support, in one pass.

    Frequency, phase and the nu^(2/3) envelope all follow from the clock
    L of `_chirp_log`: nu^2 = nu0^2 e^(-3L/4),
    phi = (3/(5k)) nu0^(-5/3) (1 - e^(5L/8)) as in `chirp_phase`, and
    (nu/nu0)^(2/3) = e^(-L/4).
    """
    nu0, k = chirp.nu0, chirp.k
    log_base = _chirp_log(nu0, k, t)
    phase = (3.0 / (5.0 * k)) * nu0 ** (-5.0 / 3.0) * -np.expm1(0.625 * log_base)
    if chirp.amplitude_model == "constant":
        h = chirp.h0 * np.sin(phase)
    else:
        ref = chirp.amplitude_ref if chirp.amplitude_ref is not None else nu0
        scale = chirp.h0 * (nu0 / ref) ** (2.0 / 3.0)
        h = scale * np.exp(-0.25 * log_base) * np.sin(phase)
    return h, -(nu0**2) * np.exp(-0.75 * log_base) * h


def chirp_window(chirp: ChirpSource, omega: float) -> tuple[float, float]:
    """Default integration window around the resonance crossing.

    [t_res - 5*tau, t_res + 5*tau], five resonance crossing times either
    side, clipped to the chirp's support and to frequencies below 8*omega
    so the integrand stays resolvable near coalescence.
    """
    k = chirp.k
    t_res = resonance_time(chirp.nu0, k, omega)
    tau = resonance_crossing_time(k, omega)
    t_hi_freq = resonance_time(chirp.nu0, k, 8.0 * omega)
    t0 = max(0.0, t_res - 5.0 * tau)
    t1 = min(t_res + 5.0 * tau, t_hi_freq, chirp.coalescence * (1.0 - 1e-12))
    return (t0, t1)


def load_strain_series(path: str) -> SampledStrain:
    """Read a two-column ASCII strain file (time [s], strain).

    Lines starting with '#' and blank lines are ignored. Every value must be
    finite (StrainFormatError names the line otherwise). The time column
    must be uniformly spaced to within 1e-6 relative jitter; the series
    timestep is the median spacing.
    """
    times: list[float] = []
    values: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise StrainFormatError(
                    f"{path}:{lineno}: expected two columns, got {len(parts)}"
                )
            try:
                t, h = float(parts[0]), float(parts[1])
            except ValueError:
                raise StrainFormatError(
                    f"{path}:{lineno}: non-numeric value in {line!r}"
                ) from None
            if not (math.isfinite(t) and math.isfinite(h)):
                raise StrainFormatError(f"{path}:{lineno}: non-finite value in {line!r}")
            times.append(t)
            values.append(h)
    if len(times) < 3:
        raise StrainFormatError(
            f"{path}: need at least 3 samples, got {len(times)}"
        )
    t_arr = np.asarray(times)
    spacings = np.diff(t_arr)
    dt = float(np.median(spacings))
    if dt <= 0.0 or np.any(np.abs(spacings - dt) > 1e-6 * dt):
        raise StrainFormatError(
            f"{path}: time column is not uniformly spaced "
            f"(median dt = {dt:.6g} s, max deviation "
            f"{np.max(np.abs(spacings - dt)):.3g} s)"
        )
    return SampledStrain(t0=float(t_arr[0]), dt=dt, h=np.asarray(values))


__all__ = [
    "ChirpDomainError",
    "ChirpSource",
    "MonochromaticWave",
    "SampledStrain",
    "StrainFormatError",
    "StrainSignal",
    "chirp_frequency",
    "chirp_phase",
    "chirp_rate_k",
    "chirp_window",
    "coalescence_time",
    "load_strain_series",
    "resonance_crossing_time",
    "resonance_time",
    "strain_samples",
]
