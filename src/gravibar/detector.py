"""Physical model of the cylindrical bar resonator and its intrinsic rates.

A bar of length L, radius R and total mass M supports longitudinal acoustic
modes at angular frequencies omega_l = l*pi*v_s/L (l odd couples linearly to
a gravitational wave). Each mode behaves as an oscillator of effective mass
M/2. This module provides the spontaneous and stimulated graviton-exchange
rates for such a mode together with the thermal excitation rate and the
number-state lifetime.
"""

from __future__ import annotations

import configparser
import math
import numbers
import warnings
from dataclasses import dataclass, field

from .constants import CONSTANTS, G, C_LIGHT, HBAR, K_B, normal, require


class DetectorSpecError(ValueError):
    """Raised when a detector specification violates its invariants."""


@dataclass(frozen=True)
class Material:
    """Bulk material of a bar resonator.

    Attributes
    ----------
    name : str
        Label of the material.
    density : float
        Mass density rho [kg/m^3].
    sound_speed : float
        Longitudinal speed of sound v_s [m/s].
    """

    name: str
    density: float
    sound_speed: float

    def __post_init__(self) -> None:
        require(self, DetectorSpecError, positive=("density", "sound_speed"))


# Niobium values are the working example of the rate formulas; the other
# entries are standard reference data (densities and longitudinal sound
# speeds from common handbooks) supplied for convenience.
MATERIALS: dict[str, Material] = {
    m.name: m
    for m in (
        Material("niobium", density=8570.0, sound_speed=5.0e3),
        Material("aluminum", density=2700.0, sound_speed=5.1e3),
        Material("beryllium", density=1850.0, sound_speed=1.26e4),
        Material("sapphire", density=3980.0, sound_speed=1.0e4),
        Material("helium", density=145.0, sound_speed=238.0),
    )
}

# Relative tolerance for agreement between a user-supplied mass and the
# geometric mass rho*pi*R^2*L when both are given.
MASS_GEOMETRY_RTOL = 0.20


@dataclass(frozen=True)
class DetectorSpec:
    """Geometry, mode and environment of a bar-resonator detector.

    Attributes
    ----------
    material : Material
        Bulk material (density and speed of sound).
    length : float
        Bar length L [m].
    radius : float
        Bar radius R [m].
    mass : float or None
        Total resonator mass M [kg]. When omitted it is derived from the
        geometry as rho*pi*R^2*L. When given, it is checked against the
        geometric value at 20% relative tolerance.
    mode_index : int
        Longitudinal mode number l; must be odd (even modes have no linear
        coupling). Defaults to the fundamental l = 1.
    quality : float
        Mechanical quality factor Q of the mode.
    temperature : float
        Environment temperature T [K].
    """

    material: Material
    length: float
    radius: float
    mass: float | None = None
    mode_index: int = 1
    quality: float = 1e10
    temperature: float = 1e-3
    geometry_mass_check: bool = field(default=True, repr=False)

    def __post_init__(self) -> None:
        require(self, DetectorSpecError,
                positive=("length", "radius", "mass", "quality", "temperature"))
        if (not isinstance(self.mode_index, numbers.Integral) or self.mode_index < 1
                or self.mode_index % 2 == 0):
            raise DetectorSpecError(
                f"mode_index must be an odd positive integer, got {self.mode_index}"
            )
        if self.mass is None:
            object.__setattr__(self, "mass", self.geometric_mass())
            require(self, DetectorSpecError, positive=("mass",))
        elif self.geometry_mass_check:
            geometric = self.geometric_mass()
            if not abs(self.mass - geometric) <= MASS_GEOMETRY_RTOL * geometric < math.inf:
                raise DetectorSpecError(
                    f"mass {self.mass} kg differs from geometric mass "
                    f"{geometric:.4g} kg by more than {MASS_GEOMETRY_RTOL:.0%}; "
                    "pass geometry_mass_check=False to accept the stated mass"
                )

    def geometric_mass(self) -> float:
        """Mass implied by the cylinder geometry, rho*pi*R^2*L [kg]; inf if R^2 overflows."""
        try:
            return self.material.density * math.pi * self.radius**2 * self.length
        except OverflowError:
            return math.inf

    @classmethod
    def from_frequency(
        cls,
        material: Material,
        frequency: float,
        *,
        radius: float | None = None,
        mass: float | None = None,
        mode_index: int = 1,
        quality: float = 1e10,
        temperature: float = 1e-3,
    ) -> "DetectorSpec":
        """Build a spec whose mode `mode_index` sits at angular frequency
        `frequency` [rad/s], choosing L = l*pi*v_s/omega.

        Either `radius` or `mass` fixes the remaining scale; with `mass`
        given the radius follows from the geometry.
        """
        require(locals(), DetectorSpecError, positive=("frequency", "mass"))
        length = mode_index * math.pi * material.sound_speed / frequency
        if radius is None:
            if mass is None:
                raise DetectorSpecError("provide either radius or mass")
            radius = math.sqrt(mass / (material.density * math.pi * length))
        return cls(
            material=material,
            length=length,
            radius=radius,
            mass=mass,
            mode_index=mode_index,
            quality=quality,
            temperature=temperature,
        )


def mode_frequency(spec: DetectorSpec) -> float:
    """Angular frequency of the spec's longitudinal mode [rad/s].

    omega_l = l*pi*v_s/L; the fundamental mode is l = 1.
    """
    return spec.mode_index * math.pi * spec.material.sound_speed / spec.length


def gamma_spontaneous(spec: DetectorSpec) -> float:
    """Spontaneous graviton emission rate of the first excited mode state [Hz].

        8*G*M*L^2*omega_l^4 / (l^4 * pi^4 * c^5)

    with the stated mass M. With omega_l = l*pi*v_s/L and the geometric
    mass M = rho*pi*R^2*L this is identically 8*pi*G*rho*v_s^4*R^2/(L*c^5),
    which depends only on density and geometry.
    """
    omega = mode_frequency(spec)
    l = spec.mode_index
    return (
        8.0 * G * spec.mass * spec.length**2 * omega**4
        / (l**4 * math.pi**4 * C_LIGHT**5)
    )


def gamma_stimulated(spec: DetectorSpec, h0: float) -> float:
    """Stimulated 0 -> 1 transition rate under a resonant wave of strain h0 [Hz].

    Gamma = v_s^2 * M * h0^2 / (4 * l^2 * pi^3 * hbar), equivalently
    M*L^2*omega_l^2*h0^2 / (4 * l^4 * pi^5 * hbar). The same rate applies to
    the inverse (stimulated emission) process.
    """
    require(locals(), nonnegative=("h0",))
    h0 = float(h0)
    v_s = spec.material.sound_speed
    l = spec.mode_index
    rate = h0 * (h0 * (v_s**2 * spec.mass / (4.0 * l**2 * math.pi**3 * HBAR)))
    return normal(rate, "stimulated rate", "h0", h0)


def thermal_occupation(temperature: float, omega: float) -> float:
    """Bose-Einstein occupation of a mode at `omega` [rad/s] and T [K].

    Overflow-safe: for hbar*omega >> k_B*T the result decays as
    exp(-hbar*omega/(k_B*T)) instead of raising.
    """
    require(locals(), positive=("temperature", "omega"))
    x = HBAR * omega / (K_B * temperature)
    if x > 700.0:
        # 1/(e^x - 1) ~ e^-x; exp underflows gracefully to 0.0
        return math.exp(-x)
    return 1.0 / math.expm1(x)


def gamma_thermal(spec: DetectorSpec) -> float:
    """Thermal excitation rate gamma_th = omega * nbar / Q [Hz]."""
    omega = mode_frequency(spec)
    nbar = thermal_occupation(spec.temperature, omega)
    return omega * nbar / spec.quality


def fock_lifetime(spec: DetectorSpec) -> float:
    """Number-state lifetime hbar*Q/(k_B*T) [s], valid for k_B*T >> hbar*omega.

    Emits a warning when the classical-occupation assumption is violated.
    """
    omega = mode_frequency(spec)
    if K_B * spec.temperature < 10.0 * HBAR * omega:
        warnings.warn(
            "fock_lifetime assumes k_B*T >> hbar*omega; "
            f"here k_B*T/(hbar*omega) = {K_B * spec.temperature / (HBAR * omega):.3g}",
            stacklevel=2,
        )
    return HBAR * spec.quality / (K_B * spec.temperature)


def load_materials(path: str) -> dict[str, Material]:
    """Load additional materials from an INI-style file.

    Each section names a material and provides `density` [kg/m^3] and
    `sound_speed` [m/s] keys::

        [titanium]
        density = 4500
        sound_speed = 6070
    """
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise FileNotFoundError(path)
    table: dict[str, Material] = {}
    for name in parser.sections():
        section = parser[name]
        unknown = set(section) - {"density", "sound_speed"}
        if unknown:
            raise DetectorSpecError(
                f"unknown key(s) {sorted(unknown)} in material [{name}]"
            )
        try:
            density = float(section["density"])
            sound_speed = float(section["sound_speed"])
            table[name] = Material(name, density=density, sound_speed=sound_speed)
        except KeyError as exc:
            raise DetectorSpecError(
                f"material [{name}] is missing required key {exc}"
            ) from None
        except DetectorSpecError as exc:
            raise DetectorSpecError(f"material [{name}]: {exc}") from None
        except ValueError:
            raise DetectorSpecError(
                f"material [{name}] has a non-numeric density/sound_speed"
            ) from None
    return table


def get_material(name: str, extra: dict[str, Material] | None = None) -> Material:
    """Look up a material by name in the built-in table plus `extra`."""
    if extra and name in extra:
        return extra[name]
    try:
        return MATERIALS[name]
    except KeyError:
        known = sorted(set(MATERIALS) | set(extra or ()))
        raise DetectorSpecError(
            f"unknown material {name!r}; known: {', '.join(known)}"
        ) from None


__all__ = [
    "CONSTANTS",
    "DetectorSpec",
    "DetectorSpecError",
    "MATERIALS",
    "Material",
    "fock_lifetime",
    "gamma_spontaneous",
    "gamma_stimulated",
    "gamma_thermal",
    "get_material",
    "load_materials",
    "mode_frequency",
    "thermal_occupation",
]
