"""Discrete atom-chain model of the bar, used as an independent oracle.

A chain of N+1 identical atoms (N odd) with nearest-neighbor springs has
normal modes that converge to the continuum bar modes; its dispersion,
drive coupling and effective mode mass verify the continuum formulas, and
direct classical integration of the driven chain cross-checks the coherent
amplitude predicted by the displacement picture.

Atoms sit at mean positions x_n = n*a/2 for odd n in [-N, N]; mode l is
sin(l*pi*n/(2(N+1))) across atoms for odd l and cos(...) for even l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import HBAR
from .detector import DetectorSpec, Material, mode_frequency
from .dynamics import displacement_beta
from .waveform import MonochromaticWave, StrainSignal, strain_samples


class ChainConfigError(ValueError):
    """Raised for invalid chain parameters or integrator settings."""


@dataclass(frozen=True)
class ChainSpec:
    """Discrete chain: N+1 atoms of mass `atom_mass` at spacing `spacing`.

    `debye_frequency` is the nearest-neighbor oscillation frequency
    omega_D; the continuum speed of sound is v_s = spacing * omega_D.
    """

    n_param: int
    atom_mass: float
    spacing: float
    debye_frequency: float

    def __post_init__(self) -> None:
        if self.n_param < 3 or self.n_param % 2 == 0:
            raise ChainConfigError(
                f"n_param must be odd and >= 3, got {self.n_param}"
            )
        for name in ("atom_mass", "spacing", "debye_frequency"):
            if getattr(self, name) <= 0.0:
                raise ChainConfigError(f"{name} must be > 0")

    @property
    def n_atoms(self) -> int:
        return self.n_param + 1

    @property
    def total_mass(self) -> float:
        return self.n_atoms * self.atom_mass

    @property
    def length(self) -> float:
        return self.n_atoms * self.spacing

    @property
    def sound_speed(self) -> float:
        return self.spacing * self.debye_frequency

    @property
    def atom_indices(self) -> np.ndarray:
        """Odd lattice indices n = -N, -N+2, ..., N."""
        return np.arange(-self.n_param, self.n_param + 1, 2)

    @property
    def positions(self) -> np.ndarray:
        """Mean atom positions x_n = n*a/2 about the center of mass."""
        return self.atom_indices * self.spacing / 2.0

    @classmethod
    def from_detector(cls, spec: DetectorSpec, n_param: int) -> "ChainSpec":
        """Chain matching a continuum bar's length, mass and sound speed."""
        n_atoms = n_param + 1
        spacing = spec.length / n_atoms
        return cls(
            n_param=n_param,
            atom_mass=spec.mass / n_atoms,
            spacing=spacing,
            debye_frequency=spec.material.sound_speed / spacing,
        )


def mode_profile(chain: ChainSpec, l: int) -> np.ndarray:
    """Displacement pattern of mode l across the atoms."""
    if not 0 <= l <= chain.n_param:
        raise ChainConfigError(f"mode l must be in [0, {chain.n_param}], got {l}")
    arg = l * math.pi * chain.atom_indices / (2.0 * chain.n_atoms)
    return np.sin(arg) if l % 2 == 1 else np.cos(arg)


def normal_mode_frequencies(chain: ChainSpec) -> np.ndarray:
    """omega_l = omega_D sqrt(2 (1 - cos(l pi/(N+1)))) for l = 0..N, ascending."""
    ls = np.arange(chain.n_atoms)
    return chain.debye_frequency * np.sqrt(
        2.0 * (1.0 - np.cos(ls * math.pi / chain.n_atoms))
    )


def completeness_residual(chain: ChainSpec) -> float:
    """Largest deviation of the discrete mode-orthogonality sums.

    Checks sum_n s_l(n) s_l'(n) = (N+1)/2 * delta_ll' within the sine
    family (odd l), the cosine family (even l >= 2), and zero across the
    families.
    """
    odd = [mode_profile(chain, l) for l in range(1, chain.n_param + 1, 2)]
    even = [mode_profile(chain, l) for l in range(2, chain.n_param, 2)]
    half = chain.n_atoms / 2.0
    worst = 0.0
    for family in (odd, even):
        if not family:
            continue
        mat = np.array(family)
        gram = mat @ mat.T
        target = half * np.eye(len(family))
        worst = max(worst, float(np.abs(gram - target).max() / half))
    if odd and even:
        cross = np.array(odd) @ np.array(even).T
        worst = max(worst, float(np.abs(cross).max() / half))
    return worst


def coupling_coefficient(chain: ChainSpec, l: int) -> float:
    """Coefficient c_l of hddot * chi_l in the drive energy [kg m].

    c_l = (m/2) sum_n x_n sin(l pi n/(2(N+1))); in the continuum limit it
    approaches (M L/pi^2) (-1)^((l-1)/2) / l^2. Even modes have no linear
    coupling and raise.
    """
    if l % 2 == 0:
        raise ChainConfigError(
            f"mode l = {l} is even: no linear drive coupling exists"
        )
    if not 1 <= l <= chain.n_param:
        raise ChainConfigError(f"mode l must be in [1, {chain.n_param}], got {l}")
    return float(
        chain.atom_mass / 2.0 * np.dot(chain.positions, mode_profile(chain, l))
    )


def continuum_coupling(chain: ChainSpec, l: int) -> float:
    """Continuum value (M L/pi^2) (-1)^((l-1)/2)/l^2 of the drive coupling."""
    if l % 2 == 0:
        raise ChainConfigError(f"mode l = {l} is even")
    sign = -1.0 if (l - 1) // 2 % 2 else 1.0
    return sign * chain.total_mass * chain.length / (math.pi**2 * l**2)


def effective_mode_mass(chain: ChainSpec, l: int = 1, probe: float = 1.0) -> float:
    """Per-mode mass measured from the atomistic kinetic energy.

    Excites mode l with velocity amplitude `probe`, sums the atomic kinetic
    energies and returns 2*KE/probe^2. The discrete orthogonality relations
    make this exactly M/2.
    """
    vel = probe * mode_profile(chain, l)
    kinetic = 0.5 * chain.atom_mass * float(np.dot(vel, vel))
    return 2.0 * kinetic / probe**2


def kinetic_cross_term(chain: ChainSpec, l1: int, l2: int) -> float:
    """Mixed-mode kinetic term relative to the diagonal one (orthogonality)."""
    v1 = mode_profile(chain, l1)
    v2 = mode_profile(chain, l2)
    diag = float(np.dot(v1, v1))
    return float(np.dot(v1, v2)) / diag


@dataclass
class ChainTrajectory:
    """Recorded mode amplitudes of a driven chain."""

    times: np.ndarray
    chi: dict[int, np.ndarray]
    chi_dot: dict[int, np.ndarray]


def max_stable_timestep(chain: ChainSpec) -> float:
    """Largest allowed integrator step: 40 steps per shortest mode period."""
    return 2.0 * math.pi / (2.0 * chain.debye_frequency) / 40.0


def evolve_chain(
    chain: ChainSpec,
    signal: StrainSignal,
    window: tuple[float, float],
    *,
    dt: float | None = None,
    modes: tuple[int, ...] = (1,),
    record_stride: int = 1,
) -> ChainTrajectory:
    """Integrate the forced chain classically over the window.

    Velocity-Verlet (symplectic) integration of

        xi_ddot_n = -omega_D^2 * (2 xi_n - xi_(n-2) - xi_(n+2)) + (hddot/2) x_n

    with free (reflecting) ends, starting from rest. The drive keeps only
    the leading coupling through the mean positions x_n. Recorded output is
    the projection onto the requested modes.
    """
    if dt is None:
        dt = max_stable_timestep(chain)
    elif dt > max_stable_timestep(chain):
        raise ChainConfigError(
            f"dt = {dt:.3e} s exceeds the stability limit "
            f"{max_stable_timestep(chain):.3e} s (40 steps per shortest period)"
        )
    t0, t1 = window
    n_steps = int(math.ceil((t1 - t0) / dt))
    ts = t0 + dt * np.arange(n_steps + 1)
    _, hddot, _ = strain_samples(signal, ts)

    x = chain.positions
    om2 = chain.debye_frequency**2
    xi = np.zeros(chain.n_atoms)
    vel = np.zeros(chain.n_atoms)

    profiles = {l: mode_profile(chain, l) for l in modes}
    norm = 2.0 / chain.n_atoms

    def accel(state: np.ndarray, drive: float) -> np.ndarray:
        lap = 2.0 * state
        lap[:-1] -= state[1:]
        lap[1:] -= state[:-1]
        # free ends: ghost neighbor mirrors the end atom
        lap[0] -= state[0]
        lap[-1] -= state[-1]
        return -om2 * lap + 0.5 * drive * x

    n_rec = n_steps // record_stride + 1
    times = np.empty(n_rec)
    chi = {l: np.empty(n_rec) for l in modes}
    chi_dot = {l: np.empty(n_rec) for l in modes}

    def record(idx: int, step_index: int) -> None:
        times[idx] = ts[step_index]
        for l, prof in profiles.items():
            chi[l][idx] = norm * np.dot(xi, prof)
            chi_dot[l][idx] = norm * np.dot(vel, prof)

    rec = 0
    record(rec, 0)
    rec += 1
    acc = accel(xi, hddot[0])
    for i in range(1, n_steps + 1):
        vel += 0.5 * dt * acc
        xi += dt * vel
        acc = accel(xi, hddot[i])
        vel += 0.5 * dt * acc
        if i % record_stride == 0:
            record(rec, i)
            rec += 1

    return ChainTrajectory(
        times=times[:rec],
        chi={l: v[:rec] for l, v in chi.items()},
        chi_dot={l: v[:rec] for l, v in chi_dot.items()},
    )


def mode_coherent_amplitude(
    chain: ChainSpec, l: int, chi: float, chi_dot: float
) -> complex:
    """Quantum-equivalent coherent amplitude of a classically excited mode.

    For mode mass M/2 and frequency omega_l the complex amplitude is
    alpha = sqrt(m_eff omega_l/(2 hbar)) * (chi + i chi_dot/omega_l); its
    modulus compares directly with the displacement amplitude |beta|.
    """
    omega_l = float(normal_mode_frequencies(chain)[l])
    m_eff = chain.total_mass / 2.0
    scale = math.sqrt(m_eff * omega_l / (2.0 * HBAR))
    return scale * complex(chi, chi_dot / omega_l)


def continuum_checks(n_values) -> list[tuple[str, float, float, bool]]:
    """Chain-vs-continuum verification rows (name, measured, bound, passed).

    On a 1 Hz reference bar, chains of every N in `n_values` check the
    mode-1 dispersion error (largest, and its convergence order in N), the
    order of the drive-coupling convergence, and the largest effective-mass
    error and completeness residual; a resonantly driven N = 199 chain
    checks the coherent amplitude against the displacement |beta|. The
    orders are fits in log N, so fewer than two distinct N raise ValueError.
    """
    if len(set(n_values)) < 2:
        raise ValueError(f"need two or more distinct N, got {tuple(n_values)}")
    material = Material("reference", density=1000.0, sound_speed=10.0)
    spec = DetectorSpec.from_frequency(material, 2 * math.pi, radius=0.1)

    disp_errors, coup_errors, mass_errors, residuals = [], [], [], []
    for n in n_values:
        chain = ChainSpec.from_detector(spec, n)
        omega1 = float(normal_mode_frequencies(chain)[1])
        continuum = math.pi * chain.sound_speed / chain.length
        disp_errors.append(abs(omega1 - continuum) / omega1)
        c1, target = coupling_coefficient(chain, 1), continuum_coupling(chain, 1)
        coup_errors.append(abs(c1 - target) / abs(target))
        half = chain.total_mass / 2.0
        mass_errors.append(abs(effective_mode_mass(chain) - half) / half)
        residuals.append(completeness_residual(chain))
    logn = np.log(np.asarray(n_values, dtype=float))
    disp_order = -float(np.polyfit(logn, np.log(disp_errors), 1)[0])
    coup_order = -float(np.polyfit(logn, np.log(coup_errors), 1)[0])
    disp_bound = 5.0 / min(n_values) ** 2

    chain = ChainSpec.from_detector(spec, 199)
    omega = mode_frequency(spec)
    t_end = 40 * 2 * math.pi / omega
    wave = MonochromaticWave(h0=1e-3, nu=omega)
    traj = evolve_chain(chain, wave, (0.0, t_end), record_stride=100)
    alpha = abs(
        mode_coherent_amplitude(chain, 1, traj.chi[1][-1], traj.chi_dot[1][-1])
    )
    beta = displacement_beta(spec, wave, (0.0, t_end)).magnitude
    beta_err = abs(alpha - beta) / beta

    return [
        ("dispersion_error_max", max(disp_errors), disp_bound,
         max(disp_errors) <= disp_bound),
        ("dispersion_order", disp_order, 1.0, disp_order >= 1.0),
        ("coupling_order", coup_order, 1.0, coup_order >= 1.0),
        ("effective_mass_error", max(mass_errors), 1e-10, max(mass_errors) < 1e-10),
        ("completeness_residual", max(residuals), 1e-10, max(residuals) < 1e-10),
        ("driven_beta_error", beta_err, 0.05, beta_err < 0.05),
    ]


__all__ = [
    "ChainConfigError",
    "ChainSpec",
    "ChainTrajectory",
    "completeness_residual",
    "continuum_checks",
    "continuum_coupling",
    "coupling_coefficient",
    "effective_mode_mass",
    "evolve_chain",
    "kinetic_cross_term",
    "max_stable_timestep",
    "mode_coherent_amplitude",
    "mode_profile",
    "normal_mode_frequencies",
]
