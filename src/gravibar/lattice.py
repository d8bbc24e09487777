"""Discrete atom-chain model of the bar, used as an independent oracle.

A chain of N+1 identical atoms (N odd) with nearest-neighbor springs has
normal modes that converge to the continuum bar modes; its dispersion,
drive coupling and effective mode mass verify the continuum formulas, and
classical integration of the driven chain cross-checks the coherent
amplitude predicted by the displacement picture. The mode profiles are
exact eigenvectors of the chain's free-ends stencil, so velocity-Verlet on
the atoms reduces to one linear recursion per requested mode. For a
harmonic mode one step of that recursion is a rotation by a fixed angle,
so its solution is a cumulative sum of phased drive terms, evaluated in
closed form with no step loop; it equals stepping every atom up to
roundoff.

Atoms sit at mean positions x_n = n*a/2 for odd n in [-N, N]; mode l is
sin(l*pi*n/(2(N+1))) across atoms for odd l and cos(...) for even l.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .constants import HBAR, require
from .detector import DetectorSpec, Material, mode_frequency
from .dynamics import _BLOCK_NODES, _check_window, displacement_beta
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
        if (not isinstance(self.n_param, numbers.Integral) or self.n_param < 3
                or self.n_param % 2 == 0):
            raise ChainConfigError(f"n_param must be an odd integer >= 3, got {self.n_param}")
        require(self, ChainConfigError, positive=("atom_mass", "spacing", "debye_frequency"))

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


def effective_mode_mass(chain: ChainSpec, l: int = 1) -> float:
    """Per-mode mass measured from the atomistic kinetic energy.

    Excites mode l at unit velocity amplitude and returns twice the summed
    atomic kinetic energy (any amplitude cancels). The discrete
    orthogonality relations make this exactly M/2.
    """
    vel = mode_profile(chain, l)
    return chain.atom_mass * float(np.dot(vel, vel))


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
    """Integrate the forced chain classically over the window, mode by mode.

    The chain obeys

        xi_ddot_n = -omega_D^2 * (2 xi_n - xi_(n-2) - xi_(n+2)) + (hddot/2) x_n

    with free (reflecting) ends, starting from rest; the drive keeps only
    the leading coupling through the mean positions x_n. Each `mode_profile`
    is an eigenvector of that free-ends stencil with eigenvalue
    omega_l^2 / omega_D^2, so velocity-Verlet (symplectic) on the atoms
    projects exactly onto velocity-Verlet on each mode coordinate
    q_l = (2/(N+1)) sum_n xi_n s_l(n):

        q_ddot_l = -omega_l^2 q_l + (1/(N+1)) (x . s_l) hddot.

    One step of it maps (q, v) linearly, with determinant 1, plus a term
    from the drive f = g hddot at the step's two ends (g the coupling
    above). For omega_l > 0, as for every mode l in [1, N], the map is a
    rotation by theta, cos(theta) = 1 - omega_l^2 dt^2 / 2: in
    z = sin(theta) q - i dt v it reads z_(i+1) = e^(i theta) z_i + w_i, with
    w_i = (dt^2/2) (sin(theta) f_i - i (cos(theta) f_i + f_(i+1))), so
    z_n = e^(i theta n) sum_(j<n) e^(-i theta (j+1)) w_j. The sum is taken
    a record segment at a time against one `record_stride`-long phasor and
    accumulated over the records. Only the requested modes are evaluated;
    the recorded chi and chi_dot agree with stepping every atom up to
    roundoff. A mode outside [1, N] raises ChainConfigError: the zero mode
    is a rigid translation, whose drive coupling is only the roundoff of
    summing symmetric positions.

    The strain and the segment sums are evaluated a block of whole record
    segments at a time: `_BLOCK_NODES` steps rounded down to a multiple of
    64 segments, and at least 64. Each block starts from the running sum z
    that the one before ended on, added into its first term
    (`_running_sum`), so the records are bit for bit those of one block,
    and the working memory beyond the records does not grow with the window.
    """
    require(locals(), ChainConfigError, positive=("dt",), integer={"record_stride": 1})
    if dt is None:
        dt = max_stable_timestep(chain)
    elif dt > max_stable_timestep(chain):
        raise ChainConfigError(
            f"dt = {dt:.3e} s exceeds the stability limit "
            f"{max_stable_timestep(chain):.3e} s (40 steps per shortest period)"
        )
    _check_window(window, finite=True, error=ChainConfigError)
    t0, t1 = window
    n_steps = int(math.ceil((t1 - t0) / dt))
    n_seg = n_steps // record_stride
    # whole record segments a block at a time, a multiple of 64 of them, so
    # that the matrix-vector products see each segment at the same row
    # offset as in one block and keep its bits
    per_block = max(64, _BLOCK_NODES // record_stride // 64 * 64)

    omega = normal_mode_frequencies(chain)
    modes = tuple(dict.fromkeys(modes))  # a repeated mode has one carry
    for l in modes:
        if not 1 <= l <= chain.n_param:
            raise ChainConfigError(f"mode l must be in [1, {chain.n_param}], got {l}")
    g = {l: float(np.dot(chain.positions, mode_profile(chain, l))) / chain.n_atoms
         for l in modes}
    theta = {l: 2.0 * math.asin(0.5 * float(omega[l]) * dt) for l in modes}
    phasor = {l: np.exp(-1j * theta[l] * np.arange(1, record_stride + 1)) for l in modes}
    chi = {l: np.empty(n_seg + 1) for l in modes}
    chi_dot = {l: np.empty(n_seg + 1) for l in modes}
    carry = dict.fromkeys(modes)  # z at the block's start
    for s0 in range(0, max(n_seg, 1), per_block):
        s1 = min(s0 + per_block, n_seg)
        steps = np.arange(s0 * record_stride, s1 * record_stride + 1)
        _, hddot = strain_samples(signal, t0 + dt * steps)
        # one row per record segment, with the drive at each step's start
        # (lo) and end (hi)
        lo = hddot[:-1].reshape(-1, record_stride)
        hi = hddot[1:].reshape(-1, record_stride)
        records = slice(s0, s1 + 1)
        for l in modes:
            c, s = math.cos(theta[l]), math.sin(theta[l])
            seg = np.exp(-1j * theta[l] * record_stride * np.arange(s0, s1 + 1))
            # sum_m e^(-i theta (m+1)) over each segment's steps, of the
            # drive at their starts (a) and ends (b), then of w
            a = lo @ phasor[l].real + 1j * (lo @ phasor[l].imag)
            b = hi @ phasor[l].real + 1j * (hi @ phasor[l].imag)
            w = g[l] * (0.5 * dt) * dt * (s * a - 1j * (c * a + b))
            z = _running_sum(seg[:-1] * w, carry[l])
            carry[l] = z[-1]
            z *= seg.conj()
            chi[l][records], chi_dot[l][records] = z.real / s, -z.imag / dt

    times = t0 + dt * np.arange(0, n_steps + 1, record_stride)
    return ChainTrajectory(times=times, chi=chi, chi_dot=chi_dot)


def _running_sum(terms: np.ndarray, start) -> np.ndarray:
    """`start`, the z an `evolve_chain` block starts from, then the running
    sums of `terms` from it, added in the order of one cumulative sum over
    every block: `start` goes into the first term. A `start` of None is
    rest, 0 with nothing added, which keeps the sign of a zero first term."""
    out = np.zeros(terms.size + 1, terms.dtype)
    if start is not None:
        out[0] = start
        terms[:1] += start
    np.cumsum(terms, out=out[1:])
    return out


def mode_coherent_amplitude(
    chain: ChainSpec, l: int, chi: float, chi_dot: float
) -> complex:
    """Quantum-equivalent coherent amplitude of a classically excited mode.

    For mode mass M/2 and frequency omega_l the complex amplitude is
    alpha = sqrt(m_eff omega_l/(2 hbar)) * (chi + i chi_dot/omega_l); its
    modulus compares directly with the displacement amplitude |beta|.
    """
    require(locals(), ChainConfigError, integer={"l": 1}, finite=("chi", "chi_dot"))
    if l > chain.n_param:
        raise ChainConfigError(f"mode l must be in [1, {chain.n_param}], got {l}")
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
    "max_stable_timestep",
    "mode_coherent_amplitude",
    "mode_profile",
    "normal_mode_frequencies",
]
