"""Atom-by-atom velocity-Verlet integration of the driven chain.

Steps every atom of the chain under

    xi_ddot_n = -omega_D^2 * (2 xi_n - xi_(n-2) - xi_(n+2)) + (hddot/2) x_n

with free (reflecting) ends, starting from rest, and projects the atom
displacements and velocities onto the requested modes at every
`record_stride`-th step. It costs O(N) numpy work per step and shares no
integration code with `gravibar.lattice.evolve_chain`, which solves the
recursion of the mode coordinates in closed form; it is the reference for
that reduction. `evolve_modes` runs the same modal velocity-Verlet
recursion one step at a time, a scalar loop per mode; it is the reference
for the closed form over long runs, where stepping every atom would be
slow. `kinetic_cross_term` checks the orthogonality of the mode profiles
the modal reduction rests on.
"""

from __future__ import annotations

import math

import numpy as np

from gravibar.lattice import (
    ChainSpec,
    ChainTrajectory,
    max_stable_timestep,
    mode_profile,
    normal_mode_frequencies,
)
from gravibar.waveform import StrainSignal, strain_samples


def kinetic_cross_term(chain: ChainSpec, l1: int, l2: int) -> float:
    """Mixed-mode kinetic term relative to the diagonal one (orthogonality)."""
    v1 = mode_profile(chain, l1)
    v2 = mode_profile(chain, l2)
    diag = float(np.dot(v1, v1))
    return float(np.dot(v1, v2)) / diag


def free_ends_stencil(state: np.ndarray) -> np.ndarray:
    """(2 xi_n - xi_(n-2) - xi_(n+2)) with free ends (the ghost neighbor
    mirrors the end atom)."""
    lap = 2.0 * state
    lap[:-1] -= state[1:]
    lap[1:] -= state[:-1]
    lap[0] -= state[0]
    lap[-1] -= state[-1]
    return lap


def evolve_atoms(
    chain: ChainSpec,
    signal: StrainSignal,
    window: tuple[float, float],
    *,
    dt: float | None = None,
    modes: tuple[int, ...] = (1,),
    record_stride: int = 1,
) -> ChainTrajectory:
    """Integrate every atom over the window; record mode projections."""
    if dt is None:
        dt = max_stable_timestep(chain)
    t0, t1 = window
    n_steps = int(math.ceil((t1 - t0) / dt))
    ts = t0 + dt * np.arange(n_steps + 1)
    _, hddot = strain_samples(signal, ts)

    x = chain.positions
    om2 = chain.debye_frequency**2
    xi = np.zeros(chain.n_atoms)
    vel = np.zeros(chain.n_atoms)

    profiles = {l: mode_profile(chain, l) for l in modes}
    norm = 2.0 / chain.n_atoms

    def accel(state: np.ndarray, drive: float) -> np.ndarray:
        return -om2 * free_ends_stencil(state) + 0.5 * drive * x

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


def evolve_modes(
    chain: ChainSpec,
    signal: StrainSignal,
    window: tuple[float, float],
    *,
    dt: float | None = None,
    modes: tuple[int, ...] = (1,),
    record_stride: int = 1,
) -> ChainTrajectory:
    """Step the velocity-Verlet recursion of each mode coordinate in turn.

        q_ddot_l = -omega_l^2 q_l + (1/(N+1)) (x . s_l) hddot
    """
    if dt is None:
        dt = max_stable_timestep(chain)
    t0, t1 = window
    n_steps = int(math.ceil((t1 - t0) / dt))
    ts = t0 + dt * np.arange(n_steps + 1)
    _, hddot = strain_samples(signal, ts)
    drive = hddot.tolist()

    omega2 = normal_mode_frequencies(chain) ** 2
    half = 0.5 * dt
    chi: dict[int, np.ndarray] = {}
    chi_dot: dict[int, np.ndarray] = {}
    for l in modes:
        g = float(np.dot(chain.positions, mode_profile(chain, l))) / chain.n_atoms
        w2 = float(omega2[l])
        q = v = 0.0
        a = g * drive[0]
        qs, vs = [q], [v]
        for i in range(1, n_steps + 1):
            v += half * a
            q += dt * v
            a = g * drive[i] - w2 * q
            v += half * a
            if i % record_stride == 0:
                qs.append(q)
                vs.append(v)
        chi[l] = np.array(qs)
        chi_dot[l] = np.array(vs)

    return ChainTrajectory(times=ts[::record_stride], chi=chi, chi_dot=chi_dot)
