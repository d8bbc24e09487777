"""Reference Fock-space operators as dense matrices.

The engine in `gravibar.measurement` never forms a displacement or a
measurement operator: it rotates factors in the real eigenbasis of
`gravibar.fock.DisplacementCache` and weights populations by the diagonal
of M(r), and it applies a thermal jump b^dag as a shift of the factor's
rows. These are the textbook forms it is checked against: the ladder and
number operators, the displacement as a matrix exponential (scipy's
`expm`), the coherent state it makes, the normalized update
K rho K^dag / tr(...), the purity and <n> of a state, and D(z) @ A through
the cache's `rotate`.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from gravibar.fock import (
    TRACE_UNDERFLOW,
    QuantumState,
    TraceUnderflowError,
    check_truncation,
)


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator b with b|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    b = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    b[ns - 1, ns] = np.sqrt(ns)
    return b


def creation(dim: int) -> np.ndarray:
    """b^dag, with b^dag|n> = sqrt(n + 1)|n + 1> below the top level."""
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    """N = b^dag b, diagonal 0..dim-1."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = expm(beta*b^dag - conj(beta)*b) on the truncated space.

    Unitary up to truncation error; warns when |beta|^2 > dim/4.
    """
    if problem := check_truncation(beta, dim):
        warnings.warn(problem, stacklevel=2)
    b = annihilation(dim)
    return scipy.linalg.expm(beta * b.conj().T - np.conj(beta) * b)


def coherent_state(beta: complex, dim: int) -> QuantumState:
    """Pure coherent state D(beta)|0><0|D(beta)^dag as a density matrix."""
    psi = displacement_operator(beta, dim)[:, 0]
    return QuantumState(dim, np.outer(psi, psi.conj()))


def apply_normalized(state: QuantumState, kraus: np.ndarray) -> QuantumState:
    """Return K rho K^dag / tr(K rho K^dag), re-symmetrized and renormalized.

    Raises TraceUnderflowError when the outcome probability underflows
    (the impossible-outcome guard).
    """
    kraus = np.asarray(kraus, dtype=complex)
    if kraus.shape != (state.dim, state.dim):
        raise ValueError(
            f"operator shape {kraus.shape} does not match dim {state.dim}"
        )
    new = kraus @ state.rho @ kraus.conj().T
    tr = new.diagonal().real.sum()
    if not np.isfinite(tr) or tr <= TRACE_UNDERFLOW:
        raise TraceUnderflowError(
            f"update trace {tr:.3e} at/below underflow floor {TRACE_UNDERFLOW:.0e}"
        )
    new = 0.5 * (new + new.conj().T)
    new /= new.diagonal().real.sum()
    return QuantumState(state.dim, new)


def purity(state: QuantumState) -> float:
    """tr(rho^2)."""
    return float(np.vdot(state.rho, state.rho.conj().T).real)


def expect_number(state: QuantumState) -> float:
    """<n> = tr(N rho)."""
    return float(state.rho.diagonal().real @ np.arange(state.dim))


def displace(cache, z, amps: np.ndarray) -> np.ndarray:
    """D(z) @ A through `DisplacementCache.rotate`: Q rotate(Q^dag, rot, A),
    for one z shared by the stack A or one z per factor."""
    q, rot = cache.phases(z)
    return q[..., None] * cache.rotate(q.conj(), rot, amps)
