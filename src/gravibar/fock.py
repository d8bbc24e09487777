"""Truncated Fock-space numerics: states, operators, normalized updates.

Dense complex matrices throughout; the measurement protocol works at
dimension ~30 where dense linear algebra is both simple and fast. States
are density matrices, checked at the fixed HERMITICITY_TOL, TRACE_TOL and
POSITIVITY_TOL; the measurement engine carries them as factors A with
rho = A A^dag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-9
POSITIVITY_TOL = -1e-10
TRACE_UNDERFLOW = 1e-300


class StateInvariantError(ValueError):
    """A density matrix violates one of its invariants."""


class TraceUnderflowError(ArithmeticError):
    """A normalized update hit an (effectively) impossible outcome."""


@dataclass
class QuantumState:
    """Density matrix on a truncated Fock space.

    Attributes
    ----------
    dim : int
        Truncation dimension.
    rho : np.ndarray
        dim x dim complex density matrix.
    """

    dim: int
    rho: np.ndarray

    def __post_init__(self) -> None:
        self.rho = np.asarray(self.rho, dtype=complex)
        if self.rho.shape != (self.dim, self.dim):
            raise ValueError(
                f"rho has shape {self.rho.shape}, expected ({self.dim}, {self.dim})"
            )

    @classmethod
    def ground(cls, dim: int) -> "QuantumState":
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return cls(dim, rho)

    @classmethod
    def from_diagonal(cls, populations) -> "QuantumState":
        p = np.asarray(populations, dtype=float)
        return cls(p.size, np.diag(p).astype(complex))

    def populations(self) -> np.ndarray:
        return self.rho.diagonal().real.copy()

    def trace(self) -> float:
        return float(self.rho.diagonal().real.sum())

    def purity(self) -> float:
        return float(np.vdot(self.rho, self.rho.conj().T).real)

    def expect_number(self) -> float:
        return float(self.rho.diagonal().real @ np.arange(self.dim))

    def min_eigenvalue(self) -> float:
        return float(np.linalg.eigvalsh(self.rho)[0])

    def factor(self) -> np.ndarray:
        """dim x dim factor A with rho = A A^dag, from the eigendecomposition.

        Roundoff eigenvalues in [POSITIVITY_TOL, 0) are clipped to zero; a
        more negative one raises StateInvariantError.
        """
        lam, vec = np.linalg.eigh(self.rho)
        if lam[0] < POSITIVITY_TOL:
            raise StateInvariantError(f"negative eigenvalue {lam[0]:.3e}")
        return vec * np.sqrt(np.clip(lam, 0.0, None))

    def validate(self) -> None:
        """Raise StateInvariantError on invariant violation."""
        herm = np.abs(self.rho - self.rho.conj().T).max()
        if herm > HERMITICITY_TOL:
            raise StateInvariantError(f"Hermiticity violated: max asym {herm:.3e}")
        tr_err = abs(self.trace() - 1.0)
        if tr_err > TRACE_TOL:
            raise StateInvariantError(f"trace deviates from 1 by {tr_err:.3e}")
        lam = self.min_eigenvalue()
        if lam < POSITIVITY_TOL:
            raise StateInvariantError(f"negative eigenvalue {lam:.3e}")


def annihilation(dim: int) -> np.ndarray:
    """Ladder operator b with b|n> = sqrt(n)|n-1>."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    b = np.zeros((dim, dim), dtype=complex)
    ns = np.arange(1, dim)
    b[ns - 1, ns] = np.sqrt(ns)
    return b


def creation(dim: int) -> np.ndarray:
    return annihilation(dim).conj().T


def number_operator(dim: int) -> np.ndarray:
    """N = b^dag b, diagonal 0..dim-1."""
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    return np.diag(np.arange(dim, dtype=float)).astype(complex)


def check_truncation(beta: complex, dim: int) -> None:
    import warnings

    if abs(beta) ** 2 > dim / 4.0:
        warnings.warn(
            f"|beta|^2 = {abs(beta)**2:.3g} is large for truncation dim = {dim}; "
            "populations near the cutoff will be inaccurate",
            stacklevel=3,
        )


def displacement_operator(beta: complex, dim: int) -> np.ndarray:
    """D(beta) = expm(beta*b^dag - conj(beta)*b) on the truncated space.

    Unitary up to truncation error; warns when |beta|^2 > dim/4.
    """
    check_truncation(beta, dim)
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


class DisplacementCache:
    """Spectral factorization of b^dag - b for fast displacement matrices.

    D(z) = R(theta) V e^{-i|z| mu} V^dag R(theta)^dag with z = |z| e^{i theta},
    R(theta) = diag(e^{i n theta}) and (i(b^dag - b)) = V mu V^dag. This is
    the same matrix exponential as `displacement_operator`, evaluated
    through one fixed eigenbasis so repeated drive steps are cheap. An
    array of z gives the stack of matrices, one per z; `apply` displaces a
    stack of factors without forming the matrices.
    """

    def __init__(self, dim: int):
        self.dim = dim
        b = annihilation(dim)
        mu, vec = np.linalg.eigh(1j * (b.conj().T - b))
        self._mu = mu
        self._vec = vec
        self._ns = np.arange(dim)

    def matrix(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        if z.ndim == 0 and z == 0.0:
            return np.eye(self.dim, dtype=complex)
        r, theta = np.abs(z)[..., None], np.angle(z)[..., None]
        vp = np.exp(1j * theta * self._ns)[..., :, None] * self._vec
        rot = np.exp(-1j * r * self._mu)[..., None, :]
        return (vp * rot) @ vp.conj().swapaxes(-1, -2)

    def apply(self, z, amps: np.ndarray) -> np.ndarray:
        """D(z_k) @ A_k for each z_k of `z` (n,) and factor A_k of `amps`.

        Applies R(theta)^dag, V^dag, the phases e^{-i|z| mu}, V and R(theta)
        to the (n, dim, rank) stack in turn: O(dim^2 rank) per factor where
        `matrix(z) @ amps` costs O(dim^3).
        """
        z = np.asarray(z, dtype=complex)
        phase = np.exp(1j * np.angle(z)[:, None] * self._ns)[:, :, None]
        rot = np.exp(-1j * np.abs(z)[:, None] * self._mu)[:, :, None]
        x = self._vec.conj().T @ (phase.conj() * amps)
        return phase * (self._vec @ (rot * x))


__all__ = [
    "DisplacementCache",
    "QuantumState",
    "StateInvariantError",
    "TraceUnderflowError",
    "annihilation",
    "apply_normalized",
    "coherent_state",
    "creation",
    "displacement_operator",
    "number_operator",
]
