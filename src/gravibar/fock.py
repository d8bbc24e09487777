"""Truncated Fock-space numerics: states and displacements.

States are dense complex density matrices at dimension ~30, checked at the
fixed HERMITICITY_TOL, TRACE_TOL and POSITIVITY_TOL; the measurement
engine carries them as factors A with rho = A A^dag. A state offers what
the package reads of it (populations, trace, factor, the invariant
checks); purity and <n> are test helpers. The displacement
D(z) = exp(z b^dag - conj(z) b) is never exponentiated per z:
`DisplacementCache` diagonalizes its generator once, in a real eigenbasis,
its engine path is `rotate`, and `check_truncation` says when |z| is too
large for the truncation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def check_truncation(beta: complex, dim: int) -> str | None:
    """What is wrong with displacing by `beta` at truncation `dim`
    (|beta|^2 > dim/4), or None when the displacement fits."""
    if abs(beta) ** 2 <= dim / 4.0:
        return None
    return (
        f"|beta|^2 = {abs(beta)**2:.3g} is large for truncation dim = {dim}; "
        "populations near the cutoff will be inaccurate"
    )


class DisplacementCache:
    """Real-eigenbasis factorization of the displacement operator.

    b^dag - b = -i S J S^dag with S = diag(i^n) and J the real symmetric
    tridiagonal matrix with sqrt(n) beside the diagonal. With J = O Lambda O^T
    and z = |z| e^{i theta}, D(z) = Q O e^{-i|z| Lambda} O^T Q^dag where
    Q = diag(e^{i n (theta + pi/2)}): the matrix exponential
    exp(z b^dag - conj(z) b), through one fixed real eigenbasis. `phases`
    gives Q and e^{-i|z| Lambda} of an array of z in one call, and `matrix`
    the matrices. Q is the running product u^n of one unit phasor
    u = e^{i(theta + pi/2)} per z. J has a zero diagonal, so its spectrum
    is symmetric; Lambda is stored exactly antisymmetric, and the lower
    half of e^{-i|z| Lambda} is the conjugate of the upper half.

    `rotate` is the inner part O e^{-i|z| Lambda} O^T diag(c), which
    `matrix` wraps in the outer phases, c = Q^dag and Q on the left. The
    measurement engine calls `rotate` with its weights folded into c and
    multiplies Q onto the result.

    `rotate` runs one real matmul per factor, not one product over the
    stack: BLAS gives bit-different columns when a product has more of
    them, so a trajectory's bits would depend on its batch.
    """

    def __init__(self, dim: int):
        self.dim = dim
        self.levels = np.arange(dim, dtype=float)
        root = np.sqrt(self.levels[1:])
        lam, self._o = np.linalg.eigh(np.diag(root, 1) + np.diag(root, -1))
        self._lam = 0.5 * (lam - lam[::-1])  # lam[k] = -lam[dim - 1 - k] exactly

    def phases(self, z) -> tuple[np.ndarray, np.ndarray]:
        """Q and e^{-i|z| Lambda} of each z, as two (..., dim) arrays."""
        z = np.asarray(z, dtype=complex)
        q = np.empty(z.shape + (self.dim,), dtype=complex)
        q[..., 0] = 1.0
        q[..., 1:] = np.exp(1j * (np.angle(z) + 0.5 * np.pi))[..., None]
        np.multiply.accumulate(q, axis=-1, out=q)
        half = self.dim // 2
        rot = np.empty_like(q)
        rot[..., half:] = np.exp(-1j * np.abs(z)[..., None] * self._lam[half:])
        rot[..., :half] = rot[..., : -half - 1 : -1].conj()
        return q, rot

    def matrix(self, z) -> np.ndarray:
        """D(z) of each z, as a (..., dim, dim) array: Q `rotate`(Q^dag, rot, 1)."""
        q, rot = self.phases(z)
        return q[..., None] * self.rotate(q.conj(), rot, np.eye(self.dim, dtype=complex))

    def rotate(self, c: np.ndarray, rot: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """O diag(rot) O^T diag(c) @ A for an (n, dim, rank) stack A.

        `c` and `rot` are (dim,) for one value shared by the stack or
        (n, dim) for one per factor. O^T and O act as real matmuls on the
        (n, dim, 2 rank) float view, O(dim^2 rank) per factor.
        """
        y = (self._o.T @ (c[..., None] * amps).view(float)).view(complex)
        y *= rot[..., None]
        return (self._o @ y.view(float)).view(complex)


__all__ = [
    "DisplacementCache",
    "QuantumState",
    "StateInvariantError",
    "TraceUnderflowError",
]
