"""Small symmetric positive semidefinite matrices and their algebra.

Everything here targets dimensions 1..8 (covariance-sized problems), where
exactness and determinism matter more than speed.  The eigendecomposition is
a cyclic Jacobi iteration with a fixed sweep order, so results are
reproducible bit-for-bit across runs and platforms with the same BLAS-free
arithmetic; numpy.linalg is used only by the test suite as an independent
oracle.

Conventions:
* eigenvalues are returned in ascending order with orthonormal columns,
* PSD means all eigenvalues >= -TOL_PSD (tiny negative values from roundoff
  are clamped to zero where a square root is taken),
* matrices with an eigenvalue below SINGULAR_EIGMIN cannot be inverted and
  raise NearSingularError so callers can shift their index range instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8
TOL_SYM = 1.0e-12
TOL_PSD = 1.0e-10
SINGULAR_EIGMIN = 1.0e-8
JACOBI_OFF_TOL = 1.0e-13
_MAX_SWEEPS = 60


class MatrixError(ValueError):
    """Invalid matrix input (shape, symmetry, size)."""


class NotPSDError(MatrixError):
    """Matrix has an eigenvalue below -TOL_PSD."""


class NearSingularError(MatrixError):
    """Matrix has an eigenvalue below SINGULAR_EIGMIN and cannot be inverted."""


def jacobi_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues ascending, eigenvector columns).  Deterministic:
    sweeps visit (p, q) with p < q in row-major order; convergence when the
    off-diagonal Frobenius norm falls below JACOBI_OFF_TOL (relative to the
    matrix scale for inputs with Frobenius norm above 1).
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if not 1 <= d <= MAX_DIM:
        raise MatrixError(f"dimension must be in 1..{MAX_DIM}, got {d}")
    v = np.eye(d)
    if d == 1:
        return a[0].copy(), v
    tol = JACOBI_OFF_TOL * max(1.0, float(np.linalg.norm(a)))

    def offdiag(m: np.ndarray) -> float:
        s = 0.0
        for i in range(d):
            for j in range(i + 1, d):
                s += 2.0 * m[i, j] * m[i, j]
        return np.sqrt(s)

    for _ in range(_MAX_SWEEPS):
        if offdiag(a) < tol:
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                # stable rotation angle
                tau = (a[q, q] - a[p, p]) / (2.0 * apq)
                if tau >= 0.0:
                    t = 1.0 / (tau + np.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + np.sqrt(1.0 + tau * tau))
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                rot = np.eye(d)
                rot[p, p] = c
                rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                a = rot.T @ a @ rot
                # re-symmetrize to kill roundoff drift
                a = 0.5 * (a + a.T)
                v = v @ rot
    else:
        if offdiag(a) >= tol:
            raise ArithmeticError("Jacobi iteration did not converge")

    eigvals = np.diag(a).copy()
    order = np.argsort(eigvals, kind="stable")
    eigvals = eigvals[order]
    v = v[:, order]
    # deterministic sign convention: largest-magnitude component positive
    for j in range(d):
        col = v[:, j]
        k = int(np.argmax(np.abs(col)))
        if col[k] < 0.0:
            v[:, j] = -col
    return eigvals, v


@dataclass(frozen=True)
class SymPSD:
    """Symmetric PSD matrix, dimension 1..8, stored exactly symmetric."""

    entries: np.ndarray

    @classmethod
    def from_array(cls, arr, *, tol_sym: float = TOL_SYM) -> "SymPSD":
        m = np.array(arr, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise MatrixError(f"expected a square matrix, got shape {m.shape}")
        if not 1 <= m.shape[0] <= MAX_DIM:
            raise MatrixError(f"dimension must be in 1..{MAX_DIM}, got {m.shape[0]}")
        if float(np.max(np.abs(m - m.T))) > tol_sym:
            raise MatrixError("matrix is not symmetric within tolerance")
        m = 0.5 * (m + m.T)
        eigvals, _ = jacobi_eigh(m)
        if eigvals[0] < -TOL_PSD:
            raise NotPSDError(f"matrix has eigenvalue {eigvals[0]:.3e} < -{TOL_PSD}")
        m.setflags(write=False)
        return cls(entries=m)

    @classmethod
    def identity(cls, d: int) -> "SymPSD":
        return cls.from_array(np.eye(d))

    @classmethod
    def scaled_identity(cls, d: int, value: float) -> "SymPSD":
        """value * I, built directly: its eigenvalues are all ``value``."""
        if not 1 <= d <= MAX_DIM:
            raise MatrixError(f"dimension must be in 1..{MAX_DIM}, got {d}")
        if value < -TOL_PSD:
            raise NotPSDError(f"matrix has eigenvalue {value:.3e} < -{TOL_PSD}")
        m = value * np.eye(d)
        m.setflags(write=False)
        return cls(entries=m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]

    def trace(self) -> float:
        return float(np.trace(self.entries))

    def __matmul__(self, other):
        if isinstance(other, SymPSD):
            return self.entries @ other.entries
        return self.entries @ other


@dataclass(frozen=True)
class EigenPair:
    """Eigenvalues (ascending) and orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])


def eigen(m: SymPSD) -> EigenPair:
    eigvals, v = jacobi_eigh(m.entries)
    eigvals.setflags(write=False)
    v.setflags(write=False)
    return EigenPair(eigenvalues=eigvals, eigenvectors=v)


def psd_sqrt(m: SymPSD) -> SymPSD:
    """Unique PSD square root via the eigendecomposition.

    Eigenvalues in [-TOL_PSD, 0) are clamped to zero; anything lower has
    already been rejected by the SymPSD constructor.
    """
    pair = eigen(m)
    lam = np.clip(pair.eigenvalues, 0.0, None)
    root = pair.eigenvectors @ np.diag(np.sqrt(lam)) @ pair.eigenvectors.T
    root = 0.5 * (root + root.T)
    return SymPSD.from_array(root)


def op_norm(m) -> float:
    """Spectral norm: max |eigenvalue|.  Accepts SymPSD or a symmetric array."""
    arr = m.entries if isinstance(m, SymPSD) else np.asarray(m, dtype=float)
    eigvals, _ = jacobi_eigh(0.5 * (arr + arr.T))
    return float(np.max(np.abs(eigvals)))


def loewner_leq(a: SymPSD, b: SymPSD, *, tol: float = TOL_PSD) -> bool:
    """True iff a <= b in the Loewner order, up to tol on the eigenvalues of b - a."""
    if a.d != b.d:
        raise MatrixError("dimension mismatch")
    diff = b.entries - a.entries
    eigvals, _ = jacobi_eigh(diff)
    return bool(eigvals[0] >= -tol)


def inverse(m: SymPSD) -> SymPSD:
    pair = eigen(m)
    if pair.lambda_min <= SINGULAR_EIGMIN:
        raise NearSingularError(
            f"smallest eigenvalue {pair.lambda_min:.3e} <= {SINGULAR_EIGMIN}; refusing to invert"
        )
    inv = pair.eigenvectors @ np.diag(1.0 / pair.eigenvalues) @ pair.eigenvectors.T
    inv = 0.5 * (inv + inv.T)
    return SymPSD.from_array(inv)
