"""Small symmetric positive semidefinite matrices and their algebra.

Everything here targets dimensions 1..8 (covariance-sized problems).  The
spectra come from numpy.linalg (``eigvalsh``, and ``eigh`` where the
eigenvectors are needed), which returns eigenvalues in ascending order.

Conventions:
* a SymPSD holds finite entries, symmetric within TOL_SYM and stored exactly
  symmetric,
* PSD means all eigenvalues >= -TOL_PSD (tiny negative values from roundoff
  are clamped to zero where a square root is taken),
* both tolerances are relative to max(1, largest absolute entry), since the
  roundoff of a matrix built as q diag(lam) q^T scales with its norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_DIM = 8
TOL_SYM = 1.0e-12
TOL_PSD = 1.0e-10


class MatrixError(ValueError):
    """Invalid matrix input (shape, symmetry, size, non-finite entries)."""


class NotPSDError(MatrixError):
    """Matrix has an eigenvalue below -TOL_PSD, scaled to its entries."""


class NearSingularError(MatrixError):
    """Matrix is too close to singular for the caller to divide by it."""


@dataclass(frozen=True)
class SymPSD:
    """Symmetric PSD matrix, dimension 1..8, stored exactly symmetric."""

    entries: np.ndarray

    @classmethod
    def from_array(cls, arr) -> "SymPSD":
        m = _symmetric_entries(arr)
        lam_min = np.linalg.eigvalsh(m)[0]
        if lam_min < -TOL_PSD:  # the scaled tolerance is never smaller
            tol = TOL_PSD * _scale(m)
            if lam_min < -tol:
                raise NotPSDError(f"matrix has eigenvalue {lam_min:.3e} < -{tol}")
        return cls(entries=m)

    @property
    def d(self) -> int:
        return self.entries.shape[0]


def _scale(m: np.ndarray) -> float:
    """max(1, largest absolute entry): what TOL_SYM and TOL_PSD are relative to."""
    return max(1.0, float(np.max(np.abs(m))))


def _symmetric_entries(arr) -> np.ndarray:
    """``arr`` as a read-only, exactly symmetric float matrix of dimension
    1..MAX_DIM with finite entries, symmetric within TOL_SYM (scaled)."""
    m = np.array(arr, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise MatrixError(f"expected a square matrix, got shape {m.shape}")
    if not 1 <= m.shape[0] <= MAX_DIM:
        raise MatrixError(f"dimension must be in 1..{MAX_DIM}, got {m.shape[0]}")
    if not np.all(np.isfinite(m)):
        raise MatrixError("matrix has non-finite entries")
    asym = float(np.max(np.abs(m - m.T)))
    if asym > TOL_SYM and asym > TOL_SYM * _scale(m):
        raise MatrixError("matrix is not symmetric within tolerance")
    m = 0.5 * (m + m.T)
    m.setflags(write=False)
    return m


def psd_sqrt(m: SymPSD) -> SymPSD:
    """Unique PSD square root via the eigendecomposition; defined for every
    SymPSD.

    Eigenvalues in [-TOL_PSD, 0), with TOL_PSD scaled as in the SymPSD
    constructor, are clamped to zero; anything lower has already been
    rejected there.  The root V sqrt(L) V^T is PSD by construction, so its
    eigenvalues are not judged again.
    """
    lam, v = np.linalg.eigh(m.entries)
    root = (v * np.sqrt(np.clip(lam, 0.0, None))) @ v.T
    return SymPSD(entries=_symmetric_entries(0.5 * (root + root.T)))


def op_norm(m) -> float:
    """Spectral norm: max |eigenvalue|.  Accepts SymPSD or a symmetric array."""
    arr = m.entries if isinstance(m, SymPSD) else np.asarray(m, dtype=float)
    return float(np.max(np.abs(np.linalg.eigvalsh(0.5 * (arr + arr.T)))))


def loewner_leq(a: SymPSD, b: SymPSD, *, tol: float | None = None) -> bool:
    """True iff a <= b in the Loewner order, up to tol on the eigenvalues of b - a.

    An explicit tol is absolute.  The default is TOL_PSD relative to the
    larger of a's and b's scales: b - a carries the roundoff of their
    entries, which a difference of norm far below theirs does not show.
    """
    if a.d != b.d:
        raise MatrixError("dimension mismatch")
    if tol is None:
        tol = TOL_PSD * max(_scale(a.entries), _scale(b.entries))
    return bool(np.linalg.eigvalsh(b.entries - a.entries)[0] >= -tol)
