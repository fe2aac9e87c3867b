"""Eigendecomposition of real symmetric tridiagonal matrices.

LAPACK's symmetric eigensolver (``numpy.linalg.eigh``) on the dense
matrix, followed by a stable ascending sort and a sign convention on the
eigenvectors.  Every conserved-number block of the two-mode model is
tridiagonal; the input type keeps that structure explicit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class SymTridiag:
    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        d = np.ascontiguousarray(self.diag, dtype=np.float64)
        e = np.ascontiguousarray(self.offdiag, dtype=np.float64)
        if d.ndim != 1 or d.size < 1:
            raise ValueError("diag must be a nonempty 1-D sequence")
        if e.shape != (d.size - 1,):
            raise ValueError("offdiag must have length len(diag) - 1")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
            raise ValueError("matrix entries must be finite")
        d.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "diag", d)
        object.__setattr__(self, "offdiag", e)

    @property
    def dim(self) -> int:
        return self.diag.size

    def to_dense(self) -> np.ndarray:
        h = np.diag(self.diag)
        idx = np.arange(self.dim - 1)
        h[idx, idx + 1] = self.offdiag
        h[idx + 1, idx] = self.offdiag
        return h


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues; column s of eigenvectors belongs to eigenvalue s."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        w = np.ascontiguousarray(self.eigenvalues, dtype=np.float64)
        v = np.ascontiguousarray(self.eigenvectors, dtype=np.float64)
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def dim(self) -> int:
        return self.eigenvalues.size


def _fix_signs(v: np.ndarray) -> None:
    """Flip columns so the first significant component is positive."""
    mags = np.abs(v)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    v[:, v[first, np.arange(v.shape[1])] < 0.0] *= -1.0


def decompose(m: SymTridiag) -> EigenDecomposition:
    """Full eigendecomposition; deterministic for identical input."""
    d, v = np.linalg.eigh(m.to_dense())
    order = np.argsort(d, kind="stable")
    v = v[:, order]
    _fix_signs(v)
    return EigenDecomposition(d[order], v)
