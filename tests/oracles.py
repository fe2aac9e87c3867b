"""Reference implementations the library is tested against.

Each is the plain form of a quantity the library computes faster or
never needs at run time: an O(n) nearest-neighbour scan, a dense sector
Hamiltonian, and sums over Fock amplitudes.
"""

from __future__ import annotations

import math

import numpy as np

from wplab.bipartite import TwoModeParams, sector_diagonals, tridiagonal
from wplab.fock import FockState


def brute_force_nearest(
    points: np.ndarray,
    i: int,
    theiler: int = 0,
    limit: int | None = None,
    exclude_zero: bool = True,
) -> tuple[int, float]:
    """O(n) scan with the contract and tie-breaking of ``BoxGrid.nearest``,
    distances by the same ``sqrt(einsum(diff, diff))`` formula."""
    diff = points - points[i]
    d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
    idx = np.arange(points.shape[0])
    mask = np.abs(idx - i) > theiler
    if limit is not None:
        mask &= idx <= limit
    if exclude_zero:
        mask &= d > 0.0
    if not mask.any():
        return -1, math.inf
    d = np.where(mask, d, math.inf)
    j = int(np.argmin(d))
    return j, float(d[j])


def build_sector(N: int, p: TwoModeParams) -> np.ndarray:
    """Dense tridiagonal block of the Hamiltonian at total number N (the
    reference ``decompose`` is tested against)."""
    return tridiagonal(*sector_diagonals(N, p))


def norm_squared(state: FockState) -> float:
    return float(np.sum(np.abs(state.amplitudes) ** 2))


def mean_photon_number(state: FockState) -> float:
    p = np.abs(state.amplitudes) ** 2
    return float(np.dot(np.arange(p.size), p))


def overlap(s1: FockState, s2: FockState) -> complex:
    if s1.n_max != s2.n_max:
        raise ValueError(
            f"dimension mismatch: n_max {s1.n_max} vs {s2.n_max}"
        )
    return complex(np.vdot(s1.amplitudes, s2.amplitudes))
