"""Two coupled bosonic modes: linear field mode, anharmonic second mode.

The total excitation number is conserved, so the Hamiltonian splits into
symmetric tridiagonal blocks of dimension N+1 acting on the states
|N-n; n> (field count N-n, second-mode count n).  Each block is
diagonalized once, H_N = V diag(lambda) V^T, by LAPACK ``dstevd``
(divide and conquer on the tridiagonal) of numpy's own OpenBLAS, called
through ctypes on the block's two diagonals.  The dense ``eigh``
(``dsyevd``) of the same block only adds a Householder reduction and
back-transformation that change nothing around the same ``dstedc``
call, so both give the same bits; ``eigh`` remains the fallback where
numpy's LAPACK exports no ``dstevd``.  scipy's binding of the routine is
not used: importing ``scipy.linalg`` costs more than all of a run's
solves.  The routine that ran is reported by ``sector_eigensolver``.

Starting from e_0 with eigenbasis coefficients w = V[0, :], the
second-mode occupancy of the block is

    sum_s w_s^2 A_ss
      + Re sum_{s<s'} 2 w_s w_s' A_ss' exp(-i (lambda_s' - lambda_s) t),

with A = V^T diag(n) V: a constant plus a sum of phase-rotating terms,
each unchanged when an eigenvector flips sign (so no sign convention is
needed).  V is real, and so is every amplitude.  A level whose w_s is
exactly zero (more than half of them at nu = 50, gamma/g = 5) makes
every pair term it is in exactly zero, so only the fed pairs, both of
whose levels have w_s != 0, are formed.
``decompose_initial`` forms A right after each block's solve and keeps
of it only what the sum reads: the constant, and the fed pairs (s, s')
with their amplitudes 2 |c_N|^2 w_s w_s' A_ss', found and formed once.
A ``SectorState`` holds those, the block's eigenvalues, a copy of w and
the field probability |c_N|^2 fed to it.  Neither V nor A outlives its
block, so the blocks' (N+1)^2 matrices (4.7 MB at nu = 50, 83 MB at
nu = 200) are never held together.
``occupancy_sum`` only concatenates: every block's constants, summed,
and its pair amplitudes into one ``series.SpectralSum``, which takes
every block's eigenvalues, concatenated, as its levels and each term as
a (s', s) index pair offset by its block's start, so the
extended-precision phase work of ``SpectralSum.evaluate`` is per
eigenvalue, not per pair.
There is no integration error.  The pairs that are not fed are counted in the
sum's ``terms`` but never formed: ``SpectralSum.pruned`` would drop them
first, adding nothing to the dropped mass, and keep the same terms in
the same order.  It drops the smallest pair terms whose |amplitude| sums
to at most ``series.PRUNE_FRACTION`` of the total, which moves no sample
by more than that dropped mass (``fig11-14`` keeps 508 of its 9 860
pairs).  The series adds to the run's metadata the sectors, the terms
kept, the dropped mass and its budget, and |norm - 1| over the kept
sectors.  The series is the field's <a+a>: its spectrum is the kept
<b+b> sum with the total number as its ``minuend``, which ``evaluate``
subtracts each sample from in place, so no <b+b> series is kept.
"""

from __future__ import annotations

import ctypes
import functools
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import openblas
from .fock import FockState
from .series import SpectralSum, TimeSeries, check_real_fields

# sectors fed by less field-state probability than this are dropped
SECTOR_PRUNE_MASS = 1e-14


@dataclass(frozen=True)
class TwoModeParams:
    """The couplings of H = omega a+a + omega0 b+b + gamma b+b+bb + g (a b+ + a+ b);
    each a finite real, not a bool, and g >= 0."""

    omega: float = 1.0
    omega0: float = 1.0
    gamma: float = 0.0
    g: float = 1.0

    def __post_init__(self):
        check_real_fields(self)
        if self.g < 0:
            raise ValueError("coupling g must be nonnegative")


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


@dataclass(frozen=True)
class SectorState:
    """One conserved-N block: its eigenvalues, the initial data feeding
    it, and the occupancy terms that A = V^T diag(n) V gives it."""

    N: int
    levels: np.ndarray  # ascending eigenvalues
    initial_coeffs: np.ndarray  # eigenbasis expansion w of the starting vector
    weight: float  # |c_N|^2, the field probability routed into this block
    atom_diag: float  # sum_s w_s^2 A_ss
    pairs: np.ndarray  # the fed pairs (s, s'), s < s', as (2, pairs) uint16
    pair_amps: np.ndarray  # 2 |c_N|^2 w_s w_s' A_ss', one per pair

    def __post_init__(self):
        for name in ("levels", "initial_coeffs", "pairs", "pair_amps"):
            kind = np.uint16 if name == "pairs" else np.float64
            v = np.ascontiguousarray(getattr(self, name), dtype=kind)
            v.setflags(write=False)
            object.__setattr__(self, name, v)


def _fed_pairs(coeffs: np.ndarray) -> np.ndarray:
    """The level pairs (s, s'), s < s', whose coefficients are both
    non-zero, as a (2, pairs) array in ``np.triu_indices`` order."""
    fed = np.flatnonzero(coeffs)
    # the strict upper triangle's row-major nonzeros, as triu_indices
    # finds them but without its per-call overhead
    return fed[np.asarray(np.nonzero(~np.tri(fed.size, dtype=bool)))]


def sector_diagonals(N: int, p: TwoModeParams) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal and off-diagonal of the Hamiltonian block at total number N.

    Basis index n = 0..N counts the second mode: diagonal
    omega*(N-n) + omega0*n + gamma*n*(n-1), coupling g*sqrt(n*(N-n+1))
    between n-1 and n.
    """
    if N < 0:
        raise ValueError("N must be >= 0")
    n = np.arange(N + 1, dtype=np.float64)
    diag = p.omega * (N - n) + p.omega0 * n + p.gamma * n * (n - 1.0)
    ncpl = np.arange(1, N + 1)
    return diag, p.g * np.sqrt(ncpl * (N - ncpl + 1.0))


def tridiagonal(diag: np.ndarray, off: np.ndarray) -> np.ndarray:
    """The dense symmetric matrix with diagonal ``diag`` and off-diagonal ``off``."""
    h = np.diag(np.asarray(diag, dtype=np.float64))
    i = np.arange(len(off))
    h[i, i + 1] = h[i + 1, i] = off
    return h


@functools.cache
def _dstevd() -> Optional[tuple[str, Callable[..., EigenDecomposition]]]:
    """The exported name of LAPACK ``dstevd`` in numpy's OpenBLAS and a
    solver of (diag, off) calling it, or None when it is not exported.
    The solver takes float64 arrays of matching sizes, checked by
    ``decompose``."""
    found = openblas.symbol("dstevd_")
    if found is None:
        return None
    name, fn, cint = found
    ref, ptr = ctypes.POINTER(cint), ctypes.c_void_p
    # jobz, n, d, e, z, ldz, work, lwork, iwork, liwork, info, then the
    # hidden length of jobz that Fortran passes with a character argument
    fn.argtypes = [ctypes.c_char_p, ref, ptr, ptr, ptr, ref, ptr, ref, ptr, ref, ref]
    fn.argtypes += [ctypes.c_size_t]
    fn.restype = None
    itype = np.int64 if cint is ctypes.c_int64 else np.int32

    def solve(diag: np.ndarray, off: np.ndarray) -> EigenDecomposition:
        n = diag.size
        d = diag.copy()  # overwritten by the eigenvalues
        e = np.zeros(n)  # off-diagonal, destroyed
        e[: n - 1] = off
        z = np.empty((n, n), order="F")
        lwork, liwork = (1 + 4 * n + n * n, 3 + 5 * n) if n > 1 else (1, 1)
        work = np.empty(lwork)
        iwork = np.empty(liwork, dtype=itype)
        info = cint(0)
        fn(
            b"V",
            ctypes.byref(cint(n)),
            d.ctypes.data,
            e.ctypes.data,
            z.ctypes.data,
            ctypes.byref(cint(max(n, 1))),
            work.ctypes.data,
            ctypes.byref(cint(lwork)),
            iwork.ctypes.data,
            ctypes.byref(cint(liwork)),
            ctypes.byref(info),
            1,
        )
        if info.value != 0:
            raise np.linalg.LinAlgError(f"{name} failed with info = {info.value}")
        return EigenDecomposition(d, z)

    return name, solve


def sector_eigensolver() -> str:
    """What ``decompose`` runs: the exported ``dstevd`` symbol, or
    ``numpy.linalg.eigh`` when numpy's LAPACK has none."""
    found = _dstevd()
    return "numpy.linalg.eigh" if found is None else found[0]


def decompose(diag: np.ndarray, off: np.ndarray) -> EigenDecomposition:
    """Eigendecomposition of the symmetric tridiagonal matrix with diagonal
    ``diag`` and off-diagonal ``off``; eigenvalues in ascending order."""
    diag = np.asarray(diag, dtype=np.float64)
    off = np.asarray(off, dtype=np.float64)
    if diag.ndim != 1 or off.shape != (max(diag.size - 1, 0),):
        raise ValueError(
            f"need a diagonal and an off-diagonal one shorter, got shapes "
            f"{diag.shape} and {off.shape}"
        )
    found = _dstevd()
    if found is None:
        return EigenDecomposition(*np.linalg.eigh(tridiagonal(diag, off)))
    return found[1](diag, off)


def decompose_initial(field: FockState, p: TwoModeParams) -> list[SectorState]:
    """Sector data for the product state (field) x (second mode ground).

    With the second mode empty, sector N starts in basis vector n = 0 and
    receives the field amplitude c_N.  Sectors carrying squared amplitude
    below ``SECTOR_PRUNE_MASS`` are skipped.  Each sector's A is formed
    right after its solve, and only the occupancy terms it gives outlive
    it.  Block dimensions stay within ``fock.N_MAX_CAP + 1``, so every
    level index fits the pairs' uint16.
    """
    sectors = []
    for N, amp in enumerate(field.amplitudes.tolist()):
        weight = abs(amp) ** 2
        if weight < SECTOR_PRUNE_MASS:
            continue
        eig = decompose(*sector_diagonals(N, p))
        v = eig.eigenvectors
        # expansion of e_0 over eigenvectors: row 0 of the eigenvector
        # matrix, copied, since a view of it would keep all of v alive
        coeffs = v[0].copy()
        a = v.T @ (np.arange(N + 1.0)[:, None] * v)
        # np.diag's strided view, not a contiguous copy: the copy's dot
        # product rounds differently, and the preset digests pin these bits
        diag = float(coeffs**2 @ np.diag(a))
        lo, hi = pairs = _fed_pairs(coeffs)
        amps = 2.0 * weight * coeffs[lo] * coeffs[hi] * a[lo, hi]
        sectors.append(SectorState(N, eig.eigenvalues, coeffs, weight, diag, pairs, amps))
    return sectors


@dataclass(frozen=True)
class OccupancySeries:
    """The field's occupation number <a+a> plus the state norm."""

    field: TimeSeries
    norm: np.ndarray


def occupancy_sum(sectors: list[SectorState]) -> tuple[SpectralSum, float, float]:
    """<b+b>(t) as a spectral sum over ``sectors``, the total number and
    the total squared norm.

    The sum's constant is the sectors' diagonal part and its terms their
    pair terms; the number and the norm are constants of the motion.
    """
    if not sectors:
        raise ValueError("no sectors to evolve")
    levels = np.concatenate([s.levels for s in sectors])
    amps = np.concatenate([s.pair_amps for s in sectors])
    # every term's (s, s'), offset in the loop by its sector's first level
    index = np.concatenate([s.pairs for s in sectors], axis=1, dtype=np.int32)
    atom_const = total_number = norm = 0.0
    j0 = offset = 0
    for s in sectors:
        mass = float((s.initial_coeffs**2).sum())
        atom_const += s.weight * s.atom_diag
        total_number += s.weight * s.N * mass
        norm += s.weight * mass
        j1 = j0 + s.pair_amps.size
        index[:, j0:j1] += offset
        j0, offset = j1, offset + s.N + 1
    # every pair of levels is a term of the model, formed or not
    terms = sum(s.N * (s.N + 1) // 2 for s in sectors)
    atom = SpectralSum(amps, levels, index[1], index[0], atom_const, terms)
    return atom, total_number, norm


def occupancy_series(
    sectors: list[SectorState],
    dt: float,
    steps: int,
    meta: dict,
) -> OccupancySeries:
    """<a+a>(t) and the total squared norm at t = k*dt.

    The norm and the total number are constants of the motion; ``norm``
    is a read-only view repeating the former for every sample.  The
    series' spectrum is the kept <b+b> sum with the total number as its
    ``minuend``, and its metadata the run's ``meta`` plus what this computed.
    """
    atom, total_number, norm = occupancy_sum(sectors)
    kept, pruning = replace(atom, minuend=total_number).pruned()  # <a+a> = N - <b+b>
    meta = {**meta, "sectors": len(sectors), "norm_error": abs(norm - 1.0), **pruning}
    return OccupancySeries(
        field=TimeSeries(dt, kept.evaluate(dt, steps), "photon_number", meta, kept),
        norm=np.broadcast_to(norm, steps),
    )
