"""Uniformly sampled scalar time series, and the spectral sum both models are.

Both model observables are a constant plus a sum of phase-rotating terms,
c + Re sum_j a_j exp(-i w_j t), sampled on the grid t = k*dt, and every
frequency is a difference of two energy levels, w_j = E[u_j] - E[l_j].
A ``SpectralSum`` holds such a sum, and ``SpectralSum.evaluate`` samples
it for k = 0..steps-1 with dense matrix products: writing k = k0 + b
with k0 a block start and b < B,

    Re sum_j P[k0, j] R[b, j],  P[k0, j] = a_j exp(-i w_j k0 dt),
                                R[b, j] = exp(-i w_j b dt),

is one real GEMM per chunk of terms.  The extended-precision work runs
once per level, not once per term: every level's phase E t on the block
starts and on the two exact factor grids of R is reduced modulo 2*pi in
long double and exponentiated, and a term's phasor is the product of
its two levels' entries.  No error accumulates along the series.

``SpectralSum.pruned`` prunes once.  Since |exp(-i w t)| = 1, dropping
a set D of terms moves no sample by more than its mass sum_D |a_j|.  It
drops the smallest terms (stable sort by |a_j|, so ties go in index
order) whose cumulative |a_j| is at most ``PRUNE_FRACTION * sum_j |a_j|``
and keeps the levels the rest use; a term above that budget is never
dropped.  ``evaluate`` sums every term it is given: pruning a kept sum
again, against its own total or the original one, would drop more (16
of ``fig11-14``'s 508), so a series' kept sum (``TimeSeries.spectrum``)
evaluates to its samples bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields, replace
from typing import Any, Optional

import numpy as np

TWO_PI_LD = np.longdouble("6.2831853071795864769252867665590057684")

# largest in-block phase table (the one buffer every chunk of terms
# reuses) and largest product slab, in bytes
_TABLE_BYTES = 4 << 20

# the smallest terms whose |a| sums to at most this share of sum |a| are
# dropped: a tenth of the 1e-13 * sum |a| the kernel is tested to against
# a long-double direct sum
PRUNE_FRACTION = 1e-14


def check_real_fields(params) -> None:
    """``ValueError`` naming the first field of the frozen dataclass ``params``
    that is not a finite real number (a bool is not one); else each is
    held as the Python float that the run computes with and records."""
    for f in fields(params):
        v = getattr(params, f.name)
        real = isinstance(v, numbers.Real) and not isinstance(v, bool)
        if not (real and math.isfinite(v)):
            raise ValueError(f"parameter {f.name!r} must be a finite real, got {v!r}")
        object.__setattr__(params, f.name, float(v))


@dataclass(frozen=True)
class TimeSeries:
    """A real scalar sequence sampled every ``dt`` time units.

    ``dt`` is stored as a Python float and ``values`` as a read-only
    float64 array; ``meta`` carries the run's inputs and what the model
    computed (free-form); ``spectrum``, when known, is the kept
    ``SpectralSum`` that evaluates to ``values`` bit for bit.
    """

    dt: float
    values: np.ndarray
    observable: str = ""
    meta: dict[str, Any] = field(default_factory=dict)
    spectrum: Optional[SpectralSum] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if isinstance(self.dt, bool) or not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        object.__setattr__(self, "dt", float(self.dt))
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if v.ndim != 1:
            raise ValueError(f"series values must be 1-D, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("series values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]


def reduced_phases(freq: np.ndarray, t) -> np.ndarray:
    """freq * t reduced modulo 2*pi, carried out in extended precision.

    ``freq`` and ``t`` broadcast against each other.
    """
    arg = np.asarray(freq, dtype=np.longdouble) * np.asarray(t, dtype=np.longdouble)
    return np.mod(arg, TWO_PI_LD).astype(np.float64)


def block_rows(steps: int) -> int:
    """In-block length B of ``SpectralSum.evaluate``: about 4*sqrt(steps).

    The extended-precision phase tables cost per level, not per term.
    Per term, the block-start coefficients cost a gather and a complex
    product per block and the in-block table one per row, least near
    B = sqrt(steps); beside the GEMM's 2*steps flops per term both are
    small, and B = sqrt, 2*sqrt and 4*sqrt(steps) measured within noise
    of each other (8*sqrt was slower by half).
    """
    return min(steps, math.ceil(4.0 * math.sqrt(steps)))


def _level_index(idx, terms: int, levels: int, name: str) -> np.ndarray:
    """``idx`` as one in-range level index per term, or ValueError."""
    idx = np.asarray(idx)
    if idx.size and idx.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integer level indices")
    idx = idx.astype(np.intp).ravel()
    if idx.size != terms:
        raise ValueError(f"{name} has {idx.size} entries for {terms} terms")
    if idx.size and (idx.min() < 0 or idx.max() >= levels):
        raise ValueError(f"{name} indexes outside the {levels} levels")
    return idx


def _pair_phasors(tab: np.ndarray, upper: np.ndarray, lower: np.ndarray) -> np.ndarray:
    """tab[:, upper] * conj(tab[:, lower]).

    ``np.take`` returns the gathered columns C-contiguous; ``tab[:, idx]``
    does not, and the copies that forces cost more than the GEMM.
    """
    return np.take(tab, upper, axis=1) * np.conj(np.take(tab, lower, axis=1))


def _kept_terms(mag: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Indices of the terms to sum, and what is dropped.

    Drops the longest run of smallest ``mag`` (a stable sort, so equal
    magnitudes go lowest index first) whose sum is at most
    ``PRUNE_FRACTION * mag.sum()``.  Returns (kept indices, dropped sum,
    budget); the kept indices stay in their given order, so a sum that
    drops nothing runs exactly as it would unpruned.
    """
    order = np.argsort(mag, kind="stable")
    cum = np.cumsum(mag[order])
    budget = PRUNE_FRACTION * float(cum[-1]) if cum.size else 0.0
    drop = int(np.searchsorted(cum, budget, side="right"))
    dropped = float(cum[drop - 1]) if drop else 0.0
    return np.sort(order[drop:]), dropped, budget


def _used_levels(levels, upper, lower) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``levels`` cut to those that ``upper`` or ``lower`` index, and both renumbered."""
    used, index = np.unique(np.concatenate((upper, lower)), return_inverse=True)
    return levels[used], index[: upper.size], index[upper.size :]


@dataclass(frozen=True)
class SpectralSum:
    """const + Re sum_j amp_j exp(-i (E[upper_j] - E[lower_j]) t), or
    ``minuend`` less that when it is given.

    ``levels`` holds the energies E; ``upper`` and ``lower`` index into
    it, one pair per term (``lower`` may exceed ``upper``).  ``terms`` is
    the model's term count, which may include terms never formed because
    they are exactly zero; None counts the given ones.  The arrays are
    checked and made 1-D on construction: ``amp`` complex128, or float64
    when real, ``levels`` float64 and the indices intp.
    """

    amp: Any
    levels: Any
    upper: Any
    lower: Any
    const: float = 0.0
    terms: Optional[int] = None
    minuend: Optional[float] = None

    def __post_init__(self):
        # real amplitudes stay real: numpy multiplies them as (a, 0) anyway
        kind = np.complex128 if np.iscomplexobj(self.amp) else np.float64
        amp = np.asarray(self.amp, dtype=kind).ravel()
        levels = np.asarray(self.levels, dtype=np.float64).ravel()
        upper = _level_index(self.upper, amp.size, levels.size, "upper")
        lower = _level_index(self.lower, amp.size, levels.size, "lower")
        terms = amp.size if self.terms is None else self.terms
        for name, value in zip(("amp", "levels", "upper", "lower", "terms"),
                               (amp, levels, upper, lower, terms)):
            object.__setattr__(self, name, value)

    def pruned(self) -> tuple[SpectralSum, dict[str, Any]]:
        """The kept terms, in order, over the levels they use, and the
        report for the series metadata: ``spectral_terms`` (``terms``),
        ``spectral_terms_kept``, ``spectral_dropped_mass`` (sum |amp_j| over
        the dropped terms, which bounds every sample's change) and
        ``spectral_prune_budget`` (``PRUNE_FRACTION * sum_j |amp_j|``)."""
        keep, dropped, budget = _kept_terms(np.abs(self.amp))
        report = {"spectral_terms": self.terms, "spectral_terms_kept": keep.size,
                  "spectral_dropped_mass": dropped, "spectral_prune_budget": budget}
        levels, upper, lower = _used_levels(self.levels, self.upper[keep], self.lower[keep])
        kept = replace(self, amp=self.amp[keep], levels=levels, upper=upper, lower=lower)
        return kept, report

    def evaluate(self, dt: float, steps: int) -> np.ndarray:
        """The sum of every term at t = k*dt for k = 0..steps-1.

        ``const`` is added only when it is non-zero, so a zero constant
        leaves every sample's bits as the terms give them; a ``minuend``
        then takes each sample from it, in place.

        The phase tables exp(-+i E t) are built once per level on the three
        grids (block starts, and the coarse and fine factors b = h*L + l of
        the in-block offset, L = ceil(sqrt(B))), each phase reduced modulo
        2*pi in extended precision; a term's phasors are the product of its
        upper level's entry and the conjugate of its lower level's, so the
        in-block table carries no incremental-rotation drift.
        Re(P R^T) = P_re R_re^T - P_im R_im^T is computed as one real GEMM
        over the interleaved (re, im) pairs of P and conj(R).  Terms are
        chunked so the in-block table stays within about ``_TABLE_BYTES``,
        and every chunk's table is written into one buffer allocated once
        per call, so one table is alive at a time; the level tables take
        (blocks + 2*sqrt(B)) * 16 bytes per used level.
        """
        if steps < 1:
            raise ValueError("steps must be >= 1")
        amp = self.amp
        levels, upper, lower = _used_levels(self.levels, self.upper, self.lower)

        rows = block_rows(steps)
        blocks = -(-steps // rows)
        side = math.ceil(math.sqrt(rows))
        dt_ld = np.longdouble(dt)

        def phasors(sign: complex, ticks: int, stride: int) -> np.ndarray:
            t = (np.arange(ticks, dtype=np.longdouble) * stride * dt_ld)[:, None]
            return np.exp(sign * reduced_phases(levels, t))

        starts = phasors(-1j, blocks, rows)
        coarse = phasors(1j, -(-rows // side), side)
        fine = phasors(1j, side, 1)
        chunk = max(1, _TABLE_BYTES // (16 * rows))
        slab = max(1, _TABLE_BYTES // (8 * rows))
        # the in-block table of every chunk, written in place: the leading
        # coarse * side * n entries are laid out as a fresh (coarse, side, n)
        # product would be, so a partial chunk's GEMM reads the same layout
        cells = coarse.shape[0] * side
        buf = np.empty(cells * min(chunk, amp.size), dtype=np.complex128)

        out = np.zeros((blocks, rows))
        for j0 in range(0, amp.size, chunk):
            up = upper[j0 : j0 + chunk]
            lo = lower[j0 : j0 + chunk]
            p = (amp[j0 : j0 + chunk] * _pair_phasors(starts, up, lo)).view(np.float64)
            table = buf[: cells * up.size].reshape(coarse.shape[0], side, up.size)
            np.multiply(
                _pair_phasors(coarse, up, lo)[:, None, :], _pair_phasors(fine, up, lo),
                out=table,
            )
            rt = table.reshape(-1, up.size)[:rows].view(np.float64).T
            for i0 in range(0, blocks, slab):
                out[i0 : i0 + slab] += p[i0 : i0 + slab] @ rt
        samples = out.ravel()[:steps]
        if self.const:
            samples += self.const
        if self.minuend is not None:
            np.subtract(self.minuend, samples, out=samples)
        return samples
