"""Uniformly sampled scalar time series, and the spectral-series kernel.

Both model observables are sums of phase-rotating terms,
Re sum_j a_j exp(-i w_j t), sampled on the grid t = k*dt.
``spectral_series`` evaluates such a sum for k = 0..steps-1 with dense
matrix products: writing k = k0 + b with k0 a block start and b < B,

    Re sum_j P[k0, j] R[b, j],  P[k0, j] = a_j exp(-i w_j k0 dt),
                                R[b, j] = exp(-i w_j b dt),

is one real GEMM per chunk of terms.  Every phase (block starts and the
two exact factor tables of R) is reduced modulo 2*pi in extended
precision before it is exponentiated, so no error accumulates along the
series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

TWO_PI_LD = np.longdouble("6.2831853071795864769252867665590057684")

# largest in-block phase table (per chunk of terms) and largest product
# slab, in bytes
_TABLE_BYTES = 4 << 20


@dataclass(frozen=True)
class TimeSeries:
    """A real scalar sequence sampled every ``dt`` time units.

    ``values`` is stored as a read-only float64 array; ``meta`` carries
    the model parameters the series was generated with (free-form).
    """

    dt: float
    values: np.ndarray
    observable: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        v = np.ascontiguousarray(self.values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise ValueError("series values must be finite")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __len__(self) -> int:
        return self.values.shape[0]

    def with_values(self, values: np.ndarray) -> "TimeSeries":
        """Same sampling and metadata, different payload."""
        return TimeSeries(self.dt, values, self.observable, dict(self.meta))


def reduced_phases(freq: np.ndarray, t) -> np.ndarray:
    """freq * t reduced modulo 2*pi, carried out in extended precision.

    ``freq`` and ``t`` broadcast against each other.
    """
    arg = np.asarray(freq, dtype=np.longdouble) * np.asarray(t, dtype=np.longdouble)
    return np.mod(arg, TWO_PI_LD).astype(np.float64)


def block_rows(steps: int) -> int:
    """In-block length B of ``spectral_series``: about 4*sqrt(steps).

    The block-start coefficients cost extended-precision work per block
    and term, the in-block table double-precision work per row and term;
    B = 4*sqrt(steps) balances the two.
    """
    return min(steps, math.ceil(4.0 * math.sqrt(steps)))


def spectral_series(amp, freq, dt: float, steps: int) -> np.ndarray:
    """Re sum_j amp_j exp(-i freq_j k dt) for k = 0..steps-1.

    The in-block table is the product of two exact tables, b = h*L + l
    with L = ceil(sqrt(B)), so it carries no incremental-rotation drift.
    Re(P R^T) = P_re R_re^T - P_im R_im^T is computed as one real GEMM
    over the interleaved (re, im) pairs of P and conj(R).  Terms are
    chunked so the table stays within ``_TABLE_BYTES``.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    amp = np.asarray(amp, dtype=np.complex128).ravel()
    freq = np.asarray(freq, dtype=np.float64).ravel()
    if amp.shape != freq.shape:
        raise ValueError("amp and freq must have the same length")
    rows = block_rows(steps)
    blocks = -(-steps // rows)
    side = math.ceil(math.sqrt(rows))
    dt_ld = np.longdouble(dt)
    starts = (np.arange(blocks, dtype=np.longdouble) * rows * dt_ld)[:, None]
    fine = (np.arange(side, dtype=np.longdouble) * dt_ld)[:, None]
    coarse = (np.arange(-(-rows // side), dtype=np.longdouble) * side * dt_ld)[:, None]
    chunk = max(1, _TABLE_BYTES // (16 * rows))
    slab = max(1, _TABLE_BYTES // (8 * rows))

    out = np.zeros((blocks, rows))
    for j0 in range(0, amp.size, chunk):
        a = amp[j0 : j0 + chunk]
        w = freq[j0 : j0 + chunk]
        p = (a * np.exp(-1j * reduced_phases(w, starts))).view(np.float64)
        table = np.exp(1j * reduced_phases(w, coarse))[:, None, :] * np.exp(
            1j * reduced_phases(w, fine)
        )
        rt = table.reshape(-1, w.size)[:rows].view(np.float64).T
        for i0 in range(0, blocks, slab):
            out[i0 : i0 + slab] += p[i0 : i0 + slab] @ rt
    return out.ravel()[:steps]
