"""Truncated Fock-space states of a single bosonic mode.

Coherent states and photon-added coherent states are built from
log-domain amplitude recursions, so photon numbers of a few hundred
never overflow, then renormalized on the truncated basis.
``choose_truncation`` picks that basis from one summation of the
analytically normalized probabilities over the capped basis.  A
``FockState`` is its amplitudes only: the (nu, m) it was built from is
recorded by the run that chose them, in the series metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# a truncated state may lose at most this probability mass, and its
# basis may hold at most N_MAX_CAP + 1 photon numbers
EPSILON_TRUNC = 1e-12
N_MAX_CAP = 4096


class TruncationInsufficientError(ValueError):
    """The truncated basis misses more probability mass than allowed."""


class CapExceededError(ValueError):
    """No truncation index within the hard cap meets the tolerance."""


@dataclass(frozen=True)
class FockState:
    """Complex amplitudes c_0..c_{n_max} over photon numbers, unit norm."""

    amplitudes: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        c.setflags(write=False)
        object.__setattr__(self, "amplitudes", c)

    @property
    def n_max(self) -> int:
        return self.amplitudes.shape[0] - 1


def laguerre(m: int, x: float) -> float:
    """Laguerre polynomial L_m(x) by the three-term recurrence."""
    if m < 0:
        raise ValueError("order must be nonnegative")
    if m == 0:
        return 1.0
    prev, cur = 1.0, 1.0 - x
    for k in range(1, m):
        prev, cur = cur, ((2 * k + 1 - x) * cur - k * prev) / (k + 1)
    return cur


def _log_factorials(n: int) -> np.ndarray:
    """ln(k!) for k = 0..n, accumulated term by term."""
    out = np.zeros(n + 1)
    out[1:] = np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))
    return out


def _pacs_raw_amplitudes(alpha: complex, m: int, n_max: int) -> np.ndarray:
    """Amplitudes of (a+)^m |alpha> / sqrt(m! L_m(-nu)) on the basis 0..n_max.

    c_k = e^{-nu/2} alpha^{k-m} sqrt(k!) / (k-m)! / sqrt(m! L_m(-nu)),
    zero for k < m; evaluated through logs of the magnitudes.
    """
    nu = abs(alpha) ** 2
    c = np.zeros(n_max + 1, dtype=np.complex128)
    lnfact = _log_factorials(n_max)
    log_norm = 0.5 * (lnfact[m] + math.log(laguerre(m, -nu)))
    if alpha == 0:
        # photon-added vacuum is the Fock state |m>
        c[m] = math.exp(0.5 * lnfact[m] - log_norm)
        return c
    ks = np.arange(m, n_max + 1)
    log_mag = (
        -0.5 * nu
        + (ks - m) * math.log(abs(alpha))
        + 0.5 * lnfact[m:]
        - lnfact[: n_max + 1 - m]
        - log_norm
    )
    phases = (ks - m) * np.angle(alpha)
    with np.errstate(under="ignore"):
        c[m:] = np.exp(log_mag) * np.exp(1j * phases)
    return c


def pacs_amplitudes(alpha: complex, m: int, n_max: int) -> FockState:
    """m-photon-added coherent state, truncated at n_max and renormalized.

    m = 0 is the coherent state |alpha>.  Raises
    ``TruncationInsufficientError`` when the basis captures less than
    1 - EPSILON_TRUNC of the squared norm; ``choose_truncation`` picks an
    n_max that also bounds the mass in the last two kept states.
    """
    if m < 0:
        raise ValueError("m must be >= 0")
    if n_max < m + 1:
        raise ValueError("n_max must be >= m + 1")
    raw = _pacs_raw_amplitudes(alpha, m, n_max)
    norm_sq = float(np.sum(np.abs(raw) ** 2))
    if norm_sq < 1.0 - EPSILON_TRUNC:
        raise TruncationInsufficientError(
            f"truncated basis captures squared norm {norm_sq:.15g} "
            f"< 1 - {EPSILON_TRUNC:g}; increase n_max"
        )
    return FockState(raw / math.sqrt(norm_sq))


def quadrature_expectation(state: FockState) -> float:
    """<x> with x = (a + a+)/sqrt(2)."""
    c = state.amplitudes
    sqrt_n = np.sqrt(np.arange(1, c.size))
    return float(math.sqrt(2.0) * np.real(np.dot(np.conj(c[:-1]) * c[1:], sqrt_n)))


def choose_truncation(alpha: complex, m: int) -> int:
    """Smallest n_max >= m + 1 whose truncation loses < EPSILON_TRUNC.

    One summation of the analytically normalized amplitudes over the
    capped basis 0..N_MAX_CAP: the first n_max at which both the
    out-of-basis mass and the mass in the last two kept states are below
    the tolerance.  Each is a prefix of that summation, so it does not
    depend on the basis size summed over.
    """
    if m >= N_MAX_CAP:
        raise CapExceededError(f"m={m} leaves no n_max >= m + 1 within {N_MAX_CAP}")
    p = np.abs(_pacs_raw_amplitudes(alpha, m, N_MAX_CAP)) ** 2
    last_two = p + np.append(0.0, p[:-1])
    ok = (1.0 - np.cumsum(p) < EPSILON_TRUNC) & (last_two < EPSILON_TRUNC)
    hits = np.flatnonzero(ok[m + 1 :])
    if not hits.size:
        raise CapExceededError(
            f"no n_max <= {N_MAX_CAP} reaches tail mass < {EPSILON_TRUNC:g} "
            f"for nu={abs(alpha) ** 2:g}, m={m}"
        )
    return int(hits[0]) + m + 1
