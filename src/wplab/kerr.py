"""Diagonal evolution of a single mode with quadratic and cubic Kerr terms.

The Hamiltonian is diagonal in the number basis with
E_n = chi * n(n-1) + chi_prime * n(n-1)(n-2), so evolution is a pure
phase rotation of the amplitudes.  The quadrature is a sum of
phase-rotating terms,

    <x(t)> = Re sum_n sqrt(2(n+1)) conj(c_n) c_{n+1} exp(-i (E_{n+1} - E_n) t),

a ``series.SpectralSum`` (``quadrature_sum``) whose term n pairs level
n+1 with level n.  ``SpectralSum.evaluate`` samples it on the grid from
the energies themselves, with every level's phase reduced modulo 2*pi in
extended precision.  Its mass sum_n |a_n| bounds |<x(t)>| at every t.
A ``SingleModeSpectrum`` holds only the energies; chi and chi_prime
reach the series metadata from the run, which writes them once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import FockState
from .series import SpectralSum, TimeSeries, check_real_fields, reduced_phases


@dataclass(frozen=True)
class KerrParams:
    """The Kerr coefficients; each a finite real, not a bool."""

    chi: float
    chi_prime: float

    def __post_init__(self):
        check_real_fields(self)


@dataclass(frozen=True)
class SingleModeSpectrum:
    """Energies E_n of the diagonal single-mode Hamiltonian."""

    energies: np.ndarray

    def __post_init__(self):
        e = np.ascontiguousarray(self.energies, dtype=np.float64)
        e.setflags(write=False)
        object.__setattr__(self, "energies", e)

    @property
    def n_max(self) -> int:
        return self.energies.shape[0] - 1


def kerr_spectrum(chi: float, chi_prime: float, n_max: int) -> SingleModeSpectrum:
    """E_n = chi*n(n-1) + chi_prime*n(n-1)(n-2) for n = 0..n_max."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    n = np.arange(n_max + 1, dtype=np.float64)
    quad = n * (n - 1.0)
    return SingleModeSpectrum(chi * quad + chi_prime * quad * (n - 2.0))


def evolve_diagonal(state0: FockState, spec: SingleModeSpectrum, t: float) -> FockState:
    """Amplitudes at time t: c_n(t) = c_n(0) * exp(-i E_n t)."""
    if state0.n_max != spec.n_max:
        raise ValueError(
            f"dimension mismatch: state n_max {state0.n_max} vs spectrum {spec.n_max}"
        )
    phases = reduced_phases(spec.energies, t)
    return FockState(state0.amplitudes * np.exp(-1j * phases))


def quadrature_sum(state0: FockState, spec: SingleModeSpectrum) -> SpectralSum:
    """<x(t)> as a spectral sum: term n is sqrt(2(n+1)) conj(c_n) c_{n+1}
    on the level pair (n+1, n)."""
    if state0.n_max != spec.n_max:
        raise ValueError("state and spectrum dimensions differ")
    c = state0.amplitudes
    amp = np.sqrt(2.0 * np.arange(1.0, spec.n_max + 1)) * np.conj(c[:-1]) * c[1:]
    n = np.arange(spec.n_max)
    return SpectralSum(amp, spec.energies, n + 1, n)


def generate_series_x(
    state0: FockState,
    spec: SingleModeSpectrum,
    dt: float,
    steps: int,
    meta: dict,
) -> TimeSeries:
    """<x(t)> at t = k*dt for k = 0..steps-1, with the kept sum as its spectrum;
    its metadata is the run's ``meta`` plus ``n_max`` and the pruning."""
    kept, pruning = quadrature_sum(state0, spec).pruned()
    meta = {**meta, "n_max": spec.n_max, **pruning}
    return TimeSeries(dt, kept.evaluate(dt, steps), "quadrature_x", meta, kept)
