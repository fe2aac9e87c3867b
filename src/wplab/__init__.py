"""Numerical laboratory for wave-packet dynamics of nonlinear
quantum-optical models and recurrence-based time-series analysis."""

from .bipartite import (
    EigenDecomposition,
    TwoModeParams,
    decompose,
    decompose_initial,
    sector_diagonals,
)
from .embed import (
    Classification,
    EmbeddingSpec,
    LyapunovResult,
    classify,
    delay_embed,
    false_nearest_neighbors,
    lyapunov_kantz,
    lyapunov_rosenstein,
    mutual_information_delay,
)
from .fock import (
    FockState,
    choose_truncation,
    laguerre,
    pacs_amplitudes,
    quadrature_expectation,
)
from .kerr import SingleModeSpectrum, evolve_diagonal, generate_series_x, kerr_spectrum
from .lab import RunManifest, analyze, run_preset, simulate, simulate_series
from .recur import (
    Cell,
    DensityHistogram,
    RecurrencePlotData,
    ReturnTimeHistogram,
    first_return_times,
    fit_exponential,
    invariant_density,
    recurrence_matrix,
    return_map,
    second_return_times,
    support_sparsity,
)
from .series import TimeSeries

__version__ = "0.1.0"

__all__ = [
    "Cell",
    "Classification",
    "DensityHistogram",
    "EigenDecomposition",
    "EmbeddingSpec",
    "FockState",
    "LyapunovResult",
    "RecurrencePlotData",
    "ReturnTimeHistogram",
    "RunManifest",
    "SingleModeSpectrum",
    "TimeSeries",
    "TwoModeParams",
    "analyze",
    "choose_truncation",
    "classify",
    "decompose",
    "decompose_initial",
    "delay_embed",
    "evolve_diagonal",
    "false_nearest_neighbors",
    "first_return_times",
    "fit_exponential",
    "generate_series_x",
    "invariant_density",
    "kerr_spectrum",
    "laguerre",
    "lyapunov_kantz",
    "lyapunov_rosenstein",
    "mutual_information_delay",
    "pacs_amplitudes",
    "quadrature_expectation",
    "recurrence_matrix",
    "return_map",
    "run_preset",
    "second_return_times",
    "sector_diagonals",
    "simulate",
    "simulate_series",
    "support_sparsity",
]
