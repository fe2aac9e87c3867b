"""Phase-space reconstruction and maximal-Lyapunov estimation.

Delay coordinates are chosen from the first minimum of the mutual
information and the false-nearest-neighbor fraction.  The divergence of
initially close trajectory pairs is tracked either from the single
nearest neighbor of each reference point or from the average over an
epsilon-neighborhood; the exponent is the slope of the mean log
distance over a deterministically selected linear region.  Nearest
neighbors of all reference points come from one batched, exact query
(``BoxGrid.nearest_many``); epsilon-neighborhoods are queried per
reference point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .neighbors import BoxGrid
from .series import TimeSeries

# linear-region selection: shortest window considered, and allowed
# deviation of local slopes from the window's least-squares slope
FIT_MIN_POINTS = 4
FIT_SLOPE_TOL = 0.10


class EmptyNeighborhoodError(RuntimeError):
    """No usable neighbor pairs for divergence tracking."""


@dataclass(frozen=True)
class EmbeddingSpec:
    delay: int
    dimension: int

    def __post_init__(self):
        if self.delay < 1:
            raise ValueError("delay must be >= 1")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


@dataclass(frozen=True)
class MutualInformationResult:
    lag: int
    has_minimum: bool
    curve: np.ndarray  # I(lag) for lag = 1..max_lag, in nats


@dataclass(frozen=True)
class FnnResult:
    dimension: Optional[int]
    fnn_fractions: np.ndarray  # fraction of false neighbors for d = 1..d_max


@dataclass(frozen=True)
class LyapunovResult:
    divergence_curve: np.ndarray  # rows (delta_k, mean log distance)
    lambda_max: float
    fit_range: tuple[int, int]
    method: str
    embedding: EmbeddingSpec
    fit_r2: float
    fallback_fit: bool


@dataclass(frozen=True)
class Classification:
    label: str  # "regular" | "chaotic"
    ambiguous: bool = False


def delay_embed(series: TimeSeries, spec: EmbeddingSpec) -> np.ndarray:
    """Vectors v_k = (x_k, x_{k+delay}, ..., x_{k+(dim-1)*delay})."""
    x = series.values
    span = (spec.dimension - 1) * spec.delay
    count = x.size - span
    if count < 1:
        raise ValueError(
            f"series of length {x.size} too short for delay {spec.delay}, "
            f"dimension {spec.dimension}"
        )
    return np.stack(
        [x[j * spec.delay : j * spec.delay + count] for j in range(spec.dimension)],
        axis=1,
    )


def _mi_histogram(a: np.ndarray, b: np.ndarray, bins: int) -> float:
    joint = np.bincount(a * bins + b, minlength=bins * bins).astype(np.float64)
    joint /= joint.sum()
    jm = joint.reshape(bins, bins)
    px = jm.sum(axis=1)
    py = jm.sum(axis=0)
    nz = jm > 0
    denom = np.outer(px, py)[nz]
    return float(np.sum(jm[nz] * np.log(jm[nz] / denom)))


def mutual_information_delay(
    series: TimeSeries,
    max_lag: int,
    bins: int,
    stride: Optional[int] = None,
    min_window: int = 1,
) -> MutualInformationResult:
    """First strict local minimum of the histogram mutual information.

    Falls back to max_lag (flagged) when the curve has no interior
    minimum.  ``stride`` subsamples the pair statistics on long series
    (default targets about 2e5 pairs per lag).  ``min_window`` widens the
    neighborhood a minimum must dominate; curves of noiseless periodic
    signals carry binning ripple that a 1-sample window latches onto.
    """
    x = series.values
    if x.size <= 10 * max_lag:
        raise ValueError("series must be longer than 10 * max_lag")
    if bins < 2:
        raise ValueError("bins must be >= 2")
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise ValueError("mutual information undefined for a constant series")
    bx = np.minimum(((x - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
    if stride is None:
        stride = max(1, (x.size - max_lag) // 200_000)
    curve = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        a = bx[: x.size - lag : stride]
        b = bx[lag::stride]
        curve[lag - 1] = _mi_histogram(a, b[: a.size], bins)
    w = max(1, min_window)
    for k in range(1, max_lag - 1):
        neigh = np.concatenate((curve[max(0, k - w) : k], curve[k + 1 : k + w + 1]))
        if np.all(curve[k] < neigh):
            return MutualInformationResult(k + 1, True, curve)
    return MutualInformationResult(max_lag, False, curve)


def false_nearest_neighbors(
    series: TimeSeries,
    delay: int,
    d_max: int,
    r_tol: float = 15.0,
    a_tol: float = 2.0,
    max_reference: int = 2000,
) -> FnnResult:
    """Fraction of nearest neighbors that separate when the dimension grows.

    A neighbor is false if the extra coordinate jumps by more than r_tol
    times the current distance, or by more than a_tol times the series
    spread (the usual catch for stochastic data).  The reported dimension
    is the smallest d with a false fraction below 1%.  Each dimension
    finds the neighbors of all (up to ``max_reference``) reference points
    in one batched query and applies the test to them as arrays.
    """
    if d_max < 2:
        raise ValueError("d_max must be >= 2")
    x = series.values
    sigma = float(np.std(x))
    # growth below this is indistinguishable from rounding noise; without
    # the floor, exactly periodic data flag duplicate points (distance
    # ~1e-16, growth ~1e-14) as false through a meaningless ratio
    noise_floor = 1e-10 * sigma
    fractions = np.empty(d_max)
    dimension: Optional[int] = None
    for d in range(1, d_max + 1):
        n_ext = x.size - d * delay
        if n_ext < 20:
            raise ValueError(
                f"series too short for FNN at dimension {d} with delay {delay}"
            )
        pts = delay_embed(series, EmbeddingSpec(delay, d))[:n_ext]
        stride = max(1, n_ext // max_reference)
        refs = np.arange(0, n_ext, stride)
        j, dist = BoxGrid(pts).nearest_many(refs, theiler=0, exclude_zero=False)
        found = j >= 0
        growth = np.abs(x[refs[found] + d * delay] - x[j[found] + d * delay])
        false = np.count_nonzero(
            ((growth > r_tol * dist[found]) & (growth > noise_floor))
            | (growth > a_tol * sigma)
        )
        used = np.count_nonzero(found)
        if used == 0:
            raise ValueError("no neighbor pairs available for FNN")
        fractions[d - 1] = false / used
        if dimension is None and fractions[d - 1] < 0.01:
            dimension = d
    return FnnResult(dimension, fractions)


def _select_fit_window(ks: np.ndarray, svals: np.ndarray):
    """Longest window whose local slopes track its least-squares slope.

    Windows start at delta_k >= 1.  Local slopes must stay within
    FIT_SLOPE_TOL of the window slope; when no window of at least
    FIT_MIN_POINTS qualifies, the full usable range is fitted instead
    and the result is flagged as a fallback.
    """
    usable = np.isfinite(svals) & (ks >= 1)
    kk = ks[usable].astype(np.float64)
    ss = svals[usable]
    if kk.size < 2:
        raise ValueError("divergence curve too short to fit")

    # prefix sums for O(1) least-squares over any window
    cx = np.concatenate(([0.0], np.cumsum(kk)))
    cy = np.concatenate(([0.0], np.cumsum(ss)))
    cxx = np.concatenate(([0.0], np.cumsum(kk * kk)))
    cxy = np.concatenate(([0.0], np.cumsum(kk * ss)))
    cyy = np.concatenate(([0.0], np.cumsum(ss * ss)))

    def ls(i0, i1):
        n_w = i1 - i0 + 1
        sx = cx[i1 + 1] - cx[i0]
        sy = cy[i1 + 1] - cy[i0]
        sxx = cxx[i1 + 1] - cxx[i0]
        sxy = cxy[i1 + 1] - cxy[i0]
        syy = cyy[i1 + 1] - cyy[i0]
        vx = n_w * sxx - sx * sx
        vy = n_w * syy - sy * sy
        cov = n_w * sxy - sx * sy
        slope = cov / vx
        r2 = (cov * cov) / (vx * vy) if vy > 0 else 0.0
        return slope, min(1.0, r2)

    local = np.diff(ss) / np.diff(kk)
    best = None  # ((length, -lo), lo, hi)
    n = kk.size
    for lo in range(0, n - FIT_MIN_POINTS + 1):
        gmin = math.inf
        gmax = -math.inf
        for hi in range(lo + 1, n):
            g = local[hi - 1]
            if g < gmin:
                gmin = g
            if g > gmax:
                gmax = g
            if hi - lo + 1 < FIT_MIN_POINTS:
                continue
            slope, _ = ls(lo, hi)
            tol = FIT_SLOPE_TOL * abs(slope)
            if slope - tol <= gmin and gmax <= slope + tol:
                key = (hi - lo + 1, -lo)
                if best is None or key > best[0]:
                    best = (key, lo, hi)
    if best is not None:
        _, lo, hi = best
        slope, r2 = ls(lo, hi)
        return slope, r2, (int(kk[lo]), int(kk[hi])), False
    slope, r2 = ls(0, n - 1)
    return slope, r2, (int(kk[0]), int(kk[-1])), True


def _divergence_ks(horizon: int, curve_stride: int) -> np.ndarray:
    ks = np.arange(0, horizon + 1, curve_stride, dtype=np.int64)
    if ks[-1] != horizon:
        ks = np.append(ks, horizon)
    return ks


def _finish(curve_k, curve_s, dt, method, spec) -> LyapunovResult:
    slope, r2, fit_range, fallback = _select_fit_window(curve_k, curve_s)
    return LyapunovResult(
        divergence_curve=np.column_stack((curve_k, curve_s)),
        lambda_max=slope / dt,
        fit_range=fit_range,
        method=method,
        embedding=spec,
        fit_r2=r2,
        fallback_fit=fallback,
    )


def lyapunov_rosenstein(
    series: TimeSeries,
    spec: EmbeddingSpec,
    theiler: int,
    horizon: int,
    max_reference: int = 4000,
    curve_stride: int = 1,
) -> LyapunovResult:
    """Mean log divergence from each reference point's nearest neighbor.

    The neighbors (outside the Theiler window, with room for ``horizon``
    steps ahead) of all reference points come from one batched query.
    """
    pts = delay_embed(series, spec)
    count = pts.shape[0]
    if count <= 10 * horizon:
        raise ValueError("embedded series must be longer than 10 * horizon")
    limit = count - 1 - horizon
    grid = BoxGrid(pts[: limit + 1])
    stride = max(1, (limit + 1) // max_reference)
    refs = np.arange(0, limit + 1, stride)
    j, _ = grid.nearest_many(refs, theiler=theiler, limit=limit, exclude_zero=True)
    found = j >= 0
    if not found.any():
        raise EmptyNeighborhoodError("no admissible nearest neighbors found")
    ai = refs[found]
    aj = j[found]

    ks = _divergence_ks(horizon, curve_stride)
    svals = np.empty(ks.size)
    for n, dk in enumerate(ks):
        diff = pts[ai + dk] - pts[aj + dk]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        pos = d > 0
        svals[n] = float(np.mean(np.log(d[pos]))) if pos.any() else np.nan
    return _finish(ks, svals, series.dt, "rosenstein", spec)


def lyapunov_kantz(
    series: TimeSeries,
    spec: EmbeddingSpec,
    theiler: int,
    epsilon_frac: float,
    horizon: int,
    max_reference: int = 1000,
    curve_stride: int = 1,
) -> LyapunovResult:
    """Mean log of neighborhood-averaged divergence (all neighbors within
    epsilon = epsilon_frac * series standard deviation)."""
    if epsilon_frac <= 0:
        raise ValueError("epsilon_frac must be positive")
    pts = delay_embed(series, spec)
    count = pts.shape[0]
    if count <= 10 * horizon:
        raise ValueError("embedded series must be longer than 10 * horizon")
    eps = float(epsilon_frac * np.std(series.values))
    limit = count - 1 - horizon
    grid = BoxGrid(pts[: limit + 1])
    stride = max(1, (limit + 1) // max_reference)
    refs = np.arange(0, limit + 1, stride)

    ref_rep = []
    nbr_all = []
    ptr = [0]
    for i in refs:
        nb = grid.within(int(i), eps, theiler=theiler, limit=limit)
        if nb.size:
            ref_rep.append(np.full(nb.size, i, dtype=np.int64))
            nbr_all.append(nb)
            ptr.append(ptr[-1] + nb.size)
    if not nbr_all:
        raise EmptyNeighborhoodError(
            f"no neighborhoods within epsilon = {eps:g}; increase epsilon_frac"
        )
    ai = np.concatenate(ref_rep)
    aj = np.concatenate(nbr_all)
    starts = np.array(ptr[:-1])
    counts = np.diff(np.array(ptr)).astype(np.float64)

    ks = _divergence_ks(horizon, curve_stride)
    svals = np.empty(ks.size)
    for n, dk in enumerate(ks):
        diff = pts[ai + dk] - pts[aj + dk]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        means = np.add.reduceat(d, starts) / counts
        pos = means > 0
        svals[n] = float(np.mean(np.log(means[pos]))) if pos.any() else np.nan
    return _finish(ks, svals, series.dt, "kantz", spec)


def classify(r: LyapunovResult, threshold: float = 0.01) -> Classification:
    """Chaotic iff the exponent clears the threshold on a believable
    linear region (fit R^2 >= 0.95); otherwise regular."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    # plain bools: numpy.bool_ is not JSON serializable
    exceeds = bool(r.lambda_max > threshold)
    good_fit = bool(r.fit_r2 >= 0.95)
    if exceeds and good_fit:
        return Classification("chaotic", False)
    return Classification("regular", ambiguous=exceeds and not good_fit)
