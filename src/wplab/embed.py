"""Phase-space reconstruction and maximal-Lyapunov estimation.

Delay coordinates are chosen from the first minimum of the mutual
information and the false-nearest-neighbor fraction.  Divergence is
tracked from each reference point's nearest neighbor (Rosenstein, which
every run path uses) or epsilon-neighborhood (Kantz, a library estimator
no run path uses) in one loop; the exponent is the slope of the mean log
distance over a deterministically selected linear region: the longest
window of the curve whose local slopes stay within FIT_SLOPE_TOL of its
least-squares slope, found with one vectorised pass over all window ends
per window start.  Nearest neighbors of all reference points come from
one batched, exact query (``BoxGrid.nearest_many``), whose first k does
not grow with the Theiler window (Rosenstein uses theiler = 2 * delay);
epsilon-neighborhoods are queried per reference point.
The divergence curve is computed for a chunk of delta_k at a time, as
(delta_k, pairs) arrays gathered with ``np.take`` and kept under
``_CURVE_CHUNK_BYTES`` per side, bitwise equal to a loop over single
delta_k: on fig11-14 at 2e5 steps (2 014 pairs, 201 delta_k) the loop's
201 rounds of fancy indexing took 0.082 s and 26 chunks take 0.020 s
(one BLAS thread, 2-vCPU Xeon).  The mutual information curve bins the
series once and keeps each lag's joint histogram as integer counts: a
lag's counts follow from the previous lag's by moving only the pairs
whose second point crosses a change of bin, or are recounted from all
pairs where the series changes bin so often that this is cheaper.

Each scan stops at its answer.  The delay search can end at the first
minimum of the mutual information, once the lags that confirm it are
counted.  FNN ends at the first dimension whose false fraction drops
below 1%, chooses the dimension an estimate embeds in (the caller only
records it), and hands on the KD-tree of that embedding when it was the
last scanned: the tree covers every embedded row, and queries keep to
the rows they may use through ``limit``, so the divergence estimate of
the same embedding reuses it instead of building another.  Each
estimator's defaults (MI_BINS, MI_MIN_WINDOW, FNN_D_MAX) are the rules
every run path uses, so a caller passes only the lags searched and the
delay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .neighbors import BoxGrid
from .series import TimeSeries

# linear-region selection: shortest window considered, and allowed
# deviation of local slopes from the window's least-squares slope
FIT_MIN_POINTS = 4
FIT_SLOPE_TOL = 0.10
CHAOS_THRESHOLD = 0.01  # ``classify``: chaos needs an exponent above this
MI_BINS = 16  # mutual-information bins per axis
MI_MIN_WINDOW = 5  # smoothing window of the mutual-information minimum
# FNN (Kennel, Brown & Abarbanel 1992): the distance and spread ratios
# R_tol and A_tol, and the fewest extended points a dimension needs
FNN_R_TOL = 15.0
FNN_A_TOL = 2.0
FNN_MIN_POINTS = 20
FNN_D_MAX = 8  # the largest dimension tried
FNN_STOP_FRACTION = 0.01  # the scan stops at the first false fraction under this
FNN_RELAXED_FRACTION = 0.05  # the estimate's fallback when none is under 1%
MAX_REFERENCE = 2000  # FNN and Rosenstein use every max(1, n // 2000)-th point: 2000 to 3999
# cap on the bytes of each side's gathered pair rows in one chunk of the
# divergence curve's delta_k; a chunk holds at least one delta_k
_CURVE_CHUNK_BYTES = 1 << 19


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
    # I(lag) for lag = 1..max_lag, in nats; it ends where the first
    # minimum is confirmed when the search stops there
    curve: np.ndarray


@dataclass(frozen=True)
class FnnResult:
    dimension: Optional[int]  # first d under 1% false, None when none is
    chosen: int  # an estimate's: ``dimension``, else first d under 5%, else d_max
    # fraction of false neighbors for d = 1..dimension, or 1..d_max
    # when no fraction drops below 1%
    fnn_fractions: np.ndarray
    # KD-tree over the full embedding of ``chosen`` if it was scanned last
    grid: Optional[BoxGrid] = field(default=None, repr=False, compare=False)


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


def _at_least(low: int, **counts: int) -> None:
    """``ValueError`` naming the first of ``counts`` below ``low``."""
    for name, value in counts.items():
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")


def check_delay_search(samples: int, max_lag: int) -> None:
    """The delay search over lags 1..max_lag needs more than 10 * max_lag samples."""
    if samples <= 10 * max_lag:
        raise ValueError(
            f"mutual-information max_lag {max_lag} needs more than "
            f"{10 * max_lag} samples, got {samples}"
        )


def check_fnn(samples: int, delay: int, dimension: int) -> None:
    """FNN at ``dimension`` needs FNN_MIN_POINTS extended points,
    samples - dimension * delay."""
    if samples - dimension * delay < FNN_MIN_POINTS:
        raise ValueError(
            f"FNN at delay {delay}, dimension {dimension} needs "
            f"{dimension * delay + FNN_MIN_POINTS} samples or more, got {samples}"
        )


def check_divergence(samples: int, spec: Optional[EmbeddingSpec], horizon: int) -> None:
    """The divergence curve needs more than 10 * horizon embedded samples,
    samples - (dimension - 1) * delay; with ``spec`` None (not yet
    chosen), more than 10 * horizon samples, which no embedding lengthens."""
    embedded = samples if spec is None else samples - (spec.dimension - 1) * spec.delay
    if embedded <= 10 * horizon:
        raise ValueError(
            f"Lyapunov horizon {horizon} needs more than {10 * horizon} "
            f"embedded samples, got {embedded}"
        )


def check_theiler(samples: int, spec: EmbeddingSpec, horizon: int, theiler: int) -> None:
    """A reference point has a neighbour outside the Theiler window: the
    last point with ``horizon`` steps ahead, embedded - 1 - horizon, lies
    more than ``theiler`` after the first."""
    last = samples - (spec.dimension - 1) * spec.delay - 1 - horizon
    if last <= theiler:
        raise ValueError(
            f"Theiler window {theiler} leaves no neighbour: the reference "
            f"points end at embedded index {last} (horizon {horizon})"
        )


def _mi_counts(counts: np.ndarray, bins: int) -> float:
    """Mutual information of the (bins * bins) joint counts, flattened."""
    joint = counts.astype(np.float64)
    joint /= joint.sum()
    jm = joint.reshape(bins, bins)
    px = jm.sum(axis=1)
    py = jm.sum(axis=0)
    nz = jm > 0
    denom = np.outer(px, py)[nz]
    return float(np.sum(jm[nz] * np.log(jm[nz] / denom)))


def _joint_counts(
    bx: np.ndarray, row: np.ndarray, lag: int, stride: int, bins: int
) -> np.ndarray:
    """Counts of the pairs (bx[t], bx[t + lag]), t = 0, stride, ... <
    n - lag, flattened as bx[t] * bins + bx[t + lag]; ``row`` is bx * bins."""
    a = row[: bx.size - lag : stride]
    return np.bincount(a + bx[lag::stride][: a.size], minlength=bins * bins)


# time of one change-point move in units of the time of one recounted
# pair: 5-8 measured with numpy 2.4 on a 2-vCPU Xeon (bins 16, 6e4 to 1e6
# samples), so a lag is recounted unless its moves are this much fewer
_UPDATE_COST = 6


def mutual_information_delay(
    series: TimeSeries,
    max_lag: int,
    bins: int = MI_BINS,
    stride: Optional[int] = None,
    min_window: int = MI_MIN_WINDOW,
    stop_at_minimum: bool = False,
) -> MutualInformationResult:
    """First strict local minimum of the histogram mutual information.

    Falls back to max_lag (flagged) when the curve has no interior
    minimum.  The series is binned into ``bins`` (MI_BINS, 16) per axis.
    ``stride`` subsamples the pair statistics on long series (default
    targets about 2e5 pairs per lag).  A minimum must lie below every
    value within ``min_window`` (MI_MIN_WINDOW, 5) lags of it; curves of
    noiseless periodic signals carry binning ripple that a 1-lag window
    latches onto.
    With ``stop_at_minimum`` the curve ends at the lag that confirms the
    first minimum, ``min_window`` lags past it; lag and flag are the
    same as from the full curve.

    The pairs at a lag are (x_t, x_{t+lag}) for t a multiple of
    ``stride``.  Going from lag - 1 to lag, the last pair drops out and a
    pair changes its joint bin only where its second point crosses a
    change point of the binned series, so each lag's integer counts
    follow from the previous lag's by those few moves; a lag is recounted
    from all its pairs instead when that is cheaper.  Either way the
    counts are exact, and the curve does not depend on the path taken.
    """
    x = series.values
    _at_least(1, max_lag=max_lag, stride=1 if stride is None else stride)
    _at_least(2, bins=bins)
    check_delay_search(x.size, max_lag)
    lo, hi = float(x.min()), float(x.max())
    if hi <= lo:
        raise ValueError("mutual information undefined for a constant series")
    n = x.size
    bx = np.minimum(((x - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
    if stride is None:
        stride = max(1, (n - max_lag) // 200_000)
    row = bx * bins
    w = max(1, min_window)
    # change points c (bx[c] != bx[c - 1]), sorted within each residue
    # class c mod stride
    change = np.flatnonzero(bx[1:] != bx[:-1]) + 1
    by_residue = [change[change % stride == r] for r in range(stride)]
    counts = _joint_counts(bx, row, 1, stride, bins)
    curve = np.empty(max_lag)
    curve[0] = _mi_counts(counts, bins)
    for lag in range(2, max_lag + 1):
        # pair t moves its second point from t + lag - 1 to c = t + lag;
        # its code changes iff c is a change point with c >= lag and
        # c % stride == lag % stride
        group = by_residue[lag % stride]
        moved = group[np.searchsorted(group, lag) :]
        pairs = (n - lag + stride - 1) // stride
        if _UPDATE_COST * moved.size < pairs:
            if (n - lag) % stride == 0:  # pair t = n - lag drops out
                counts[row[n - lag] + bx[n - 1]] -= 1
            first = row[moved - lag]
            counts += np.bincount(first + bx[moved], minlength=bins * bins)
            counts -= np.bincount(first + bx[moved - 1], minlength=bins * bins)
        else:
            counts = _joint_counts(bx, row, lag, stride, bins)
        curve[lag - 1] = _mi_counts(counts, bins)
        # a stopping search tests curve index lag - 1 - w as soon as its
        # whole window is known; the earlier indices were tested before
        if stop_at_minimum and lag > w + 1 and _is_minimum(curve, lag - 1 - w, w):
            return MutualInformationResult(lag - w, True, curve[:lag])
    # the indices whose window the end of the curve cuts short are the
    # only ones a stopping search has not tested yet
    for k in range(max(1, max_lag - w) if stop_at_minimum else 1, max_lag - 1):
        if _is_minimum(curve, k, w):
            return MutualInformationResult(k + 1, True, curve)
    return MutualInformationResult(max_lag, False, curve)


def _is_minimum(curve: np.ndarray, k: int, w: int) -> bool:
    """curve[k] is below every value within w places of it."""
    neigh = np.concatenate((curve[max(0, k - w) : k], curve[k + 1 : k + w + 1]))
    return bool(np.all(curve[k] < neigh))


def false_nearest_neighbors(
    series: TimeSeries,
    delay: int,
    d_max: int = FNN_D_MAX,
    max_reference: int = MAX_REFERENCE,
) -> FnnResult:
    """False-neighbor fractions as the dimension grows, and the dimension
    an estimate embeds in.

    A neighbor is false if the extra coordinate jumps by more than
    FNN_R_TOL (15) times the current distance, or by more than FNN_A_TOL
    (2) times the series spread (the usual catch for stochastic data).
    ``dimension`` is the smallest d with a false fraction under 1%, where
    the scan stops (``fnn_fractions`` ends there, or at ``d_max``,
    FNN_D_MAX = 8 by default); the caller embeds in ``chosen``: that d,
    else the smallest under 5%, else ``d_max``.  Dimension d needs
    FNN_MIN_POINTS (20) extended points (``check_fnn``).  Each finds the
    neighbors of every max(1, points // ``max_reference``)-th extended point
    (``max_reference`` to 2 * ``max_reference`` - 1) in one batched query, on a tree
    over the whole d-embedding limited to the rows whose next coordinate
    exists.  The last tree is handed on as ``grid`` if it is ``chosen``'s.
    """
    _at_least(2, d_max=d_max)
    _at_least(1, max_reference=max_reference)
    x = series.values
    sigma = float(np.std(x))
    # growth below this is indistinguishable from rounding noise; without
    # the floor, exactly periodic data flag duplicate points (distance
    # ~1e-16, growth ~1e-14) as false through a meaningless ratio
    noise_floor = 1e-10 * sigma
    fractions = []
    grid = None
    for d in range(1, d_max + 1):
        check_fnn(x.size, delay, d)
        n_ext = x.size - d * delay
        grid = None  # the previous dimension's tree goes before this one is built
        grid = BoxGrid(delay_embed(series, EmbeddingSpec(delay, d)))
        stride = max(1, n_ext // max_reference)
        refs = np.arange(0, n_ext, stride)
        j, dist = grid.nearest_many(refs, theiler=0, limit=n_ext - 1, exclude_zero=False)
        found = j >= 0
        growth = np.abs(x[refs[found] + d * delay] - x[j[found] + d * delay])
        false = np.count_nonzero(
            ((growth > FNN_R_TOL * dist[found]) & (growth > noise_floor))
            | (growth > FNN_A_TOL * sigma)
        )
        used = np.count_nonzero(found)
        if used == 0:
            raise ValueError("no neighbor pairs available for FNN")
        fractions.append(false / used)
        if fractions[-1] < FNN_STOP_FRACTION:
            return FnnResult(d, d, np.array(fractions), grid)
    under = [d for d, f in enumerate(fractions, 1) if f < FNN_RELAXED_FRACTION]
    chosen = under[0] if under else d_max
    return FnnResult(None, chosen, np.array(fractions), grid if chosen == d_max else None)


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

    # for each window start, every window end at once: running extremes
    # of the local slopes and the least-squares slope by the arithmetic
    # of ls()
    local = np.diff(ss) / np.diff(kk)
    best = None  # (length, lo, hi); ties in length go to the smaller lo
    n = kk.size
    for lo in range(0, n - FIT_MIN_POINTS + 1):
        if best is not None and n - lo <= best[0]:
            break  # no later start leaves room for a longer window
        hi = np.arange(lo + FIT_MIN_POINTS - 1, n)
        gmin = np.minimum.accumulate(local[lo:])[FIT_MIN_POINTS - 2 :]
        gmax = np.maximum.accumulate(local[lo:])[FIT_MIN_POINTS - 2 :]
        n_w = hi - lo + 1
        sx = cx[hi + 1] - cx[lo]
        sy = cy[hi + 1] - cy[lo]
        sxx = cxx[hi + 1] - cxx[lo]
        sxy = cxy[hi + 1] - cxy[lo]
        slope = (n_w * sxy - sx * sy) / (n_w * sxx - sx * sx)
        tol = FIT_SLOPE_TOL * np.abs(slope)
        fits = np.flatnonzero((slope - tol <= gmin) & (gmax <= slope + tol))
        if fits.size and (best is None or n_w[fits[-1]] > best[0]):
            best = (int(n_w[fits[-1]]), lo, int(hi[fits[-1]]))
    if best is not None:
        _, lo, hi = best
        slope, r2 = ls(lo, hi)
        return slope, r2, (int(kk[lo]), int(kk[hi])), False
    slope, r2 = ls(0, n - 1)
    return slope, r2, (int(kk[0]), int(kk[-1])), True


def _divergence_curve(
    pts: np.ndarray, ai: np.ndarray, aj: np.ndarray, sizes: np.ndarray, ks: np.ndarray
) -> np.ndarray:
    """Mean log of the group-averaged pair distances at each delta_k in ``ks``.

    The pairs (ai, aj) come in consecutive groups of ``sizes``.  The
    curve is computed for a chunk of delta_k at a time: each side of the
    pairs is gathered for the whole chunk with one ``np.take``, and the
    chunk's distances, group means and logs are (delta_k, pairs) arrays
    whose rows are reduced along the last axis, in the same order and
    with the same pairwise sums as a loop over single delta_k.  A row
    with a non-positive group mean drops those groups, and a row with
    none left is NaN.
    """
    starts = np.cumsum(sizes) - sizes
    counts = sizes.astype(np.float64)
    pairs = ai.size
    per_chunk = max(1, _CURVE_CHUNK_BYTES // (8 * pairs * pts.shape[1]))
    svals = np.empty(ks.size)
    for c0 in range(0, ks.size, per_chunk):
        kc = ks[c0 : c0 + per_chunk, None]
        diff = np.take(pts, (kc + ai).ravel(), axis=0)
        diff -= np.take(pts, (kc + aj).ravel(), axis=0)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(kc.size, pairs)
        means = np.add.reduceat(d, starts, axis=1) / counts
        pos = means > 0
        full = pos.all(axis=1)
        out = svals[c0 : c0 + kc.size]  # a view: writes land in svals
        out[full] = np.log(means if full.all() else means[full]).mean(axis=1)
        for r in np.flatnonzero(~full):
            out[r] = np.mean(np.log(means[r, pos[r]])) if pos[r].any() else np.nan
    return svals


def _lyapunov(
    series: TimeSeries,
    spec: EmbeddingSpec,
    theiler: int,
    horizon: int,
    max_reference: int,
    curve_stride: int,
    method: str,
    neighbors: Callable[[BoxGrid, np.ndarray, int, int], tuple],
    grid: Optional[BoxGrid],
) -> LyapunovResult:
    """Mean log divergence of neighbor groups, and its fitted slope.

    ``neighbors(grid, refs, theiler, limit)`` returns (ai, aj, sizes): the
    pairs of reference points ``refs`` and their neighbors j <= limit (so
    that ``horizon`` steps ahead exist) outside the Theiler window, in
    consecutive groups of ``sizes`` > 0 pairs, one per reference.  At
    each delta_k a group's distances are averaged, and the mean is over
    the logs of the positive averages (``_divergence_curve``, a chunk of
    delta_k at a time).  One-pair groups give Rosenstein's estimator,
    epsilon-balls Kantz's.  ``grid`` is a tree over ``delay_embed(series,
    spec)``, such as ``FnnResult.grid``; without one, the embedding and
    its tree are built here, once the series is known to be long enough
    (``check_divergence``).
    """
    _at_least(0, theiler=theiler)
    _at_least(
        1, horizon=horizon, max_reference=max_reference, curve_stride=curve_stride
    )
    # ks below holds ceil(horizon / curve_stride) points at delta_k >= 1
    if curve_stride >= horizon:
        raise ValueError(
            f"curve_stride {curve_stride} must be below horizon {horizon}: the "
            f"divergence curve needs two points at delta_k >= 1"
        )
    check_divergence(len(series), spec, horizon)
    check_theiler(len(series), spec, horizon, theiler)
    if grid is None:
        grid = BoxGrid(delay_embed(series, spec))
    pts = grid.points
    count = len(series) - (spec.dimension - 1) * spec.delay
    if pts.shape != (count, spec.dimension):
        raise ValueError(
            f"tree over {pts.shape} points does not hold the ({count}, "
            f"{spec.dimension}) embedding of the series"
        )
    limit = count - 1 - horizon
    stride = max(1, (limit + 1) // max_reference)
    refs = np.arange(0, limit + 1, stride)
    ai, aj, sizes = neighbors(grid, refs, theiler, limit)

    ks = np.arange(0, horizon + 1, curve_stride, dtype=np.int64)
    if ks[-1] != horizon:
        ks = np.append(ks, horizon)
    svals = _divergence_curve(pts, ai, aj, sizes, ks)
    slope, r2, fit_range, fallback = _select_fit_window(ks, svals)
    return LyapunovResult(
        divergence_curve=np.column_stack((ks, svals)),
        lambda_max=slope / series.dt,
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
    max_reference: int = MAX_REFERENCE,
    curve_stride: Optional[int] = None,
    grid: Optional[BoxGrid] = None,
) -> LyapunovResult:
    """Mean log divergence from each reference point's nearest neighbor.

    The neighbors (outside the Theiler window, with room for ``horizon``
    steps ahead) of every max(1, points // ``max_reference``)-th point, from
    ``max_reference`` to 2 * ``max_reference`` - 1 of them, come from one batched query, on
    ``grid`` when given: a tree over ``delay_embed(series, spec)``, such
    as ``FnnResult.grid``.  The curve is sampled every ``curve_stride``
    delta_k, by default max(1, horizon // 200).
    """
    if curve_stride is None:
        curve_stride = max(1, horizon // 200)

    def nearest(grid, refs, theiler, limit):
        j, _ = grid.nearest_many(refs, theiler=theiler, limit=limit, exclude_zero=True)
        found = j >= 0
        if not found.any():
            raise EmptyNeighborhoodError("no admissible nearest neighbors found")
        return refs[found], j[found], np.ones(np.count_nonzero(found), dtype=np.int64)

    return _lyapunov(
        series, spec, theiler, horizon, max_reference, curve_stride, "rosenstein",
        nearest, grid,
    )


def lyapunov_kantz(
    series: TimeSeries,
    spec: EmbeddingSpec,
    theiler: int,
    epsilon_frac: float,
    horizon: int,
    max_reference: int = 1000,
    curve_stride: int = 1,
    grid: Optional[BoxGrid] = None,
) -> LyapunovResult:
    """Mean log of neighborhood-averaged divergence (all neighbors within
    epsilon = epsilon_frac * series standard deviation); ``grid`` as in
    ``lyapunov_rosenstein``."""
    if not (epsilon_frac > 0 and np.isfinite(epsilon_frac)):
        raise ValueError(
            f"epsilon_frac must be finite and positive, got {epsilon_frac!r}"
        )
    eps = float(epsilon_frac * np.std(series.values))

    def balls(grid, refs, theiler, limit):
        nbs = [grid.within(int(i), eps, theiler=theiler, limit=limit) for i in refs]
        sizes = np.array([nb.size for nb in nbs], dtype=np.int64)
        if not sizes.any():
            raise EmptyNeighborhoodError(
                f"no neighborhoods within epsilon = {eps:g}; increase epsilon_frac"
            )
        return np.repeat(refs, sizes), np.concatenate(nbs), sizes[sizes > 0]

    return _lyapunov(
        series, spec, theiler, horizon, max_reference, curve_stride, "kantz", balls,
        grid,
    )


def classify(r: LyapunovResult) -> Classification:
    """Chaotic iff the exponent clears CHAOS_THRESHOLD (0.01) on a
    believable linear region (fit R^2 >= 0.95); otherwise regular."""
    # plain bools: numpy.bool_ is not JSON serializable
    exceeds = bool(r.lambda_max > CHAOS_THRESHOLD)
    good_fit = bool(r.fit_r2 >= 0.95)
    if exceeds and good_fit:
        return Classification("chaotic", False)
    return Classification("regular", ambiguous=exceeds and not good_fit)
