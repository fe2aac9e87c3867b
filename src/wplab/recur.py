"""Coarse-grained recurrence statistics of a scalar time series.

Return-time histograms use half-open value cells [lower, upper) so a
partition of the range is exact.  Events are cell entries: a
recurrence is counted when the series enters the cell, not on every
sample spent inside it, as the paper's return-time figures count them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .embed import EmbeddingSpec, delay_embed
from .series import TimeSeries

# candidate point pairs times coordinates per chunk of ``recurrence_matrix``
_RP_CANDIDATES = 1 << 16
# fewest events in a histogram bin that ``fit_exponential``'s line uses
FIT_MIN_BIN_COUNT = 10
# most bins an invariant density may have (presets use at most 1 000)
DENSITY_MAX_BINS = 1 << 20


class NoEventsError(RuntimeError):
    """The cell is not visited often enough to define return times."""


class InsufficientEventsError(RuntimeError):
    """Too few recurrence events for the requested fit."""


class DegenerateSupportError(RuntimeError):
    """Histogram support too narrow for a log-linear fit."""


@dataclass(frozen=True)
class Cell:
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise ValueError(f"empty cell [{self.lower}, {self.upper})")


@dataclass(frozen=True)
class ReturnTimeHistogram:
    """Counts of integer return times (units of the sampling step).

    ``taus`` holds the distinct return times in ascending order and
    ``counts`` the events at each.
    """

    taus: np.ndarray
    counts: np.ndarray
    total_events: int
    dt: float


@dataclass(frozen=True)
class DensityHistogram:
    bin_width: float
    origin: float
    counts: np.ndarray
    normalization: float

    def centers(self) -> np.ndarray:
        return self.origin + (np.arange(self.counts.size) + 0.5) * self.bin_width

    def density(self) -> np.ndarray:
        return self.counts * self.normalization


@dataclass(frozen=True)
class RecurrencePlotData:
    window_start: int
    window_len: int
    epsilon: float
    # (n_pairs, 2), i < j, sorted by (i, j); the narrowest of uint16,
    # int32 and int64 that holds every index of the window
    pairs: np.ndarray
    embedding: Optional[EmbeddingSpec] = None


def check_return_times(samples: int) -> None:
    """Return times need at least 2 samples."""
    if samples < 2:
        raise ValueError(f"return times need at least 2 samples, got {samples}")


def check_return_map(samples: int) -> None:
    """A return map needs at least 3 samples."""
    if samples < 3:
        raise ValueError(f"return map needs at least 3 samples, got {samples}")


def check_window(
    samples: int, window_start: int, window_len: int, spec: Optional[EmbeddingSpec]
) -> None:
    """A recurrence window lies in the series, spans at least 2 samples and,
    embedded by ``spec`` (None: scalar states), holds at least 2 delay vectors."""
    if window_start < 0 or window_len < 2 or window_start + window_len > samples:
        raise ValueError(
            f"recurrence window [{window_start}, {window_start + window_len}) does "
            f"not fit a series of length {samples} (need length >= 2)"
        )
    points = window_len - (spec.dimension - 1) * spec.delay if spec else window_len
    if points < 2:
        raise ValueError(
            f"recurrence window of {window_len} samples holds {points} embedded "
            f"points, fewer than 2"
        )


def _entry_indices(series: TimeSeries, cell: Cell) -> np.ndarray:
    """The samples at which the series enters ``cell``."""
    v = series.values
    inside = (v >= cell.lower) & (v < cell.upper)
    prev = np.empty_like(inside)
    prev[0] = False
    prev[1:] = inside[:-1]
    return np.flatnonzero(inside & ~prev)


def _return_times(series: TimeSeries, cell: Cell, apart: int) -> ReturnTimeHistogram:
    """Histogram of gaps between events ``apart`` apart (event k to k+apart)."""
    check_return_times(len(series))
    events = _entry_indices(series, cell)
    if events.size <= apart:
        raise NoEventsError(
            f"cell [{cell.lower}, {cell.upper}) visited {events.size} time(s); "
            f"need at least {apart + 1} events"
        )
    gaps = events[apart:] - events[:-apart]
    taus, counts = np.unique(gaps, return_counts=True)
    return ReturnTimeHistogram(taus, counts, int(gaps.size), series.dt)


def first_return_times(series: TimeSeries, cell: Cell) -> ReturnTimeHistogram:
    """Histogram of gaps between successive cell entries."""
    return _return_times(series, cell, 1)


def second_return_times(series: TimeSeries, cell: Cell) -> ReturnTimeHistogram:
    """Histogram of gaps between entries two apart (entry k to k+2)."""
    return _return_times(series, cell, 2)


@dataclass(frozen=True)
class ExponentialFit:
    rate: float
    ks_stat: float
    loglin_r2: float


def fit_exponential(h: ReturnTimeHistogram) -> ExponentialFit:
    """Maximum-likelihood exponential fit with two goodness diagnostics.

    ks_stat is the Kolmogorov-Smirnov distance between the empirical
    return-time distribution and Exp(rate); loglin_r2 is the R^2 of a
    least-squares line through (tau, log count) over bins holding at
    least FIT_MIN_BIN_COUNT (10) events.
    """
    if h.total_events < 100:
        raise InsufficientEventsError(
            f"{h.total_events} events < 100 required for a stable fit"
        )
    taus = h.taus.astype(np.float64)
    cnts = h.counts.astype(np.float64)
    total = cnts.sum()
    times = taus * h.dt
    mean_t = float(np.dot(times, cnts) / total)
    rate = 1.0 / mean_t

    # exact KS distance on the weighted sample
    cum = np.cumsum(cnts) / total
    model = 1.0 - np.exp(-rate * times)
    lower_cdf = np.concatenate(([0.0], cum[:-1]))
    ks = float(np.max(np.maximum(np.abs(cum - model), np.abs(lower_cdf - model))))

    good = cnts >= FIT_MIN_BIN_COUNT
    if np.count_nonzero(good) < 2:
        raise DegenerateSupportError(
            "fewer than 2 histogram bins with enough counts for a log-linear fit"
        )
    x = taus[good]
    y = np.log(cnts[good])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        raise DegenerateSupportError("log counts are constant across bins")
    r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return ExponentialFit(rate=rate, ks_stat=ks, loglin_r2=r2)


def support_sparsity(h: ReturnTimeHistogram, mass: float) -> int:
    """Minimal number of distinct return times holding >= mass of events."""
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")
    cnts = np.sort(h.counts)[::-1]
    cum = np.cumsum(cnts)
    return int(np.searchsorted(cum, mass * h.total_events) + 1)


def invariant_density(series: TimeSeries, bin_width: float) -> DensityHistogram:
    """Normalized histogram of the series values on [min, max]; a
    ``bin_width`` needing more than ``DENSITY_MAX_BINS`` bins is refused."""
    if not (bin_width > 0 and math.isfinite(bin_width)):
        raise ValueError(f"bin_width must be finite and positive, got {bin_width!r}")
    v = series.values
    lo = float(v.min())
    hi = float(v.max())
    widths = (hi - lo) / bin_width  # before ceil, which overflows for tiny widths
    if widths > DENSITY_MAX_BINS - 1:  # one bin more may follow, below
        raise ValueError(
            f"bin_width {bin_width!r} spans the range [{lo!r}, {hi!r}] in "
            f"{widths:.4g} widths; a density has at most {DENSITY_MAX_BINS} bins"
        )
    nbins = max(1, int(math.ceil(widths))) if hi > lo else 1
    if lo + nbins * bin_width < hi:
        nbins += 1  # the rounded edges stop short of the maximum
    edges = lo + np.arange(nbins + 1) * bin_width
    counts, _ = np.histogram(v, bins=edges)
    norm = 1.0 / (v.size * bin_width)
    return DensityHistogram(bin_width, lo, counts.astype(np.int64), norm)


def return_map(series: TimeSeries) -> np.ndarray:
    """Pairs of consecutive strict local maxima (M_k, M_{k+1}).

    A run of equal samples counts once, at its first sample: a maximum is
    a run above the runs on both sides, so a flat step on the way up is
    none, nor is a run that reaches either end of the series.
    """
    v = series.values
    check_return_map(v.size)
    keep = np.r_[True, v[1:] != v[:-1]]
    runs = v if keep.all() else v[keep]  # each run of equal samples once
    heights = runs[1:-1][(runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])]
    if heights.size < 2:
        raise ValueError("fewer than 2 local maxima in the series")
    return np.column_stack((heights[:-1], heights[1:]))


def recurrence_matrix(
    series: TimeSeries,
    window_start: int,
    window_len: int,
    epsilon_frac: float,
    embed: Optional[EmbeddingSpec] = None,
) -> RecurrencePlotData:
    """Index pairs (i, j), i < j, closer than eps inside a window.

    eps = epsilon_frac * std of the windowed values.  Distances are
    |x_i - x_j| for scalar states and the max-norm over delay vectors
    when an embedding is given.  Indices refer to the full series.

    The states are swept in order of their first coordinate, so only
    pairs already within eps in that coordinate are tested.  The sweep
    goes in chunks of fewer than ``_RP_CANDIDATES // dimension +
    window_len`` candidate pairs, and each of a chunk's index, gather and
    difference arrays holds at most 8 bytes per candidate: under 560 KB
    for 4 000 scalar states.  A candidate is tested one coordinate at a time, each
    a contiguous column, and only the pairs within eps in every
    coordinate so far go on to the next: no (pairs, dimension) difference
    array is formed.

    Each chunk writes its pairs' keys straight into one array sized by
    the candidate count, which is then sorted in place: no list of
    pieces and no concatenated copy.  On a scalar window nearly every
    candidate is a pair, so the array is about the pairs' size.  On an
    embedded window it is larger, by a factor that grows with delay and
    dimension: the candidates were 1.0 to 4.5 times the pairs on the
    4 000-sample ``fig5``, ``fig6`` and ``fig11-14`` series embedded at
    delays 5 and 25, d = 2-6.

    ``pairs`` is uint16, 4 bytes a pair, when ``window_start +
    window_len`` is at most 2**16, so that every index fits; int32 when
    it is at most 2**31; and int64 otherwise.
    """
    if not (epsilon_frac > 0 and math.isfinite(epsilon_frac)):
        raise ValueError(
            f"epsilon_frac must be finite and positive, got {epsilon_frac!r}"
        )
    check_window(len(series), window_start, window_len, embed)
    w = series.values[window_start : window_start + window_len]
    eps = float(epsilon_frac * np.std(w))
    if embed is None:
        pts = w[:, None]
    else:
        pts = delay_embed(TimeSeries(series.dt, w), embed)

    # sort by the first coordinate: the partners j of a point within eps
    # lie in a short run after it, found by searchsorted with a slack
    # wide enough to cover the rounding of xs + eps; the exact max-norm
    # test below then decides every candidate
    order = np.argsort(pts[:, 0], kind="stable")
    # one contiguous row per coordinate, in sorted order
    cols = np.ascontiguousarray(pts[order].T)
    xs = cols[0]
    slack = 1e-9 * (np.abs(xs) + eps)
    ends = np.searchsorted(xs, xs + eps + slack, side="right")
    count = xs.size
    starts = np.arange(count)
    later = ends - starts - 1  # candidates after each sorted position
    # chunks of sorted positions holding about _RP_CANDIDATES candidates
    cum = np.cumsum(later)
    budget = max(1, _RP_CANDIDATES // cols.shape[0])
    bounds = np.searchsorted(cum, np.arange(budget, cum[-1], budget))
    bounds = bounds[np.diff(bounds, prepend=-1) > 0]  # sorted: drop repeats
    # a pair's key (i << shift) | j sorts as (i, j); it fits 32 bits when
    # the window does, and 32-bit keys sort in half the time
    shift = (count - 1).bit_length()
    order = order.astype(np.uint32 if shift <= 16 else np.int64)
    key = np.empty(int(cum[-1]), dtype=order.dtype)
    filled = 0
    for a0, a1 in zip(np.r_[0, bounds + 1], np.r_[bounds + 1, count]):
        run = later[a0:a1]
        a = np.repeat(starts[a0:a1], run)
        # b runs over a+1 .. ends[a]-1 for each a
        b = np.arange(a.size) + np.repeat(starts[a0:a1] + run - np.cumsum(run) + 1, run)
        # the max-norm test |x_a - x_b| <= eps one coordinate at a time,
        # each on the candidates that passed the ones before
        for col in cols:
            hit = np.abs(col[a] - col[b]) <= eps
            a = a[hit]
            b = b[hit]
        i = order[a]
        j = order[b]
        piece = key[filled : filled + a.size]
        np.left_shift(np.minimum(i, j), shift, out=piece)
        piece |= np.maximum(i, j)
        filled += a.size
    key = key[:filled]
    key.sort()
    end = window_start + window_len  # one past the window's last index
    dtype = np.uint16 if end <= 1 << 16 else np.int32 if end <= 1 << 31 else np.int64
    pairs = np.empty((key.size, 2), dtype=dtype)
    np.right_shift(key, shift, out=pairs[:, 0])
    np.bitwise_and(key, (1 << shift) - 1, out=pairs[:, 1])
    pairs += window_start
    return RecurrencePlotData(window_start, window_len, eps, pairs, embed)
