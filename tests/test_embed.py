import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from wplab import embed, lab, neighbors
from wplab.embed import (
    FIT_MIN_POINTS,
    FIT_SLOPE_TOL,
    Classification,
    EmbeddingSpec,
    EmptyNeighborhoodError,
    LyapunovResult,
    classify,
    delay_embed,
    false_nearest_neighbors,
    lyapunov_kantz,
    lyapunov_rosenstein,
    mutual_information_delay,
    _select_fit_window,
)
from wplab.neighbors import BoxGrid
from wplab.presets import PRESETS
from wplab.series import TimeSeries

from oracles import brute_force_nearest
from synthetic import henon_series, logistic_series, sine_series


def white_noise(n, seed=123):
    rng = np.random.default_rng(seed)
    return TimeSeries(1.0, rng.normal(size=n))


def fig4_series(steps):
    p = PRESETS["fig4"]
    return lab.simulate_series(p.model, p.params, p.nu, p.m, p.dt, steps)


def brute_force_mi_curve(x, max_lag, bins):
    lo, hi = x.min(), x.max()
    bx = np.minimum(((x - lo) / (hi - lo) * bins).astype(int), bins - 1)
    out = []
    for lag in range(1, max_lag + 1):
        a, b = bx[: x.size - lag], bx[lag:]
        joint = np.zeros((bins, bins))
        for u, v in zip(a, b):
            joint[u, v] += 1
        joint /= joint.sum()
        px, py = joint.sum(axis=1), joint.sum(axis=0)
        mi = 0.0
        for u in range(bins):
            for v in range(bins):
                if joint[u, v] > 0:
                    mi += joint[u, v] * math.log(joint[u, v] / (px[u] * py[v]))
        out.append(mi)
    return np.array(out)


def per_lag_curve(x, max_lag, bins, stride):
    """The MI curve from each lag's joint codes a * bins + b formed anew."""
    lo, hi = float(x.min()), float(x.max())
    bx = np.minimum(((x - lo) / (hi - lo) * bins).astype(np.int64), bins - 1)
    curve = []
    for lag in range(1, max_lag + 1):
        a = bx[: x.size - lag : stride]
        b = bx[lag::stride][: a.size]
        joint = np.bincount(a * bins + b, minlength=bins * bins).astype(np.float64)
        joint /= joint.sum()
        jm = joint.reshape(bins, bins)
        nz = jm > 0
        denom = np.outer(jm.sum(axis=1), jm.sum(axis=0))[nz]
        curve.append(float(np.sum(jm[nz] * np.log(jm[nz] / denom))))
    return np.array(curve)


@pytest.fixture
def recounts(monkeypatch):
    """The lags ``mutual_information_delay`` counts from all their pairs."""
    lags = []
    joint_counts = embed._joint_counts

    def spy(bx, row, lag, stride, bins):
        lags.append(lag)
        return joint_counts(bx, row, lag, stride, bins)

    monkeypatch.setattr(embed, "_joint_counts", spy)
    return lags


def first_under_one_percent(fracs):
    return next((d for d, f in enumerate(fracs, 1) if f < 0.01), None)


def full_fnn_scan(ts, delay, d_max, r_tol=15.0, a_tol=2.0, max_reference=2000):
    """False fractions for every d up to d_max, each from a tree over the
    rows whose next coordinate exists: the scan that never stops."""
    x = ts.values
    sigma = float(np.std(x))
    out = []
    for d in range(1, d_max + 1):
        n_ext = x.size - d * delay
        pts = delay_embed(ts, EmbeddingSpec(delay, d))[:n_ext]
        refs = np.arange(0, n_ext, max(1, n_ext // max_reference))
        j, dist = BoxGrid(pts).nearest_many(refs, theiler=0, exclude_zero=False)
        growth = np.abs(x[refs + d * delay] - x[j + d * delay])
        false = ((growth > r_tol * dist) & (growth > 1e-10 * sigma)) | (
            growth > a_tol * sigma
        )
        out.append(np.count_nonzero(false) / refs.size)
    return np.array(out)


@st.composite
def piecewise_constant(draw):
    """(series, max_lag, bins, stride): runs of 1-300 equal samples."""
    bins = draw(st.integers(2, 32))
    runs = draw(
        st.lists(
            st.tuples(st.integers(0, bins - 1), st.integers(1, 300)),
            min_size=2,
            max_size=30,
        )
    )
    levels, lengths = zip(*runs)
    x = np.repeat(np.array(levels, dtype=np.float64), lengths)
    assume(x.size > 80 and x.min() < x.max())
    # max_lag > stride: some lag drops its last pair, whatever x.size
    stride = draw(st.integers(1, 7))
    max_lag = draw(st.integers(8, min(60, (x.size - 1) // 10)))
    return x, max_lag, bins, stride


@st.composite
def mi_series(draw):
    """(series, max_lag, bins, stride): sums of sines with noise, random
    walks and monotone ramps, whose curves have minima or have none."""
    n = draw(st.integers(1000, 6000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n, dtype=np.float64)
    kind = draw(st.sampled_from(["sines", "walk", "ramp"]))
    if kind == "sines":
        x = sum(
            np.sin(2 * np.pi * t / rng.uniform(8.0, 400.0) + rng.uniform(0, 6.3))
            for _ in range(draw(st.integers(1, 3)))
        )
        x = x + draw(st.sampled_from([0.0, 0.05, 0.5])) * rng.normal(size=n)
    elif kind == "walk":
        x = np.cumsum(rng.normal(size=n))
    else:
        x = (t / n) ** rng.uniform(0.5, 3.0)
    assume(x.min() < x.max())
    max_lag = draw(st.integers(3, min(120, (n - 1) // 10)))
    stride = draw(st.sampled_from([None, 1, 2, 5]))
    return x, max_lag, draw(st.integers(2, 24)), stride


class TestDelayEmbed:
    def test_dimension_one_identity(self):
        ts = TimeSeries(1.0, np.arange(5.0))
        assert np.array_equal(delay_embed(ts, EmbeddingSpec(3, 1))[:, 0], ts.values)

    def test_small_example(self):
        ts = TimeSeries(1.0, np.array([1.0, 2.0, 3.0, 4.0]))
        v = delay_embed(ts, EmbeddingSpec(1, 2))
        assert v.tolist() == [[1.0, 2.0], [2.0, 3.0], [3.0, 4.0]]

    def test_count(self):
        ts = TimeSeries(1.0, np.arange(100.0))
        for delay, dim in ((2, 3), (5, 4), (1, 1)):
            v = delay_embed(ts, EmbeddingSpec(delay, dim))
            assert v.shape == (100 - (dim - 1) * delay, dim)

    def test_too_short(self):
        ts = TimeSeries(1.0, np.arange(10.0))
        with pytest.raises(ValueError):
            delay_embed(ts, EmbeddingSpec(5, 4))

    @pytest.mark.parametrize(
        "delay, dimension, named", [(0, 2, "delay"), (1, 0, "dimension")]
    )
    def test_spec_below_one_rejected(self, delay, dimension, named):
        with pytest.raises(ValueError, match=f"{named} must be >= 1"):
            EmbeddingSpec(delay, dimension)


class TestMutualInformation:
    def test_matches_brute_force_on_noise(self):
        ts = white_noise(3000)
        res = mutual_information_delay(ts, max_lag=20, bins=8, min_window=1)
        oracle = brute_force_mi_curve(ts.values, 20, 8)
        assert np.abs(res.curve - oracle).max() < 1e-12
        # flat near zero, and the returned lag is the oracle curve's first
        # strict interior minimum
        assert oracle.max() < 0.1
        firsts = [
            k + 1
            for k in range(1, 19)
            if oracle[k] < oracle[k - 1] and oracle[k] < oracle[k + 1]
        ]
        expected = firsts[0] if firsts else 20
        assert res.lag == expected

    def test_sine_quarter_period(self):
        # noiseless periodic data ripple at wavelength ~period/bins; a
        # dominance window over that scale recovers the quarter-period dip
        ts = sine_series(10_000, period=200.0)
        res = mutual_information_delay(ts, max_lag=120, bins=8, min_window=12)
        assert res.has_minimum
        assert abs(res.lag - 50) <= 5
        assert abs(int(np.argmin(res.curve)) + 1 - 50) <= 5

    def test_defaults_are_the_run_rules(self):
        # the run paths pass only max_lag: bins and window are MI_BINS and
        # MI_MIN_WINDOW, whose window skips the ripple minimum at lag 3
        ts = sine_series(10_000, period=200.0)
        default = mutual_information_delay(ts, 120)
        stated = mutual_information_delay(
            ts, 120, bins=embed.MI_BINS, min_window=embed.MI_MIN_WINDOW
        )
        assert (default.lag, default.has_minimum) == (stated.lag, stated.has_minimum)
        assert np.array_equal(default.curve, stated.curve)
        assert default.lag != mutual_information_delay(ts, 120, min_window=1).lag

    def test_constant_series_error(self):
        ts = TimeSeries(1.0, np.full(1000, 2.0))
        with pytest.raises(ValueError, match="constant"):
            mutual_information_delay(ts, max_lag=10, bins=8)

    def test_no_minimum_flag(self):
        # strictly decreasing curve: monotone trend on a slow ramp
        ts = TimeSeries(1.0, np.linspace(0, 1, 4000) ** 2)
        res = mutual_information_delay(ts, max_lag=12, bins=4)
        if not res.has_minimum:
            assert res.lag == 12

    def test_length_precondition(self):
        with pytest.raises(ValueError):
            mutual_information_delay(white_noise(100), max_lag=20, bins=8)

    @pytest.mark.parametrize("stride", [None, 1, 3])
    def test_matches_per_lag_codes(self, stride, recounts):
        # a noisy sine changes bin on most samples: every lag is recounted
        x = sine_series(20_000, period=173.0).values + 0.1 * white_noise(20_000).values
        max_lag, bins = 60, 16
        res = mutual_information_delay(TimeSeries(1.0, x), max_lag, bins, stride=stride)
        step = stride or max(1, (x.size - max_lag) // 200_000)
        assert np.array_equal(res.curve, per_lag_curve(x, max_lag, bins, step))
        assert recounts == list(range(1, max_lag + 1))

    @pytest.mark.parametrize("stride", [None, 1, 3, 7])
    @pytest.mark.parametrize("n", [20_000, 20_001, 20_005])
    def test_smooth_series_updates_counts(self, stride, n, recounts):
        # a finely sampled sine changes bin a few hundred times: after
        # lag 1 every lag's counts come from change-point updates
        x = sine_series(n, period=2000.0).values
        max_lag, bins = 60, 16
        res = mutual_information_delay(TimeSeries(1.0, x), max_lag, bins, stride=stride)
        step = stride or max(1, (x.size - max_lag) // 200_000)
        assert np.array_equal(res.curve, per_lag_curve(x, max_lag, bins, step))
        assert recounts == [1]

    @settings(max_examples=60, deadline=None)
    @given(case=piecewise_constant())
    def test_piecewise_constant_matches_per_lag_codes(self, case):
        x, max_lag, bins, stride = case
        res = mutual_information_delay(TimeSeries(1.0, x), max_lag, bins, stride=stride)
        assert np.array_equal(res.curve, per_lag_curve(x, max_lag, bins, stride))


class TestMutualInformationStop:
    """The search that ends at the first minimum answers as the full curve."""

    @settings(max_examples=80, deadline=None)
    @given(case=mi_series(), window=st.integers(1, 8))
    def test_same_lag_and_flag_as_the_full_curve(self, case, window):
        x, max_lag, bins, stride = case
        ts = TimeSeries(1.0, x)
        full = mutual_information_delay(ts, max_lag, bins, stride, min_window=window)
        stop = mutual_information_delay(
            ts, max_lag, bins, stride, min_window=window, stop_at_minimum=True
        )
        assert (stop.lag, stop.has_minimum) == (full.lag, full.has_minimum)
        # the curve ends where the minimum is confirmed, or at max_lag
        end = min(full.lag + window, max_lag) if full.has_minimum else max_lag
        assert np.array_equal(stop.curve, full.curve[:end])

    @pytest.mark.parametrize("window", [1, 5])
    def test_no_minimum_scans_every_lag(self, window):
        # the slow ramp's curve falls all the way: no minimum to stop at
        ts = TimeSeries(1.0, np.linspace(0, 1, 4000) ** 2)
        full = mutual_information_delay(ts, 12, 4, min_window=window)
        stop = mutual_information_delay(
            ts, 12, 4, min_window=window, stop_at_minimum=True
        )
        assert not full.has_minimum
        assert (stop.lag, stop.has_minimum) == (12, False)
        assert np.array_equal(stop.curve, full.curve)


class TestFnn:
    def test_sine_dimension_two(self):
        f = false_nearest_neighbors(
            sine_series(10_000, period=100.0), delay=25, d_max=4
        )
        assert f.dimension == 2

    def test_henon_dimension_two(self):
        f = false_nearest_neighbors(henon_series(10_000), delay=1, d_max=4)
        assert f.dimension == 2

    def test_white_noise_no_dimension(self):
        f = false_nearest_neighbors(white_noise(10_000), delay=1, d_max=5)
        assert f.dimension is None
        assert np.all(f.fnn_fractions >= 0.01)

    def test_default_scan_ends_at_fnn_d_max(self):
        # no fraction of white noise drops under 1%: the default scan runs
        # to FNN_D_MAX and chooses it, as the stated one does
        ts = white_noise(5000)
        default = false_nearest_neighbors(ts, 1)
        stated = false_nearest_neighbors(ts, 1, d_max=embed.FNN_D_MAX)
        assert default.fnn_fractions.size == embed.FNN_D_MAX
        assert (default.dimension, default.chosen) == (stated.dimension, stated.chosen)
        assert np.array_equal(default.fnn_fractions, stated.fnn_fractions)

    def test_matches_brute_force(self):
        # same criterion evaluated with an O(n^2) scan
        ts = henon_series(400)
        x = ts.values
        delay, r_tol, a_tol = 1, 15.0, 2.0
        sigma = float(np.std(x))
        floor = 1e-10 * sigma
        fracs = []
        for d in (1, 2, 3):
            n_ext = x.size - d * delay
            pts = np.stack([x[j : j + n_ext] for j in range(0, d * delay, delay)], axis=1)
            false = 0
            for i in range(n_ext):
                diff = pts - pts[i]
                dist = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                dist[i] = np.inf
                j = int(np.argmin(dist))
                growth = abs(x[i + d * delay] - x[j + d * delay])
                if (growth > r_tol * dist[j] and growth > floor) or growth > a_tol * sigma:
                    false += 1
            fracs.append(false / n_ext)
        f = false_nearest_neighbors(ts, delay=1, d_max=3, max_reference=10**9)
        # the scan ends at the oracle's first dimension under 1%
        assert f.dimension == first_under_one_percent(fracs)
        assert f.fnn_fractions.size == (f.dimension or len(fracs))
        assert np.abs(f.fnn_fractions - np.array(fracs[: f.fnn_fractions.size])).max() < 1e-12

    def test_insufficient_points(self):
        with pytest.raises(ValueError):
            false_nearest_neighbors(white_noise(30), delay=5, d_max=3)

    def test_matches_oracle_neighbors(self):
        # the per-reference loop the batched query replaced, on the oracle
        ts = henon_series(3000)
        x = ts.values
        delay, d_max, r_tol, a_tol, max_ref = 2, 4, 15.0, 2.0, 700
        sigma = float(np.std(x))
        fracs = []
        for d in range(1, d_max + 1):
            n_ext = x.size - d * delay
            pts = delay_embed(ts, EmbeddingSpec(delay, d))[:n_ext]
            false = used = 0
            for i in range(0, n_ext, max(1, n_ext // max_ref)):
                j, dist = brute_force_nearest(pts, i, theiler=0, exclude_zero=False)
                growth = abs(x[i + d * delay] - x[j + d * delay])
                used += 1
                if (growth > r_tol * dist and growth > 1e-10 * sigma) or growth > a_tol * sigma:
                    false += 1
            fracs.append(false / used)
        f = false_nearest_neighbors(ts, delay=delay, d_max=d_max, max_reference=max_ref)
        assert f.dimension == first_under_one_percent(fracs)
        assert f.fnn_fractions.tolist() == fracs[: f.dimension or d_max]

    @pytest.mark.parametrize(
        "make, delay, d_max, dimension, chosen",
        [
            (lambda: sine_series(10_000, period=100.0), 25, 6, 2, 2),
            (lambda: henon_series(10_000), 1, 6, 2, 2),
            # no fraction under 5%: d_max, whose tree is the last one built
            (lambda: white_noise(10_000), 1, 5, None, 5),
            # relaxed: none under 1%, the first under 5% is d = 6, and the
            # d = 8 tree the scan ended on is not its tree
            (lambda: fig4_series(20_000), 8, 8, None, 6),
        ],
        ids=["sine", "henon", "noise", "fig4-relaxed"],
    )
    def test_stops_where_the_full_scan_answers(self, make, delay, d_max, dimension, chosen):
        ts = make()
        full = full_fnn_scan(ts, delay, d_max)
        f = false_nearest_neighbors(ts, delay=delay, d_max=d_max)
        assert f.dimension == first_under_one_percent(full.tolist()) == dimension
        stop = dimension or d_max  # none under 1%: all d_max
        assert np.array_equal(f.fnn_fractions, full[:stop])
        # the chosen dimension: the 1% one, else the first under 5%, else d_max
        under = np.flatnonzero(full < 0.05)
        assert f.chosen == (dimension or (under[0] + 1 if under.size else d_max)) == chosen
        # the tree handed on covers the whole embedding of the chosen d, and
        # is kept only when that d is the last one scanned
        if chosen == stop:
            assert np.array_equal(f.grid.points, delay_embed(ts, EmbeddingSpec(delay, chosen)))
        else:
            assert f.grid is None


def select_fit_window_loop(ks, svals):
    """The double loop ``_select_fit_window`` replaced, as its oracle."""
    usable = np.isfinite(svals) & (ks >= 1)
    kk = ks[usable].astype(np.float64)
    ss = svals[usable]
    if kk.size < 2:
        raise ValueError("divergence curve too short to fit")
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
    best = None
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


class TestFitWindow:
    def assert_same(self, ks, svals):
        got = _select_fit_window(ks, svals)
        want = select_fit_window_loop(ks, svals)
        assert got[2:] == want[2:]
        assert np.array_equal(np.float64(got[0]), np.float64(want[0]))
        assert np.array_equal(np.float64(got[1]), np.float64(want[1]))
        assert type(got[1]) is type(want[1])

    @pytest.mark.parametrize("seed", range(6))
    def test_random_curves(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        ks = np.sort(rng.choice(np.arange(0, 400), size=n, replace=False))
        # a rise, a plateau and noise, so windows of every kind qualify
        noise = 0.3 if seed % 2 else 0.003
        svals = np.minimum(0.3 * ks, rng.uniform(5, 60)) + rng.normal(0, noise, n)
        self.assert_same(ks, svals)
        self.assert_same(ks, rng.normal(size=n))

    def test_flat_and_linear_curves(self):
        ks = np.arange(0, 50)
        self.assert_same(ks, np.full(50, -3.0))
        self.assert_same(ks, 0.25 * ks - 2.0)
        self.assert_same(ks[:4], np.array([0.0, 1.0, 2.0, 4.0]))

    def test_equally_long_windows(self):
        # slopes 1, 3 and -2 on points 0-5, 5-10 and 10-13: the first two
        # windows are the longest that qualify, and the earlier one wins
        ks = np.arange(1, 15)
        svals = np.concatenate(
            (np.arange(6.0), 5.0 + 3.0 * np.arange(1, 6), 20.0 - 2.0 * np.arange(1, 4))
        )
        self.assert_same(ks, svals)
        assert _select_fit_window(ks, svals)[2:] == ((1, 6), False)

    def test_curves_with_nans(self):
        rng = np.random.default_rng(9)
        ks = np.arange(0, 80, 2)
        svals = np.log1p(ks) + rng.normal(0, 0.02, ks.size)
        svals[[0, 3, 4, 17, 39]] = np.nan
        self.assert_same(ks, svals)
        svals[5:] = np.nan
        self.assert_same(ks, svals)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: lyapunov_rosenstein(
                logistic_series(30_000), EmbeddingSpec(1, 2), theiler=5, horizon=12
            ),
            lambda: lyapunov_rosenstein(
                henon_series(30_000), EmbeddingSpec(1, 2), theiler=5, horizon=15
            ),
            lambda: lyapunov_rosenstein(
                sine_series(30_000, period=100.0),
                EmbeddingSpec(25, 2),
                theiler=50,
                horizon=400,
                curve_stride=4,
            ),
        ],
        ids=["logistic", "henon", "sine"],
    )
    def test_divergence_curves(self, make):
        curve = make().divergence_curve
        self.assert_same(curve[:, 0].astype(np.int64), curve[:, 1])


def logistic_oracle(ts):
    # analytic: mean log |f'(x)| along the orbit, f' = 4 - 8x
    return float(np.mean(np.log(np.abs(4.0 - 8.0 * ts.values))))


def henon_oracle(ts, a=1.4, b=0.3):
    # leading exponent from QR-accumulated Jacobian products on the orbit
    x = ts.values
    q = np.eye(2)
    s = 0.0
    for k in range(x.size - 1):
        jac = np.array([[-2.0 * a * x[k], 1.0], [b, 0.0]])
        m = jac @ q
        r00 = math.hypot(m[0, 0], m[1, 0])
        s += math.log(r00)
        q0 = m[:, 0] / r00
        q1 = m[:, 1] - (q0 @ m[:, 1]) * q0
        q = np.column_stack((q0, q1 / np.linalg.norm(q1)))
    return s / (x.size - 1)


def assert_same_estimate(own, other):
    """Every field of two LyapunovResults alike, arrays and floats bitwise."""
    for name in LyapunovResult.__dataclass_fields__:
        a, b = getattr(own, name), getattr(other, name)
        if isinstance(a, (float, np.ndarray)):
            # bitwise, signed zeros and NaNs included
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), name
        else:
            assert a == b, name


class TestLyapunov:
    def test_logistic_rosenstein(self):
        ts = logistic_series(30_000)
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=12)
        oracle = logistic_oracle(ts)
        assert oracle == pytest.approx(math.log(2.0), abs=5e-3)
        assert abs(r.lambda_max - math.log(2.0)) / math.log(2.0) < 0.15
        assert not r.fallback_fit

    def test_logistic_kantz(self):
        ts = logistic_series(30_000)
        k = lyapunov_kantz(
            ts, EmbeddingSpec(1, 2), theiler=5, epsilon_frac=0.1, horizon=12
        )
        assert abs(k.lambda_max - math.log(2.0)) / math.log(2.0) < 0.15
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=12)
        assert abs(k.lambda_max - r.lambda_max) / abs(k.lambda_max) < 0.10

    def test_henon_both_methods(self):
        ts = henon_series(30_000)
        oracle = henon_oracle(ts)
        assert oracle == pytest.approx(0.419, abs=0.01)
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=15)
        k = lyapunov_kantz(
            ts, EmbeddingSpec(1, 2), theiler=5, epsilon_frac=0.15, horizon=15
        )
        assert abs(r.lambda_max - oracle) / oracle < 0.20
        assert abs(k.lambda_max - oracle) / oracle < 0.20
        assert abs(r.lambda_max - k.lambda_max) / max(r.lambda_max, k.lambda_max) < 0.25

    def test_periodic_near_zero(self):
        ts = sine_series(30_000, period=100.0)
        r = lyapunov_rosenstein(
            ts, EmbeddingSpec(25, 2), theiler=50, horizon=400, curve_stride=4
        )
        assert abs(r.lambda_max) < 0.005
        k = lyapunov_kantz(
            ts,
            EmbeddingSpec(25, 2),
            theiler=50,
            epsilon_frac=0.3,
            horizon=400,
            curve_stride=4,
        )
        assert abs(k.lambda_max) < 0.005

    def test_scale_invariance(self):
        ts = logistic_series(8_000)
        scaled = TimeSeries(ts.dt, ts.values * 37.0)
        a = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=10)
        b = lyapunov_rosenstein(scaled, EmbeddingSpec(1, 2), theiler=5, horizon=10)
        assert abs(a.lambda_max - b.lambda_max) < 1e-6

    def test_dt_covariance(self):
        ts = logistic_series(8_000)
        halved = TimeSeries(0.5, ts.values)
        a = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=10)
        b = lyapunov_rosenstein(halved, EmbeddingSpec(1, 2), theiler=5, horizon=10)
        assert b.lambda_max == pytest.approx(2.0 * a.lambda_max, rel=1e-12)

    def test_slope_matches_fit_range(self):
        ts = logistic_series(10_000)
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=12)
        lo, hi = r.fit_range
        curve = r.divergence_curve
        sel = (curve[:, 0] >= lo) & (curve[:, 0] <= hi)
        slope = np.polyfit(curve[sel, 0], curve[sel, 1], 1)[0]
        assert r.lambda_max == pytest.approx(slope / ts.dt, rel=1e-9)

    def test_kantz_empty_neighborhood(self):
        ts = logistic_series(2_000)
        with pytest.raises(EmptyNeighborhoodError):
            lyapunov_kantz(
                ts, EmbeddingSpec(1, 2), theiler=5, epsilon_frac=1e-12, horizon=10
            )

    def test_rosenstein_matches_oracle_neighbors(self):
        ts = henon_series(3000)
        spec, theiler, horizon, max_ref = EmbeddingSpec(1, 2), 5, 12, 1000
        pts = delay_embed(ts, spec)
        limit = pts.shape[0] - 1 - horizon
        refs = np.arange(0, limit + 1, max(1, (limit + 1) // max_ref))
        pairs = [
            (int(i), brute_force_nearest(pts[: limit + 1], int(i), theiler, limit)[0])
            for i in refs
        ]
        ai, aj = np.array([p for p in pairs if p[1] >= 0]).T
        j, _ = BoxGrid(pts[: limit + 1]).nearest_many(refs, theiler, limit)
        assert np.array_equal(refs[j >= 0], ai)
        assert np.array_equal(j[j >= 0], aj)
        curve = []
        for dk in range(horizon + 1):
            diff = pts[ai + dk] - pts[aj + dk]
            d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            curve.append((dk, float(np.mean(np.log(d[d > 0])))))
        r = lyapunov_rosenstein(ts, spec, theiler, horizon, max_reference=max_ref)
        assert np.array_equal(r.divergence_curve, np.array(curve))

    def test_kantz_matches_brute_force_balls(self):
        ts = henon_series(2000)
        spec, theiler, horizon, eps_frac = EmbeddingSpec(1, 2), 5, 10, 0.15
        pts = delay_embed(ts, spec)
        limit = pts.shape[0] - 1 - horizon
        eps = eps_frac * np.std(ts.values)
        idx = np.arange(limit + 1)
        balls = []
        for i in range(limit + 1):
            diff = pts[: limit + 1] - pts[i]
            d2 = np.einsum("ij,ij->i", diff, diff)
            nb = idx[(np.abs(idx - i) > theiler) & (d2 <= eps * eps)]
            if nb.size:
                balls.append((i, nb))
        curve = []
        for dk in range(horizon + 1):
            logs = []
            for i, nb in balls:
                diff = pts[nb + dk] - pts[i + dk]
                mean = np.mean(np.sqrt(np.einsum("ij,ij->i", diff, diff)))
                if mean > 0:
                    logs.append(math.log(mean))
            curve.append((dk, np.mean(logs)))
        k = lyapunov_kantz(
            ts, spec, theiler, eps_frac, horizon, max_reference=limit + 1
        )
        assert len(balls) > limit // 2
        assert np.array_equal(k.divergence_curve[:, 0], np.arange(horizon + 1))
        np.testing.assert_allclose(
            k.divergence_curve[:, 1], np.array(curve)[:, 1], rtol=1e-12, atol=0
        )

    def test_rosenstein_independent_of_first_k(self, monkeypatch):
        # the neighbour search is exact from any first k: the constant one
        # and one wide enough to pass the window in a single query agree
        ts = sine_series(30_000, period=100.0)
        spec, theiler, horizon = EmbeddingSpec(25, 2), 50, 400

        def run(first_k):
            monkeypatch.setattr(neighbors, "_FIRST_K", first_k)
            return lyapunov_rosenstein(ts, spec, theiler, horizon, curve_stride=4)

        small, wide = run(4), run(2 * theiler + 4)
        assert small.lambda_max == wide.lambda_max
        assert small.fit_range == wide.fit_range
        assert np.array_equal(small.divergence_curve, wide.divergence_curve)

    def test_rosenstein_default_curve_stride_is_the_rule(self):
        # horizon 400: the rule's stride, max(1, horizon // 200) = 2, is
        # not a stride of 1
        ts = henon_series(5000)
        spec, theiler, horizon = EmbeddingSpec(1, 2), 5, 400
        ruled = lyapunov_rosenstein(ts, spec, theiler, horizon)
        assert ruled.divergence_curve[:3, 0].tolist() == [0.0, 2.0, 4.0]
        stated = lyapunov_rosenstein(
            ts, spec, theiler, horizon, curve_stride=max(1, horizon // 200)
        )
        assert_same_estimate(ruled, stated)

    @pytest.mark.parametrize("method", ["rosenstein", "kantz"])
    def test_handed_over_tree_gives_the_same_result(self, method):
        # FNN's tree of the chosen dimension against the estimator's own
        ts = henon_series(4000)
        f = false_nearest_neighbors(ts, delay=1, d_max=6)
        spec = EmbeddingSpec(1, f.dimension)
        if method == "rosenstein":
            run = lambda **kw: lyapunov_rosenstein(ts, spec, 5, 20, **kw)
        else:
            run = lambda **kw: lyapunov_kantz(ts, spec, 5, 0.15, 20, **kw)
        assert_same_estimate(run(), run(grid=f.grid))

    def test_tree_of_another_embedding_is_refused(self):
        ts = henon_series(2000)
        grid = BoxGrid(delay_embed(ts, EmbeddingSpec(1, 3)))
        with pytest.raises(ValueError, match="embedding"):
            lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), 5, 20, grid=grid)
        with pytest.raises(ValueError, match="embedding"):
            lyapunov_rosenstein(ts, EmbeddingSpec(2, 3), 5, 20, grid=grid)

    def test_horizon_precondition(self, monkeypatch):
        # checked before the estimator builds its own tree
        builds = []
        init = BoxGrid.__init__

        def spy(self, points):
            builds.append(points.shape)
            init(self, points)

        monkeypatch.setattr(BoxGrid, "__init__", spy)
        with pytest.raises(ValueError, match="horizon"):
            lyapunov_rosenstein(
                logistic_series(100), EmbeddingSpec(1, 2), theiler=1, horizon=50
            )
        # 1 000 samples embed to 999 rows: horizon 100 needs more than 1 000
        with pytest.raises(ValueError, match="horizon"):
            lyapunov_rosenstein(
                logistic_series(1000), EmbeddingSpec(1, 2), theiler=1, horizon=100
            )
        assert builds == []


def per_dk_curve(pts, ai, aj, sizes, ks):
    """The divergence curve one delta_k at a time: the loop the chunked
    ``embed._divergence_curve`` replaced, kept as its oracle."""
    starts = np.cumsum(sizes) - sizes
    counts = sizes.astype(np.float64)
    svals = np.empty(ks.size)
    for n, dk in enumerate(ks):
        diff = pts[ai + dk] - pts[aj + dk]
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        means = np.add.reduceat(d, starts) / counts
        pos = means > 0
        svals[n] = float(np.mean(np.log(means[pos]))) if pos.any() else np.nan
    return svals


def chunks_of(monkeypatch, per_chunk, pairs, dim):
    """Set the curve's chunk budget to ``per_chunk`` delta_k."""
    monkeypatch.setattr(embed, "_CURVE_CHUNK_BYTES", per_chunk * 8 * pairs * dim)


class TestDivergenceCurve:
    """The chunked curve is bitwise the per-delta_k loop's, NaNs included."""

    def test_rosenstein_in_several_chunks(self, monkeypatch):
        ts = henon_series(3000)
        spec, theiler, horizon = EmbeddingSpec(1, 2), 5, 40
        pts = delay_embed(ts, spec)
        limit = pts.shape[0] - 1 - horizon
        refs = np.arange(limit + 1)
        j, _ = BoxGrid(pts).nearest_many(refs, theiler, limit)
        ai, aj = refs[j >= 0], j[j >= 0]
        # 41 delta_k in chunks of 6: six full chunks and a last one of 5
        chunks_of(monkeypatch, 6, ai.size, spec.dimension)
        r = lyapunov_rosenstein(ts, spec, theiler, horizon, max_reference=limit + 1)
        ks = np.arange(horizon + 1)
        expect = per_dk_curve(pts, ai, aj, np.ones(ai.size, dtype=np.int64), ks)
        assert np.array_equal(r.divergence_curve[:, 0], ks)
        assert r.divergence_curve[:, 1].tobytes() == expect.tobytes()

    @pytest.mark.parametrize("per_chunk", [1, 3, 7, 1000])
    def test_groups_of_mixed_size(self, monkeypatch, per_chunk):
        rng = np.random.default_rng(5)
        pts = rng.normal(size=(4000, 3))
        sizes = rng.integers(1, 9, size=300)
        ai = np.repeat(rng.integers(0, 3900, size=sizes.size), sizes)
        aj = rng.integers(0, 3900, size=ai.size)
        ks = np.arange(0, 100, 3)
        chunks_of(monkeypatch, per_chunk, ai.size, 3)
        got = embed._divergence_curve(pts, ai, aj, sizes, ks)
        assert got.tobytes() == per_dk_curve(pts, ai, aj, sizes, ks).tobytes()

    @pytest.mark.parametrize("sizes", [[1, 1, 1, 1], [2, 1, 1], [1, 3]])
    def test_zero_group_means(self, monkeypatch, sizes):
        # rows 40..59 repeat rows 0..19, so the pair (i, i + 40) is at
        # distance zero while i + dk < 20: at delta_k < 5 every group
        # mean is zero (NaN), up to 14 some are, from 15 none
        pts = np.random.default_rng(2).normal(size=(200, 2))
        pts[40:60] = pts[0:20]
        ai = np.array([5, 10, 15, 0])
        sizes = np.array(sizes)
        aj = ai + 40
        ks = np.arange(30)
        chunks_of(monkeypatch, 4, ai.size, 2)
        got = embed._divergence_curve(pts, ai, aj, sizes, ks)
        assert np.isnan(got[:5]).all()
        assert np.isfinite(got[5:]).all()
        assert got.tobytes() == per_dk_curve(pts, ai, aj, sizes, ks).tobytes()

    def test_memory_stays_chunked(self):
        # the fig11-14 shape: 2 014 pairs, 201 delta_k, dimension 4; the
        # whole curve gathered at once would be 13 MB per side
        rng = np.random.default_rng(0)
        n, dim, pairs, horizon = 200_000, 4, 2014, 200
        pts = np.cumsum(rng.normal(size=(n, dim)), axis=0)
        ai = np.sort(rng.choice(n - horizon, pairs, replace=False))
        aj = rng.integers(0, n - horizon, size=pairs)
        sizes = np.ones(pairs, dtype=np.int64)
        ks = np.arange(horizon + 1)
        tracemalloc.start()
        try:
            got = embed._divergence_curve(pts, ai, aj, sizes, ks)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * embed._CURVE_CHUNK_BYTES
        assert got.tobytes() == per_dk_curve(pts, ai, aj, sizes, ks).tobytes()


class TestClassify:
    def make_result(self, lam, r2):
        return LyapunovResult(
            divergence_curve=np.array([[1.0, 0.0], [2.0, lam]]),
            lambda_max=lam,
            fit_range=(1, 2),
            method="rosenstein",
            embedding=EmbeddingSpec(1, 2),
            fit_r2=r2,
            fallback_fit=False,
        )

    def test_chaotic(self):
        c = classify(self.make_result(0.69, 0.999))
        assert c == Classification("chaotic", False)

    def test_regular_small_lambda(self):
        c = classify(self.make_result(np.float64(0.001), np.float64(0.99)))
        assert c.label == "regular"
        assert c.ambiguous is False

    def test_regular_no_linear_region(self):
        c = classify(self.make_result(0.2, 0.5))
        assert c.label == "regular"
        assert c.ambiguous

    def test_logistic_end_to_end(self):
        ts = logistic_series(20_000)
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=12)
        assert classify(r).label == "chaotic"

    def test_periodic_end_to_end(self):
        ts = sine_series(20_000, period=100.0)
        r = lyapunov_rosenstein(
            ts, EmbeddingSpec(25, 2), theiler=50, horizon=300, curve_stride=3
        )
        assert classify(r).label == "regular"



# arguments each estimator accepts, and one bad count or scale at a time
GOOD_ARGUMENTS = {
    mutual_information_delay: {"max_lag": 10, "bins": 16},
    false_nearest_neighbors: {"delay": 1, "d_max": 4},
    lyapunov_rosenstein: {"spec": EmbeddingSpec(1, 2), "theiler": 2, "horizon": 20},
    lyapunov_kantz: {
        "spec": EmbeddingSpec(1, 2), "theiler": 2, "epsilon_frac": 0.1, "horizon": 20
    },
}
BAD_COUNTS = [
    (mutual_information_delay, "max_lag", 0),
    (mutual_information_delay, "stride", 0),
    (false_nearest_neighbors, "max_reference", 0),
    (lyapunov_rosenstein, "max_reference", 0),
    (lyapunov_rosenstein, "curve_stride", 0),
    (lyapunov_rosenstein, "theiler", -1),
    (lyapunov_rosenstein, "horizon", -5),
    (lyapunov_kantz, "max_reference", 0),
    (lyapunov_kantz, "curve_stride", 0),
    (lyapunov_kantz, "theiler", -1),
    (lyapunov_kantz, "epsilon_frac", math.nan),
]


@pytest.mark.parametrize(
    "estimate, name, value", BAD_COUNTS,
    ids=[f"{f.__name__}-{name}" for f, name, _ in BAD_COUNTS],
)
def test_bad_count_or_scale_is_a_value_error_naming_it(estimate, name, value):
    arguments = {**GOOD_ARGUMENTS[estimate], name: value}
    with pytest.raises(ValueError, match=name):
        estimate(henon_series(2000), **arguments)


@pytest.mark.parametrize("horizon, curve_stride", [(1, 1), (10, 10), (10, 12)])
@pytest.mark.parametrize("estimate", [lyapunov_rosenstein, lyapunov_kantz])
def test_curve_with_no_fit_window_fails_before_any_tree(
    monkeypatch, estimate, horizon, curve_stride
):
    # fewer than two divergence-curve points at delta_k >= 1 leave no
    # window to fit, which the estimate knows before it builds a tree
    built = []
    monkeypatch.setattr(
        embed, "BoxGrid", lambda points: built.append(points) or BoxGrid(points)
    )
    arguments = {
        **GOOD_ARGUMENTS[estimate], "horizon": horizon, "curve_stride": curve_stride
    }
    with pytest.raises(
        ValueError, match=f"curve_stride {curve_stride} must be below horizon {horizon}"
    ):
        estimate(henon_series(2000), **arguments)
    assert built == []


def test_curve_stride_just_below_horizon_fits():
    # ks = 0, 10, 11: two points at delta_k >= 1
    ts = henon_series(2000)
    r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), 2, 11, curve_stride=10)
    assert r.divergence_curve[:, 0].tolist() == [0.0, 10.0, 11.0]
