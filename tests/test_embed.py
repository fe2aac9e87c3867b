import math

import numpy as np
import pytest

from wplab.benchmarks import henon_series, logistic_series, sine_series
from wplab.embed import (
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
)
from wplab.neighbors import BoxGrid, brute_force_nearest
from wplab.series import TimeSeries


def white_noise(n, seed=123):
    rng = np.random.default_rng(seed)
    return TimeSeries(1.0, rng.normal(size=n))


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


class TestMutualInformation:
    def test_matches_brute_force_on_noise(self):
        ts = white_noise(3000)
        res = mutual_information_delay(ts, max_lag=20, bins=8)
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


class TestFnn:
    def test_sine_dimension_two(self):
        f = false_nearest_neighbors(
            sine_series(10_000, period=100.0), delay=25, d_max=4, r_tol=15.0
        )
        assert f.dimension == 2

    def test_henon_dimension_two(self):
        f = false_nearest_neighbors(henon_series(10_000), delay=1, d_max=4, r_tol=15.0)
        assert f.dimension == 2

    def test_white_noise_no_dimension(self):
        f = false_nearest_neighbors(white_noise(10_000), delay=1, d_max=5, r_tol=15.0)
        assert f.dimension is None
        assert np.all(f.fnn_fractions >= 0.01)

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
        f = false_nearest_neighbors(ts, delay=1, d_max=3, r_tol=15.0, max_reference=10**9)
        assert np.abs(f.fnn_fractions - np.array(fracs)).max() < 1e-12

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
        f = false_nearest_neighbors(
            ts, delay=delay, d_max=d_max, r_tol=r_tol, a_tol=a_tol, max_reference=max_ref
        )
        assert f.fnn_fractions.tolist() == fracs


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

    def test_horizon_precondition(self):
        with pytest.raises(ValueError):
            lyapunov_rosenstein(
                logistic_series(100), EmbeddingSpec(1, 2), theiler=1, horizon=50
            )


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
        c = classify(self.make_result(0.69, 0.999), threshold=0.01)
        assert c == Classification("chaotic", False)

    def test_regular_small_lambda(self):
        c = classify(self.make_result(np.float64(0.001), np.float64(0.99)), threshold=0.01)
        assert c.label == "regular"
        assert c.ambiguous is False

    def test_regular_no_linear_region(self):
        c = classify(self.make_result(0.2, 0.5), threshold=0.01)
        assert c.label == "regular"
        assert c.ambiguous

    def test_logistic_end_to_end(self):
        ts = logistic_series(20_000)
        r = lyapunov_rosenstein(ts, EmbeddingSpec(1, 2), theiler=5, horizon=12)
        assert classify(r, threshold=0.01).label == "chaotic"

    def test_periodic_end_to_end(self):
        ts = sine_series(20_000, period=100.0)
        r = lyapunov_rosenstein(
            ts, EmbeddingSpec(25, 2), theiler=50, horizon=300, curve_stride=3
        )
        assert classify(r, threshold=0.01).label == "regular"
