import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplab import lab, recur, seriesio, svg
from wplab.embed import EmbeddingSpec, delay_embed
from wplab.recur import (
    DENSITY_MAX_BINS,
    Cell,
    DegenerateSupportError,
    InsufficientEventsError,
    NoEventsError,
    ReturnTimeHistogram,
    fit_exponential,
    first_return_times,
    invariant_density,
    recurrence_matrix,
    return_map,
    second_return_times,
    support_sparsity,
)
from wplab.series import TimeSeries

from synthetic import henon_series, rotation_series, sine_series


def series_of(values, dt=1.0):
    return TimeSeries(dt, np.asarray(values, dtype=float))


def counts_of(h):
    """{tau: count} of a histogram."""
    return dict(zip(h.taus.tolist(), h.counts.tolist()))


def histogram_of(taus, dt=1.0):
    """The histogram of the return times ``taus``."""
    vals, cnts = np.unique(taus, return_counts=True)
    return ReturnTimeHistogram(vals, cnts, len(taus), dt)


def brute_force_recurrences(ts, window_start, window_len, eps, embed=None):
    """Every pair i < j whose max-norm distance is <= eps, by full scan."""
    w = ts.values[window_start : window_start + window_len]
    pts = w[:, None] if embed is None else delay_embed(TimeSeries(ts.dt, w), embed)
    close = np.abs(pts[:, None, :] - pts[None, :, :]).max(axis=2) <= eps
    return np.argwhere(np.triu(close, 1)) + window_start


def frac_for_eps(values, eps):
    """An epsilon_frac for which recurrence_matrix's eps is exactly ``eps``."""
    std = np.std(values)
    frac = eps / std
    for _ in range(64):
        got = float(frac * std)
        if got == eps:
            return frac
        frac = np.nextafter(frac, np.inf if got < eps else -np.inf)
    raise AssertionError("no epsilon_frac gives eps exactly")


class TestFirstReturn:
    def test_periodic_single_support(self):
        ts = sine_series(10_000, period=100.0)
        h = first_return_times(ts, Cell(0.999, 1.001))
        assert h.taus.tolist() == [100]

    def test_rotation_three_gap(self):
        ts = rotation_series(1_000_000)
        h = first_return_times(ts, Cell(0.0, 0.05))
        assert h.taus.size <= 3

    def test_alternation_hand_enumeration(self):
        # in, out, in, out, ... -> every return time is 2
        ts = series_of([1.0, 0.0] * 50)
        h = first_return_times(ts, Cell(0.5, 1.5))
        assert counts_of(h) == {2: 49}
        assert h.total_events == 49

    def test_one_event_per_residence(self):
        # two-sample residences: each counts once, at its entry
        ts = series_of([0, 1, 1, 0, 1, 1, 0, 1, 1, 0])
        h = first_return_times(ts, Cell(0.5, 1.5))
        assert counts_of(h) == {3: 2}
        assert h.total_events == 2

    def test_index_zero_counts_as_event(self):
        ts = series_of([1.0, 0.0, 1.0, 0.0])
        h = first_return_times(ts, Cell(0.5, 1.5))
        assert counts_of(h) == {2: 1}

    def test_no_events(self):
        ts = series_of(np.zeros(100))
        with pytest.raises(NoEventsError):
            first_return_times(ts, Cell(5.0, 6.0))

    def test_shift_invariance(self):
        rng = np.random.default_rng(5)
        vals = rng.normal(size=20_000)
        cell = Cell(-0.1, 0.1)
        h1 = first_return_times(series_of(vals), cell)
        shifted = Cell(cell.lower + 3.5, cell.upper + 3.5)
        h2 = first_return_times(series_of(vals + 3.5), shifted)
        assert counts_of(h1) == counts_of(h2)

    def test_dt_relabeling(self):
        vals = np.sin(2 * np.pi * np.arange(5000) / 50.0)
        h1 = first_return_times(series_of(vals, dt=1.0), Cell(0.99, 1.01))
        h2 = first_return_times(series_of(vals, dt=1e-3), Cell(0.99, 1.01))
        assert counts_of(h1) == counts_of(h2)
        assert h2.dt == 1e-3


class TestSecondReturn:
    def test_periodic(self):
        ts = sine_series(10_000, period=100.0)
        h = second_return_times(ts, Cell(0.999, 1.001))
        assert h.taus.tolist() == [200]

    def test_mean_telescoping(self):
        rng = np.random.default_rng(8)
        vals = rng.normal(size=50_000)
        cell = Cell(0.0, 0.05)
        f1 = first_return_times(series_of(vals), cell)
        f2 = second_return_times(series_of(vals), cell)
        # sums of adjacent first returns: the means agree to edge effects
        mean1, mean2 = (np.dot(h.taus, h.counts) / h.counts.sum() for h in (f1, f2))
        assert mean2 == pytest.approx(2.0 * mean1, rel=5e-3)

    def test_too_few_events(self):
        ts = series_of([1.0, 0.0, 1.0, 0.0])
        with pytest.raises(NoEventsError):
            second_return_times(ts, Cell(0.5, 1.5))

    def test_memoryless_gamma_vs_exponential(self):
        # synthetic event process with geometric gaps: the two-step return
        # distribution follows the two-event gamma shape, not an exponential
        rng = np.random.default_rng(17)
        gaps = rng.geometric(p=0.01, size=10_000)
        events = np.cumsum(gaps)
        vals = np.zeros(int(events[-1]) + 1)
        vals[events] = 1.0
        ts = series_of(vals)
        f2 = second_return_times(ts, Cell(0.5, 1.5))
        t = np.repeat(f2.taus.astype(float), f2.counts)
        lam_exp = 1.0 / t.mean()
        ll_exp = np.sum(np.log(lam_exp) - lam_exp * t)
        lam_gam = 2.0 / t.mean()
        ll_gam = np.sum(2 * np.log(lam_gam) + np.log(t) - lam_gam * t)
        assert ll_gam > ll_exp


class TestFitExponential:
    def synthetic_exponential_hist(self, rate, n, dt=1.0, seed=3):
        # gaps drawn in time units, then gridded at dt (kept fine vs 1/rate)
        rng = np.random.default_rng(seed)
        taus = np.maximum(1, np.round(rng.exponential(1.0 / rate, size=n) / dt).astype(int))
        return histogram_of(taus, dt)

    def test_recovers_rate(self):
        h = self.synthetic_exponential_hist(0.5, 100_000, dt=0.01)
        fit = fit_exponential(h)
        assert fit.rate == pytest.approx(0.5, rel=0.02)
        assert fit.ks_stat < 0.01

    def test_recovers_rate_fine_sampling(self):
        # rate * dt = 0.01: discretization negligible, KS is tight
        rng = np.random.default_rng(4)
        taus = np.maximum(1, np.ceil(rng.exponential(100.0, size=100_000)).astype(int))
        h = histogram_of(taus)
        fit = fit_exponential(h)
        assert fit.rate == pytest.approx(0.01, rel=0.02)
        assert fit.ks_stat < 0.01

    def test_degenerate_support(self):
        h = histogram_of(np.full(500, 100))
        with pytest.raises(DegenerateSupportError):
            fit_exponential(h)

    def test_equal_counts_rejected(self):
        # three bins of 100 events each: the log counts have no slope to fit
        h = histogram_of(np.repeat([3, 5, 8], 100))
        with pytest.raises(DegenerateSupportError, match="log counts are constant"):
            fit_exponential(h)

    def test_three_support_rejected(self):
        ts = rotation_series(1_000_000)
        h = first_return_times(ts, Cell(0.0, 0.05))
        fit_or_err = None
        try:
            fit_or_err = fit_exponential(h)
        except DegenerateSupportError:
            pytest.skip("support too sparse for a line; rejection trivially holds")
        assert fit_or_err.ks_stat > 0.2

    def test_insufficient_events(self):
        h = histogram_of(np.repeat([3, 5], [20, 30]))
        with pytest.raises(InsufficientEventsError):
            fit_exponential(h)

    def test_ks_in_unit_interval(self):
        for seed in range(5):
            h = self.synthetic_exponential_hist(0.2, 5000, seed=seed)
            fit = fit_exponential(h)
            assert 0.0 <= fit.ks_stat <= 1.0


class TestSupportSparsity:
    def test_periodic(self):
        ts = sine_series(10_000, period=100.0)
        h = first_return_times(ts, Cell(0.999, 1.001))
        assert support_sparsity(h, 0.9) == 1

    def test_rotation(self):
        ts = rotation_series(1_000_000)
        h = first_return_times(ts, Cell(0.0, 0.05))
        assert support_sparsity(h, 0.99) <= 3

    def test_exponential_spread(self):
        rng = np.random.default_rng(12)
        taus = np.maximum(1, np.ceil(rng.exponential(100.0, size=100_000)).astype(int))
        h = histogram_of(taus)
        assert support_sparsity(h, 0.9) > 50

    def test_mass_validation(self):
        h = histogram_of(np.ones(10, dtype=int))
        with pytest.raises(ValueError):
            support_sparsity(h, 1.5)


def density_bins(values, bin_width):
    """Bin count of ``[lo, lo + k * bin_width)`` edges, k = ceil(span / width)."""
    lo, hi = min(values), max(values)
    return max(1, math.ceil((hi - lo) / bin_width)) if hi > lo else 1


class TestInvariantDensity:
    def test_keeps_the_maximum(self):
        # lo + 390 * 0.01 rounds below hi: the last edge once dropped the maximum
        values = [-4.418474210187328, -2.0, -0.5184742101873274]
        d = invariant_density(series_of(values), 0.01)
        assert d.counts.sum() == 3
        assert d.counts[-1] == 1
        assert d.counts.size == density_bins(values, 0.01) + 1

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e3, max_value=1e3, allow_subnormal=False),
            min_size=1,
            max_size=40,
        ),
        bin_width=st.floats(min_value=1e-2, max_value=10.0),
    )
    def test_counts_every_sample(self, values, bin_width):
        d = invariant_density(series_of(values), bin_width)
        assert d.counts.sum() == len(values)
        # the edges of old stay wherever they already reach the maximum
        bins = density_bins(values, bin_width)
        covered = min(values) + bins * bin_width >= max(values)
        assert d.counts.size == (bins if covered else bins + 1)

    def test_bin_cap(self):
        # a range of DENSITY_MAX_BINS - 1 widths fits, with room for the
        # bin the rounded edges may add; one width more is refused
        top = float(DENSITY_MAX_BINS - 1)
        d = invariant_density(series_of([0.0, top]), 1.0)
        assert d.counts.size <= DENSITY_MAX_BINS
        with pytest.raises(ValueError, match="bin_width"):
            invariant_density(series_of([0.0, top + 1.0]), 1.0)
        # so is a width whose bin count would overflow an integer
        with pytest.raises(ValueError, match="bin_width"):
            invariant_density(series_of([0.0, 1.0]), 5e-324)

    def test_constant_series(self):
        d = invariant_density(series_of(np.full(100, 2.5)), 0.1)
        assert d.counts.size == 1
        assert d.counts[0] == 100

    def test_arcsine_shape(self):
        ts = sine_series(1_000_000, period=1000.0)
        d = invariant_density(ts, 0.05)
        dens = d.density()
        # density of a sinusoid rises monotonically toward the edges
        assert dens[0] > 2.0 * dens[dens.size // 2]
        assert dens[-1] > 2.0 * dens[dens.size // 2]

    def test_normalization_identity(self):
        rng = np.random.default_rng(2)
        ts = series_of(rng.normal(size=10_000))
        d = invariant_density(ts, 0.1)
        assert float(d.counts.sum() * d.bin_width * d.normalization) == pytest.approx(
            1.0, rel=1e-12
        )


class TestReturnMap:
    def test_sine_peaks(self):
        ts = sine_series(1000, period=100.0)
        pairs = return_map(ts)
        assert np.abs(pairs - 1.0).max() < 1e-3

    def test_alternating_amplitudes(self):
        t = np.arange(4000)
        env = np.where((t // 100) % 2 == 0, 1.0, 0.5)
        ts = series_of(env * np.sin(2 * np.pi * t / 100.0))
        pairs = return_map(ts)
        for a, b in pairs:
            assert {round(a, 3), round(b, 3)} == {1.0, 0.5}

    @pytest.mark.parametrize(
        "values, heights",
        [
            # a flat step on the way up is no maximum
            ([0, 1, 1, 2, 0, 3, 0], [2, 3]),
            # a plateau is one maximum, and a run reaching the end none
            ([0, 2, 2, 2, 1, 3, 3, 0, 1, 4, 4], [2, 3]),
            # nor is a run reaching the start
            ([5, 5, 1, 3, 1, 4, 4, 1], [3, 4]),
        ],
    )
    def test_runs_of_equal_samples_count_once(self, values, heights):
        pairs = return_map(series_of(np.array(values, dtype=float)))
        assert pairs.tolist() == [heights]

    def test_too_few_maxima(self):
        with pytest.raises(ValueError):
            return_map(series_of([0.0, 1.0, 2.0, 3.0]))

    def test_distinct_samples_are_not_copied(self):
        # no two consecutive samples are equal, as in the model series:
        # the 8 MB series is used as it is, and only 1-byte masks remain
        ts = sine_series(1_000_000, period=97.3)
        tracemalloc.start()
        try:
            pairs = return_map(ts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(pairs) > 10_000 and np.abs(pairs - 1.0).max() < 1e-3
        assert peak < 4_000_000


class TestRecurrenceMatrix:
    def test_constant_window_all_pairs(self):
        ts = series_of(np.ones(50))
        rp = recurrence_matrix(ts, 0, 50, epsilon_frac=0.1)
        assert rp.pairs.shape[0] == 50 * 49 // 2

    def test_no_self_pairs_and_sorted(self):
        ts = sine_series(400, period=40.0)
        rp = recurrence_matrix(ts, 0, 400, epsilon_frac=0.3)
        assert np.all(rp.pairs[:, 0] < rp.pairs[:, 1])
        order = np.lexsort((rp.pairs[:, 1], rp.pairs[:, 0]))
        assert np.array_equal(order, np.arange(rp.pairs.shape[0]))

    def test_periodic_diagonal_lines(self):
        period = 100
        ts = sine_series(3 * period, period=float(period))
        rp = recurrence_matrix(ts, 0, 3 * period, epsilon_frac=0.05)
        eps = rp.epsilon
        v = ts.values
        # direct criterion check on every reported pair
        for i, j in rp.pairs[::7]:
            assert abs(v[i] - v[j]) <= eps
        # full lines parallel to the main diagonal at offsets k * period
        present = {(int(i), int(j)) for i, j in rp.pairs}
        for offset in (period, 2 * period):
            for i in range(0, 3 * period - offset):
                assert (i, i + offset) in present

    def test_window_offset_indices(self):
        ts = sine_series(1000, period=100.0)
        rp = recurrence_matrix(ts, 200, 300, epsilon_frac=0.1)
        assert rp.pairs.min() >= 200
        assert rp.pairs.max() < 500

    def test_embedded_max_norm(self):
        ts = sine_series(500, period=50.0)
        spec = EmbeddingSpec(delay=12, dimension=2)
        rp = recurrence_matrix(ts, 0, 500, epsilon_frac=0.2, embed=spec)
        v = ts.values
        eps = rp.epsilon
        for i, j in rp.pairs[::11]:
            d = max(abs(v[i] - v[j]), abs(v[i + 12] - v[j + 12]))
            assert d <= eps
        # spot-check an excluded pair
        present = {(int(i), int(j)) for i, j in rp.pairs}
        count = 500 - 12
        missing = [
            (i, j)
            for i in range(0, count, 17)
            for j in range(i + 1, count, 23)
            if (i, j) not in present
        ]
        for i, j in missing[:50]:
            d = max(abs(v[i] - v[j]), abs(v[i + 12] - v[j + 12]))
            assert d > eps

    def test_symmetric_reconstruction(self):
        ts = sine_series(300, period=30.0)
        rp = recurrence_matrix(ts, 0, 300, epsilon_frac=0.2)
        n = 300
        m = np.zeros((n, n), dtype=bool)
        i, j = rp.pairs[:, 0], rp.pairs[:, 1]
        m[i, j] = True
        m |= m.T
        assert np.array_equal(m, m.T)

    @pytest.mark.parametrize("candidates", [None, 5])
    def test_ties_and_duplicates_match_brute_force(self, monkeypatch, candidates):
        # multiples of 1/8 give many duplicate values and many differences
        # exactly at eps; a small candidate budget splits the sweep
        if candidates is not None:
            monkeypatch.setattr(recur, "_RP_CANDIDATES", candidates)
        rng = np.random.default_rng(4)
        v = rng.integers(-12, 13, 300) / 8.0
        v[20] = 0.25 + 2.0**-50  # just beyond eps = 0.25 from 0.0
        # fl(c + 1.0) = 1 - 2**-53 < 1.0 although fl(1.0 - c) = 1.0 = eps
        v[21] = -(2.0**-54 + 2.0**-60)
        v[22] = 1.0
        ts = series_of(v)
        for eps in (0.25, 0.375, 1.0):
            frac = frac_for_eps(v[10:290], eps)
            rp = recurrence_matrix(ts, 10, 280, epsilon_frac=frac)
            assert rp.epsilon == eps
            assert np.array_equal(rp.pairs, brute_force_recurrences(ts, 10, 280, eps))
        assert [21, 22] in rp.pairs.tolist()

    @pytest.mark.parametrize("candidates", [None, 7])
    def test_embedded_matches_brute_force(self, monkeypatch, candidates):
        if candidates is not None:
            monkeypatch.setattr(recur, "_RP_CANDIDATES", candidates)
        ts = henon_series(900)
        spec = EmbeddingSpec(delay=3, dimension=4)
        rp = recurrence_matrix(ts, 100, 700, epsilon_frac=0.3, embed=spec)
        # every index of the window [100, 800) fits 16 bits
        assert rp.pairs.dtype == np.uint16
        expect = brute_force_recurrences(ts, 100, 700, rp.epsilon, spec)
        assert np.array_equal(rp.pairs, expect)

    @pytest.mark.parametrize(
        "end, dtype", [(1 << 16, np.uint16), ((1 << 16) + 1, np.int32)]
    )
    def test_pair_dtype_at_16_bit_boundary(self, tmp_path, end, dtype):
        # the window's last index is end - 1: 65 535 is the largest that
        # uint16 holds.  The text export and the plot read the same
        # numbers whatever the dtype
        ts = sine_series(end, period=10.0)
        rp = recurrence_matrix(ts, end - 300, 300, epsilon_frac=0.1)
        assert rp.pairs.dtype == dtype
        assert rp.pairs.max() == end - 1
        expect = brute_force_recurrences(ts, end - 300, 300, rp.epsilon)
        assert np.array_equal(rp.pairs, expect)
        text = seriesio.write_recurrence(rp, tmp_path / "rp.txt").read_text()
        rows = "".join("%d %d\n" % (i, j) for i, j in expect.tolist())
        assert text.endswith("# columns: i j\n" + rows)

        def drawn(pairs, name):
            path = svg.points_svg(pairs[:, 0], pairs[:, 1], tmp_path / name, "rp")
            return path.read_bytes()

        assert drawn(rp.pairs, "a.svg") == drawn(rp.pairs.astype(np.int32), "b.svg")

    def test_window_too_wide_for_32_bit_keys(self):
        # a pair key (i << shift) | j of 70 001 states needs 34 bits; the
        # values permute 0 ... 70 000, so at eps = 2 each state recurs
        # with exactly the states holding v - 2 ... v + 2
        n = 70_001
        v = (np.arange(n) * 7_919 % n).astype(np.float64)
        rp = recurrence_matrix(series_of(v), 0, n, epsilon_frac=frac_for_eps(v, 2.0))
        holder = np.argsort(v)  # holder[k] is the state with value k
        expect = set()
        for d in (1, 2):
            i, j = holder[:-d], holder[d:]
            expect |= set(zip(np.minimum(i, j).tolist(), np.maximum(i, j).tolist()))
        assert rp.pairs.tolist() == sorted(map(list, expect))

    def test_memory_stays_chunked(self):
        # the shape of the two-mode-wide benchmark's plot: 4 000 states of
        # the nu = 50 two-mode series at the rp default epsilon_frac, about
        # 636 000 pairs.  Beyond the returned pairs and their 32-bit keys,
        # the sweep holds one chunk's index and gather arrays: 1.4 MB at
        # 2**16 candidates, 16 MB when one chunk holds every candidate
        params = {"omega": 1.0, "omega0": 1.0, "gamma": 5.0, "g": 1.0}
        ts = lab.simulate_series("bipartite", params, 50.0, 5, 1e-3, 4000)
        tracemalloc.start()
        try:
            rp = recurrence_matrix(ts, 0, 4000, epsilon_frac=0.1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_pairs = rp.pairs.shape[0]
        assert n_pairs > 600_000
        kept = rp.pairs.nbytes + 4 * n_pairs
        assert peak - kept < 4 * 8 * recur._RP_CANDIDATES

    def test_window_validation(self):
        ts = sine_series(100, period=10.0)
        with pytest.raises(ValueError):
            recurrence_matrix(ts, 50, 100, epsilon_frac=0.1)
        with pytest.raises(ValueError):
            recurrence_matrix(ts, 0, 100, epsilon_frac=-1.0)


@pytest.mark.parametrize(
    "call, named",
    [
        (lambda ts: recurrence_matrix(ts, 0, 100, math.nan), "epsilon_frac"),
        (lambda ts: recurrence_matrix(ts, 0, 100, math.inf), "epsilon_frac"),
        (lambda ts: invariant_density(ts, math.inf), "bin_width"),
        (lambda ts: invariant_density(ts, math.nan), "bin_width"),
    ],
    ids=["rp-nan", "rp-inf", "density-inf", "density-nan"],
)
def test_bad_scale_is_a_value_error_naming_it(call, named):
    with pytest.raises(ValueError, match=named):
        call(sine_series(200, period=10.0))
