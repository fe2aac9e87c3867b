import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplab import lab, series
from wplab.bipartite import (
    TwoModeParams,
    decompose_initial,
    occupancy_series,
    occupancy_sum,
)
from wplab.fock import pacs_amplitudes, quadrature_expectation
from wplab.kerr import evolve_diagonal, generate_series_x, kerr_spectrum, quadrature_sum
from wplab.presets import get_preset
from wplab.series import SpectralSum, block_rows, reduced_phases

from childproc import run_python


def direct_sum(amp, freq, dt, ks):
    """Re sum_j a_j exp(-i w_j k dt), one sample at a time, phases in long double."""
    out = np.empty(len(ks))
    for i, k in enumerate(ks):
        phase = reduced_phases(freq, np.longdouble(k) * np.longdouble(dt))
        out[i] = math.fsum(amp.real * np.cos(phase) + amp.imag * np.sin(phase))
    return out


def random_terms(seed, terms, max_freq=300.0):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=terms) + 1j * rng.normal(size=terms)
    return amp, rng.uniform(-max_freq, max_freq, terms)


def pruned_series(s, dt, steps):
    """The prune step, then evaluation of the kept sum: the samples and
    the pruning report."""
    kept, report = s.pruned()
    return kept.evaluate(dt, steps), report


def freq_series(amp, freq, dt, steps):
    """The kernel on frequencies freq_j = E[j+1] - E[0] with levels [0, *freq]."""
    upper = np.arange(1, len(freq) + 1)
    return pruned_series(SpectralSum(amp, [0.0, *freq], upper, 0 * upper), dt, steps)[0]


def level_freqs(levels, upper, lower):
    """E[upper] - E[lower], exact in extended precision."""
    e = np.asarray(levels, dtype=np.longdouble)
    return e[upper] - e[lower]


def boundary_indices(steps):
    rows = block_rows(steps)
    ks = {0, steps - 1}
    for start in range(rows, steps, rows):
        ks.update((start - 1, start, start + 1))
    return sorted(k for k in ks if k < steps)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.0, 0.0, -1.0, True])
def test_time_series_step_must_be_finite_and_positive(dt):
    with pytest.raises(ValueError, match="dt must be finite and positive"):
        series.TimeSeries(dt, np.zeros(3))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_time_series_samples_must_be_finite(bad):
    with pytest.raises(ValueError, match="series values must be finite"):
        series.TimeSeries(1.0, np.array([0.0, bad, 1.0]))


@pytest.mark.parametrize("values", [np.zeros((5, 2)), np.zeros((1, 3)), [[1.0]]])
def test_time_series_samples_are_one_dimensional(values):
    with pytest.raises(ValueError, match=r"1-D, got shape \("):
        series.TimeSeries(1.0, values)


def test_time_series_scalar_is_one_sample():
    assert series.TimeSeries(1.0, 2.5).values.tolist() == [2.5]


class TestSpectralSeries:
    @pytest.mark.parametrize("steps", [1, 2, 10, 16, 1009, 20_011])
    def test_against_direct_sum(self, steps):
        amp, freq = random_terms(steps, 37)
        dt = 1.3e-3
        x = freq_series(amp, freq, dt, steps)
        assert x.shape == (steps,)
        ks = boundary_indices(steps)
        err = np.abs(x[ks] - direct_sum(amp, freq, dt, ks)).max()
        assert err <= 1e-13 * np.abs(amp).sum()

    def test_short_series_is_one_block(self):
        # fewer steps than 4*sqrt(steps): the block is the whole series
        for steps in (1, 5, 16):
            assert block_rows(steps) == steps
        assert block_rows(17) == 17
        assert block_rows(1009) == 128

    def test_chunked_terms_and_slabs(self, monkeypatch):
        # a tiny table budget splits the terms and the product rows
        steps = 20_011
        rows = block_rows(steps)
        monkeypatch.setattr(series, "_TABLE_BYTES", 16 * rows * 3)
        amp, freq = random_terms(5, 50, max_freq=2000.0)
        x = freq_series(amp, freq, 1e-3, steps)
        ks = boundary_indices(steps)
        err = np.abs(x[ks] - direct_sum(amp, freq, 1e-3, ks)).max()
        assert err <= 1e-13 * np.abs(amp).sum()

    @pytest.mark.parametrize("steps", [10, 1009, 20_011])
    def test_level_pairs_against_direct_sum(self, steps):
        # repeated (degenerate) levels, pairs sharing a level, a zero and
        # negative frequencies (lower above upper)
        rng = np.random.default_rng(steps)
        levels = rng.uniform(-300.0, 300.0, 24)
        levels[[3, 7, 8]] = levels[2]
        upper = np.concatenate(([5, 5, 5, 2, 3, 7, 0, 4], rng.integers(0, 24, 30)))
        lower = np.concatenate(([1, 9, 23, 3, 2, 7, 5, 4], rng.integers(0, 24, 30)))
        amp = rng.normal(size=upper.size) + 1j * rng.normal(size=upper.size)
        dt = 1.3e-3
        x, _ = pruned_series(SpectralSum(amp, levels, upper, lower), dt, steps)
        ks = boundary_indices(steps)
        expect = direct_sum(amp, level_freqs(levels, upper, lower), dt, ks)
        assert np.abs(x[ks] - expect).max() <= 1e-13 * np.abs(amp).sum()

    def test_swapped_pair_is_conjugate_term(self):
        # Re(a e^{-i(E_l - E_u)t}) = Re(conj(a) e^{-i(E_u - E_l)t})
        amp, levels = random_terms(11, 9)
        upper = np.arange(9)
        lower = np.roll(upper, 4)
        x, _ = pruned_series(SpectralSum(amp, levels, lower, upper), 1e-2, 500)
        y, _ = pruned_series(SpectralSum(np.conj(amp), levels, upper, lower), 1e-2, 500)
        assert np.abs(x - y).max() <= 1e-13 * np.abs(amp).sum()

    def test_constant_and_term_count(self):
        # the constant is added to every sample; ``terms`` is reported as given
        amp, levels = random_terms(4, 6)
        upper, lower = np.arange(6), np.roll(np.arange(6), 2)
        x, report = pruned_series(SpectralSum(amp, levels, upper, lower), 1e-2, 300)
        y, counted = pruned_series(SpectralSum(amp, levels, upper, lower, 2.5, 40), 1e-2, 300)
        assert np.array_equal(y, x + 2.5)
        assert report["spectral_terms"] == 6
        assert counted == {**report, "spectral_terms": 40}

    def test_no_terms_is_zero(self):
        for levels in ([], [1.0]):
            x, _ = pruned_series(SpectralSum([], levels, [], []), 0.1, 7)
            assert np.array_equal(x, np.zeros(7))

    @pytest.mark.parametrize(
        "upper, lower",
        [
            ([1, 2], [0, 3]),  # lower outside the levels
            ([1, -1], [0, 0]),  # negative index
            ([3, 1], [0, 0]),  # upper outside the levels
            ([1], [0, 0]),  # upper shorter than amp
            ([1, 2], [0]),  # lower shorter than amp
            ([1.0, 2.0], [0, 0]),  # not integers
        ],
    )
    def test_bad_level_indices(self, monkeypatch, upper, lower):
        def no_work(*args):
            raise AssertionError("phase tables built before validation")

        monkeypatch.setattr(series, "reduced_phases", no_work)
        with pytest.raises(ValueError):
            SpectralSum([1.0, 2.0], [0.0, 1.0, 2.0], upper, lower).evaluate(0.1, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpectralSum([1.0], [0.0, 1.0], [1], [0]).evaluate(0.1, 0)


def pruning_reference(mag, fraction):
    """The pruning rule one term at a time: (kept indices, dropped mass).

    Sorts by (|a|, index), totals in that order, then drops terms while
    the running dropped sum stays within fraction * total.
    """
    order = sorted(range(len(mag)), key=lambda j: (mag[j], j))
    total = 0.0
    for j in order:
        total += float(mag[j])
    dropped, cut = 0.0, 0
    for j in order:
        if dropped + float(mag[j]) > fraction * total:
            break
        dropped += float(mag[j])
        cut += 1
    return sorted(order[cut:]), dropped


def tabulated_levels(monkeypatch):
    """Spy on ``reduced_phases``: the sorted level values of every call."""
    calls = []
    real = series.reduced_phases

    def spy(freq, t):
        calls.append(np.sort(np.asarray(freq, dtype=np.float64)))
        return real(freq, t)

    monkeypatch.setattr(series, "reduced_phases", spy)
    return calls


def term_sum(amp, levels, upper, lower, dt, ks, keep=None):
    """direct_sum over the terms in ``keep`` (all when None)."""
    keep = np.arange(len(amp)) if keep is None else np.asarray(keep, dtype=int)
    freq = level_freqs(levels, np.asarray(upper)[keep], np.asarray(lower)[keep])
    return direct_sum(np.asarray(amp)[keep], freq, dt, ks)


# one term: (log10 |a|, arg a, upper, lower); levels are drawn from 12
TERM = st.tuples(
    st.floats(-20.0, 0.0),
    st.floats(0.0, 2 * math.pi),
    st.integers(0, 11),
    st.integers(0, 11),
)


class TestPruning:
    @settings(max_examples=200, deadline=None)
    @given(
        terms=st.lists(TERM, min_size=1, max_size=40),
        levels=st.lists(st.floats(-300.0, 300.0), min_size=12, max_size=12),
        steps=st.integers(1, 3000),
        fraction=st.sampled_from([series.PRUNE_FRACTION, 1e-9, 1e-3]),
    )
    def test_bound_against_direct_and_unpruned_sums(
        self, terms, levels, steps, fraction
    ):
        expo, arg, upper, lower = (np.array(c) for c in zip(*terms))
        amp = 10.0**expo * np.exp(1j * arg)
        mass = np.abs(amp).sum()
        dt = 1.3e-3
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(series, "PRUNE_FRACTION", fraction)
            x, report = pruned_series(SpectralSum(amp, levels, upper, lower), dt, steps)
            mp.setattr(series, "PRUNE_FRACTION", 0.0)
            y, _ = pruned_series(SpectralSum(amp, levels, upper, lower), dt, steps)
        keep, dropped = pruning_reference(np.abs(amp), fraction)
        assert report["spectral_terms"] == len(terms)
        assert report["spectral_terms_kept"] == len(keep)
        lost, budget = report["spectral_dropped_mass"], report["spectral_prune_budget"]
        assert lost == pytest.approx(dropped, rel=1e-12, abs=0)
        assert lost <= budget
        assert budget == pytest.approx(fraction * mass, rel=1e-12, abs=0)
        ks = boundary_indices(steps)
        kept_sum = term_sum(amp, levels, upper, lower, dt, ks, keep)
        assert np.abs(x[ks] - kept_sum).max() <= 1e-13 * mass
        if fraction == series.PRUNE_FRACTION:
            full_sum = term_sum(amp, levels, upper, lower, dt, ks)
            assert np.abs(x[ks] - full_sum).max() <= 1e-13 * mass
        # each of x and y is within 1e-13 * mass of its exact sum, and the
        # exact sums differ by at most the dropped mass
        assert np.abs(x - y).max() <= lost + 2e-13 * mass

    def test_all_zero_amplitudes(self, monkeypatch):
        calls = tabulated_levels(monkeypatch)
        upper, lower = [1, 2, 2, 0], [0, 0, 1, 2]
        zeros = SpectralSum(np.zeros(4), [0.0, 1.0, 2.5], upper, lower)
        x, report = pruned_series(zeros, 0.1, 50)
        assert np.array_equal(x, np.zeros(50))
        assert report["spectral_terms_kept"] == 0
        assert report["spectral_dropped_mass"] == 0.0
        assert all(c.size == 0 for c in calls)

    def test_single_term_is_kept(self):
        amp, levels = [3e-12j], [0.0, 7.0]
        x, report = pruned_series(SpectralSum(amp, levels, [1], [0]), 0.01, 200)
        assert report["spectral_terms_kept"] == 1
        assert report["spectral_dropped_mass"] == 0.0
        expect = term_sum(amp, levels, [1], [0], 0.01, np.arange(200))
        assert np.abs(x - expect).max() <= 1e-13 * 3e-12

    def test_term_above_budget_is_kept(self):
        # 2e-14 exceeds the budget 1e-14 * (1 + 2e-14) by itself
        amp = [1.0, 2e-14]
        _, report = pruned_series(SpectralSum(amp, [0.0, 3.0, 5.0], [1, 2], [0, 0]), 0.01, 100)
        assert report["spectral_terms_kept"] == 2
        assert report["spectral_dropped_mass"] == 0.0

    def test_ties_at_threshold_drop_lowest_index_first(self, monkeypatch):
        # 300 terms of equal |a| = 7e-17 around one of 1: the budget
        # 1e-14 * (1 + 2.1e-14) fits 142 of them, and the stable sort picks
        # the lowest indices; term j has its own level 10 + j
        tie = 7e-17 * np.resize([1.0, -1.0, 1j, -1j], 300)
        amp = np.insert(tie, 150, 1.0)
        levels = np.concatenate(([0.0], 10.0 + np.arange(amp.size)))
        upper, lower = np.arange(1, amp.size + 1), np.zeros(amp.size, int)
        calls = tabulated_levels(monkeypatch)
        x, report = pruned_series(SpectralSum(amp, levels, upper, lower), 0.01, 300)
        again, _ = pruned_series(SpectralSum(amp, levels, upper, lower), 0.01, 300)
        assert np.array_equal(x, again)
        keep = np.arange(142, amp.size)
        assert report["spectral_terms_kept"] == keep.size
        lost = report["spectral_dropped_mass"]
        assert lost == pytest.approx(142 * 7e-17, rel=1e-13, abs=0)
        assert all(np.array_equal(c, [0.0, *(10.0 + keep)]) for c in calls)
        expect = term_sum(amp, levels, upper, lower, 0.01, np.arange(300), keep)
        assert np.abs(x - expect).max() <= 1e-13 * np.abs(amp).sum()

    def test_unused_levels_not_tabulated(self, monkeypatch):
        # levels 0..29; the tiny terms alone reference levels 20..29, and
        # levels 15..19 are referenced by nothing
        rng = np.random.default_rng(8)
        levels = rng.uniform(-50.0, 50.0, 30)
        upper = np.concatenate((rng.integers(0, 15, 40), np.arange(20, 25)))
        lower = np.concatenate((rng.integers(0, 15, 40), np.arange(25, 30)))
        amp = np.concatenate((rng.normal(size=40) + 1j, np.full(5, 1e-18)))
        calls = tabulated_levels(monkeypatch)
        _, report = pruned_series(SpectralSum(amp, levels, upper, lower), 1e-3, 5000)
        assert report["spectral_terms_kept"] == 40
        used = np.sort(levels[np.unique(np.concatenate((upper[:40], lower[:40])))])
        assert len(calls) == 3
        assert all(np.array_equal(c, used) for c in calls)

    def test_evaluation_drops_no_term(self, monkeypatch):
        # the 1e-18 terms fit the budget, so the prune step drops them,
        # but evaluation sums every term it is given, over every level
        # they use
        rng = np.random.default_rng(8)
        levels = rng.uniform(-50.0, 50.0, 30)
        upper = np.concatenate((rng.integers(0, 15, 40), np.arange(20, 25)))
        lower = np.concatenate((rng.integers(0, 15, 40), np.arange(25, 30)))
        amp = np.concatenate((rng.normal(size=40) + 1j, np.full(5, 1e-18)))
        s = SpectralSum(amp, levels, upper, lower)
        assert s.pruned()[1]["spectral_terms_kept"] == 40

        def no_pruning(mag):
            raise AssertionError("evaluate pruned")

        calls = tabulated_levels(monkeypatch)
        monkeypatch.setattr(series, "_kept_terms", no_pruning)
        s.evaluate(1e-3, 5000)
        used = np.sort(levels[np.unique(np.concatenate((upper, lower)))])
        assert len(calls) == 3
        assert all(np.array_equal(c, used) for c in calls)

    def test_pruning_with_chunked_terms(self, monkeypatch):
        steps = 20_011
        rows = block_rows(steps)
        monkeypatch.setattr(series, "_TABLE_BYTES", 16 * rows * 3)
        rng = np.random.default_rng(21)
        amp = 10.0 ** rng.uniform(-20.0, 0.0, 60) * np.exp(2j * np.pi * rng.random(60))
        freq = rng.uniform(-2000.0, 2000.0, 60)
        upper = np.arange(1, 61)
        x, report = pruned_series(SpectralSum(amp, [0.0, *freq], upper, 0 * upper), 1e-3, steps)
        assert report["spectral_terms_kept"] < 60
        ks = boundary_indices(steps)
        err = np.abs(x[ks] - direct_sum(amp, freq, 1e-3, ks)).max()
        assert err <= 1e-13 * np.abs(amp).sum()

    def test_two_mode_preset_keeps_few_pairs(self):
        # fig11-14's sectors: under 10% of the pair terms carry all but
        # 1e-14 of their mass
        preset = get_preset("fig11-14")
        p = TwoModeParams(**preset.params)
        sectors = decompose_initial(lab.initial_field_state(preset.nu, preset.m), p)
        meta = occupancy_series(sectors, preset.dt, 10, {}).field.meta
        assert meta["spectral_terms"] == sum(s.N * (s.N + 1) // 2 for s in sectors)
        assert meta["spectral_terms_kept"] < 0.1 * meta["spectral_terms"]


def fresh_table_series(s, dt, steps):
    """``SpectralSum.evaluate``'s samples with a fresh in-block table per
    chunk of terms: the loop the one reused table buffer replaced, kept
    as its oracle."""
    amp = np.asarray(s.amp, dtype=np.complex128)
    keep = series._kept_terms(np.abs(amp))[0]
    amp = amp[keep]
    pairs = np.concatenate((s.upper[keep], s.lower[keep]))
    used, index = np.unique(pairs, return_inverse=True)
    levels = np.asarray(s.levels, dtype=np.float64)[used]
    upper, lower = index[: amp.size], index[amp.size :]
    rows = block_rows(steps)
    blocks = -(-steps // rows)
    side = math.ceil(math.sqrt(rows))
    dt_ld = np.longdouble(dt)

    def phasors(sign, ticks, stride):
        t = (np.arange(ticks, dtype=np.longdouble) * stride * dt_ld)[:, None]
        return np.exp(sign * reduced_phases(levels, t))

    starts = phasors(-1j, blocks, rows)
    coarse = phasors(1j, -(-rows // side), side)
    fine = phasors(1j, side, 1)
    chunk = max(1, series._TABLE_BYTES // (16 * rows))
    slab = max(1, series._TABLE_BYTES // (8 * rows))
    out = np.zeros((blocks, rows))
    for j0 in range(0, amp.size, chunk):
        up = upper[j0 : j0 + chunk]
        lo = lower[j0 : j0 + chunk]
        p = (amp[j0 : j0 + chunk] * series._pair_phasors(starts, up, lo)).view(np.float64)
        coarse_up = series._pair_phasors(coarse, up, lo)
        table = coarse_up[:, None, :] * series._pair_phasors(fine, up, lo)
        rt = table.reshape(-1, up.size)[:rows].view(np.float64).T
        for i0 in range(0, blocks, slab):
            out[i0 : i0 + slab] += p[i0 : i0 + slab] @ rt
    return out.ravel()[:steps] + s.const


def kerr_sum():
    """``fig4``'s quadrature sum and time step."""
    p = get_preset("fig4")
    state = lab.initial_field_state(p.nu, p.m)
    spec = kerr_spectrum(p.params["chi"], p.params["chi_prime"], state.n_max)
    return quadrature_sum(state, spec), p.dt


def two_mode_wide_sum():
    """The two-mode-wide benchmark's sum (nu = 50, m = 5, gamma/g = 5)
    and time step."""
    p = TwoModeParams(omega=1.0, omega0=1.0, gamma=5.0, g=1.0)
    sectors = decompose_initial(lab.initial_field_state(50.0, 5), p)
    return occupancy_sum(sectors)[0], 1e-3


class TestTableBuffer:
    """Every chunk's in-block table is written into one buffer, and the
    series is bitwise the one a fresh table per chunk gives."""

    @pytest.mark.parametrize(
        "make", [kerr_sum, two_mode_wide_sum], ids=["kerr_terms", "two_mode_wide_terms"]
    )
    def test_chunks_match_fresh_tables(self, monkeypatch, make):
        s, dt = make()
        steps = 4000
        kept = series._kept_terms(np.abs(s.amp))[0].size
        # at least three full chunks and a partial last one
        chunk = kept // 3 - 1
        assert kept // chunk >= 3 and kept % chunk
        monkeypatch.setattr(series, "_TABLE_BYTES", 16 * block_rows(steps) * chunk)
        got, _ = pruned_series(s, dt, steps)
        assert np.array_equal(got, fresh_table_series(s, dt, steps))

    def test_one_table_alive(self):
        s, dt = two_mode_wide_sum()
        steps = 4000
        rows = block_rows(steps)
        side = math.ceil(math.sqrt(rows))
        kept = series._kept_terms(np.abs(s.amp))[0].size
        chunk = series._TABLE_BYTES // (16 * rows)
        assert kept > 2 * chunk  # two full chunks, so two tables could be alive
        table = 16 * -(-rows // side) * side * chunk
        kept = s.pruned()[0]
        tracemalloc.start()
        try:
            kept.evaluate(dt, steps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one 4.2 MB table and about 2 MB of a chunk's block-start and
        # factor arrays (6.3 MB); with a second table alive at once, as
        # a fresh table per chunk holds, the peak was 10.1 MB
        assert peak < 2 * table


@pytest.mark.parametrize("steps", [7, 4000])
@pytest.mark.parametrize("make", ["two-mode-wide", "random"])
def test_real_amplitudes_keep_their_bits(monkeypatch, steps, make):
    # real amplitudes are evaluated as given, not copied to complex128:
    # samples and report are the bits of the same amplitudes cast
    if make == "random":
        # signed magnitudes over 20 decades, so pruning drops some; a
        # small table budget splits the terms into chunks
        rng = np.random.default_rng(8)
        amp = rng.choice([-1.0, 1.0], 200) * 10.0 ** rng.uniform(-20.0, 0.0, 200)
        upper = np.arange(1, 201)
        s = SpectralSum(amp, [0.0, *rng.uniform(-500.0, 500.0, 200)], upper, 0 * upper)
        monkeypatch.setattr(series, "_TABLE_BYTES", 16 * block_rows(steps) * 30)
        dt = 1e-3
    else:
        s, dt = two_mode_wide_sum()
    assert s.amp.dtype == np.float64
    x, report = pruned_series(s, dt, steps)
    y, expect = pruned_series(replace(s, amp=s.amp.astype(np.complex128)), dt, steps)
    assert x.tobytes() == y.tobytes()
    assert report == expect
    assert 0 < report["spectral_terms_kept"] < report["spectral_terms"]


def test_exact_kerr_revival():
    # chi' = 0: E_{n+1} - E_n = 2 chi n, so every term returns at t = pi/chi
    chi = 1.0
    revival = 1_000_000
    s = pacs_amplitudes(math.sqrt(5.0), 2, 60)
    spec = kerr_spectrum(chi, 0.0, s.n_max)
    dt = math.pi / (chi * revival)
    x = generate_series_x(s, spec, dt, revival + 1, {}).values
    assert abs(x[revival] - x[0]) <= 1e-10
    for k in (1, revival // 3, block_rows(revival + 1), revival - 1):
        exact = quadrature_expectation(evolve_diagonal(s, spec, k * dt))
        assert abs(x[k] - exact) <= 1e-10


@pytest.mark.parametrize("chi", [1.0, 0.25, 3.0])
def test_exact_kerr_revival_of_the_sum(chi):
    # chi' = 0: term n's frequency E_{n+1} - E_n = 2 chi n is an exact
    # integer multiple of 2 chi, so at t = pi/chi every phase is 2 pi n
    s = pacs_amplitudes(math.sqrt(5.0), 2, 60)
    q = quadrature_sum(s, kerr_spectrum(chi, 0.0, s.n_max))
    freq = q.levels[q.upper] - q.levels[q.lower]
    assert np.array_equal(freq / (2.0 * chi), np.arange(s.n_max))


AGREEMENT_SCRIPT = """
import json, sys
import numpy as np
from wplab.series import SpectralSum
rng = np.random.default_rng(3)
amp = rng.normal(size=3000) + 1j * rng.normal(size=3000)
freq = rng.uniform(-500.0, 500.0, 3000)
levels = np.concatenate(([0.0], freq))
upper = np.arange(1, 3001)
kept = SpectralSum(amp, levels, upper, np.zeros(3000, int)).pruned()[0]
x = kept.evaluate(1e-3, 200_000)
np.save(sys.argv[1], x)
"""


def test_blas_thread_counts_agree(tmp_path):
    # OpenBLAS splits a GEMM differently per thread count, so the sums may
    # differ in the last bits, but no more than that
    runs = []
    for threads in (1, 2):
        path = tmp_path / f"threads{threads}.npy"
        run_python(AGREEMENT_SCRIPT, path, threads=threads)
        runs.append(np.load(path))
    assert np.abs(runs[0] - runs[1]).max() <= 1e-12
