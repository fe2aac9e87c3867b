import math

import numpy as np
import pytest

from wplab import lab, seriesio
from wplab.fock import pacs_amplitudes
from wplab.kerr import (
    KerrParams,
    evolve_diagonal,
    generate_series_x,
    kerr_spectrum,
    quadrature_sum,
)
from wplab.presets import PRESETS

from oracles import norm_squared, overlap


@pytest.mark.parametrize(
    "params, named",
    [
        ({"chi": math.nan, "chi_prime": 0.0}, "'chi'"),
        ({"chi": 1.0, "chi_prime": math.inf}, "'chi_prime'"),
        ({"chi": "1", "chi_prime": 0.0}, "'chi'"),
        ({"chi": 1.0, "chi_prime": None}, "'chi_prime'"),
        ({"chi": True, "chi_prime": 0.0}, "'chi'"),
    ],
)
def test_bad_params_rejected(params, named):
    with pytest.raises(ValueError, match=named):
        KerrParams(**params)


class TestSpectrum:
    def test_lowest_levels_zero(self):
        spec = kerr_spectrum(1.3, 0.7, 10)
        assert spec.energies[0] == 0.0
        assert spec.energies[1] == 0.0

    def test_quadratic_term(self):
        spec = kerr_spectrum(1.0, 0.0, 5)
        assert spec.energies[2] == 2.0

    def test_cubic_term(self):
        spec = kerr_spectrum(1.0, 0.01, 5)
        assert spec.energies[3] == pytest.approx(6.06, abs=1e-14)

    def test_monotone_for_nonnegative_couplings(self):
        spec = kerr_spectrum(0.5, 0.02, 300)
        assert np.all(np.diff(spec.energies) >= 0.0)

    def test_n_max_below_one_rejected(self):
        with pytest.raises(ValueError, match="n_max must be >= 1"):
            kerr_spectrum(1.0, 0.0, 0)


class TestEvolve:
    def test_identity_at_t0(self):
        s = pacs_amplitudes(1.0, 0, 30)
        spec = kerr_spectrum(1.0, 0.01, 30)
        out = evolve_diagonal(s, spec, 0.0)
        assert np.abs(out.amplitudes - s.amplitudes).max() == 0.0

    @pytest.mark.parametrize("make", [
        lambda: pacs_amplitudes(1.0, 0, 30),
        lambda: pacs_amplitudes(1.0, 3, 30),
        lambda: pacs_amplitudes(2.0, 1, 40),
    ])
    def test_revival_at_pi(self, make):
        s = make()
        spec = kerr_spectrum(1.0, 0.0, s.n_max)
        out = evolve_diagonal(s, spec, math.pi)
        assert abs(overlap(s, out)) ** 2 >= 1.0 - 1e-10

    def test_periodic_revivals(self):
        s = pacs_amplitudes(1.0, 0, 30)
        spec = kerr_spectrum(1.0, 0.0, 30)
        for k in (1, 2, 3):
            out = evolve_diagonal(s, spec, k * math.pi)
            assert abs(overlap(s, out)) ** 2 >= 1.0 - 1e-10

    def test_norm_preserved(self):
        s = pacs_amplitudes(2.0, 2, 50)
        spec = kerr_spectrum(1.0, 0.013, 50)
        out = evolve_diagonal(s, spec, 817.33)
        assert norm_squared(out) == pytest.approx(1.0, abs=1e-14)

    def test_time_reversal(self):
        s = pacs_amplitudes(1.5, 1, 40)
        spec = kerr_spectrum(1.0, 0.01, 40)
        fwd = evolve_diagonal(s, spec, 12.7)
        back = evolve_diagonal(fwd, spec, -12.7)
        assert np.abs(back.amplitudes - s.amplitudes).max() < 1e-12

    def test_mean_photon_constant(self):
        s = pacs_amplitudes(1.0, 2, 40)
        spec = kerr_spectrum(1.0, 0.01, 40)
        p0 = np.abs(s.amplitudes) ** 2
        for t in (0.1, 3.0, 500.0):
            pt = np.abs(evolve_diagonal(s, spec, t).amplitudes) ** 2
            assert np.abs(pt - p0).max() < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            evolve_diagonal(pacs_amplitudes(1.0, 0, 20), kerr_spectrum(1, 0, 30), 1.0)


class TestSeries:
    def test_vacuum_series_zero(self):
        s = pacs_amplitudes(0.0, 0, 10)
        spec = kerr_spectrum(1.0, 0.0, 10)
        ts = generate_series_x(s, spec, 1e-3, 500, {})
        assert np.all(ts.values == 0.0)

    def test_initial_value_and_revival(self):
        s = pacs_amplitudes(1.0, 0, 30)
        spec = kerr_spectrum(1.0, 0.0, 30)
        dt = 1e-3
        steps = int(round(math.pi / dt)) + 1
        ts = generate_series_x(s, spec, dt, steps, {})
        assert ts.values[0] == pytest.approx(math.sqrt(2.0), abs=1e-10)
        k_rev = int(round(math.pi / dt))
        # revival sampled on the grid: pi is not an exact grid point, so
        # allow the coarser tolerance stated for sampled revivals
        assert ts.values[k_rev] == pytest.approx(ts.values[0], abs=1e-5)

    def test_incremental_matches_direct(self):
        from wplab.fock import quadrature_expectation

        s = pacs_amplitudes(1.0, 0, 30)
        spec = kerr_spectrum(1.0, 0.01, 30)
        dt = 1e-3
        ts = generate_series_x(s, spec, dt, 30_000, {})
        rng = np.random.default_rng(11)
        for k in rng.integers(0, 30_000, size=100):
            direct = quadrature_expectation(evolve_diagonal(s, spec, k * dt))
            assert abs(ts.values[k] - direct) < 1e-9

    def test_bound_invariant(self):
        s = pacs_amplitudes(1.0, 5, 40)
        spec = kerr_spectrum(1.0, 0.01, 40)
        ts = generate_series_x(s, spec, 2e-3, 20_000, {})
        # the sum's mass, sqrt(2) sum_n |c_n| |c_{n+1}| sqrt(n+1), bounds every sample
        mass = np.abs(quadrature_sum(s, spec).amp).sum()
        assert np.abs(ts.values).max() <= mass + 1e-12

    def test_state_and_spectrum_of_different_sizes_rejected(self):
        s = pacs_amplitudes(1.0, 0, 30)
        with pytest.raises(ValueError, match="dimensions differ"):
            quadrature_sum(s, kerr_spectrum(1.0, 0.01, 31))

    def test_metadata(self):
        s = pacs_amplitudes(2.0, 0, 40)
        spec = kerr_spectrum(1.0, 0.01, 40)
        run = {"model": "kerr", "nu": 4.0, "m": 0}
        ts = generate_series_x(s, spec, 1e-3, 10, run)
        assert ts.observable == "quadrature_x"
        assert ts.meta["nu"] == 4.0
        assert ts.meta["m"] == 0
        assert ts.dt == 1e-3
        # the run's metadata is kept as given, not altered in place, and
        # the model adds only what it computed
        assert run == {"model": "kerr", "nu": 4.0, "m": 0}
        added = ts.meta.keys() - run.keys()
        assert added == {"n_max", *quadrature_sum(s, spec).pruned()[1]}
        assert ts.meta["n_max"] == 40


# at chi = 1 and chi' = 0.01, as every Kerr preset, each frequency
# E_{n+1} - E_n = 2n + 0.03 n(n-1) lies on the grid 0.02 Z
FREQUENCY_GRID = 0.02
PERIOD = 2.0 * math.pi / FREQUENCY_GRID  # 100 pi
PERIOD_SAMPLES = 1000


@pytest.mark.parametrize("run_path", ["in-memory", "file"])
@pytest.mark.parametrize("preset_id", ["fig1", "fig2", "fig3", "fig4"])
def test_kerr_series_has_period_100_pi(tmp_path, preset_id, run_path):
    # the states (nu, m) = (1, 0), (1, 5), (100, 0) and (100, 5), each
    # checked on the kept sum that its own series carries
    p = PRESETS[preset_id]
    dt, steps = PERIOD / PERIOD_SAMPLES, 2 * PERIOD_SAMPLES
    if run_path == "in-memory":
        ts = lab.simulate_series(p.model, p.params, p.nu, p.m, dt, steps)
    else:
        path = lab.simulate(p.model, p.params, (p.nu, p.m), dt, steps, tmp_path / "s.wprs")
        ts = seriesio.read_series(path)
    kept = ts.spectrum
    # every kept frequency is on the grid (8.8e-10 of a step at most), and
    # the multiples share no factor, so no shorter period divides 100 pi
    on_grid = (kept.levels[kept.upper] - kept.levels[kept.lower]) / FREQUENCY_GRID
    multiples = np.rint(on_grid)
    assert np.abs(on_grid - multiples).max() <= 1e-8
    assert math.gcd(*multiples.astype(int)) == 1
    # one period on: the samples agree (1.8e-10 of sum |a_j| at most) ...
    x, mass = ts.values, np.abs(kept.amp).sum()
    assert np.abs(x[PERIOD_SAMPLES:] - x[:-PERIOD_SAMPLES]).max() <= 1e-9 * mass
    # ... and half a period on they do not (0.70 to 14.8 at most)
    half = PERIOD_SAMPLES // 2
    assert np.abs(x[half:] - x[:-half]).max() >= 0.5
