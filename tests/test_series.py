import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wplab import series
from wplab.fock import pacs_amplitudes, quadrature_expectation
from wplab.kerr import evolve_diagonal, generate_series_x, kerr_spectrum
from wplab.series import block_rows, reduced_phases, spectral_series

SRC = Path(__file__).resolve().parents[1] / "src"


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


def freq_series(amp, freq, dt, steps):
    """The kernel on frequencies freq_j = E[j+1] - E[0] with levels [0, *freq]."""
    upper = np.arange(1, len(freq) + 1)
    return spectral_series(amp, [0.0, *freq], upper, 0 * upper, dt, steps)


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
        x = spectral_series(amp, levels, upper, lower, dt, steps)
        ks = boundary_indices(steps)
        expect = direct_sum(amp, level_freqs(levels, upper, lower), dt, ks)
        assert np.abs(x[ks] - expect).max() <= 1e-13 * np.abs(amp).sum()

    def test_swapped_pair_is_conjugate_term(self):
        # Re(a e^{-i(E_l - E_u)t}) = Re(conj(a) e^{-i(E_u - E_l)t})
        amp, levels = random_terms(11, 9)
        upper = np.arange(9)
        lower = np.roll(upper, 4)
        x = spectral_series(amp, levels, lower, upper, 1e-2, 500)
        y = spectral_series(np.conj(amp), levels, upper, lower, 1e-2, 500)
        assert np.abs(x - y).max() <= 1e-13 * np.abs(amp).sum()

    def test_no_terms_is_zero(self):
        assert np.array_equal(spectral_series([], [], [], [], 0.1, 7), np.zeros(7))
        assert np.array_equal(spectral_series([], [1.0], [], [], 0.1, 7), np.zeros(7))

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
            spectral_series([1.0, 2.0], [0.0, 1.0, 2.0], upper, lower, 0.1, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            spectral_series([1.0], [0.0, 1.0], [1], [0], 0.1, 0)


def test_exact_kerr_revival():
    # chi' = 0: E_{n+1} - E_n = 2 chi n, so every term returns at t = pi/chi
    chi = 1.0
    revival = 1_000_000
    s = pacs_amplitudes(math.sqrt(5.0), 2, 60)
    spec = kerr_spectrum(chi, 0.0, s.n_max)
    dt = math.pi / (chi * revival)
    x = generate_series_x(s, spec, dt, revival + 1).values
    assert abs(x[revival] - x[0]) <= 1e-10
    for k in (1, revival // 3, block_rows(revival + 1), revival - 1):
        exact = quadrature_expectation(evolve_diagonal(s, spec, k * dt))
        assert abs(x[k] - exact) <= 1e-10


AGREEMENT_SCRIPT = """
import json, sys
import numpy as np
from wplab.series import spectral_series
rng = np.random.default_rng(3)
amp = rng.normal(size=3000) + 1j * rng.normal(size=3000)
freq = rng.uniform(-500.0, 500.0, 3000)
levels = np.concatenate(([0.0], freq))
upper = np.arange(1, 3001)
x = spectral_series(amp, levels, upper, np.zeros(3000, int), 1e-3, 200_000)
np.save(sys.argv[1], x)
"""


def test_blas_thread_counts_agree(tmp_path):
    # OpenBLAS splits a GEMM differently per thread count, so the sums may
    # differ in the last bits, but no more than that
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        paths = [str(SRC), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        path = tmp_path / f"threads{threads}.npy"
        subprocess.run(
            [sys.executable, "-c", AGREEMENT_SCRIPT, str(path)],
            env=env,
            check=True,
            timeout=120,
        )
        runs.append(np.load(path))
    assert np.abs(runs[0] - runs[1]).max() <= 1e-12
