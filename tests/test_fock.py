import math

import numpy as np
import pytest

from wplab import fock
from wplab.fock import (
    EPSILON_TRUNC,
    N_MAX_CAP,
    CapExceededError,
    FockState,
    TruncationInsufficientError,
    choose_truncation,
    laguerre,
    pacs_amplitudes,
    quadrature_expectation,
)

from oracles import mean_photon_number, norm_squared, overlap


def photon_number_variance(state: FockState) -> float:
    p = np.abs(state.amplitudes) ** 2
    ns = np.arange(p.size)
    mean = float(np.dot(ns, p))
    return float(np.dot(ns * ns, p)) - mean * mean


def poisson_weights(nu, n_max):
    # independent tail oracle: direct Poisson pmf sum
    ns = np.arange(n_max + 1)
    logs = -nu + ns * math.log(nu) - np.array([math.lgamma(n + 1) for n in ns])
    return np.exp(logs)


class TestLaguerre:
    def test_order_zero(self):
        assert laguerre(0, 3.7) == 1.0
        assert laguerre(0, -123.0) == 1.0

    def test_order_one(self):
        # L_1(x) = 1 - x
        assert laguerre(1, -1.0) == pytest.approx(2.0, abs=1e-15)

    def test_order_two(self):
        # L_2(x) = (x^2 - 4x + 2)/2
        assert laguerre(2, -1.0) == pytest.approx(3.5, abs=1e-14)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError, match="order must be nonnegative"):
            laguerre(-1, 0.5)

    def test_against_polynomial_sum(self):
        # L_m(x) = sum_k C(m,k) (-x)^k / k!
        rng = np.random.default_rng(7)
        for m in range(0, 12):
            for x in rng.uniform(-30, 10, size=4):
                direct = sum(
                    math.comb(m, k) * (-x) ** k / math.factorial(k)
                    for k in range(m + 1)
                )
                assert laguerre(m, x) == pytest.approx(direct, rel=1e-10)


class TestCoherent:
    def test_vacuum(self):
        s = pacs_amplitudes(0.0, 0, 10)
        assert s.amplitudes[0] == 1.0
        assert np.all(s.amplitudes[1:] == 0.0)

    def test_closed_form_alpha_one(self):
        s = pacs_amplitudes(1.0, 0, 40)
        c0 = math.exp(-0.5)
        assert s.amplitudes[0].real == pytest.approx(c0, abs=1e-12)
        assert s.amplitudes[1].real == pytest.approx(c0, abs=1e-12)
        # c_n = e^{-nu/2} alpha^n / sqrt(n!)
        for n in (2, 5, 17):
            expect = math.exp(-0.5) / math.sqrt(math.factorial(n))
            assert s.amplitudes[n].real == pytest.approx(expect, rel=1e-12)

    def test_large_nu_tail_capture(self):
        # pre-renormalization norm >= 1 - 1e-12 at nu=100, n_max=190
        w = poisson_weights(100.0, 190)
        assert w.sum() >= 1.0 - 1e-12
        s = pacs_amplitudes(10.0, 0, 190)
        assert np.abs(np.abs(s.amplitudes) ** 2 - w / w.sum()).max() < 1e-12

    def test_truncation_insufficient(self):
        with pytest.raises(TruncationInsufficientError):
            pacs_amplitudes(10.0, 0, 120)

    def test_unit_norm(self):
        for alpha in (0.3, 1.0, 2.5 + 1.0j, 8.0):
            n_max = choose_truncation(alpha, 0)
            s = pacs_amplitudes(alpha, 0, n_max)
            assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)

    def test_complex_alpha_phases(self):
        alpha = 0.8 * np.exp(1j * 0.7)
        s = pacs_amplitudes(alpha, 0, 30)
        # c_n phase is n * arg(alpha)
        for n in (1, 2, 5):
            assert np.angle(s.amplitudes[n]) == pytest.approx(
                (n * 0.7 + np.pi) % (2 * np.pi) - np.pi, abs=1e-12
            )


class TestPacs:
    def test_m_zero_reduction(self):
        # m = 0 is the coherent state: c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!)
        alpha = 1.2 - 0.5j
        n = np.arange(31)
        lgam = np.array([math.lgamma(k + 1) for k in n])
        coherent = np.exp(-abs(alpha) ** 2 / 2 - lgam / 2) * alpha**n
        s = pacs_amplitudes(alpha, 0, 30)
        assert np.abs(s.amplitudes - coherent / np.linalg.norm(coherent)).max() < 1e-14

    @pytest.mark.parametrize(
        "m, n_max, reason", [(-1, 10, "m must be >= 0"), (3, 3, r"n_max must be >= m \+ 1")]
    )
    def test_bad_order_or_truncation_rejected(self, m, n_max, reason):
        with pytest.raises(ValueError, match=reason):
            pacs_amplitudes(1.0, m, n_max)

    def test_photon_added_vacuum(self):
        s = pacs_amplitudes(0.0, 5, 12)
        expect = np.zeros(13)
        expect[5] = 1.0
        assert np.abs(s.amplitudes - expect).max() < 1e-14

    def test_prenorm_squared_is_laguerre(self):
        # <alpha| a a+ |alpha> = nu + 1 = 1! * L_1(-nu): brute-force sum
        nu = 1.0
        n_max = 50
        # unnormalized (a+)|alpha> amplitudes: e^{-nu/2} alpha^{k-1} sqrt(k!)/(k-1)!
        ks = np.arange(1, n_max + 1)
        logs = (
            -0.5 * nu
            + (ks - 1) * 0.0
            + 0.5 * np.array([math.lgamma(k + 1) for k in ks])
            - np.array([math.lgamma(k) for k in ks])
        )
        brute = float(np.sum(np.exp(logs) ** 2))
        assert brute == pytest.approx(2.0, rel=1e-12)
        assert math.factorial(1) * laguerre(1, -1.0) == pytest.approx(brute, rel=1e-12)

    def test_low_indices_vanish(self):
        s = pacs_amplitudes(1.5, 3, 40)
        assert np.all(s.amplitudes[:3] == 0.0)
        assert norm_squared(s) == pytest.approx(1.0, abs=1e-12)


class TestObservables:
    def test_mean_photon_coherent(self):
        s = pacs_amplitudes(1.0, 0, 40)
        assert mean_photon_number(s) == pytest.approx(1.0, abs=1e-10)

    def test_mean_photon_pacs_closed_form(self):
        # (m+1) L_{m+1}(-nu)/L_m(-nu) - 1 with m=1, nu=1 -> 2*3.5/2 - 1 = 2.5
        s = pacs_amplitudes(1.0, 1, 50)
        assert mean_photon_number(s) == pytest.approx(2.5, abs=1e-8)

    @pytest.mark.parametrize("nu", [1.0, 5.0, 100.0])
    @pytest.mark.parametrize("m", [0, 1, 5, 10])
    def test_mean_photon_matches_formula(self, nu, m):
        alpha = math.sqrt(nu)
        n_max = choose_truncation(alpha, m)
        s = pacs_amplitudes(alpha, m, n_max)
        closed = (m + 1) * laguerre(m + 1, -nu) / laguerre(m, -nu) - 1.0
        assert mean_photon_number(s) == pytest.approx(closed, rel=1e-6)

    def test_mean_photon_fock(self):
        s = pacs_amplitudes(0.0, 5, 12)
        assert mean_photon_number(s) == pytest.approx(5.0, abs=1e-14)

    @pytest.mark.parametrize("nu", [1.0, 5.0, 100.0])
    @pytest.mark.parametrize("m", [1, 5])
    def test_sub_poissonian(self, nu, m):
        s = pacs_amplitudes(math.sqrt(nu), m, choose_truncation(math.sqrt(nu), m))
        assert photon_number_variance(s) < mean_photon_number(s)

    def test_quadrature_vacuum(self):
        assert quadrature_expectation(pacs_amplitudes(0.0, 0, 10)) == 0.0

    def test_quadrature_coherent(self):
        s = pacs_amplitudes(1.0, 0, 40)
        assert quadrature_expectation(s) == pytest.approx(math.sqrt(2.0), abs=1e-8)

    def test_quadrature_fock(self):
        s = pacs_amplitudes(0.0, 5, 12)
        assert quadrature_expectation(s) == 0.0


class TestOverlap:
    def test_self_overlap(self):
        for alpha, m in ((1.0, 0), (2.0, 3)):
            s = pacs_amplitudes(alpha, m, 60)
            assert abs(overlap(s, s) - 1.0) < 1e-12

    def test_two_coherent_states(self):
        a = pacs_amplitudes(1.0, 0, 40)
        b = pacs_amplitudes(-1.0, 0, 40)
        # |<alpha|beta>| = exp(-|alpha-beta|^2/2)
        assert abs(overlap(a, b)) == pytest.approx(math.exp(-2.0), rel=1e-10)

    def test_orthogonal(self):
        v = pacs_amplitudes(0.0, 0, 12)
        f5 = pacs_amplitudes(0.0, 5, 12)
        assert overlap(v, f5) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            overlap(pacs_amplitudes(1.0, 0, 30), pacs_amplitudes(1.0, 0, 31))


def probed_truncation(alpha, m):
    """The truncation from a guessed basis size, doubled until it holds a
    hit: the search one scan over the capped basis replaced."""
    nu = abs(alpha) ** 2
    guess = int(math.ceil(nu + m + 8.0 * math.sqrt(nu + 1.0) + 20.0))
    probe = min(N_MAX_CAP, max(guess, m + 2))
    while True:
        p = np.abs(fock._pacs_raw_amplitudes(alpha, m, probe)) ** 2
        last_two = p.copy()
        last_two[1:] += p[:-1]
        ok = (1.0 - np.cumsum(p) < EPSILON_TRUNC) & (last_two < EPSILON_TRUNC)
        hits = np.flatnonzero(ok[m + 1 :])
        if hits.size:
            return int(hits[0]) + m + 1
        if probe >= N_MAX_CAP:
            raise CapExceededError(probe)
        probe = min(N_MAX_CAP, probe * 2)


def scanned_truncation(alpha, m):
    """The definition, one n at a time: the first n >= m + 1 at which the
    mass beyond state n and the mass in states n - 1 and n are both below
    EPSILON_TRUNC, summed in order over the capped basis."""
    p = (np.abs(fock._pacs_raw_amplitudes(alpha, m, N_MAX_CAP)) ** 2).tolist()
    total = 0.0
    for n, pn in enumerate(p):
        total += pn
        if n > m and 1.0 - total < EPSILON_TRUNC and pn + p[n - 1] < EPSILON_TRUNC:
            return n
    raise CapExceededError(N_MAX_CAP)


class TestChooseTruncation:
    def test_vacuum_small(self):
        n = choose_truncation(0.0, 0)
        assert n >= 1

    def test_nu_one_tail_verified(self):
        n = choose_truncation(1.0, 0)
        w = poisson_weights(1.0, n + 400)
        assert 1.0 - w[: n + 1].sum() < 1e-12

    def test_nu_100_m_5(self):
        n = choose_truncation(10.0, 5)
        assert n <= 250
        # brute-force tail of the analytically normalized PACS amplitudes
        s = pacs_amplitudes(10.0, 5, n + 300)
        mass_beyond = float(np.sum(np.abs(s.amplitudes[n + 1 :]) ** 2))
        assert mass_beyond < 2e-12

    def test_tail_invariant_of_constructed_state(self):
        for alpha, m in ((1.0, 0), (math.sqrt(5.0), 5), (10.0, 0)):
            n = choose_truncation(alpha, m)
            s = pacs_amplitudes(alpha, m, n)
            p = np.abs(s.amplitudes) ** 2
            assert p[-1] + p[-2] < 1e-12

    def test_cap_exceeded(self):
        # nu = 4900 needs n_max ~ 4900 + 8 * 70, beyond the cap of 4096
        with pytest.raises(CapExceededError, match="4096"):
            choose_truncation(70.0, 0)

    @pytest.mark.parametrize("m", [4096, 5000])
    def test_cap_exceeded_by_photons_added(self, m):
        with pytest.raises(CapExceededError, match="4096"):
            choose_truncation(1.0, m)

    @pytest.mark.parametrize(
        "nu", [0.0, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
               2000.0, 3000.0, 4000.0, 4900.0]
    )
    def test_one_scan_matches_probing_and_the_definition(self, nu):
        # nu = 4000 and 4900 exceed the cap
        alpha = math.sqrt(nu)
        for m in (0, 1, 2, 5, 10, 20, 50):
            expect = []
            for oracle in (probed_truncation, scanned_truncation):
                try:
                    expect.append(oracle(alpha, m))
                except CapExceededError:
                    expect.append(None)
            try:
                got = choose_truncation(alpha, m)
            except CapExceededError:
                got = None
            assert expect == [got, got], (nu, m)


class TestFockState:
    def test_amplitudes_read_only(self):
        s = pacs_amplitudes(1.0, 0, 20)
        with pytest.raises(ValueError):
            s.amplitudes[0] = 0.0

    def test_norm_within_1e12(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            nu = rng.uniform(0.1, 30.0)
            m = int(rng.integers(0, 6))
            n = choose_truncation(math.sqrt(nu), m)
            s = pacs_amplitudes(math.sqrt(nu), m, n)
            assert abs(norm_squared(s) - 1.0) < 1e-12
