import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from wplab import bipartite, lab
from wplab.bipartite import (
    TwoModeParams,
    _fed_pairs,
    decompose,
    decompose_initial,
    occupancy_series,
    occupancy_sum,
    sector_diagonals,
)
from wplab.fock import FockState, pacs_amplitudes
from wplab.lab import initial_field_state
from wplab.series import SpectralSum

from oracles import build_sector, mean_photon_number


class TestBuildSector:
    def test_vacuum_sector(self):
        assert build_sector(0, TwoModeParams()).tolist() == [[0.0]]

    def test_n1(self):
        p = TwoModeParams(omega=1.0, omega0=1.0, gamma=7.0, g=0.25)
        assert build_sector(1, p).tolist() == [[1.0, 0.25], [0.25, 1.0]]

    def test_n2_with_nonlinearity(self):
        p = TwoModeParams(omega=1.0, omega0=1.0, gamma=5.0, g=1.0)
        h = build_sector(2, p)
        r2 = math.sqrt(2.0)
        expect = np.array([[2.0, r2, 0.0], [r2, 2.0, r2], [0.0, r2, 12.0]])
        assert h == pytest.approx(expect)


@pytest.mark.parametrize(
    "params",
    [
        {"gamma": math.nan},
        {"omega": math.inf},
        {"g": -1.0},
        {"omega0": "1"},
        {"gamma": True},
        {"g": None},
    ],
)
def test_bad_params_rejected(params):
    # the message names the field
    with pytest.raises(ValueError, match=next(iter(params))):
        TwoModeParams(**params)


def test_negative_sector_rejected():
    with pytest.raises(ValueError, match="N must be >= 0"):
        sector_diagonals(-1, TwoModeParams(gamma=5.0))


class TestDecomposeInitial:
    def test_vacuum_field(self):
        sectors = decompose_initial(pacs_amplitudes(0.0, 0, 5), TwoModeParams())
        assert len(sectors) == 1
        assert sectors[0].N == 0
        assert sectors[0].weight == 1.0

    def test_fock1_coeffs(self):
        # N=1 sector at omega=omega0: eigenvectors (1, -1)/sqrt2 and (1, 1)/sqrt2;
        # projecting e_0 gives coefficients (1/sqrt2, 1/sqrt2) up to sign
        field = FockState(np.array([0.0, 1.0], dtype=complex))
        sectors = decompose_initial(field, TwoModeParams(g=0.8))
        assert len(sectors) == 1
        s = sectors[0]
        assert s.N == 1
        assert np.abs(np.abs(s.initial_coeffs) - 1 / math.sqrt(2)).max() < 1e-14

    def test_total_weight(self):
        field = pacs_amplitudes(math.sqrt(5.0), 5, 60)
        sectors = decompose_initial(field, TwoModeParams(gamma=5.0))
        total = sum(s.weight * float(np.sum(s.initial_coeffs**2)) for s in sectors)
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_pruning(self):
        field = pacs_amplitudes(1.0, 0, 40)
        sectors = decompose_initial(field, TwoModeParams())
        assert all(s.weight >= 1e-14 for s in sectors)
        assert len(sectors) < 41

    def test_sector_data_are_real(self):
        # the blocks are real symmetric, so nothing a sector holds or the
        # sum forms is complex, and the coefficients are a copy of row 0:
        # a view of it would keep the block's eigenvector matrix alive
        field = pacs_amplitudes(math.sqrt(5.0), 5, 60)
        sectors = decompose_initial(field, TwoModeParams(gamma=5.0))
        for s in sectors:
            assert isinstance(s.weight, float)
            for data in (s.levels, s.initial_coeffs, s.pair_amps):
                assert data.dtype == np.float64
            assert s.initial_coeffs.base is None
        assert occupancy_sum(sectors)[0].amp.dtype == np.float64


def dense_block_hamiltonian(n_cap, p):
    """Block-diagonal H over all sectors N <= n_cap, built from the raw
    matrix elements (independent of build_sector)."""
    dim = sum(N + 1 for N in range(n_cap + 1))
    h = np.zeros((dim, dim))
    offset = 0
    blocks = {}
    for N in range(n_cap + 1):
        for n in range(N + 1):
            h[offset + n, offset + n] = (
                p.omega * (N - n) + p.omega0 * n + p.gamma * n * (n - 1)
            )
        for n in range(1, N + 1):
            c = p.g * math.sqrt(n * (N - n + 1))
            h[offset + n - 1, offset + n] = c
            h[offset + n, offset + n - 1] = c
        blocks[N] = offset
        offset += N + 1
    return h, blocks


class TestSeries:
    def test_g_zero_constant(self):
        field = pacs_amplitudes(1.0, 2, 30)
        p = TwoModeParams(g=0.0, gamma=3.0)
        sectors = decompose_initial(field, p)
        ts = occupancy_series(sectors, 1e-2, 2000, {}).field
        expect = mean_photon_number(field)
        assert np.abs(ts.values - expect).max() < 1e-10

    def test_gamma_zero_beam_splitter(self):
        # Heisenberg solution: <a+a>(t) = nu cos^2(g t) for field CS, atom empty
        field = pacs_amplitudes(1.0, 0, 25)
        p = TwoModeParams(omega=1.0, omega0=1.0, gamma=0.0, g=1.0)
        sectors = decompose_initial(field, p)
        steps = 100_000
        dt = 1e-3
        ts = occupancy_series(sectors, dt, steps, {}).field
        t = np.arange(steps) * dt
        oracle = 1.0 * np.cos(t) ** 2
        assert np.abs(ts.values - oracle).max() < 1e-8

    def test_number_conservation(self):
        # the conserved total is the field's mean photon number; the second
        # mode starts empty, and <b+b> = total - <a+a> is never negative
        field = pacs_amplitudes(math.sqrt(2.0), 1, 35)
        p = TwoModeParams(gamma=2.5, g=1.0)
        sectors = decompose_initial(field, p)
        _, total_number, _ = occupancy_sum(sectors)
        assert abs(total_number - mean_photon_number(field)) < 1e-10
        occ = occupancy_series(sectors, 1e-3, 50_000, {})
        atom = total_number - occ.field.values
        assert abs(atom[0]) < 1e-10
        assert atom.min() > -1e-10
        assert atom.max() > 0.1

    def test_norm_conservation(self):
        field = pacs_amplitudes(1.3, 0, 30)
        p = TwoModeParams(gamma=5.0, g=1.0)
        sectors = decompose_initial(field, p)
        occ = occupancy_series(sectors, 1e-3, 50_000, {})
        assert np.abs(occ.norm - 1.0).max() < 1e-10

    def test_no_sectors_rejected(self):
        with pytest.raises(ValueError, match="no sectors"):
            occupancy_sum([])

    def test_dense_expm_oracle(self):
        # field support restricted to N <= 4
        amps = np.zeros(5, dtype=complex)
        amps[:5] = [0.5, 0.5, 0.5, 0.35355339059327373, 0.35355339059327373]
        amps /= math.sqrt(float(np.sum(np.abs(amps) ** 2)))
        field = FockState(amps)
        p = TwoModeParams(omega=1.0, omega0=1.0, gamma=1.7, g=0.9)
        sectors = decompose_initial(field, p)
        dt = 1e-3
        steps = 1000
        occ = occupancy_series(sectors, dt, steps, {})

        h, offsets = dense_block_hamiltonian(4, p)
        dim = h.shape[0]
        psi = np.zeros(dim, dtype=complex)
        for N in range(5):
            psi[offsets[N]] = amps[N]  # second mode empty: n = 0 slot
        u_step = expm(-1j * h * dt)
        number_op = np.zeros(dim)
        atom_op = np.zeros(dim)
        for N in range(5):
            for n in range(N + 1):
                number_op[offsets[N] + n] = N - n
                atom_op[offsets[N] + n] = n
        got = np.empty(steps)
        got_atom = np.empty(steps)
        for k in range(steps):
            got[k] = float(np.real(np.vdot(psi, number_op * psi)))
            got_atom[k] = float(np.real(np.vdot(psi, atom_op * psi)))
            psi = u_step @ psi
        assert np.abs(occ.field.values - got).max() < 1e-8
        _, total_number, _ = occupancy_sum(sectors)
        assert np.abs(total_number - occ.field.values - got_atom).max() < 1e-8
        assert np.abs(got_atom).max() > 0.1

    def test_collapse_revival_windows(self):
        # weak nonlinearity: the gamma=0 period pi/g still organizes returns
        field = pacs_amplitudes(1.0, 0, 25)
        p = TwoModeParams(gamma=0.01, g=1.0)
        sectors = decompose_initial(field, p)
        dt = 1e-3
        period = math.pi / p.g
        steps = int(10 * period / dt) + 2
        ts = occupancy_series(sectors, dt, steps, {}).field
        x0 = ts.values[0]
        for w in range(10):
            lo = int(w * period / dt)
            hi = min(int((w + 1) * period / dt) + 1, steps)
            window_max = ts.values[lo:hi].max()
            assert window_max >= x0 * 0.98, f"no return in window {w}"

    def test_observable_metadata(self):
        field = pacs_amplitudes(1.0, 0, 25)
        p = TwoModeParams(gamma=0.05)
        sectors = decompose_initial(field, p)
        run = {"model": "bipartite", "gamma": 0.05}
        ts = occupancy_series(sectors, 1e-2, 100, run).field
        assert ts.observable == "photon_number"
        assert ts.meta["gamma"] == 0.05
        # the run's metadata is kept as given, not altered in place
        assert run == {"model": "bipartite", "gamma": 0.05}

    def test_pruning_and_norm_metadata(self):
        field = pacs_amplitudes(math.sqrt(5.0), 5, 60)
        p = TwoModeParams(gamma=5.0)
        occ = occupancy_series(decompose_initial(field, p), 1e-2, 100, {})
        meta = occ.field.meta
        assert meta["norm_error"] == abs(occ.norm[0] - 1.0)
        assert meta["norm_error"] <= 1e-12
        assert 0 < meta["spectral_terms_kept"] < meta["spectral_terms"]
        assert 0 < meta["spectral_dropped_mass"] <= meta["spectral_prune_budget"]


def occupancy_every_pair(sectors, p, dt, steps):
    """The series with a pair term formed for every pair of levels, zero
    or not, in complex arithmetic: the construction before zero terms
    were skipped and the sector data became real."""
    pairs = sum(s.N * (s.N + 1) // 2 for s in sectors)
    amps = np.empty(pairs, dtype=np.complex128)
    upper = np.empty(pairs, dtype=np.intp)
    lower = np.empty(pairs, dtype=np.intp)
    # each sector solved here, not read from the sector state
    eigs = [decompose(*sector_diagonals(s.N, p)) for s in sectors]
    levels = np.concatenate([eig.eigenvalues for eig in eigs])
    atom_const = total_number = norm = 0.0
    j0 = offset = 0
    for s, eig in zip(sectors, eigs):
        v = eig.eigenvectors
        w = s.initial_coeffs.astype(np.complex128)
        weight = s.weight
        a = v.T @ (np.arange(s.N + 1.0)[:, None] * v)
        prob = np.abs(w) ** 2
        mass = float(prob.sum())
        atom_const += weight * float(prob @ np.diag(a))
        total_number += weight * s.N * mass
        norm += weight * mass
        lo, hi = np.triu_indices(s.N + 1, 1)
        j1 = j0 + lo.size
        amps[j0:j1] = 2.0 * weight * np.conj(w[lo]) * w[hi] * a[lo, hi]
        upper[j0:j1] = hi + offset
        lower[j0:j1] = lo + offset
        j0 = j1
        offset += s.N + 1
    kept, pruning = SpectralSum(amps, levels, upper, lower).pruned()
    atom = kept.evaluate(dt, steps)
    atom += atom_const
    meta = {"sectors": len(sectors), "norm_error": abs(norm - 1.0), **pruning}
    return total_number - atom, atom, meta


@pytest.mark.parametrize(
    "nu, m, gamma_over_g",
    [(50.0, 5, 5.0), (5.0, 5, 5.0), (1.0, 0, 0.01)],
    ids=["two-mode-wide", "fig11-14", "table1-weakest"],
)
def test_zero_pair_terms_skipped_exactly(nu, m, gamma_over_g):
    # the skipped terms are exactly zero: the samples are the same bits
    # and the metadata counts every pair of the model
    p = TwoModeParams(omega=1.0, omega0=1.0, gamma=gamma_over_g, g=1.0)
    sectors = decompose_initial(initial_field_state(nu, m), p)
    dt, steps = 1e-3, 3000
    run = {"model": "bipartite", "nu": nu, "m": m}
    occ = occupancy_series(sectors, dt, steps, run)
    field, atom, meta = occupancy_every_pair(sectors, p, dt, steps)
    assert np.array_equal(occ.field.values, field)
    # <b+b> back from <a+a>: total - (total - atom) rounds to within an
    # ulp of the total
    _, total_number, _ = occupancy_sum(sectors)
    ulp = np.spacing(total_number)
    assert np.abs(total_number - occ.field.values - atom).max() <= ulp
    # the model adds only what it computed to the run's metadata
    assert occ.field.meta == {**run, **meta}
    if nu == 50.0:
        # more than half the levels have w_s = 0 and are never paired
        zero = sum(int(np.count_nonzero(s.initial_coeffs == 0)) for s in sectors)
        assert 2 * zero > sum(s.N + 1 for s in sectors)


def test_sectors_keep_only_what_the_sum_reads():
    # at nu = 200 the sectors' eigenvector matrices come to 83 MB and the
    # fed pair entries of A to 1.3 MB; with every sector's eigenvectors
    # held until the sum was built, the traced peak was 98 MB
    params = {"omega": 1.0, "omega0": 1.0, "gamma": 5.0, "g": 1.0}
    tracemalloc.start()
    try:
        lab.simulate_series("bipartite", params, 200.0, 5, 1e-3, 100)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6  # 16 MB measured


@pytest.mark.parametrize("nu", [5.0, 50.0])
def test_sector_pair_terms_are_formed_once(nu, monkeypatch):
    # each sector carries its fed pairs and their amplitudes, the bits the
    # sum formed from A and w itself before; the sum only concatenates them
    p = TwoModeParams(omega=1.0, omega0=1.0, gamma=5.0, g=1.0)
    sectors = decompose_initial(initial_field_state(nu, 5), p)
    amps, upper, lower = [], [], []
    offset = 0
    for s in sectors:
        lo, hi = _fed_pairs(s.initial_coeffs)
        assert np.array_equal(s.pairs, [lo, hi])
        assert s.pairs.dtype == np.uint16 and not s.pairs.flags.writeable
        v = decompose(*sector_diagonals(s.N, p)).eigenvectors
        a = v.T @ (np.arange(s.N + 1.0)[:, None] * v)
        w = s.initial_coeffs
        amps.append(2.0 * s.weight * w[lo] * w[hi] * a[lo, hi])
        assert s.pair_amps.tobytes() == amps[-1].tobytes()
        upper.append(hi + offset)
        lower.append(lo + offset)
        offset += s.N + 1

    def no_fed_pairs(coeffs):
        raise AssertionError("_fed_pairs called again")

    monkeypatch.setattr(bipartite, "_fed_pairs", no_fed_pairs)
    atom = occupancy_sum(sectors)[0]
    assert atom.amp.tobytes() == np.concatenate(amps).tobytes()
    assert np.array_equal(atom.upper, np.concatenate(upper))
    assert np.array_equal(atom.lower, np.concatenate(lower))
    levels = np.concatenate([s.levels for s in sectors])
    assert atom.levels.tobytes() == levels.tobytes()


def test_norm_is_one_value_per_sample():
    field = pacs_amplitudes(1.0, 0, 25)
    p = TwoModeParams(gamma=0.5)
    occ = occupancy_series(decompose_initial(field, p), 1e-2, 1000, {})
    assert len(occ.norm) == 1000
    assert occ.norm.strides == (0,)  # a view of one float, not 1000
    assert not occ.norm.flags.writeable
    assert np.all(occ.norm == occ.norm[0])


def test_series_is_held_once():
    # at 2e6 steps one series is 16 MB: with the <b+b> series kept beside
    # <a+a> the traced peak was 34.2 MB, and it is 26.5 MB holding one
    p = TwoModeParams(omega=1.0, omega0=1.0, gamma=5.0, g=1.0)
    sectors = decompose_initial(initial_field_state(5.0, 5), p)
    tracemalloc.start()
    try:
        occupancy_series(sectors, 1e-3, 2_000_000, {})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32e6
