"""``bipartite.decompose`` on tridiagonal blocks given by their two
diagonals: random ones against a bisection oracle, and the model's own.

``decompose`` calls LAPACK ``dstevd`` (divide and conquer on the
tridiagonal) of numpy's own OpenBLAS through ctypes; scipy's binding of
the same routine is not used because importing ``scipy.linalg`` costs
more than every solve of a run.  On a tridiagonal input the dense
``numpy.linalg.eigh`` (``dsyevd``) reduces to the same ``dstedc`` call on
the same diagonals, so the two agree bit for bit: that is checked here
on every preset's sectors and on random blocks, and the dense ``eigh``
stays as the fallback where numpy's LAPACK exports no ``dstevd``.
"""

from pathlib import Path

import numpy as np
import pytest

from wplab import bipartite, lab
from wplab.bipartite import (
    EigenDecomposition,
    TwoModeParams,
    decompose,
    sector_diagonals,
    tridiagonal,
)
from wplab.presets import PRESETS, ExperimentPreset

from oracles import build_sector


def bisection_eigenvalues(diag, offdiag, tol=1e-12):
    """Characteristic-polynomial bisection oracle via Sturm sequence counts."""
    d = np.asarray(diag, dtype=float)
    e = np.asarray(offdiag, dtype=float)
    n = d.size

    def count_below(x):
        # number of eigenvalues < x from the signs of the LDL^T pivots
        cnt = 0
        q = d[0] - x
        if q < 0:
            cnt += 1
        for k in range(1, n):
            if q == 0.0:
                q = 1e-300
            q = d[k] - x - e[k - 1] ** 2 / q
            if q < 0:
                cnt += 1
        return cnt

    radius = np.abs(d).max() + (2 * np.abs(e).max() if e.size else 0.0) + 1.0
    eigs = []
    for idx in range(n):
        lo, hi = -radius, radius
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if count_below(mid) <= idx:
                lo = mid
            else:
                hi = mid
        eigs.append(0.5 * (lo + hi))
    return np.array(eigs)


def random_tridiag(rng, n):
    return rng.uniform(-10, 10, n), rng.uniform(-10, 10, max(0, n - 1))


def check_invariants(diag, off, eig: EigenDecomposition):
    h = tridiagonal(diag, off)
    v = eig.eigenvectors
    d = eig.dim
    assert d == h.shape[0]
    assert v.flags.c_contiguous and eig.eigenvalues.flags.c_contiguous
    assert np.abs(v.T @ v - np.eye(d)).max() < 1e-10
    scale = max(1.0, np.abs(h).max())
    for s in range(d):
        resid = h @ v[:, s] - eig.eigenvalues[s] * v[:, s]
        assert np.linalg.norm(resid) < 1e-10 * scale
    assert np.all(np.diff(eig.eigenvalues) >= -1e-12)
    # reconstruction H = V diag(lambda) V^T
    assert np.abs(v @ np.diag(eig.eigenvalues) @ v.T - h).max() < 1e-10 * scale


class TestDecompose:
    def test_scalar(self):
        eig = decompose([3.0], [])
        assert eig.eigenvalues[0] == 3.0
        assert eig.eigenvectors[0, 0] == 1.0

    def test_two_by_two_closed_form(self):
        g = 0.37
        eig = decompose([1.0, 1.0], [g])
        assert eig.eigenvalues == pytest.approx([1.0 - g, 1.0 + g], abs=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        # eigenvectors up to sign
        v = eig.eigenvectors * np.sign(eig.eigenvectors[0])
        assert v[:, 0] == pytest.approx([inv_sqrt2, -inv_sqrt2], abs=1e-14)
        assert v[:, 1] == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-14)

    def test_already_diagonal(self):
        d = [4.0, -1.0, 2.5, 0.0]
        eig = decompose(d, [0.0, 0.0, 0.0])
        assert eig.eigenvalues == pytest.approx(sorted(d), abs=0.0)
        # permutation matrix columns
        perm = np.abs(eig.eigenvectors)
        assert np.all((perm == 0.0) | (perm == 1.0))
        assert np.all(perm.sum(axis=0) == 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200])
    def test_random_invariants(self, n):
        rng = np.random.default_rng(100 + n)
        d, e = random_tridiag(rng, n)
        check_invariants(d, e, decompose(d, e))

    def test_trace_preserved(self):
        rng = np.random.default_rng(42)
        for n in (3, 20, 120):
            d, e = random_tridiag(rng, n)
            eig = decompose(d, e)
            tol = 1e-9 * n * max(1.0, np.abs(d).max())
            assert abs(eig.eigenvalues.sum() - d.sum()) < tol

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_bisection_oracle(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(4):
            d, e = random_tridiag(rng, n)
            eig = decompose(d, e)
            oracle = bisection_eigenvalues(d, e)
            assert np.abs(eig.eigenvalues - oracle).max() < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        d, e = random_tridiag(rng, 40)
        a = decompose(d, e)
        b = decompose(d, e)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_inputs_untouched(self):
        # LAPACK overwrites its diagonals in place: decompose works on copies
        rng = np.random.default_rng(3)
        d, e = random_tridiag(rng, 30)
        d0, e0 = d.copy(), e.copy()
        decompose(d, e)
        assert np.array_equal(d, d0) and np.array_equal(e, e0)

    @pytest.mark.parametrize("off", [[0.5], [0.5, 0.5, 0.5], [[0.5, 0.5]]])
    def test_mismatched_diagonals_rejected(self, off):
        # a length-1 off-diagonal would otherwise broadcast over the block
        with pytest.raises(ValueError, match="one shorter"):
            decompose([1.0, 2.0, 3.0], off)

    def test_clustered_eigenvalues(self):
        # nearly degenerate spectrum still meets the residual bound
        d, e = np.ones(60), np.full(59, 1e-9)
        check_invariants(d, e, decompose(d, e))

    @pytest.mark.parametrize("N", [0, 1, 7, 30])
    def test_model_blocks(self, N):
        p = TwoModeParams(omega=1.0, omega0=1.3, gamma=5.0, g=0.8)
        d, e = sector_diagonals(N, p)
        eig = decompose(d, e)
        check_invariants(d, e, eig)
        # an absolute bisection width above the float spacing near the
        # largest eigenvalue (~4e3 at N = 30), so the bisection ends
        oracle = bisection_eigenvalues(d, e, tol=1e-9)
        assert np.abs(eig.eigenvalues - oracle).max() < 1e-8


def dense_reference(d, e) -> EigenDecomposition:
    return EigenDecomposition(*np.linalg.eigh(tridiagonal(d, e)))


def assert_bitwise_equal(a: EigenDecomposition, b: EigenDecomposition):
    assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
    assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()


def preset_params():
    """(nu, m, params) of every two-mode preset and table entry, and of the
    benchmark's wide run (nu = 50, m = 5, gamma/g = 5)."""
    out = []
    for preset in PRESETS.values():
        entries = (preset,) if isinstance(preset, ExperimentPreset) else preset.entries
        out += [(e.nu, e.m, e.params) for e in entries if e.model == "bipartite"]
    return out + [(50.0, 5, {"omega": 1.0, "omega0": 1.0, "gamma": 5.0, "g": 1.0})]


def signed_tridiagonals():
    rng = np.random.default_rng(13)
    yield [2.5], []
    yield [1.0, -3.0], [-0.5]
    yield rng.uniform(-10, 10, 40), np.zeros(39)  # zero couplings
    d, e = random_tridiag(rng, 50)
    e[::7] = 0.0  # split into blocks
    yield d, e
    yield np.ones(60), np.full(59, -1e-9)  # 1e-9-clustered spectrum
    yield 1.0 + 1e-9 * rng.standard_normal(80), 1e-9 * rng.standard_normal(79)
    for n in (25, 26, 120, 200):  # both sides of dstedc's small-block switch
        yield random_tridiag(rng, n)
    for n in rng.integers(1, 201, 40):
        yield random_tridiag(rng, n)


@pytest.mark.skipif(
    bipartite.sector_eigensolver() == "numpy.linalg.eigh",
    reason="numpy's LAPACK exports no dstevd",
)
class TestDstevdIsDenseEigh:
    """``dstevd`` against the dense ``eigh`` it replaced, bit for bit."""

    @pytest.mark.parametrize("nu, m, params", preset_params())
    def test_preset_sectors(self, nu, m, params):
        p = TwoModeParams(**params)
        field = lab.initial_field_state(nu, m)
        for N in range(field.n_max + 1):
            d, e = sector_diagonals(N, p)
            assert_bitwise_equal(decompose(d, e), dense_reference(d, e))
            assert np.array_equal(tridiagonal(d, e), build_sector(N, p))

    def test_signed_random_blocks(self):
        for d, e in signed_tridiagonals():
            assert_bitwise_equal(decompose(d, e), dense_reference(d, e))


def test_fallback_is_dense_eigh(monkeypatch):
    # without numpy's dstevd, decompose builds the block and calls eigh
    expect = [decompose(d, e) for d, e in signed_tridiagonals()]
    monkeypatch.setattr(bipartite, "_dstevd", lambda: None)
    assert bipartite.sector_eigensolver() == "numpy.linalg.eigh"
    for (d, e), want in zip(signed_tridiagonals(), expect):
        assert_bitwise_equal(decompose(d, e), want)


def test_fallback_series_bytes(tmp_path, monkeypatch):
    preset = PRESETS["fig11-14"]
    args = (preset.model, preset.params, (preset.nu, preset.m), preset.dt, 3000)
    fast = lab.simulate(*args, tmp_path / "dstevd.wprs")
    monkeypatch.setattr(bipartite, "_dstevd", lambda: None)
    dense = lab.simulate(*args, tmp_path / "eigh.wprs")
    assert fast.read_bytes() == dense.read_bytes()
    # the sidecars hold the norm error and the pruning record
    sidecars = [Path(f"{path}.meta.json").read_bytes() for path in (fast, dense)]
    assert sidecars[0] == sidecars[1]
