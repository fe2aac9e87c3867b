"""``bipartite.decompose`` (LAPACK's symmetric eigensolver) on tridiagonal
blocks: random ones against a bisection oracle, and the model's own."""

import numpy as np
import pytest

from wplab.bipartite import EigenDecomposition, TwoModeParams, build_sector, decompose


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


def tridiag(diag, offdiag):
    h = np.diag(np.asarray(diag, dtype=float))
    i = np.arange(len(offdiag))
    h[i, i + 1] = h[i + 1, i] = offdiag
    return h


def random_tridiag(rng, n):
    return tridiag(rng.uniform(-10, 10, n), rng.uniform(-10, 10, max(0, n - 1)))


def check_invariants(h: np.ndarray, eig: EigenDecomposition):
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
        eig = decompose(tridiag([3.0], []))
        assert eig.eigenvalues[0] == 3.0
        assert eig.eigenvectors[0, 0] == 1.0

    def test_two_by_two_closed_form(self):
        g = 0.37
        eig = decompose(tridiag([1.0, 1.0], [g]))
        assert eig.eigenvalues == pytest.approx([1.0 - g, 1.0 + g], abs=1e-14)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        # eigenvectors up to sign
        v = eig.eigenvectors * np.sign(eig.eigenvectors[0])
        assert v[:, 0] == pytest.approx([inv_sqrt2, -inv_sqrt2], abs=1e-14)
        assert v[:, 1] == pytest.approx([inv_sqrt2, inv_sqrt2], abs=1e-14)

    def test_already_diagonal(self):
        d = [4.0, -1.0, 2.5, 0.0]
        eig = decompose(tridiag(d, [0.0, 0.0, 0.0]))
        assert eig.eigenvalues == pytest.approx(sorted(d), abs=0.0)
        # permutation matrix columns
        perm = np.abs(eig.eigenvectors)
        assert np.all((perm == 0.0) | (perm == 1.0))
        assert np.all(perm.sum(axis=0) == 1.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 10, 50, 200])
    def test_random_invariants(self, n):
        rng = np.random.default_rng(100 + n)
        m = random_tridiag(rng, n)
        check_invariants(m, decompose(m))

    def test_trace_preserved(self):
        rng = np.random.default_rng(42)
        for n in (3, 20, 120):
            m = random_tridiag(rng, n)
            eig = decompose(m)
            tol = 1e-9 * n * max(1.0, np.abs(np.diag(m)).max())
            assert abs(eig.eigenvalues.sum() - np.trace(m)) < tol

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_against_bisection_oracle(self, n):
        rng = np.random.default_rng(500 + n)
        for _ in range(4):
            m = random_tridiag(rng, n)
            eig = decompose(m)
            oracle = bisection_eigenvalues(np.diag(m), np.diag(m, 1))
            assert np.abs(eig.eigenvalues - oracle).max() < 1e-8

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        m = random_tridiag(rng, 40)
        a = decompose(m)
        b = decompose(m)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)

    def test_clustered_eigenvalues(self):
        # nearly degenerate spectrum still meets the residual bound
        m = tridiag(np.ones(60), np.full(59, 1e-9))
        check_invariants(m, decompose(m))

    @pytest.mark.parametrize("N", [0, 1, 7, 30])
    def test_model_blocks(self, N):
        h = build_sector(N, TwoModeParams(omega=1.0, omega0=1.3, gamma=5.0, g=0.8))
        eig = decompose(h)
        check_invariants(h, eig)
        # an absolute bisection width above the float spacing near the
        # largest eigenvalue (~4e3 at N = 30), so the bisection ends
        oracle = bisection_eigenvalues(np.diag(h), np.diag(h, 1), tol=1e-9)
        assert np.abs(eig.eigenvalues - oracle).max() < 1e-8
