import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wplab.neighbors import BoxGrid, brute_force_nearest


def embedded_cloud(seed, n, dim):
    rng = np.random.default_rng(seed)
    # correlated coordinates, like a delay embedding
    base = np.cumsum(rng.normal(size=n + dim))
    return np.stack([base[j : j + n] for j in range(dim)], axis=1)


def assert_batch_matches(grid, pts, refs, **kw):
    """nearest_many equals brute_force_nearest, distances bit for bit."""
    js, ds = grid.nearest_many(refs, **kw)
    assert js.shape == ds.shape == (len(refs),)
    for i, j, d in zip(refs, js, ds):
        bj, bd = brute_force_nearest(pts, int(i), **kw)
        assert j == bj
        assert d == pytest.approx(bd, abs=0.0)


class TestNearest:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8])
    def test_matches_brute_force(self, dim):
        pts = embedded_cloud(31 + dim, 1000, dim)
        grid = BoxGrid(pts)
        for i in range(0, 1000, 13):
            gj, gd = grid.nearest(i, theiler=0)
            bj, bd = brute_force_nearest(pts, i, theiler=0)
            assert gj == bj
            assert gd == pytest.approx(bd, abs=0.0)
        assert_batch_matches(grid, pts, np.arange(0, 1000, 7), theiler=0)

    def test_matches_with_theiler_and_limit(self):
        pts = embedded_cloud(7, 1000, 3)
        grid = BoxGrid(pts)
        for i in range(0, 800, 17):
            gj, gd = grid.nearest(i, theiler=25, limit=800)
            bj, bd = brute_force_nearest(pts, i, theiler=25, limit=800)
            assert gj == bj
        assert_batch_matches(grid, pts, np.arange(0, 1000, 3), theiler=25, limit=800)

    def test_duplicate_points_tie_break(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        grid = BoxGrid(pts)
        j, d = grid.nearest(3, theiler=0, exclude_zero=False)
        bj, bd = brute_force_nearest(pts, 3, theiler=0, exclude_zero=False)
        assert (j, d) == (bj, bd) == (1, 0.0)
        js, ds = grid.nearest_many(np.arange(5), theiler=0, exclude_zero=False)
        assert js.tolist() == [1, 2, 1, 1, 1]
        assert_batch_matches(grid, pts, np.arange(5), theiler=0, exclude_zero=False)

    def test_exclude_zero(self):
        pts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]])
        grid = BoxGrid(pts)
        j, d = grid.nearest(0, theiler=0, exclude_zero=True)
        assert j == 2
        assert d == pytest.approx(5.0)

    def test_no_candidates(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0]])
        grid = BoxGrid(pts)
        j, d = grid.nearest(0, theiler=10)
        assert j == -1
        js, ds = grid.nearest_many(np.array([0, 1]), theiler=10)
        assert js.tolist() == [-1, -1]
        assert np.all(np.isinf(ds))
        # only zero distances left
        js, ds = BoxGrid(np.zeros((6, 2))).nearest_many(np.arange(6), theiler=0)
        assert js.tolist() == [-1] * 6
        assert np.all(np.isinf(ds))

    def test_constant_coordinate(self):
        # degenerate span on one axis must not break the search
        rng = np.random.default_rng(5)
        pts = np.column_stack((np.full(200, 2.0), rng.normal(size=200)))
        grid = BoxGrid(pts)
        for i in range(0, 200, 11):
            assert grid.nearest(i)[0] == brute_force_nearest(pts, i)[0]
        assert_batch_matches(grid, pts, np.arange(200), theiler=3)

    @pytest.mark.parametrize("exclude_zero", [False, True])
    def test_periodic_curve_grows_k(self, exclude_zero):
        # a densely sampled circle traversed 80 times from one table of
        # samples: each point recurs exactly once per turn, so the zero
        # distances (or the exact ties among the copies of the nearest
        # nonzero point) outnumber the first k = 2 * theiler + 4 tree
        # neighbours many times over, and k must grow at least twice
        period, turns, theiler = 50, 80, 2
        phase = 2.0 * np.pi * np.arange(period) / period
        circle = np.column_stack((np.cos(phase), np.sin(phase)))
        pts = circle[np.arange(period * turns) % period]
        refs = np.arange(0, pts.shape[0], 41)
        kw = dict(theiler=theiler, exclude_zero=exclude_zero)
        for i in refs:
            _, best = brute_force_nearest(pts, int(i), **kw)
            diff = pts - pts[i]
            ranked = np.count_nonzero(np.sqrt(np.einsum("ij,ij->i", diff, diff)) <= best)
            assert ranked > 4 * (2 * theiler + 4)
        assert_batch_matches(BoxGrid(pts), pts, refs, **kw)


class TestWithin:
    def test_matches_brute_force(self):
        pts = embedded_cloud(11, 1500, 3)
        grid = BoxGrid(pts)
        sigma = float(np.std(pts))
        for i in range(0, 1500, 97):
            for radius in (0.05 * sigma, 0.3 * sigma):
                got = grid.within(i, radius, theiler=10)
                diff = pts - pts[i]
                d = np.sqrt(np.einsum("ij,ij->i", diff, diff))
                idx = np.arange(1500)
                expect = idx[(d <= radius) & (np.abs(idx - i) > 10)]
                assert np.array_equal(got, expect)

    def test_limit(self):
        pts = embedded_cloud(13, 500, 2)
        grid = BoxGrid(pts)
        got = grid.within(10, 100.0, theiler=0, limit=50)
        assert got.max() <= 50


def test_import_does_not_load_scipy():
    # scipy loads on first neighbour search; runs without one skip its cost
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run(
        [sys.executable, "-c", "import wplab, sys; assert 'scipy' not in sys.modules"],
        env=env,
        check=True,
    )
