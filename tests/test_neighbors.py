import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wplab import neighbors
from wplab.neighbors import BoxGrid

from oracles import brute_force_nearest


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
        # nonzero point) outnumber 4 * (2 * theiler + 4) = 32 tree
        # neighbours, four times the first k and more, so k must grow at
        # least twice
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
            assert ranked > 4 * (2 * theiler + 4) >= 4 * neighbors._FIRST_K
        assert_batch_matches(BoxGrid(pts), pts, refs, **kw)


def periodic_curve(period, count, dim=2):
    # one table of samples repeated: every point recurs exactly
    phase = 2.0 * np.pi * np.arange(period) / period
    table = np.column_stack([np.cos((j + 1) * phase) for j in range(dim)])
    return table[np.arange(count) % period]


class TestTheilerWindow:
    """Windows much wider than the first k: every query starts with k tree
    neighbours that all lie inside the window and must grow past it."""

    @pytest.mark.parametrize("theiler", [1, 2, 7, 25])
    def test_matches_brute_force(self, theiler):
        # every reference is checked, so windows clipped by index 0 and by
        # the last index are included
        pts = embedded_cloud(3 + theiler, 1000, 3)
        assert_batch_matches(BoxGrid(pts), pts, np.arange(1000), theiler=theiler)

    @pytest.mark.parametrize("limit", [0, 1, 99, 500, 997, 998, 2000])
    def test_limit(self, limit):
        # references beyond the limit too, whose right range is empty
        pts = embedded_cloud(17, 999, 2)
        refs = np.arange(0, 999, 3)
        assert_batch_matches(BoxGrid(pts), pts, refs, theiler=12, limit=limit)

    @pytest.mark.parametrize("exclude_zero", [False, True])
    @pytest.mark.parametrize("theiler", [0, 9])
    def test_rows_beyond_limit_answer_as_the_prefix(self, theiler, exclude_zero):
        # a tree over every row, limited, against brute force over the
        # rows up to the limit only: the rows past it (here the exact
        # copies of a periodic stretch and points that crowd the
        # references) must change no index and no distance bit
        cloud = embedded_cloud(21, 600, 3)
        loop = periodic_curve(30, 300, 3)
        pts = np.concatenate((loop, cloud, loop, cloud + 1e-9))
        grid = BoxGrid(pts)
        for limit in (29, 299, 650, 1199):
            prefix = pts[: limit + 1]
            refs = np.arange(0, limit + 1, 4)
            js, ds = grid.nearest_many(
                refs, theiler=theiler, limit=limit, exclude_zero=exclude_zero
            )
            for i, j, d in zip(refs, js, ds):
                bj, bd = brute_force_nearest(
                    prefix, int(i), theiler=theiler, exclude_zero=exclude_zero
                )
                assert j == bj
                assert d == pytest.approx(bd, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 31, 32, 33])
    def test_few_points(self, n):
        pts = embedded_cloud(n, n, 2)
        grid = BoxGrid(pts)
        assert_batch_matches(grid, pts, np.arange(n), theiler=31)
        assert_batch_matches(grid, pts, np.arange(n), theiler=3, limit=n // 2)

    def test_no_candidates(self):
        pts = embedded_cloud(2, 40, 2)
        js, ds = BoxGrid(pts).nearest_many(np.arange(40), theiler=40)
        assert js.tolist() == [-1] * 40
        assert np.all(np.isinf(ds))
        # only zero distances left outside the window
        js, ds = BoxGrid(np.zeros((50, 3))).nearest_many(np.arange(50), theiler=4)
        assert js.tolist() == [-1] * 50
        assert ds.tolist() == [math.inf] * 50

    @pytest.mark.parametrize("exclude_zero", [False, True])
    def test_duplicate_points(self, exclude_zero):
        rng = np.random.default_rng(4)
        pts = rng.integers(0, 3, size=(300, 2)).astype(np.float64)
        refs = np.arange(300)
        assert_batch_matches(
            BoxGrid(pts), pts, refs, theiler=9, exclude_zero=exclude_zero
        )

    @pytest.mark.parametrize("exclude_zero", [False, True])
    def test_periodic_ties(self, exclude_zero):
        # period 12 and a window of 15 points: the exactly tied copies of
        # each nearest point lie on both sides of the window, and the
        # smallest index among them must win
        theiler, period = 7, 12
        pts = periodic_curve(period, 12 * 64 + 5)
        refs = np.arange(0, pts.shape[0], 5)
        grid = BoxGrid(pts)
        js, _ = grid.nearest_many(refs, theiler=theiler, exclude_zero=exclude_zero)
        assert np.all(js[refs > theiler + period] < period)
        assert_batch_matches(grid, pts, refs, theiler=theiler, exclude_zero=exclude_zero)

    @pytest.mark.parametrize("exclude_zero", [False, True])
    def test_first_k_does_not_matter(self, monkeypatch, exclude_zero):
        # from one neighbour, from the default and from a k that passes
        # the window in one query, the settle rule gives the same answers
        pts = np.concatenate((embedded_cloud(8, 3000, 4), periodic_curve(40, 600, 4)))
        refs = np.arange(0, pts.shape[0], 7)
        grid = BoxGrid(pts)
        out = []
        for first_k in (1, neighbors._FIRST_K, 2 * 60 + 4):
            monkeypatch.setattr(neighbors, "_FIRST_K", first_k)
            out.append(
                grid.nearest_many(refs, theiler=60, limit=3400, exclude_zero=exclude_zero)
            )
        for js, ds in out[1:]:
            assert np.array_equal(js, out[0][0])
            assert np.array_equal(ds, out[0][1])

    @pytest.mark.parametrize("drift", [0.0, 1.0])
    def test_memory_stays_chunked(self, drift):
        # a 200 000 x 4 trajectory with the fig11-14 window: k grows from
        # the first k until the references get past their windows, and the
        # (refs, k, dim) candidate arrays must stay in chunks.  With the
        # drift the curve never comes back, the nearest admissible point
        # ranks ~2 * theiler by distance, and k reaches 1024 for every
        # reference (unchunked: a 131 MB candidate array)
        n, delay, theiler = 200_000, 228, 456
        t = 0.01 * np.arange(n + 3 * delay)
        x = np.sin(t) + 0.5 * np.sin(np.sqrt(2.0) * t) + drift * t
        pts = np.stack([x[j * delay : j * delay + n] for j in range(4)], axis=1)
        refs = np.arange(0, n, n // 4000)
        grid = BoxGrid(pts)
        tracemalloc.start()
        try:
            js, ds = grid.nearest_many(refs, theiler=theiler)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * neighbors._CHUNK_BYTES
        for k in range(0, refs.size, 401):
            assert (js[k], ds[k]) == brute_force_nearest(pts, int(refs[k]), theiler)


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


@pytest.mark.parametrize(
    "points", [np.empty((0, 2)), np.arange(4.0)], ids=["empty", "1-d"]
)
def test_grid_needs_a_nonempty_point_array(points):
    with pytest.raises(ValueError, match="nonempty"):
        BoxGrid(points)


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
