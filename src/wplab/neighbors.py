"""Exact nearest-neighbour search over embedded point sets, on a KD-tree.

``BoxGrid`` answers queries under the contract the Lyapunov and FNN
estimators rely on: a candidate j for reference point i must satisfy
|i - j| > theiler and, when given, j <= limit; zero distances are
dropped on request; ties go to the smaller index; (-1, inf) means no
candidate exists.  The name predates the KD-tree (it first held a
box-assisted grid) and stays because the benchmark's tracer
(``perfbench/spans.py``) patches ``BoxGrid.__init__``, ``nearest`` and
``within`` by name; renaming it is a change to the benchmark.

The KD-tree (``scipy.spatial.cKDTree``) does not know the contract, so
``nearest_many`` asks it for the k spatially nearest points of each
reference, drops the inadmissible ones, and recomputes the distances of
the rest with the same ``sqrt(einsum(diff, diff))`` formula as the
O(n) scan the tests hold them to (``tests/oracles.py``,
``brute_force_nearest``), which makes them bitwise identical to it.
Every point the tree did not return lies at least as far as the k-th
tree distance.  A reference is therefore settled when its best
admissible distance is strictly below that k-th distance, with a 1e-12
relative margin that covers the rounding gap between the tree's
arithmetic and the recomputed one; then no unseen point can beat it or
tie with it.  Unsettled references are asked again with four times k,
until k covers every point.  Candidate arrays are built in chunks of
references: a chunk's (refs, k, dim) float64 array holds at most
``_CHUNK_BYTES`` (1 MB), and its (refs, k) distance and index arrays
1 / dim of that each, unless one reference's k rows alone are larger
(a chunk holds at least one reference).  Each chunk gathers its
candidate rows with ``np.take(points, cand, axis=0)``, which copies
whole rows and is 4-6x faster than the fancy index ``points[cand]``
(16 000 rows of a 200 000 x 4 array: 45 against 296 us, one BLAS
thread, 2-vCPU Xeon), and subtracts the reference rows in place, so it
holds one (refs, k, dim) array, not the gathered rows and their
difference; the differences are the same numbers either way.

k starts at the constant ``_FIRST_K`` whatever the Theiler window: the
settle rule makes any first k exact, and on smoothly sampled
trajectories most references settle within a few rounds of growth.  A
first k of 2 * theiler + 4, enough to get past the 2 * theiler + 1
window points in one query, costs far more than the extra rounds: on
fig11-14's Rosenstein call (195 316 x 4 points, theiler 456, 2 014
references) the exact answer ranks only ~20th by distance among all
points, window included (median; maximum 127), and k = 4 answers in
0.08 s against 0.62 s at k = 916 (fig4's, theiler 16: 0.027 against
0.093 s; best of 5, one BLAS thread, 2-vCPU host).  k = 4 is also what
the FNN calls (theiler 0) always used; k = 8 makes them ~1.4x slower.

Both estimators build their tree over every row of an embedding and
keep to the rows they may use through ``limit``: FNN to the rows whose
next coordinate exists, Rosenstein to those with ``horizon`` steps
ahead.  Rows past the limit are only ever dropped as candidates, and the
settle rule still bounds every unseen row by the k-th tree distance, so
the answers equal those of a tree over the prefix.  FNN stops at the
dimension it chooses, which lets the divergence estimate reuse the tree
of that last dimension instead of building its own.

Trees are built unbalanced and without compacted nodes, with leaves of
``_LEAFSIZE`` points; k-NN answers do not depend on the tree's shape,
and these settings build two to three times as fast as scipy's
defaults.
"""

from __future__ import annotations

import math

import numpy as np

# relative allowance for rounding between the tree's distances and the
# recomputed ones (far above the ~1e-16 that actually occurs)
_MARGIN = 1e-12
# cap on the bytes of one chunk's (refs, k, dim) candidate array
_CHUNK_BYTES = 1 << 20
# first k of every query; unsettled references ask for four times more
_FIRST_K = 4
# points per KD-tree leaf
_LEAFSIZE = 64


class BoxGrid:
    def __init__(self, points: np.ndarray):
        # imported here, not at module level: the import costs 0.28-0.36 s
        # and 33-36 MB of RSS, most of it in the numpy submodules that
        # scipy's array-API layer imports, which runs that never search
        # neighbours should not pay
        from scipy.spatial import cKDTree

        pts = np.ascontiguousarray(points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise ValueError("points must be a nonempty (n, dim) array")
        self.points = pts
        self._tree = cKDTree(
            pts, leafsize=_LEAFSIZE, balanced_tree=False, compact_nodes=False
        )

    def nearest_many(
        self,
        refs: np.ndarray,
        theiler: int = 0,
        limit: int | None = None,
        exclude_zero: bool = True,
    ) -> tuple[np.ndarray, np.ndarray]:
        """``nearest`` for every index in ``refs``: (j, dist) arrays."""
        refs = np.asarray(refs, dtype=np.int64).reshape(-1)
        n, dim = self.points.shape
        best_j = np.full(refs.size, -1, dtype=np.int64)
        best_d = np.full(refs.size, math.inf)
        open_ = np.arange(refs.size)
        k = _FIRST_K
        while open_.size:
            k = min(k, n)
            rows = max(1, _CHUNK_BYTES // (8 * k * dim))
            still = []
            for c0 in range(0, open_.size, rows):
                chunk = open_[c0 : c0 + rows]
                j, d, settled = self._nearest_k(refs[chunk], k, theiler, limit, exclude_zero)
                best_j[chunk] = j
                best_d[chunk] = d
                still.append(chunk[~settled])
            open_ = np.concatenate(still)
            k *= 4
        return best_j, best_d

    def _nearest_k(self, refs, k, theiler, limit, exclude_zero):
        """Best admissible of each reference's k tree neighbours, and
        whether no point outside those k can beat it."""
        pts = self.points
        n = pts.shape[0]
        q = np.take(pts, refs, axis=0)
        tree_d, cand = self._tree.query(q, k=k)
        tree_d = tree_d.reshape(refs.size, k)
        cand = cand.reshape(refs.size, k)
        diff = np.take(pts, cand, axis=0)
        diff -= q[:, None, :]
        diff = diff.reshape(refs.size * k, -1)
        d = np.sqrt(np.einsum("ij,ij->i", diff, diff)).reshape(refs.size, k)
        ok = np.abs(cand - refs[:, None]) > theiler
        if limit is not None:
            ok &= cand <= limit
        if exclude_zero:
            ok &= d > 0.0
        d = np.where(ok, d, math.inf)
        dmin = d.min(axis=1)
        j = np.where(d == dmin[:, None], cand, n).min(axis=1)
        found = np.isfinite(dmin)
        j = np.where(found, j, -1)
        if k == n:
            settled = np.ones(refs.size, dtype=bool)
        else:
            settled = found & (dmin < tree_d[:, -1] * (1.0 - _MARGIN))
        return j, dmin, settled

    def nearest(
        self,
        i: int,
        theiler: int = 0,
        limit: int | None = None,
        exclude_zero: bool = True,
    ) -> tuple[int, float]:
        """Index and distance of the closest point to point i.

        Candidates j must satisfy |i - j| > theiler and, when given,
        j <= limit.  Returns (-1, inf) if no candidate exists.
        """
        j, d = self.nearest_many(np.array([i]), theiler, limit, exclude_zero)
        return int(j[0]), float(d[0])

    def within(
        self,
        i: int,
        radius: float,
        theiler: int = 0,
        limit: int | None = None,
    ) -> np.ndarray:
        """Indices of all points within Euclidean radius of point i."""
        pts = self.points
        q = pts[i]
        # the widened ball holds every point the exact test below accepts
        cand = np.asarray(
            self._tree.query_ball_point(q, radius * (1.0 + _MARGIN)), dtype=np.int64
        )
        mask = np.abs(cand - i) > theiler
        if limit is not None:
            mask &= cand <= limit
        cand = cand[mask]
        if cand.size == 0:
            return cand
        diff = pts[cand] - q
        d2 = np.einsum("ij,ij->i", diff, diff)
        out = cand[d2 <= radius * radius]
        out.sort()
        return out
