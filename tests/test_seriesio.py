import numpy as np

from wplab import seriesio
from wplab.benchmarks import henon_series, sine_series
from wplab.recur import invariant_density, return_map


class TestTextExports:
    def test_pairs_round_trip(self, tmp_path):
        # rows of a float64 array iterate as numpy scalars
        pairs = return_map(sine_series(5000, period=37.3), use_maxima=True)
        assert isinstance(pairs[0, 0], np.float64)
        path = seriesio.write_pairs(
            pairs,
            tmp_path / "returnmap.txt",
            "return map",
            "max_k max_k+1",
            {"slope": np.float64(0.25)},
        )
        assert "np." not in path.read_text()
        assert np.array_equal(seriesio.read_pairs(path), pairs)

    def test_density_round_trip(self, tmp_path):
        d = invariant_density(henon_series(4000), 0.05)
        path = seriesio.write_density(d, tmp_path / "density.txt")
        text = path.read_text()
        rows = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
        assert "np." not in text
        assert np.array_equal([float(r[0]) for r in rows], d.centers())
        assert np.array_equal([int(r[1]) for r in rows], d.counts)
        assert np.array_equal([float(r[2]) for r in rows], d.density())
