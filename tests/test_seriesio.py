import io
import math
import tempfile
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wplab import seriesio, svg
from wplab.recur import (
    Cell,
    RecurrencePlotData,
    ReturnTimeHistogram,
    first_return_times,
    invariant_density,
    recurrence_matrix,
    return_map,
)
from wplab.series import SpectralSum, TimeSeries

from synthetic import henon_series, sine_series

# reference copies of the per-line loops the text writers used to run


def loop_recurrence(pairs):
    return "".join(f"{i} {j}\n" for i, j in pairs)


def loop_pairs(pairs):
    return "".join(f"{float(a)!r} {float(b)!r}\n" for a, b in pairs)


def loop_density(d):
    rows = zip(d.centers(), d.counts, d.density())
    return "".join(f"{float(c)!r} {n} {float(rho)!r}\n" for c, n, rho in rows)


def loop_histogram(h):
    return "".join(f"{tau} {n}\n" for tau, n in zip(h.taus, h.counts))


def body(path, columns):
    _, sep, rest = path.read_text().partition(f"# columns: {columns}\n")
    assert sep
    return rest


@pytest.fixture(params=[None, 3], ids=["default-chunk", "3-row-chunks"])
def chunking(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(seriesio, "_ROWS_PER_CHUNK", request.param)


class TestTextExports:
    def test_pairs_round_trip(self, tmp_path):
        # rows of a float64 array iterate as numpy scalars
        pairs = return_map(sine_series(5000, period=37.3))
        assert isinstance(pairs[0, 0], np.float64)
        path = seriesio.write_pairs(
            pairs,
            tmp_path / "returnmap.txt",
            "return map",
            "max_k max_k+1",
            {"slope": np.float64(0.25)},
        )
        assert "np." not in path.read_text()
        assert np.array_equal(np.loadtxt(path, ndmin=2), pairs)

    def test_density_round_trip(self, tmp_path):
        d = invariant_density(henon_series(4000), 0.05)
        path = seriesio.write_density(d, tmp_path / "density.txt")
        text = path.read_text()
        rows = [ln.split() for ln in text.splitlines() if not ln.startswith("#")]
        assert "np." not in text
        assert np.array_equal([float(r[0]) for r in rows], d.centers())
        assert np.array_equal([int(r[1]) for r in rows], d.counts)
        assert np.array_equal([float(r[2]) for r in rows], d.density())

    def test_numpy_scalar_inputs_export_as_python_floats(self, tmp_path):
        ts = TimeSeries(np.float64(0.5), sine_series(500, period=37.3).values)
        assert type(ts.dt) is float
        h = first_return_times(ts, Cell(0.5, 1.5))
        hist = seriesio.write_histogram(h, tmp_path / "f1.txt").read_text()
        assert "# dt = 0.5\n" in hist
        d = invariant_density(ts, np.float64(0.25))
        density = seriesio.write_density(d, tmp_path / "density.txt").read_text()
        assert "# bin_width = 0.25\n" in density
        assert f"# normalization = {1 / (500 * 0.25)!r}\n" in density
        assert "np." not in hist + density


HENON = henon_series(3000).values


class TestRowWriterMatchesLoop:
    def test_recurrence(self, tmp_path, chunking):
        # more pairs than one default chunk of rows
        rp = recurrence_matrix(sine_series(3000, period=50.0), 0, 3000, 0.1)
        assert rp.pairs.shape[0] > seriesio._ROWS_PER_CHUNK
        path = seriesio.write_recurrence(rp, tmp_path / "rp.txt")
        assert body(path, "i j") == loop_recurrence(rp.pairs)
        empty = RecurrencePlotData(0, 10, 0.1, np.empty((0, 2), dtype=np.int64))
        path = seriesio.write_recurrence(empty, tmp_path / "empty.txt")
        assert body(path, "i j") == ""

    @pytest.mark.parametrize(
        "pairs",
        [
            # successive Henon values (x_k, x_k+1): full-precision floats of both signs
            np.column_stack((HENON[:-1], HENON[1:])),
            # an integer column, written as floats
            np.column_stack((np.arange(1, 8), np.linspace(-1.0, 1e300, 7))),
            np.array([[0.1, -0.0], [np.pi, 5e-324]]),
            np.empty((0, 2)),
        ],
    )
    def test_pairs(self, tmp_path, chunking, pairs):
        path = seriesio.write_pairs(pairs, tmp_path / "pairs.txt", "map", "a b")
        assert body(path, "a b") == loop_pairs(pairs)

    @pytest.mark.parametrize("values", [henon_series(4000).values, np.ones(9)])
    def test_density(self, tmp_path, chunking, values):
        d = invariant_density(TimeSeries(1.0, values), 0.01)
        path = seriesio.write_density(d, tmp_path / "density.txt")
        assert body(path, "bin_center count density") == loop_density(d)

    def test_histogram(self, tmp_path, chunking):
        h = first_return_times(henon_series(4000), Cell(0.0, 0.3))
        path = seriesio.write_histogram(h, tmp_path / "f1.txt")
        assert body(path, "tau count") == loop_histogram(h)
        back = np.loadtxt(path, dtype=np.int64, ndmin=2)
        assert np.array_equal(back, np.column_stack((h.taus, h.counts)))
        header = f"# dt = {h.dt!r}\n# mode = entry\n"
        assert header + f"# total_events = {h.total_events}\n" in path.read_text()
        empty = ReturnTimeHistogram(np.empty(0, int), np.empty(0, int), 0, 1.0)
        path = seriesio.write_histogram(empty, tmp_path / "empty.txt")
        assert body(path, "tau count") == ""


# the digit-count and 4-digit-group boundaries of the integer writer
INT_BOUNDARIES = [0, 9, 10, 99, 999, 9_999, 10_000, 10_001, 2**32, 10**16, 2**53]


class TestIntegerRows:
    @pytest.mark.parametrize("chunk", [1, 3, None], ids=["1-row", "3-row", "default"])
    def test_boundaries_match_percent_d(self, tmp_path, monkeypatch, chunk):
        if chunk is not None:
            monkeypatch.setattr(seriesio, "_ROWS_PER_CHUNK", chunk)
        v = np.array(INT_BOUNDARIES, dtype=np.int64)
        # every pair of boundaries, so chunks mix field widths
        pairs = np.stack(np.meshgrid(v, v, indexing="ij"), axis=-1).reshape(-1, 2)
        expect = "".join("%d %d\n" % (int(i), int(j)) for i, j in pairs)
        rp = RecurrencePlotData(0, 10, 0.1, pairs)
        path = seriesio.write_recurrence(rp, tmp_path / "rp.txt")
        assert body(path, "i j") == expect
        h = ReturnTimeHistogram(pairs[:, 0], pairs[:, 1], 1, 1.0)
        path = seriesio.write_histogram(h, tmp_path / "f1.txt")
        assert body(path, "tau count") == expect
        empty = RecurrencePlotData(0, 10, 0.1, np.empty((0, 2), dtype=np.int64))
        path = seriesio.write_recurrence(empty, tmp_path / "empty.txt")
        assert body(path, "i j") == ""

    def test_negative_value_raises(self, tmp_path):
        rp = RecurrencePlotData(0, 10, 0.1, np.array([[1, 2], [3, -4]]))
        with pytest.raises(ValueError, match="negative"):
            seriesio.write_recurrence(rp, tmp_path / "rp.txt")
        assert list(tmp_path.iterdir()) == []


def percent_d(rows):
    return "".join(" ".join("%d" % v for v in row) + "\n" for row in rows)


def written_int_rows(rows, dtype=np.int64):
    fh = io.StringIO()
    seriesio._write_int_rows(fh, np.array(rows, dtype=dtype))
    return fh.getvalue()


def any_digit_count(dtype):
    """A non-negative ``dtype`` value with a drawn digit count, 1 ... 19
    up to 2**62 for int64 and 1 ... 10 for int32, so every count of
    4-digit groups (1 ... 5, 1 ... 3) turns up."""
    top = min(2**62, np.iinfo(dtype).max)
    return st.integers(1, len(str(top))).flatmap(
        lambda d: st.integers(10 ** (d - 1) if d > 1 else 0, min(10**d - 1, top))
    )


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    dtype=st.sampled_from([np.int64, np.int32]),
    columns=st.integers(1, 3),
    chunk=st.integers(1, 4),
)
def test_int_rows_match_percent_d(data, dtype, columns, chunk):
    rows = data.draw(
        st.lists(st.lists(any_digit_count(dtype), min_size=columns, max_size=columns),
                 min_size=1, max_size=12)
    )
    # small chunks, so one export mixes chunks of different field widths
    with mock.patch.object(seriesio, "_ROWS_PER_CHUNK", chunk):
        assert written_int_rows(rows, dtype) == percent_d(rows)


@pytest.mark.parametrize("dtype", [np.uint64, np.float64])
def test_int_rows_refuse_values_int64_cannot_hold(dtype):
    fh = io.StringIO()
    with pytest.raises(TypeError):
        seriesio._write_int_rows(fh, np.array([[1, 2]], dtype=dtype))
    assert fh.getvalue() == ""


class Discard:
    """A text file that keeps nothing written to it."""

    def write(self, text):
        pass


def test_int32_rows_are_widened_one_chunk_at_a_time():
    # 600 000 pairs of indices below 600 000, as a recurrence plot's; the
    # int64 copy of the whole array the export once made took the peak to
    # 15.9 MB, and chunks of 65 536 rows, whose int64 rows and text take
    # about 100 bytes a row, to 6.7 MB
    rng = np.random.default_rng(3)
    rows = rng.integers(0, 600_000, (600_000, 2), dtype=np.int32)
    tracemalloc.start()
    try:
        seriesio._write_int_rows(Discard(), rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_int_rows_longer_than_a_chunk_match_percent_d():
    rng = np.random.default_rng(7)
    shape = (seriesio._ROWS_PER_CHUNK + 5, 3)
    # every digit count: a random 62-bit value shifted right by 0 ... 62
    rows = rng.integers(0, 2**62, shape) >> rng.integers(0, 63, shape)
    assert written_int_rows(rows) == percent_d(rows.tolist())


class SecondBodyWriteFails:
    """A text file that fails on its second write of body rows (a write
    not starting with "#"), as a disk that fills up mid-export."""

    def __init__(self, path, mode="r"):
        self.fh = open(path, mode)
        self.body: list[str] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self.fh.__exit__(*exc)

    def write(self, text):
        if not text.startswith("#"):
            if self.body:
                raise OSError("no space left on device")
            self.body.append(text)
        return self.fh.write(text)


class TestAtomicWrites:
    def write_failing_rp(self, path, monkeypatch):
        # the header and first one-row chunk are written before the
        # second chunk fails
        monkeypatch.setattr(seriesio, "_ROWS_PER_CHUNK", 1)
        handles = []

        def failing_open(*args):
            handles.append(SecondBodyWriteFails(*args))
            return handles[-1]

        monkeypatch.setattr(seriesio, "open", failing_open, raising=False)
        pairs = np.array([[1, 2], [3, 4]], dtype=np.int64)
        with pytest.raises(OSError, match="no space"):
            seriesio.write_recurrence(RecurrencePlotData(0, 10, 0.1, pairs), path)
        assert [h.body for h in handles] == [["1 2\n"]]

    def test_failure_mid_body_leaves_nothing(self, tmp_path, monkeypatch):
        self.write_failing_rp(tmp_path / "rp.txt", monkeypatch)
        assert list(tmp_path.iterdir()) == []

    def test_failure_keeps_previous_file(self, tmp_path, monkeypatch):
        good = RecurrencePlotData(0, 10, 0.1, np.array([[1, 2]], dtype=np.int64))
        path = seriesio.write_recurrence(good, tmp_path / "rp.txt")
        before = path.read_bytes()
        self.write_failing_rp(path, monkeypatch)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    @pytest.mark.parametrize("plot", ["bars_svg", "points_svg", "curve_svg"])
    def test_failed_svg_write_leaves_nothing(self, tmp_path, monkeypatch, plot):
        def full_disk(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(seriesio.os, "replace", full_disk)
        x = np.arange(5.0)
        with pytest.raises(OSError, match="no space"):
            getattr(svg, plot)(x, x * x, tmp_path / "plot.svg", "title")
        assert list(tmp_path.iterdir()) == []

    def test_writers_of_one_path_do_not_share_a_temporary(self, tmp_path):
        # with one temporary name per path, the inner writer moved the
        # outer one's half-written file into place and the outer writer's
        # own move then found no temporary
        path = tmp_path / "x.txt"
        with seriesio._replacing(path) as outer:
            outer.write("outer\n" * 1000)
            with seriesio._replacing(path) as inner:
                inner.write("inner\n")
            assert path.read_text() == "inner\n"
            outer.write("end\n")
        assert path.read_text() == "outer\n" * 1000 + "end\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_writer_removes_only_its_own_temporary(self, tmp_path):
        path = tmp_path / "x.txt"
        with seriesio._replacing(path, "wb") as outer:
            outer.write(b"outer\n")
            with pytest.raises(OSError, match="inner failed"):
                with seriesio._replacing(path, "wb") as inner:
                    inner.write(b"inner\n")
                    raise OSError("inner failed")
            assert not path.exists()
        assert path.read_bytes() == b"outer\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_concurrent_writers_leave_one_whole_file(self, tmp_path):
        # four threads rewriting one path: every write succeeds, and the
        # file is one writer's text whole
        path = tmp_path / "x.txt"
        texts = [f"{k}\n" * (1000 + k) for k in range(4)]

        def rewrite(text):
            for _ in range(25):
                seriesio.write_text(text, path)

        with ThreadPoolExecutor(max_workers=4) as pool:
            for done in [pool.submit(rewrite, text) for text in texts]:
                done.result(timeout=60)
        assert path.read_text() in texts
        assert list(tmp_path.iterdir()) == [path]

    def test_series_and_sidecar_leave_no_temporary(self, tmp_path):
        ts = sine_series(100, period=7.0)
        path = seriesio.write_series(ts, tmp_path / "x.wprs")
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["x.wprs", "x.wprs.meta.json"]
        back = seriesio.read_series(path)
        assert np.array_equal(back.values, ts.values)
        assert back.observable == "sine"


finite = st.floats(allow_nan=False, allow_infinity=False)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | finite | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=10,
)


@settings(max_examples=60, deadline=None)
@given(
    dt=st.floats(min_value=1e-300, max_value=1e300),
    values=st.lists(finite, min_size=1, max_size=50),
    observable=st.text(),
    meta=st.dictionaries(st.text(), json_values, max_size=5),
)
def test_series_round_trip(dt, values, observable, meta):
    ts = TimeSeries(dt, np.array(values), observable=observable, meta=meta)
    with tempfile.TemporaryDirectory() as tmp:
        back = seriesio.read_series(seriesio.write_series(ts, Path(tmp) / "s.wprs"))
    assert back.dt == dt
    assert back.values.tobytes() == ts.values.tobytes()
    assert (back.observable, back.meta) == (observable, meta)


@pytest.mark.parametrize("dt", [float("nan"), float("inf"), -0.0])
def test_series_file_with_a_bad_time_step_is_rejected(tmp_path, dt):
    path = tmp_path / "s.wprs"
    header = seriesio._HEADER.pack(seriesio.MAGIC, seriesio.VERSION, 0, 3, dt)
    path.write_bytes(header + np.array([0.0, 1.0, 0.5], dtype="<f8").tobytes())
    with pytest.raises(seriesio.FormatError, match=r"s\.wprs: time step"):
        seriesio.read_series(path)


def test_series_of_no_samples_is_neither_written_nor_read(tmp_path):
    path = tmp_path / "s.wprs"
    with pytest.raises(ValueError, match="no samples"):
        seriesio.write_series(TimeSeries(1e-3, np.array([])), path)
    assert not path.exists()
    # a header that counts 0 samples, and no body
    header = seriesio._HEADER.pack(seriesio.MAGIC, seriesio.VERSION, 0, 0, 1e-3)
    path.write_bytes(header)
    with pytest.raises(seriesio.FormatError, match=r"s\.wprs: header counts 0 samples"):
        seriesio.read_series(path)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_sample_is_a_format_error_naming_the_file(tmp_path, bad):
    path = seriesio.write_series(sine_series(200, period=10.0), tmp_path / "s.wprs")
    raw = bytearray(path.read_bytes())
    offset = seriesio._HEADER.size + 8 * 100  # sample 100
    raw[offset : offset + 8] = np.array([bad], dtype="<f8").tobytes()
    path.write_bytes(raw)
    with pytest.raises(seriesio.FormatError, match=r"s\.wprs: series values must be"):
        seriesio.read_series(path)


BAD_SIDECARS = {
    "not-json": ("{bad", "Expecting property name"),
    "a-list": ("[1,2]", "not a JSON object"),
    "bad-fields": ('{"observable": 5, "meta": [1]}', "observable must be a string"),
}


@pytest.mark.parametrize("text, reason", BAD_SIDECARS.values(), ids=BAD_SIDECARS)
def test_malformed_sidecar_is_rejected(tmp_path, text, reason):
    path = seriesio.write_series(sine_series(50, period=10.0), tmp_path / "s.wprs")
    (tmp_path / "s.wprs.meta.json").write_text(text)
    with pytest.raises(seriesio.FormatError, match=rf"s\.wprs\.meta\.json: {reason}"):
        seriesio.read_series(path)


def series_file_bytes(magic=seriesio.MAGIC, version=seriesio.VERSION, count=3):
    """A series file of three samples whose header says ``magic``,
    ``version`` and ``count``."""
    header = seriesio._HEADER.pack(magic, version, 0, count, 1e-3)
    return header + np.array([0.0, 1.0, 0.5], dtype="<f8").tobytes()


BAD_HEADERS = {
    "truncated": (series_file_bytes()[:20], "truncated header"),
    "bad-magic": (series_file_bytes(magic=b"WPRX"), "bad magic b'WPRX'"),
    "version": (series_file_bytes(version=2), "unsupported version 2"),
    "count": (series_file_bytes(count=4), "expected 64 bytes, found 56"),
}


@pytest.mark.parametrize("raw, reason", BAD_HEADERS.values(), ids=BAD_HEADERS)
def test_bad_header_is_a_format_error_naming_the_file(tmp_path, raw, reason):
    path = tmp_path / "s.wprs"
    path.write_bytes(raw)
    with pytest.raises(seriesio.FormatError, match=rf"s\.wprs: {reason}"):
        seriesio.read_series(path)


def spectral_series(cplx, minuend=None, dt=1e-2, steps=300):
    """A series whose spectrum is a kept sum: 40 terms over 30 levels, 5
    of them small enough to be pruned, a constant and ``minuend``."""
    rng = np.random.default_rng(3)
    amp = rng.normal(size=40) * 10.0 ** np.where(np.arange(40) % 8, 0.0, -18.0)
    if cplx:
        amp = amp * np.exp(2j * np.pi * rng.random(40))
    terms = SpectralSum(
        amp, rng.uniform(-50.0, 50.0, 30), rng.integers(0, 30, 40),
        rng.integers(0, 30, 40), 0.5, 99, minuend,
    )
    kept = terms.pruned()[0]
    return TimeSeries(dt, kept.evaluate(dt, steps), "x", {}, kept)


class TestStoredSum:
    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("minuend", [None, 7.25])
    def test_round_trip_evaluates_to_the_samples(self, tmp_path, cplx, minuend):
        ts = spectral_series(cplx, minuend)
        kept = ts.spectrum
        assert kept.amp.size == 35 and kept.terms == 99
        path = seriesio.write_series(ts, tmp_path / "s.wprs")
        raw = (tmp_path / "s.wprs.sum").read_bytes()
        levels, width = kept.levels.size, 16 if cplx else 8
        assert len(raw) == 48 + 8 * levels + (width + 8) * kept.amp.size
        back = seriesio.read_series(path).spectrum
        for name in ("amp", "levels", "upper", "lower"):
            assert np.array_equal(getattr(back, name), getattr(kept, name)), name
        assert back.amp.dtype == kept.amp.dtype
        assert (back.const, back.terms, back.minuend) == (0.5, 99, minuend)
        assert back.evaluate(ts.dt, len(ts)).tobytes() == ts.values.tobytes()
        # the same sum writes the same bytes
        seriesio.write_series(ts, tmp_path / "again.wprs")
        assert (tmp_path / "again.wprs.sum").read_bytes() == raw

    def test_series_without_a_sum_removes_a_stale_one(self, tmp_path):
        path = seriesio.write_series(spectral_series(True), tmp_path / "s.wprs")
        assert (tmp_path / "s.wprs.sum").exists()
        seriesio.write_series(sine_series(50, period=10.0), path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s.wprs", "s.wprs.meta.json"]
        assert seriesio.read_series(path).spectrum is None

    @pytest.mark.parametrize(
        "damage, reason",
        [
            (lambda raw: raw[:40], "unpack_from requires a buffer of at least 48 bytes"),
            (lambda raw: raw[:-1], r"expected \d+ bytes, found \d+"),
            (lambda raw: raw + b"\0", r"expected \d+ bytes, found \d+"),
            (lambda raw: b"WPSX" + raw[4:], "not a version 1 spectral sum"),
            # the last lower-level index, set past the levels
            (lambda raw: raw[:-4] + b"\xff" * 4, "lower indexes outside"),
        ],
        ids=["header", "short", "long", "magic", "index"],
    )
    def test_malformed_sum_is_a_format_error_naming_it(self, tmp_path, damage, reason):
        path = seriesio.write_series(spectral_series(False), tmp_path / "s.wprs")
        stored = tmp_path / "s.wprs.sum"
        stored.write_bytes(damage(stored.read_bytes()))
        with pytest.raises(seriesio.FormatError, match=rf"s\.wprs\.sum: {reason}"):
            seriesio.read_series(path)


def traced_peak(call):
    """The peak of the memory traced while ``call()`` runs a second time,
    in bytes.

    The first, untraced run pays the interpreter's one-time costs: a
    path's parts are interned by pathlib, and a resize of the interned
    string table it triggers once traced at 1.9 MB, outside the call's own
    memory.
    """
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def million_samples():
    # 8 MB of samples
    return TimeSeries(1e-3, np.sin(np.arange(1_000_000) / 7.0))


def test_series_write_copies_no_samples(tmp_path, million_samples):
    # a bytes copy of the samples took the traced peak to 8.0 MB
    path = tmp_path / "s.wprs"
    assert traced_peak(lambda: seriesio.write_series(million_samples, path)) < 1e6


def test_series_read_holds_the_samples_once(tmp_path, million_samples):
    # the bytes read and a copy of their samples peaked at 17.0 MB; the
    # bytes alone at 9.0 MB
    path = seriesio.write_series(million_samples, tmp_path / "s.wprs")
    assert traced_peak(lambda: seriesio.read_series(path)) < 12e6
