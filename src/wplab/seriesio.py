"""File formats: binary series, text exports for analysis artifacts.

Series files carry a fixed 32-byte header (magic ``WPRS``, version,
sample count, time step) followed by little-endian float64 samples, at
least one, and are written byte-identically for identical inputs; a
header that counts no samples, or a NaN or infinite sample, is a
``FormatError``.  A JSON sidecar
(``<file>.meta.json``) holds the observable label and the metadata: the
run's inputs (model, parameters, nu, m, steps) and what the model
computed.  One that is not a JSON object with a string ``observable``
and an object ``meta`` is a ``FormatError`` naming it, as a bad header
is (CLI exit 1).
A series' kept sum (``TimeSeries.spectrum``) goes to ``<file>.sum``, all
little-endian: a 48-byte header (``_SUM_HEADER``), then the levels, the
amplitudes (``<c16`` when complex, else ``<f8``) and the upper and lower
level indices (``<u4``).  A series without one removes a stale ``.sum``
and reads back as ``spectrum=None``; a malformed one is a ``FormatError``.
A write passes the samples' own buffer to the file, and a read keeps a
read-only view of the bytes it read: neither copies the samples again.
Analysis exports are plain text with ``# key = value`` headers echoing
the resolved options.  Floats are written as ``repr(float(x))``: the
repr of a numpy scalar reads ``np.float64(...)`` under numpy 2, which
``float`` cannot parse.  Integer columns (recurrence pairs,
return-time histograms) are non-negative and formatted by numpy, as
``%d`` would, from tables of 4-digit groups rather than Python ints:
the leading zeros are NUL bytes, dropped by one select per chunk.

Every writer fills a temporary sibling of its target, named for that
writer alone, and moves it into place with ``os.replace``, so a target
is either complete or absent (or still the previous complete file, or
the last finished writer's, when two write it at once); an interrupted
write leaves no partial file behind.
"""

from __future__ import annotations

import functools
import json
import math
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, Optional

import numpy as np

from .recur import Cell, DensityHistogram, RecurrencePlotData, ReturnTimeHistogram
from .series import SpectralSum, TimeSeries

MAGIC = b"WPRS"
VERSION = 1
_HEADER = struct.Struct("<4sHHQd8x")  # magic, version, reserved, count, dt, pad
assert _HEADER.size == 32
SUM_MAGIC = b"WPSS"
# magic, version, complex flag, levels, kept terms, terms, const, minuend (NaN: none)
_SUM_HEADER = struct.Struct("<4sHHQQQdd")


# rows formatted per string operation by ``_write_rows`` and
# ``_write_int_rows``: bounds their temporaries to about 2 MB
_ROWS_PER_CHUNK = 1 << 14


class FormatError(ValueError):
    """Malformed or unsupported series file."""


@contextmanager
def _replacing(path: Path, mode: str = "w") -> Iterator[Any]:
    """A file handle whose contents replace ``path`` once the block ends.

    The data go to a temporary sibling, moved over ``path`` by
    ``os.replace`` after it is closed; if the block raises, the temporary
    file is removed and ``path`` is left as it was.  Each call creates a
    temporary of its own (a random name, created exclusively), so writers
    of one path never share one.  Missing parent directories are created,
    so none exists before something is written.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, mode.replace("w", "x"))
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_rows(fh, line: str, rows: np.ndarray) -> None:
    """Write ``line % tuple(row)`` for every row of the 2-D array ``rows``.

    ``tolist`` yields Python scalars, so ``%r`` of a float64 entry is
    ``repr(float(x))`` and ``%d`` of an integer entry is ``str(int(x))``.
    """
    for r0 in range(0, len(rows), _ROWS_PER_CHUNK):
        block = rows[r0 : r0 + _ROWS_PER_CHUNK]
        fh.write((line * len(block)) % tuple(block.ravel().tolist()))


@functools.cache
def _digit_groups() -> tuple[np.ndarray, np.ndarray]:
    """The 4-digit groups "0000" ... "9999" as little-endian 4-byte words
    (the digit of 10**i is byte 3 - i), and the same groups as the
    leading group of a number, with NUL bytes for the leading zeros:
    row 0 writes 0 as "0" for the lowest group, row 1 writes it as
    nothing for a higher one.  Built on first use, so that importing the
    package does not hold the memory its construction touches (about
    0.3 MB resident at import)."""
    k = np.arange(10_000, dtype=np.uint32)
    digits = [(k // 10**i % 10 + ord("0")) << 8 * (3 - i) for i in range(4)]
    full = sum(digits).astype("<u4")
    lead = np.empty((2, k.size), dtype="<u4")
    lead[1] = sum(np.where(k >= 10**i, d, 0) for i, d in enumerate(digits))
    lead[0] = lead[1]
    lead[0, 0] = digits[0][0]  # "0"
    for table in (full, lead):
        table.flags.writeable = False  # shared by every call
    return full, lead


def _write_int_rows(fh, rows: np.ndarray) -> None:
    """Write each row of the 2-D non-negative integer array ``rows`` as
    its entries in decimal, separated by spaces, one row per line.

    The bytes are those of ``"%d %d\\n" % tuple(row)`` (for two columns),
    formatted without Python integers: each chunk of rows is laid out in
    fixed-width fields of 4-digit groups looked up in ``_digit_groups()``,
    each followed by its separator.  A number's leading group comes from
    the table that writes leading zeros as NUL bytes, and the groups
    above it are NUL, so one ``!= 0`` select drops every field's padding.
    Narrower integers are widened to int64 one chunk at a time, so no
    int64 copy of the whole array is made.
    """
    if not np.can_cast(rows.dtype, np.int64, casting="safe"):
        raise TypeError(f"integer export of {rows.dtype} values")
    if rows.size and rows.min() < 0:
        raise ValueError("integer export of a negative value")
    full, lead = _digit_groups()
    for r0 in range(0, len(rows), _ROWS_PER_CHUNK):
        block = rows[r0 : r0 + _ROWS_PER_CHUNK].astype(np.int64, copy=False)
        groups = (len(str(int(block.max()))) + 3) // 4
        # one packed field: the groups, most significant first, then the
        # separator
        field = np.dtype([("groups", "<u4", (groups,)), ("sep", "u1")])
        text = np.empty(block.shape, dtype=field)
        text["sep"] = ord(" ")
        text["sep"][:, -1] = ord("\n")
        words = text["groups"]
        for g in range(groups - 1):
            block, low = np.divmod(block, 10_000)
            # the leading group where nothing is left above it
            words[..., -1 - g] = np.where(block == 0, lead[min(g, 1)][low], full[low])
        words[..., 0] = lead[min(groups - 1, 1)][block]
        raw = text.view(np.uint8)
        fh.write(str(raw[raw != 0], "ascii"))


def series_files(path: str | Path) -> list[Path]:
    """The series file ``path``, its JSON sidecar and its stored sum."""
    path = Path(path)
    return [path, *(path.with_name(path.name + ext) for ext in (".meta.json", ".sum"))]


def _sum_body(cplx: bool, levels: int, kept: int) -> np.dtype:
    """The arrays of a stored sum after its header, in file order."""
    amp = "<c16" if cplx else "<f8"
    return np.dtype(
        [("levels", "<f8", (levels,)), ("amp", amp, (kept,)), ("pairs", "<u4", (2, kept))]
    )


def write_series(ts: TimeSeries, path: str | Path) -> Path:
    if len(ts) == 0:  # ``read_series`` rejects a file of no samples
        raise ValueError("cannot write a series of no samples")
    path, meta_path, sum_path = series_files(path)
    with _replacing(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(ts), ts.dt))
        fh.write(ts.values.astype("<f8", copy=False))
    _write_json({"observable": ts.observable, "meta": ts.meta}, meta_path)
    s = ts.spectrum
    if s is None:
        sum_path.unlink(missing_ok=True)
        return path
    counts = (s.amp.dtype.kind == "c", s.levels.size, s.amp.size, s.terms)
    body = np.zeros((), _sum_body(*counts[:3]))
    body["levels"], body["amp"], body["pairs"] = s.levels, s.amp, (s.upper, s.lower)
    minuend = math.nan if s.minuend is None else s.minuend
    with _replacing(sum_path, "wb") as fh:
        fh.write(_SUM_HEADER.pack(SUM_MAGIC, VERSION, *counts, s.const, minuend))
        fh.write(body.tobytes())
    return path


def _read_sum(path: Path) -> SpectralSum:
    raw = path.read_bytes()
    try:  # a short header, a count beyond a C int, a wrong size or a bad index
        header = _SUM_HEADER.unpack_from(raw)
        magic, version, cplx, levels, kept, terms, const, minuend = header
        if (magic, version) != (SUM_MAGIC, VERSION) or cplx > 1:
            raise ValueError(f"not a version {VERSION} spectral sum")
        body = _sum_body(cplx, levels, kept)
        if len(raw) != (size := _SUM_HEADER.size + body.itemsize):
            raise ValueError(f"expected {size} bytes, found {len(raw)}")
        b = np.frombuffer(raw, body, 1, _SUM_HEADER.size)[0]
        minuend = None if math.isnan(minuend) else minuend
        return SpectralSum(b["amp"], b["levels"], *b["pairs"], const, terms, minuend)
    except (ValueError, struct.error) as exc:
        raise FormatError(f"{path}: {exc}") from None


def read_series(path: str | Path) -> TimeSeries:
    path, meta_path, sum_path = series_files(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, _, count, dt = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    if count == 0:
        raise FormatError(f"{path}: header counts 0 samples")
    expect = _HEADER.size + 8 * count
    if len(raw) != expect:
        raise FormatError(f"{path}: expected {expect} bytes, found {len(raw)}")
    if not 0.0 < dt < float("inf"):  # NaN fails both comparisons
        raise FormatError(f"{path}: time step {dt!r} is not finite and positive")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size, count=count)
    observable = ""
    meta: dict[str, Any] = {}
    if meta_path.exists():
        try:
            sidecar = json.loads(meta_path.read_text())
        except ValueError as exc:  # malformed JSON or text
            raise FormatError(f"{meta_path}: {exc}") from None
        if not isinstance(sidecar, dict):
            raise FormatError(f"{meta_path}: not a JSON object")
        observable = sidecar.get("observable", "")
        meta = sidecar.get("meta", {})
        if not (isinstance(observable, str) and isinstance(meta, dict)):
            raise FormatError(f"{meta_path}: observable must be a string, meta an object")
    spectrum = _read_sum(sum_path) if sum_path.exists() else None
    try:
        return TimeSeries(dt, values, observable, meta, spectrum)
    except ValueError as exc:  # a NaN or infinite sample: dt is checked above
        raise FormatError(f"{path}: {exc}") from None


def _write_header(fh, kind: str, options: dict[str, Any]) -> None:
    fh.write(f"# wplab {kind}\n")
    for key in sorted(options):
        fh.write(f"# {key} = {options[key]}\n")


def write_histogram(
    h: ReturnTimeHistogram,
    path: str | Path,
    cell: Optional[Cell] = None,
    kind: str = "f1",
) -> Path:
    """Two-column (tau, count) text export."""
    path = Path(path)
    options: dict[str, Any] = {
        "dt": repr(float(h.dt)),
        "mode": "entry",  # the convention: events are cell entries
        "total_events": h.total_events,
    }
    if cell is not None:
        options["cell"] = f"{cell.lower!r}:{cell.upper!r}"
    with _replacing(path) as fh:
        _write_header(fh, f"{kind} histogram", options)
        fh.write("# columns: tau count\n")
        _write_int_rows(fh, np.column_stack((h.taus, h.counts)))
    return path


def write_density(d: DensityHistogram, path: str | Path) -> Path:
    """Three-column (bin_center, count, density) text export."""
    path = Path(path)
    options = {
        "bin_width": repr(float(d.bin_width)),
        "origin": repr(d.origin),
        "normalization": repr(float(d.normalization)),
    }
    # counts (< 2**53) are exact as float64, and %d prints them as integers
    rows = np.column_stack((d.centers(), d.counts, d.density()))
    with _replacing(path) as fh:
        _write_header(fh, "density", options)
        fh.write("# columns: bin_center count density\n")
        _write_rows(fh, "%r %d %r\n", rows)
    return path


def write_recurrence(rp: RecurrencePlotData, path: str | Path) -> Path:
    """Two-column (i, j) text export of recurrence pairs."""
    path = Path(path)
    options: dict[str, Any] = {
        "window_start": rp.window_start,
        "window_len": rp.window_len,
        "epsilon": repr(rp.epsilon),
        "pairs": rp.pairs.shape[0],
    }
    if rp.embedding is not None:
        options["delay"] = rp.embedding.delay
        options["dimension"] = rp.embedding.dimension
    with _replacing(path) as fh:
        _write_header(fh, "recurrence plot", options)
        fh.write("# columns: i j\n")
        _write_int_rows(fh, rp.pairs)
    return path


def write_pairs(
    pairs: np.ndarray,
    path: str | Path,
    kind: str,
    columns: str,
    options: Optional[dict[str, Any]] = None,
) -> Path:
    """Generic two-column float export (return maps, divergence curves)."""
    path = Path(path)
    with _replacing(path) as fh:
        _write_header(fh, kind, options or {})
        fh.write(f"# columns: {columns}\n")
        _write_rows(fh, "%r %r\n", np.asarray(pairs, dtype=np.float64))
    return path


def write_text(text: str, path: str | Path) -> Path:
    """``text`` as the whole of ``path``, replaced atomically."""
    path = Path(path)
    with _replacing(path) as fh:
        fh.write(text)
    return path


def _write_json(payload: dict[str, Any], path: Path) -> None:
    write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n", path)


def write_json(payload: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    _write_json(payload, path)
    return path
