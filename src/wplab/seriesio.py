"""File formats: binary series, text exports for analysis artifacts.

Series files carry a fixed 32-byte header (magic ``WPRS``, version,
sample count, time step) followed by little-endian float64 samples, and
are written byte-identically for identical inputs.  A JSON sidecar
(``<file>.meta.json``) holds the observable label and model parameters.
Analysis exports are plain text with ``# key = value`` headers echoing
the resolved options.  Floats are written as ``repr(float(x))``: the
repr of a numpy scalar reads ``np.float64(...)`` under numpy 2, which
the readers here cannot parse.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Any, Optional

import numpy as np

from .embed import EmbeddingSpec
from .recur import Cell, DensityHistogram, RecurrencePlotData, ReturnTimeHistogram
from .series import TimeSeries

MAGIC = b"WPRS"
VERSION = 1
_HEADER = struct.Struct("<4sHHQd8x")  # magic, version, reserved, count, dt, pad
assert _HEADER.size == 32


class FormatError(ValueError):
    """Malformed or unsupported series file."""


def write_series(ts: TimeSeries, path: str | Path) -> Path:
    path = Path(path)
    payload = np.ascontiguousarray(ts.values, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, VERSION, 0, len(ts), ts.dt))
        fh.write(payload.tobytes())
    sidecar = {"observable": ts.observable, "meta": ts.meta}
    meta_path = path.with_name(path.name + ".meta.json")
    meta_path.write_text(json.dumps(sidecar, sort_keys=True, indent=1) + "\n")
    return path


def read_series(path: str | Path) -> TimeSeries:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise FormatError(f"{path}: truncated header")
    magic, version, _, count, dt = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported version {version}")
    expect = _HEADER.size + 8 * count
    if len(raw) != expect:
        raise FormatError(f"{path}: expected {expect} bytes, found {len(raw)}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size, count=count)
    observable = ""
    meta: dict[str, Any] = {}
    meta_path = path.with_name(path.name + ".meta.json")
    if meta_path.exists():
        sidecar = json.loads(meta_path.read_text())
        observable = sidecar.get("observable", "")
        meta = sidecar.get("meta", {})
    return TimeSeries(dt, values.copy(), observable=observable, meta=meta)


def write_series_csv(ts: TimeSeries, path: str | Path) -> Path:
    path = Path(path)
    with open(path, "w") as fh:
        fh.write(f"# observable = {ts.observable}\n")
        fh.write(f"# dt = {ts.dt!r}\n")
        fh.write("# columns: index value\n")
        for k, v in enumerate(ts.values):
            fh.write(f"{k},{float(v)!r}\n")
    return path


def _write_header(fh, kind: str, options: dict[str, Any]) -> None:
    fh.write(f"# wplab {kind}\n")
    for key in sorted(options):
        fh.write(f"# {key} = {options[key]}\n")


def _parse_header(lines) -> dict[str, str]:
    out = {}
    for line in lines:
        if not line.startswith("#"):
            break
        body = line[1:].strip()
        if "=" in body:
            key, _, val = body.partition("=")
            out[key.strip()] = val.strip()
    return out


def write_histogram(
    h: ReturnTimeHistogram,
    path: str | Path,
    cell: Optional[Cell] = None,
    kind: str = "f1",
    extra: Optional[dict[str, Any]] = None,
) -> Path:
    """Two-column (tau, count) text export."""
    path = Path(path)
    options: dict[str, Any] = {
        "dt": repr(h.dt),
        "mode": h.mode,
        "total_events": h.total_events,
    }
    if cell is not None:
        options["cell"] = f"{cell.lower!r}:{cell.upper!r}"
    if extra:
        options.update(extra)
    with open(path, "w") as fh:
        _write_header(fh, f"{kind} histogram", options)
        fh.write("# columns: tau count\n")
        for tau in sorted(h.counts):
            fh.write(f"{tau} {h.counts[tau]}\n")
    return path


def read_histogram(path: str | Path) -> ReturnTimeHistogram:
    path = Path(path)
    lines = path.read_text().splitlines()
    header = _parse_header(lines)
    counts = {}
    for line in lines:
        if line.startswith("#") or not line.strip():
            continue
        tau, cnt = line.split()
        counts[int(tau)] = int(cnt)
    total = int(header.get("total_events", sum(counts.values())))
    mode = header.get("mode", "entry")
    dt = float(header.get("dt", "1.0"))
    return ReturnTimeHistogram(counts, total, dt, mode)  # type: ignore[arg-type]


def write_density(
    d: DensityHistogram, path: str | Path, extra: Optional[dict[str, Any]] = None
) -> Path:
    """Three-column (bin_center, count, density) text export."""
    path = Path(path)
    options = {
        "bin_width": repr(d.bin_width),
        "origin": repr(d.origin),
        "normalization": repr(d.normalization),
    }
    if extra:
        options.update(extra)
    centers = d.centers()
    dens = d.density()
    with open(path, "w") as fh:
        _write_header(fh, "density", options)
        fh.write("# columns: bin_center count density\n")
        for c, n, rho in zip(centers, d.counts, dens):
            fh.write(f"{float(c)!r} {n} {float(rho)!r}\n")
    return path


def write_recurrence(
    rp: RecurrencePlotData, path: str | Path, extra: Optional[dict[str, Any]] = None
) -> Path:
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
    if extra:
        options.update(extra)
    with open(path, "w") as fh:
        _write_header(fh, "recurrence plot", options)
        fh.write("# columns: i j\n")
        for i, j in rp.pairs:
            fh.write(f"{i} {j}\n")
    return path


def read_recurrence_pairs(path: str | Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        i, j = line.split()
        rows.append((int(i), int(j)))
    return np.array(rows, dtype=np.int64).reshape(-1, 2)


def write_pairs(
    pairs: np.ndarray,
    path: str | Path,
    kind: str,
    columns: str,
    options: Optional[dict[str, Any]] = None,
) -> Path:
    """Generic two-column float export (return maps, divergence curves)."""
    path = Path(path)
    with open(path, "w") as fh:
        _write_header(fh, kind, options or {})
        fh.write(f"# columns: {columns}\n")
        for a, b in pairs:
            fh.write(f"{float(a)!r} {float(b)!r}\n")
    return path


def read_pairs(path: str | Path) -> np.ndarray:
    rows = []
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or not line.strip():
            continue
        a, b = line.split()
        rows.append((float(a), float(b)))
    return np.array(rows, dtype=np.float64).reshape(-1, 2)


def write_json(payload: dict[str, Any], path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
    return path


def embedding_options(spec: EmbeddingSpec) -> dict[str, Any]:
    return {"delay": spec.delay, "dimension": spec.dimension}
