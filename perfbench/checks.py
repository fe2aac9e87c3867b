"""Output checks of one benchmark run, made after the timed region.

Each check is one operation: it passes, or it fails with a reason (a
check that raises fails too).  The checks test the files a run left on
disk against oracles that do not share the code path under test:

* series samples against exact evaluations: the Kerr quadrature from
  ``evolve_diagonal`` at absolute time, the two-mode occupancy from a
  dense ``numpy.linalg.eigh`` of every sector (not ``eigen.decompose``);
* the recurrence-plot pairs against a brute-force |x_i - x_j| <= eps scan;
* return-time event totals and density counts against the series;
* the Lyapunov and classify JSON for a finite exponent, 0 <= R^2 <= 1 and
  a known label;
* ``RunManifest.verify`` for preset runs;
* data-file digests against the first run of the same seed.

They deliberately do not pin exponent values, which move a lot with the
series length.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from functools import partial
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from workloads import Inputs

KERR_TOL = 1e-9
TWO_MODE_TOL = 1e-8
MIN_SAMPLES = 8
# series files: magic, version, reserved, count, dt, padding
SERIES_HEADER = struct.Struct("<4sHHQd8x")
# reads and validates the run's series file when called
Series = Callable[[], np.ndarray]


class CheckFailed(Exception):
    pass


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def read_series_file(path: Path) -> tuple[float, np.ndarray]:
    raw = path.read_bytes()
    magic, _, _, count, dt = SERIES_HEADER.unpack_from(raw)
    expect(magic == b"WPRS", f"{path.name}: bad magic {magic!r}")
    expect(len(raw) == SERIES_HEADER.size + 8 * count, f"{path.name}: bad length")
    return dt, np.frombuffer(raw, dtype="<f8", offset=SERIES_HEADER.size)


def read_export(path: Path) -> tuple[dict[str, str], list[str]]:
    """``# key = value`` header and the data lines of a text export."""
    header = {}
    body = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].partition("=")
            if sep:
                header[key.strip()] = val.strip()
        elif line.strip():
            body.append(line)
    return header, body


def column_sum(rows: list[str], column: int) -> int:
    return sum(int(row.split()[column]) for row in rows)


def sample_indices(steps: int, block: int) -> np.ndarray:
    """Evenly spread indices plus the first block boundary and its neighbours."""
    idx = set(np.linspace(0, steps - 1, MIN_SAMPLES).astype(int).tolist())
    idx.update(k for k in (block - 1, block, block + 1) if 0 <= k < steps)
    return np.array(sorted(idx))


def check_kerr_series(inputs: Inputs, x: np.ndarray) -> None:
    from wplab import lab
    from wplab.fock import quadrature_expectation
    from wplab.kerr import evolve_diagonal, kerr_spectrum

    psi0 = lab.initial_field_state(inputs.nu, inputs.m)
    spec = kerr_spectrum(inputs.params["chi"], inputs.params["chi_prime"], psi0.n_max)
    block = min(10_000, 2_000_000 // (psi0.n_max + 1))
    for k in sample_indices(inputs.steps, block):
        exact = quadrature_expectation(evolve_diagonal(psi0, spec, k * inputs.dt))
        expect(
            abs(x[k] - exact) <= KERR_TOL,
            f"sample {k}: {x[k]!r} vs exact {exact!r}",
        )


def two_mode_occupancy(inputs: Inputs, times: np.ndarray) -> np.ndarray:
    """<a+a>(t) from a dense eigendecomposition of every sector."""
    from wplab import lab

    p = inputs.params
    amps = lab.initial_field_state(inputs.nu, inputs.m).amplitudes
    out = np.zeros(times.size)
    for N, c in enumerate(amps):
        weight = abs(c) ** 2
        if weight == 0.0:
            continue
        n = np.arange(N + 1, dtype=np.float64)
        h = np.diag(p["omega"] * (N - n) + p["omega0"] * n + p["gamma"] * n * (n - 1))
        i = np.arange(N)
        h[i, i + 1] = h[i + 1, i] = p["g"] * np.sqrt((i + 1) * (N - i))
        lam, v = np.linalg.eigh(h)
        # the sector starts in basis state n = 0 (second mode empty)
        u = (v[0] * np.exp(-1j * np.outer(times, lam))) @ v.T
        out += weight * (np.abs(u) ** 2 @ (N - n))
    return out


def check_two_mode_series(inputs: Inputs, x: np.ndarray) -> None:
    from wplab import lab

    n_max = lab.initial_field_state(inputs.nu, inputs.m).n_max
    block = min(10_000, 2_000_000 // (n_max + 1))
    idx = sample_indices(inputs.steps, block)
    exact = two_mode_occupancy(inputs, idx * inputs.dt)
    worst = int(np.argmax(np.abs(x[idx] - exact)))
    expect(
        abs(x[idx[worst]] - exact[worst]) <= TWO_MODE_TOL,
        f"sample {idx[worst]}: {x[idx[worst]]!r} vs dense eigh {exact[worst]!r}",
    )


def check_recurrence(path: Path, series: Series, options: dict) -> None:
    header, body = read_export(path)
    x = series()
    start = int(options.get("window_start", 0))
    length = int(options.get("window_len", min(4000, x.size)))
    w = x[start : start + length]
    eps = float(float(options.get("epsilon_frac", 0.1)) * np.std(w))
    expect(header["epsilon"] == repr(eps), f"epsilon {header['epsilon']} != {eps!r}")
    rows, cols = [], []
    for i0 in range(0, length - 1, 500):
        ii, jj = np.nonzero(np.abs(w[i0 : i0 + 500, None] - w[None, :]) <= eps)
        ii += i0
        keep = jj > ii
        rows.append(ii[keep])
        cols.append(jj[keep])
    brute = np.column_stack((np.concatenate(rows), np.concatenate(cols))) + start
    pairs = np.array(" ".join(body).split(), dtype=np.int64).reshape(-1, 2)
    expect(int(header["pairs"]) == len(brute), f"{header['pairs']} pairs in header")
    expect(len(pairs) == len(brute), f"{len(pairs)} pairs, brute force {len(brute)}")
    # the whole list, so its endpoints too
    expect(np.array_equal(pairs, brute), "pair lists differ")


def check_return_times(path: Path, series: Series, options: dict, gap: int) -> None:
    header, body = read_export(path)
    x = series()
    cell = options.get("cell")
    if cell is None:
        mid = float(np.median(x))
        half = float(options.get("cell_width", 0.01)) / 2.0
        lo, hi = mid - half, mid + half
    else:
        lo, hi = (float(v) for v in cell)
    expect(header["cell"] == f"{lo!r}:{hi!r}", f"cell {header['cell']}")
    inside = (x >= lo) & (x < hi)
    events = np.count_nonzero(inside[1:] & ~inside[:-1]) + int(inside[0])
    total = int(header["total_events"])
    expect(total == events - gap, f"total_events {total}, series has {events} events")
    expect(column_sum(body, 1) == total, "histogram counts do not sum to total")


def check_density(path: Path, steps: int) -> None:
    _, body = read_export(path)
    # only the count column: float columns are written with repr() of numpy
    # scalars, which reads "np.float64(...)" under numpy 2
    expect(column_sum(body, 1) == steps, "density counts do not sum to steps")


def check_lyapunov_json(path: Path, labelled: bool) -> None:
    payload = json.loads(path.read_text())
    lam = payload["lambda_max"]
    r2 = payload["fit_r2"]
    expect(math.isfinite(lam), f"lambda_max {lam}")
    expect(0.0 <= r2 <= 1.0, f"fit_r2 {r2}")
    if labelled:
        expect(payload["label"] in ("regular", "chaotic"), f"label {payload['label']}")


def check_manifest(out_dir: Path, preset: str) -> None:
    from wplab.lab import RunManifest

    m = json.loads((out_dir / f"{preset}_manifest.json").read_text())
    manifest = RunManifest(
        m["preset"], m["parameters"], m["outputs"], m["wall_time_s"],
        tuple(m["assumptions"]),
    )
    expect(manifest.verify(out_dir), "RunManifest.verify failed")


def data_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of every output except manifests, which record wall time."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if not p.name.endswith("_manifest.json")
    }


def check_digests(out_dir: Path, reference: dict[str, str]) -> None:
    digests = data_digests(out_dir)
    differ = sorted(
        k for k in set(digests) | set(reference) if digests.get(k) != reference.get(k)
    )
    expect(not differ, f"digests differ from the seed's first run: {differ}")


def plan(
    inputs: Inputs, out_dir: Path, reference: Optional[dict[str, str]]
) -> list[tuple[str, Callable[[], None]]]:
    """The checks that apply to a run of ``inputs`` written to ``out_dir``."""

    def series() -> np.ndarray:
        dt, x = read_series_file(out_dir / f"{inputs.stem}.wprs")
        expect(dt == inputs.dt, f"series dt {dt!r} != {inputs.dt!r}")
        expect(x.size == inputs.steps, f"{x.size} samples, expected {inputs.steps}")
        return x

    def export(name: str) -> Path:
        return out_dir / f"{inputs.stem}_{name}"

    check_series = check_kerr_series if inputs.model == "kerr" else check_two_mode_series
    steps = [("series", lambda: check_series(inputs, series()))]
    for task, options in inputs.tasks:
        if task == "rp":
            fn = partial(check_recurrence, export("rp.txt"), series, options)
        elif task in ("f1", "f2"):
            gap = 1 if task == "f1" else 2
            fn = partial(check_return_times, export(f"{task}.txt"), series, options, gap)
        elif task == "density":
            fn = partial(check_density, export("density.txt"), inputs.steps)
        elif task in ("lyapunov", "classify"):
            fn = partial(check_lyapunov_json, export(f"{task}.json"), task == "classify")
        else:
            continue
        steps.append((task, fn))
    if inputs.preset is not None:
        steps.append(("manifest", partial(check_manifest, out_dir, inputs.preset)))
    if reference is not None:
        steps.append(("digests", partial(check_digests, out_dir, reference)))
    return steps


def run_checks(
    inputs: Inputs, out_dir: Path, reference: Optional[dict[str, str]]
) -> list[dict[str, object]]:
    """One record ``{check, ok, error}`` per check."""
    records = []
    for name, fn in plan(inputs, out_dir, reference):
        try:
            fn()
            records.append({"check": name, "ok": True, "error": ""})
        except Exception as exc:  # noqa: BLE001 - a check that raises fails
            records.append(
                {"check": name, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )
    return records
