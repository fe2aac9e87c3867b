"""Experiment driver: simulation, analysis dispatch, run manifests.

``simulate`` writes binary series files, ``analyze`` runs one analysis
task against a series file and writes its text export, ``run_preset``
chains both for the preset catalogue and returns a manifest with
content digests.  Reruns of a preset produce byte-identical data files;
the manifest additionally records wall time and assumptions.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Optional

import numpy as np

from . import svg as svgmod
from .bipartite import TwoModeParams, decompose_initial, occupancy_series
from .embed import (
    EmbeddingSpec,
    classify,
    false_nearest_neighbors,
    lyapunov_kantz,
    lyapunov_rosenstein,
    mutual_information_delay,
)
from .fock import FockState, TruncationPolicy, choose_truncation, pacs_amplitudes
from .kerr import generate_series_x, kerr_spectrum
from .presets import PRESETS, AnalysisTask, ExperimentPreset, TablePreset, get_preset
from .recur import (
    Cell,
    first_return_times,
    invariant_density,
    recurrence_matrix,
    return_map,
    second_return_times,
)
from .series import TimeSeries
from . import seriesio

ANALYSIS_TASKS = (
    "f1",
    "f2",
    "density",
    "returnmap",
    "rp",
    "mi",
    "fnn",
    "lyapunov",
    "classify",
)


@dataclass(frozen=True)
class RunManifest:
    preset: str
    parameters: dict[str, Any]
    outputs: list[dict[str, Any]]  # path, sha256, bytes
    wall_time_s: float
    assumptions: tuple[str, ...] = ()

    def verify(self, base: str | Path = ".") -> bool:
        base = Path(base)
        for rec in self.outputs:
            p = base / rec["path"]
            if not p.exists() or _sha256(p) != rec["sha256"]:
                return False
        return True


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    h.update(path.read_bytes())
    return h.hexdigest()


def initial_field_state(
    nu: float, m: int, epsilon_trunc: float = 1e-12, n_max_cap: int = 4096
) -> FockState:
    """Photon-added coherent state at real alpha = sqrt(nu), auto-truncated."""
    alpha = math.sqrt(nu)
    n_max = choose_truncation(alpha, m, TruncationPolicy(epsilon_trunc, n_max_cap))
    return pacs_amplitudes(alpha, m, n_max, epsilon_trunc)


def simulate_series(
    model: str,
    params: dict[str, float],
    nu: float,
    m: int,
    dt: float,
    steps: int,
) -> TimeSeries:
    """Generate the observable series for one model configuration."""
    state = initial_field_state(nu, m)
    if model == "kerr":
        spec = kerr_spectrum(params["chi"], params["chi_prime"], state.n_max)
        return generate_series_x(state, spec, dt, steps)
    if model == "bipartite":
        p = TwoModeParams(
            omega=params.get("omega", 1.0),
            omega0=params.get("omega0", 1.0),
            gamma=params.get("gamma", 0.0),
            g=params.get("g", 1.0),
        )
        sectors = decompose_initial(state, p)
        return occupancy_series(sectors, p, dt, steps).field
    raise ValueError(f"unknown model {model!r} (expected 'kerr' or 'bipartite')")


def simulate(
    model: str,
    params: dict[str, float],
    initial: tuple[float, int],
    dt: float,
    steps: int,
    out: str | Path,
) -> Path:
    """Run a simulation and write the series file (plus metadata sidecar)."""
    nu, m = initial
    ts = simulate_series(model, params, nu, m, dt, steps)
    return seriesio.write_series(ts, out)


def _parse_cell(value, series: TimeSeries, width: float = 0.01) -> Cell:
    """Cell from an option value; half-open median-centered cell by default."""
    if value is None:
        mid = float(np.median(series.values))
        return Cell(mid - width / 2.0, mid + width / 2.0)
    if isinstance(value, Cell):
        return value
    if isinstance(value, str):
        lo, _, hi = value.partition(":")
        return Cell(float(lo), float(hi))
    lo, hi = value
    return Cell(float(lo), float(hi))


def choose_embedding(
    series: TimeSeries, options: dict[str, Any]
) -> tuple[EmbeddingSpec, dict[str, Any]]:
    """Delay from the mutual-information minimum, dimension from FNN.

    Explicit ``delay``/``dimension`` options short-circuit the automatic
    choice.  When FNN never drops below 1%, the smallest dimension under
    5% is used (flagged), else d_max.
    """
    info: dict[str, Any] = {}
    delay = options.get("delay")
    if delay is None:
        mi = mutual_information_delay(
            series,
            max_lag=int(options.get("max_lag", min(1000, max(20, len(series) // 100)))),
            bins=int(options.get("bins", 16)),
            min_window=int(options.get("min_window", 5)),
        )
        delay = mi.lag
        info["mi_lag"] = mi.lag
        info["mi_has_minimum"] = mi.has_minimum
    dimension = options.get("dimension")
    if dimension is None:
        fnn = false_nearest_neighbors(
            series,
            delay=int(delay),
            d_max=int(options.get("d_max", 8)),
            r_tol=float(options.get("r_tol", 15.0)),
        )
        info["fnn_fractions"] = [round(float(f), 6) for f in fnn.fnn_fractions]
        if fnn.dimension is not None:
            dimension = fnn.dimension
        else:
            under = np.flatnonzero(fnn.fnn_fractions < 0.05)
            dimension = int(under[0]) + 1 if under.size else int(
                options.get("d_max", 8)
            )
            info["fnn_relaxed"] = True
        info["fnn_dimension"] = int(dimension)
    return EmbeddingSpec(int(delay), int(dimension)), info


def _run_lyapunov(series: TimeSeries, options: dict[str, Any]):
    spec, info = choose_embedding(series, options)
    theiler = int(options.get("theiler", 2 * spec.delay))
    horizon = int(options.get("horizon", 50 * spec.delay))
    method = options.get("method", "rosenstein")
    stride = int(options.get("curve_stride", max(1, horizon // 200)))
    max_ref = int(options.get("max_reference", 4000))
    if method == "rosenstein":
        result = lyapunov_rosenstein(
            series, spec, theiler, horizon, max_reference=max_ref, curve_stride=stride
        )
    elif method == "kantz":
        result = lyapunov_kantz(
            series,
            spec,
            theiler,
            float(options.get("epsilon_frac", 0.2)),
            horizon,
            max_reference=max_ref,
            curve_stride=stride,
        )
    else:
        raise ValueError(f"unknown lyapunov method {method!r}")
    info.update(theiler=theiler, horizon=horizon, method=method)
    return result, info


def _lyapunov_payload(result, info) -> dict[str, Any]:
    return {
        "lambda_max": result.lambda_max,
        "fit_range": list(result.fit_range),
        "fit_r2": result.fit_r2,
        "fallback_fit": result.fallback_fit,
        "method": result.method,
        "embedding": {
            "delay": result.embedding.delay,
            "dimension": result.embedding.dimension,
        },
        "selection": info,
    }


def analyze(
    task: str,
    series_file: str | Path,
    options: Optional[dict[str, Any]] = None,
    out_dir: Optional[str | Path] = None,
    svg: bool = False,
) -> list[Path]:
    """Run one analysis task against a series file; returns written paths."""
    if task not in ANALYSIS_TASKS:
        raise ValueError(
            f"unknown task {task!r}; expected one of {', '.join(ANALYSIS_TASKS)}"
        )
    options = dict(options or {})
    series_file = Path(series_file)
    out_dir = Path(out_dir) if out_dir is not None else series_file.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = series_file.name.removesuffix(".wprs")
    ts = seriesio.read_series(series_file)
    written: list[Path] = []

    def out_path(suffix: str) -> Path:
        return out_dir / f"{stem}_{suffix}"

    try:
        _dispatch_analysis(task, ts, options, out_path, written, svg)
    except BaseException:
        for p in written:
            Path(p).unlink(missing_ok=True)
        raise
    return written


def _dispatch_analysis(
    task: str,
    ts: TimeSeries,
    options: dict[str, Any],
    out_path,
    written: list[Path],
    svg: bool,
) -> None:
    if task in ("f1", "f2"):
        cell = _parse_cell(options.get("cell"), ts, float(options.get("cell_width", 0.01)))
        mode = options.get("mode", "entry")
        hist_fn = first_return_times if task == "f1" else second_return_times
        h = hist_fn(ts, cell, mode)
        written.append(
            seriesio.write_histogram(h, out_path(f"{task}.txt"), cell=cell, kind=task)
        )
        if svg:
            written.append(
                svgmod.bars_svg(
                    h.taus(), h.count_array(), out_path(f"{task}.svg"), f"{task} histogram"
                )
            )
    elif task == "density":
        d = invariant_density(ts, float(options.get("bin_width", 0.01)))
        written.append(seriesio.write_density(d, out_path("density.txt")))
        if svg:
            written.append(
                svgmod.curve_svg(
                    d.centers(), d.density(), out_path("density.svg"), "invariant density"
                )
            )
    elif task == "returnmap":
        pairs = return_map(ts, use_maxima=bool(options.get("use_maxima", True)))
        written.append(
            seriesio.write_pairs(
                pairs,
                out_path("returnmap.txt"),
                "return map",
                "max_k max_k+1",
                {"use_maxima": options.get("use_maxima", True), "pairs": len(pairs)},
            )
        )
        if svg:
            written.append(
                svgmod.points_svg(
                    pairs[:, 0], pairs[:, 1], out_path("returnmap.svg"), "return map"
                )
            )
    elif task == "rp":
        spec = None
        if "delay" in options and "dimension" in options:
            spec = EmbeddingSpec(int(options["delay"]), int(options["dimension"]))
        rp = recurrence_matrix(
            ts,
            int(options.get("window_start", 0)),
            int(options.get("window_len", min(4000, len(ts)))),
            float(options.get("epsilon_frac", 0.1)),
            embed=spec,
        )
        written.append(seriesio.write_recurrence(rp, out_path("rp.txt")))
        if svg:
            written.append(
                svgmod.points_svg(
                    rp.pairs[:, 0], rp.pairs[:, 1], out_path("rp.svg"), "recurrence plot"
                )
            )
    elif task == "mi":
        mi = mutual_information_delay(
            ts,
            max_lag=int(options.get("max_lag", min(1000, max(20, len(ts) // 100)))),
            bins=int(options.get("bins", 16)),
            min_window=int(options.get("min_window", 5)),
        )
        curve = np.column_stack((np.arange(1, mi.curve.size + 1), mi.curve))
        written.append(
            seriesio.write_pairs(
                curve,
                out_path("mi.txt"),
                "mutual information",
                "lag mi_nats",
                {"lag": mi.lag, "has_minimum": mi.has_minimum},
            )
        )
    elif task == "fnn":
        if "delay" not in options:
            raise ValueError("fnn requires a 'delay' option")
        f = false_nearest_neighbors(
            ts,
            delay=int(options["delay"]),
            d_max=int(options.get("d_max", 8)),
            r_tol=float(options.get("r_tol", 15.0)),
        )
        curve = np.column_stack(
            (np.arange(1, f.fnn_fractions.size + 1), f.fnn_fractions)
        )
        written.append(
            seriesio.write_pairs(
                curve,
                out_path("fnn.txt"),
                "false nearest neighbors",
                "dimension fraction",
                {"dimension": f.dimension, "delay": int(options["delay"])},
            )
        )
    elif task == "lyapunov":
        result, info = _run_lyapunov(ts, options)
        written.append(
            seriesio.write_pairs(
                result.divergence_curve,
                out_path("lyapunov.txt"),
                "divergence curve",
                "delta_k mean_log_distance",
                {
                    "lambda_max": repr(float(result.lambda_max)),
                    "fit_range": f"{result.fit_range[0]}:{result.fit_range[1]}",
                    "fit_r2": repr(float(result.fit_r2)),
                    "method": result.method,
                    "delay": result.embedding.delay,
                    "dimension": result.embedding.dimension,
                },
            )
        )
        written.append(
            seriesio.write_json(_lyapunov_payload(result, info), out_path("lyapunov.json"))
        )
        if svg:
            written.append(
                svgmod.curve_svg(
                    result.divergence_curve[:, 0],
                    result.divergence_curve[:, 1],
                    out_path("lyapunov.svg"),
                    "divergence curve",
                )
            )
    elif task == "classify":
        result, info = _run_lyapunov(ts, options)
        verdict = classify(result, float(options.get("threshold", 0.01)))
        payload = _lyapunov_payload(result, info)
        payload.update(label=verdict.label, ambiguous=verdict.ambiguous)
        written.append(seriesio.write_json(payload, out_path("classify.json")))


def list_presets() -> list[str]:
    return sorted(PRESETS)


def _resolve_steps(preset, steps: Optional[int], full_scale: bool) -> int:
    if steps is not None:
        return int(steps)
    return preset.full_steps if full_scale else preset.steps


def _check_steps(preset, steps: int) -> None:
    """Reject a series length the preset's analyses cannot use.

    Runs before any simulation: a recurrence window must fit the series,
    and a Lyapunov fit needs more than 10 * horizon samples.
    """
    horizons = []
    if isinstance(preset, TablePreset):
        horizons.append(preset.lyapunov_options.get("horizon"))
    else:
        for item in preset.analyses:
            if item.task == "rp":
                end = int(item.options.get("window_start", 0)) + int(
                    item.options.get("window_len", min(4000, steps))
                )
                if end > steps:
                    raise ValueError(
                        f"{preset.id}: recurrence window ending at {end} does not "
                        f"fit {steps} steps"
                    )
            elif item.task in ("lyapunov", "classify"):
                horizons.append(item.options.get("horizon"))
    for horizon in horizons:
        if horizon is not None and steps <= 10 * int(horizon):
            raise ValueError(
                f"{preset.id}: Lyapunov horizon {horizon} needs more than "
                f"{10 * int(horizon)} steps, got {steps}"
            )


def _preset_outputs(
    preset: ExperimentPreset,
    out_dir: Path,
    steps: int,
    dt: float,
    svg: bool,
    written: list[Path],
) -> None:
    series_path = out_dir / f"{preset.id}_series.wprs"
    ts = simulate_series(preset.model, preset.params, preset.nu, preset.m, dt, steps)
    written.append(series_path)
    written.append(series_path.with_name(series_path.name + ".meta.json"))
    seriesio.write_series(ts, series_path)
    for item in preset.analyses:
        written.extend(analyze(item.task, series_path, item.options, out_dir, svg=svg))


def _table_outputs(
    preset: TablePreset, out_dir: Path, steps: int, dt: float, written: list[Path]
) -> None:
    rows = []
    for entry in preset.entries:
        ts = simulate_series(entry.model, entry.params, entry.nu, entry.m, dt, steps)
        result, info = _run_lyapunov(ts, dict(preset.lyapunov_options))
        verdict = classify(result, float(preset.lyapunov_options.get("threshold", 0.01)))
        rows.append(
            {
                "label": entry.label,
                "gamma_over_g": entry.params["gamma"] / entry.params["g"],
                "nu": entry.nu,
                "m": entry.m,
                "lambda_max": result.lambda_max,
                "fit_r2": result.fit_r2,
                "label_dynamics": verdict.label,
                "ambiguous": verdict.ambiguous,
                "embedding": {
                    "delay": result.embedding.delay,
                    "dimension": result.embedding.dimension,
                },
            }
        )
    json_path = out_dir / "table1.json"
    written.append(json_path)
    seriesio.write_json({"rows": rows}, json_path)
    txt_path = out_dir / "table1.txt"
    written.append(txt_path)
    with open(txt_path, "w") as fh:
        fh.write("# wplab classification table\n")
        fh.write("# columns: gamma_over_g nu m lambda_max dynamics\n")
        for r in rows:
            fh.write(
                f"{r['gamma_over_g']:g} {r['nu']:g} {r['m']} "
                f"{float(r['lambda_max'])!r} {r['label_dynamics']}\n"
            )


def run_preset(
    preset_id: str,
    out_dir: str | Path = ".",
    steps: Optional[int] = None,
    dt: Optional[float] = None,
    full_scale: bool = False,
    svg: bool = False,
) -> RunManifest:
    """Generate a preset's series, run its analyses, write a manifest."""
    preset = get_preset(preset_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_steps = _resolve_steps(preset, steps, full_scale)
    run_dt = float(dt) if dt is not None else preset.dt
    _check_steps(preset, run_steps)

    t0 = time.perf_counter()
    # filled as each file is written, so a failure removes what exists
    written: list[Path] = []
    try:
        if isinstance(preset, TablePreset):
            _table_outputs(preset, out_dir, run_steps, run_dt, written)
            parameters: dict[str, Any] = {
                "entries": [e.label for e in preset.entries],
                "dt": run_dt,
                "steps": run_steps,
            }
        else:
            _preset_outputs(preset, out_dir, run_steps, run_dt, svg, written)
            parameters = {
                "model": preset.model,
                "nu": preset.nu,
                "m": preset.m,
                **preset.params,
                "dt": run_dt,
                "steps": run_steps,
            }
    except BaseException:
        for p in written:
            Path(p).unlink(missing_ok=True)
        raise
    wall = time.perf_counter() - t0

    outputs = [
        {
            "path": str(Path(p).relative_to(out_dir)),
            "sha256": _sha256(Path(p)),
            "bytes": Path(p).stat().st_size,
        }
        for p in written
    ]
    manifest = RunManifest(
        preset=preset_id,
        parameters=parameters,
        outputs=outputs,
        wall_time_s=wall,
        assumptions=tuple(preset.notes),
    )
    seriesio.write_json(
        {
            "preset": manifest.preset,
            "parameters": manifest.parameters,
            "outputs": manifest.outputs,
            "wall_time_s": manifest.wall_time_s,
            "assumptions": list(manifest.assumptions),
        },
        out_dir / f"{preset_id}_manifest.json",
    )
    return manifest
