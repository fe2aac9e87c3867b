"""Experiment driver: simulation, analysis dispatch, run manifests.

``simulate`` writes binary series files, ``analyze`` runs one analysis
task against a series file and writes its text export, ``run_preset``
simulates a preset's series, writes it and runs the preset's tasks on
the series still in memory (each task's options resolved once, before
the simulation), and returns a manifest with content digests.  Both
paths run a task through ``_run_task``, so an ``analyze`` of a preset's
series file reproduces the preset's exports byte for byte.  Reruns of a
preset produce byte-identical data files
as long as the BLAS thread count and OpenBLAS's CPU kernel stay the
same: the spectral kernel's GEMM rounds differently under either.  The
manifest's parameters are what the run computed, its series metadata
plus ``dt``, not the preset's fields restated.  It additionally
records wall time, each task's wall time and the peak RSS after it,
assumptions and the BLAS (``blas_environment``), which names the
kernel and thread count.
"""

from __future__ import annotations

import ctypes
import json
import math
import numbers
import os
import resource
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from . import embed, openblas, recur
from . import svg as svgmod
from .bipartite import (
    TwoModeParams,
    decompose_initial,
    occupancy_series,
    sector_eigensolver,
)
from .embed import (
    EmbeddingSpec,
    classify,
    false_nearest_neighbors,
    lyapunov_kantz,  # no run path calls it; perfbench/spans.py patches it by name
    lyapunov_rosenstein,
    mutual_information_delay,
)
from .fock import (
    N_MAX_CAP,
    CapExceededError,
    FockState,
    choose_truncation,
    pacs_amplitudes,
)
from .kerr import KerrParams, generate_series_x, kerr_spectrum
from .presets import PRESETS, ExperimentPreset, TablePreset, get_preset
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
    # the series' metadata plus dt; a table's are its entries' metadata
    # by entry id, steps and dt
    parameters: dict[str, Any]
    outputs: list[dict[str, Any]]  # path, sha256, bytes
    wall_time_s: float
    assumptions: tuple[str, ...] = ()
    blas: dict[str, Any] = field(default_factory=dict)  # blas_environment()
    # one record per task in run order: task (and entry, in a table
    # preset), wall_s, and the process's peak_rss_mb once it ended
    stages: list[dict[str, Any]] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "RunManifest":
        """The manifest ``run_preset`` wrote to ``path``; ``OSError`` when it
        cannot be read, ``ValueError`` when it is not such a manifest or an
        output path does not lie beside it (absolute, or with a ``..`` part)."""
        try:
            data = json.loads(Path(path).read_text())
            manifest = cls(**data)
            for rec in manifest.outputs:
                if not all(isinstance(rec[key], str) for key in ("path", "sha256")):
                    raise TypeError(f"output record {rec!r} has no path or sha256 text")
                out = Path(rec["path"])
                if out.is_absolute() or ".." in out.parts:
                    raise ValueError(f"output path {rec['path']!r} leaves its directory")
        except (TypeError, KeyError, ValueError) as exc:
            raise ValueError(f"{path} is not a run manifest: {exc}") from None
        return manifest

    def mismatch(self, base: str | Path = ".") -> Optional[str]:
        """The first output missing under ``base`` or differing from its
        recorded digest, as a message, or None when all match."""
        base = Path(base)
        for rec in self.outputs:
            p = base / rec["path"]
            if not p.is_file():
                return f"{rec['path']} is missing"
            if _sha256(p) != rec["sha256"]:
                return f"{rec['path']} has changed"
        return None

    def verify(self, base: str | Path = ".") -> bool:
        return self.mismatch(base) is None


# environment variables that set OpenBLAS's thread count and CPU kernel
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_CORETYPE")


def _openblas_runtime() -> tuple[Optional[str], Optional[int]]:
    """Configuration string and thread count of the OpenBLAS numpy uses,
    or None for each when numpy's BLAS is not OpenBLAS.

    numpy's ``show_config`` holds the configuration of the build host,
    so the CPU kernel chosen at load time is asked of the library.
    """
    get_config = openblas.symbol("openblas_get_config")
    get_threads = openblas.symbol("openblas_get_num_threads")
    if get_config is None or get_threads is None:
        return None, None
    get_config, get_threads = get_config[1], get_threads[1]
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    return get_config().decode("ascii", "replace"), get_threads()


def blas_environment() -> dict[str, Any]:
    """numpy's BLAS: name and version, the run-time OpenBLAS configuration
    (it names the CPU kernel) and thread count, the routine that solves
    the two-mode sectors, and ``BLAS_VARIABLES``."""
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except TypeError:  # numpy < 1.26 has no mode, and only prints
        info = {}
    config, threads = _openblas_runtime()
    return {
        "name": info.get("name"),
        "version": info.get("version"),
        "openblas_config": config,
        "threads": threads,
        "sector_eigensolver": sector_eigensolver(),
        **{var: os.environ.get(var) for var in BLAS_VARIABLES},
    }


# an output is hashed a block at a time, never held whole (Python 3.10,
# which pyproject.toml supports, has no hashlib.file_digest)
_HASH_BLOCK = 1 << 20


def _sha256(path: Path) -> str:
    import hashlib  # maps OpenSSL (3.6 MB of RSS), which only manifests need

    digest = hashlib.sha256()
    with path.open("rb") as f:
        while block := f.read(_HASH_BLOCK):
            digest.update(block)
    return digest.hexdigest()


class OptionError(ValueError):
    """Bad input found before any work: a preset id, model input or option."""


def _is(value, kind: type) -> bool:
    """``value`` is an instance of the ``numbers`` class ``kind``, not a bool."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _check_grid(dt, steps) -> None:
    """``OptionError`` unless dt is a finite positive real and steps an
    integer >= 1 (bools are neither)."""
    if not (_is(dt, numbers.Real) and math.isfinite(dt) and dt > 0):
        raise OptionError(f"dt must be finite and positive, got {dt!r}")
    if not (_is(steps, numbers.Integral) and steps >= 1):
        raise OptionError(f"steps must be an integer >= 1, got {steps!r}")


def initial_field_state(nu: float, m: int) -> FockState:
    """Photon-added coherent state at real alpha = sqrt(nu), auto-truncated;
    ``OptionError`` when no basis within ``N_MAX_CAP`` holds it."""
    alpha = math.sqrt(nu)
    try:
        n_max = choose_truncation(alpha, m)
    except CapExceededError as exc:
        raise OptionError(f"nu and m exceed the Fock basis cap: {exc}") from None
    return pacs_amplitudes(alpha, m, n_max)


# model name: (parameter class, series builder(p, state, dt, steps, meta)).  A
# builder finds its stages in this module when it runs, where tracing wraps them.
MODELS: dict[str, tuple[type, Callable[..., TimeSeries]]] = {
    "kerr": (KerrParams, lambda p, state, *run: generate_series_x(
        state, kerr_spectrum(p.chi, p.chi_prime, state.n_max), *run)),
    "bipartite": (TwoModeParams, lambda p, state, *run: occupancy_series(
        decompose_initial(state, p), *run).field),
}


def simulate_series(
    model: str,
    params: dict[str, float],
    nu: float,
    m: int,
    dt: float,
    steps: int,
) -> TimeSeries:
    """Generate the observable series of ``model``, a key of ``MODELS``.

    The parameters, ``nu``, ``m``, ``dt`` and ``steps`` are checked before
    any state is prepared; bad input raises ``OptionError``.  The run's
    inputs are the series metadata, written here once; the model adds
    only what it computed.
    """
    if model not in MODELS:
        raise OptionError(f"unknown model {model!r}; expected one of {', '.join(MODELS)}")
    model_params, builder = MODELS[model]
    try:
        p = model_params(**params)  # rejects a missing, unknown or bad field
    except (TypeError, ValueError) as exc:
        raise OptionError(f"model {model!r}: {exc}") from None
    _check_grid(dt, steps)
    if not (_is(nu, numbers.Real) and math.isfinite(nu) and nu >= 0):
        raise OptionError(f"nu must be finite and nonnegative, got {nu!r}")
    # n_max >= m + 1 cannot fit under the basis cap once m reaches it
    if not (_is(m, numbers.Integral) and 0 <= m < N_MAX_CAP):
        raise OptionError(f"m must be an integer in [0, {N_MAX_CAP}), got {m!r}")
    meta = {"model": model, **asdict(p), "nu": float(nu), "m": int(m), "steps": steps}
    return builder(p, initial_field_state(nu, m), dt, steps, meta)


def simulate(
    model: str,
    params: dict[str, float],
    initial: tuple[float, int],
    dt: float,
    steps: int,
    out: str | Path,
) -> Path:
    """Run a simulation and write the series file (plus metadata sidecar);
    a failed write leaves neither file."""
    nu, m = initial
    ts = simulate_series(model, params, nu, m, dt, steps)
    out = Path(out)
    with _removed_on_failure([out, out.with_name(out.name + ".meta.json")]):
        return seriesio.write_series(ts, out)


# fixed analysis settings: no caller needs another value
CELL_WIDTH = 0.01  # width of the default median-centred return-time cell
RP_EPSILON_FRAC = 0.1  # recurrence radius over the rp window's std
RP_WINDOW_LEN = 4000  # rp window from sample 0: min(RP_WINDOW_LEN, samples)


def _theiler(delay: int) -> int:
    """The Theiler window of a divergence estimate at ``delay``."""
    return 2 * delay


def integer(value) -> int:
    """An integer, or its decimal text."""
    if isinstance(value, str):
        return int(value)
    if not _is(value, numbers.Integral):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def number(value) -> float:
    """A real number, or its text."""
    if isinstance(value, str):
        return float(value)
    if not _is(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


def integer_from(low: int) -> Callable[[Any], int]:
    """``integer``, rejecting values below ``low``."""

    def convert(value) -> int:
        value = integer(value)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value

    # argparse names the type in its "invalid <type> value" message
    convert.__name__ = f"integer >= {low}"
    return convert


def positive(value) -> float:
    """``number``, rejecting values that are not above zero or not
    finite (NaN and infinity)."""
    value = number(value)
    if not (value > 0 and math.isfinite(value)):
        raise ValueError(f"expected a finite positive number, got {value!r}")
    return value


def cell(value) -> Cell:
    """A ``Cell``, a ``(lo, hi)`` pair or ``"LO:HI"`` text."""
    if isinstance(value, Cell):
        return value
    if isinstance(value, str):
        lo, sep, hi = value.partition(":")
        if not sep:
            raise ValueError(f"expected LO:HI, got {value!r}")
        value = (lo, hi)
    lo, hi = value
    return Cell(number(lo), number(hi))


def _median_cell(series: TimeSeries) -> Cell:
    """The cell of width ``CELL_WIDTH`` centred on the series' median.

    The median is ``np.median``'s, bit for bit (the middle order
    statistic, or the mean of the middle two), taken from
    ``np.partition``: ``np.median`` imports ``numpy.ma`` (14 ms), which
    nothing else on the two-mode analysis path does.
    """
    v = series.values
    half = v.size // 2
    if v.size % 2:
        mid = float(np.partition(v, half)[half])
    else:
        low, high = np.partition(v, (half - 1, half))[half - 1 : half + 1]
        mid = float((low + high) / 2.0)
    return Cell(mid - CELL_WIDTH / 2.0, mid + CELL_WIDTH / 2.0)


@dataclass(frozen=True)
class Option:
    """One analysis option: conversion, default, owning tasks, help.

    ``type`` converts a given value and raises ``TypeError`` or
    ``ValueError`` for one of the wrong kind or out of range, so that a
    bad value is a usage error before any work.

    ``default`` is a value, or a function: a default derived from the
    series, which the resolver leaves as None and ``_derived`` computes
    once its inputs (named in the help) are known.
    """

    type: Callable[[Any], Any]
    default: Any
    tasks: tuple[str, ...]
    help: str


_LYAPUNOV = ("lyapunov", "classify")

OPTIONS: dict[str, Option] = {
    "cell": Option(
        cell, _median_cell, ("f1", "f2"),
        f"LO:HI value cell [median-centred, width {CELL_WIDTH:g}]",
    ),
    "bin_width": Option(positive, 0.01, ("density",), "value bin width"),
    "delay": Option(
        integer_from(1), None, ("rp", "fnn", *_LYAPUNOV),
        "embedding delay in samples [mutual-information minimum]",
    ),
    "dimension": Option(
        integer_from(1), None, ("rp", *_LYAPUNOV),
        "embedding dimension [false nearest neighbours]",
    ),
    "max_lag": Option(
        integer_from(1), lambda samples: min(1000, max(20, samples // 100)),
        ("mi", *_LYAPUNOV), "largest lag searched [min(1000, max(20, samples // 100))]",
    ),
    "horizon": Option(
        integer_from(2), lambda delay: 50 * delay, _LYAPUNOV,
        "divergence horizon in samples [50 * delay]",
    ),
}


def resolve_options(task: str, options: Optional[dict[str, Any]]) -> dict[str, Any]:
    """Check ``options`` against ``task`` and fill in its defaults.

    Every option the task owns gets a value; a derived default stays
    None (see ``_derived``), as does an unset embedding.  A None value
    counts as unset, so a resolved dict resolves to itself.  Raises
    ``OptionError`` naming the task and the key.
    """
    if task not in ANALYSIS_TASKS:
        raise OptionError(
            f"unknown task {task!r}; expected one of {', '.join(ANALYSIS_TASKS)}"
        )
    given = {k: v for k, v in (options or {}).items() if v is not None}
    foreign = [k for k in given if k not in OPTIONS or task not in OPTIONS[k].tasks]
    if foreign:
        names = ", ".join(map(repr, sorted(foreign)))
        raise OptionError(f"task {task!r} takes no option {names}")
    resolved = {}
    for name, opt in OPTIONS.items():
        if task not in opt.tasks:
            continue
        if name not in given:
            resolved[name] = None if callable(opt.default) else opt.default
            continue
        try:
            value = opt.type(given[name])
        except (TypeError, ValueError) as exc:
            raise OptionError(f"task {task!r}, option {name!r}: {exc}") from None
        resolved[name] = value
    if task == "fnn" and resolved["delay"] is None:
        raise OptionError("task 'fnn' requires option 'delay'")
    if task == "rp" and (resolved["delay"] is None) != (resolved["dimension"] is None):
        raise OptionError("task 'rp' takes options 'delay' and 'dimension' together")
    return resolved


def _derived(options: dict[str, Any], name: str, *inputs):
    """A resolved option's value, or its default derived from ``inputs``."""
    value = options[name]
    return OPTIONS[name].default(*inputs) if value is None else value


def _lyapunov_report(task: str, series: TimeSeries, options: dict[str, Any]):
    """The Lyapunov estimate of ``series`` and its json payload.

    ``options`` are the resolved options of ``task``, "lyapunov" or
    "classify"; an explicit ``delay`` or ``dimension`` skips its search.
    The delay is the first minimum of the mutual information, where the
    search stops; a horizon, explicit or derived from the delay, that
    the series cannot fit is rejected there, before FNN
    (``_check_lengths``).  FNN decides the dimension
    (``FnnResult.chosen``) and hands on its KD-tree over that embedding,
    if it has one, to Rosenstein's estimate once the embedded length is
    checked.  ``selection`` records what was searched: ``mi_lag`` and
    ``mi_has_minimum``; ``fnn_fractions`` as far as FNN scanned,
    ``fnn_relaxed`` when no fraction is under 1%, and ``fnn_dimension``;
    then always ``theiler``, ``horizon`` and ``method``.  For "classify"
    the payload adds the verdict.  The ``lyapunov`` and ``classify`` json
    exports and the rows of a table preset are this payload.
    """
    info: dict[str, Any] = {}
    delay, dimension, grid = options["delay"], options["dimension"], None
    if delay is None:
        max_lag = _derived(options, "max_lag", len(series))
        mi = mutual_information_delay(series, max_lag, stop_at_minimum=True)
        delay = info["mi_lag"] = mi.lag
        info["mi_has_minimum"] = mi.has_minimum
    _check_lengths(task, options, len(series), delay=delay)
    if dimension is None:
        fnn = false_nearest_neighbors(series, delay)
        info["fnn_fractions"] = [round(float(f), 6) for f in fnn.fnn_fractions]
        if fnn.dimension is None:
            info["fnn_relaxed"] = True
        dimension = info["fnn_dimension"] = fnn.chosen
        grid = fnn.grid
    _check_lengths(task, options, len(series), delay=delay, dimension=dimension)
    theiler = _theiler(delay)
    horizon = _derived(options, "horizon", delay)
    spec = EmbeddingSpec(delay, dimension)
    result = lyapunov_rosenstein(series, spec, theiler, horizon, grid=grid)
    info.update(theiler=theiler, horizon=horizon, method="rosenstein")
    payload = {
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
    if task == "classify":
        verdict = classify(result)
        payload.update(label=verdict.label, ambiguous=verdict.ambiguous)
    return result, payload


@contextmanager
def _removed_on_failure(written: list[Path]):
    """Remove every path in ``written``, each listed before its write, on a raise."""
    try:
        yield
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise


def analyze(
    task: str,
    series_file: str | Path,
    options: Optional[dict[str, Any]] = None,
    out_dir: Optional[str | Path] = None,
    svg: bool = False,
) -> list[Path]:
    """Run one analysis task against a series file; returns written paths.

    The options are resolved (``resolve_options``) before the series is
    read, and checked against its length (``_check_lengths``) before any
    work.
    """
    options = resolve_options(task, options)
    series_file = Path(series_file)
    out_dir = Path(out_dir) if out_dir is not None else series_file.parent
    stem = out_dir / series_file.name.removesuffix(".wprs")
    ts = seriesio.read_series(series_file)
    _check_lengths(task, options, len(ts))
    written: list[Path] = []
    with _removed_on_failure(written):
        _run_task(task, ts, options, stem, svg, written)
    return written


def _run_task(
    task: str, ts: TimeSeries, options: dict[str, Any], stem: Path, svg: bool,
    written: list[Path],
) -> None:
    """Write the task's exports of ``ts``, and its svg when asked, as
    ``<stem>_<task>.<suffix>``; ``options`` are resolved.

    Each path joins ``written`` before its write, for the caller's cleanup.
    """

    def out_path(suffix: str) -> Path:
        written.append(Path(f"{stem}_{task}.{suffix}"))
        return written[-1]

    plot = None  # (svg writer, x, y, title)
    if task in ("f1", "f2"):
        value_cell = _derived(options, "cell", ts)
        hist_fn = first_return_times if task == "f1" else second_return_times
        h = hist_fn(ts, value_cell)
        seriesio.write_histogram(h, out_path("txt"), cell=value_cell, kind=task)
        plot = (svgmod.bars_svg, h.taus, h.counts, f"{task} histogram")
    elif task == "density":
        try:  # the bin-count rule needs the series' range; nothing is written yet
            d = invariant_density(ts, options["bin_width"])
        except ValueError as exc:
            raise OptionError(f"task 'density', option 'bin_width': {exc}") from None
        seriesio.write_density(d, out_path("txt"))
        plot = (svgmod.curve_svg, d.centers(), d.density(), "invariant density")
    elif task == "returnmap":
        pairs = return_map(ts)
        seriesio.write_pairs(
            pairs,
            out_path("txt"),
            "return map",
            "max_k max_k+1",
            {"use_maxima": True, "pairs": len(pairs)},
        )
        plot = (svgmod.points_svg, pairs[:, 0], pairs[:, 1], "return map")
    elif task == "rp":
        spec = None
        if options["delay"] is not None:
            spec = EmbeddingSpec(options["delay"], options["dimension"])
        rp = recurrence_matrix(ts, 0, min(RP_WINDOW_LEN, len(ts)), RP_EPSILON_FRAC, spec)
        seriesio.write_recurrence(rp, out_path("txt"))
        plot = (svgmod.points_svg, rp.pairs[:, 0], rp.pairs[:, 1], "recurrence plot")
    elif task == "mi":
        mi = mutual_information_delay(ts, _derived(options, "max_lag", len(ts)))
        seriesio.write_pairs(
            np.column_stack((np.arange(1, mi.curve.size + 1), mi.curve)),
            out_path("txt"),
            "mutual information",
            "lag mi_nats",
            {"lag": mi.lag, "has_minimum": mi.has_minimum},
        )
    elif task == "fnn":
        f = false_nearest_neighbors(ts, options["delay"])
        seriesio.write_pairs(
            np.column_stack((np.arange(1, f.fnn_fractions.size + 1), f.fnn_fractions)),
            out_path("txt"),
            "false nearest neighbors",
            "dimension fraction",
            {"dimension": f.dimension, "delay": options["delay"]},
        )
    else:
        result, payload = _lyapunov_report(task, ts, options)
        if task == "lyapunov":
            curve = result.divergence_curve
            seriesio.write_pairs(
                curve,
                out_path("txt"),
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
            plot = (svgmod.curve_svg, curve[:, 0], curve[:, 1], "divergence curve")
        seriesio.write_json(payload, out_path("json"))
    if svg and plot is not None:
        draw, x, y, title = plot
        draw(x, y, out_path("svg"), title)


def list_presets() -> list[str]:
    return sorted(PRESETS)


def _check_lengths(
    task: str, options: dict[str, Any], samples: int, where: str = "",
    delay: Optional[int] = None, dimension: int = 1,
) -> None:
    """Reject a series length that ``task`` cannot use with ``options``:
    the ``ValueError`` of the rule's owner (``embed.check_*``,
    ``recur.check_*``) becomes an ``OptionError`` prefixed by ``where``.

    Called at three points, each before the work its rules guard: on the
    bare length (``analyze`` once the series is read, ``run_preset``
    before simulating), and in ``_lyapunov_report`` once the delay search
    has chosen ``delay`` (before FNN) and once FNN has chosen
    ``dimension``.  FNN's higher dimensions stay checked in its scan,
    whose stopping dimension depends on the data.
    """
    known = options.get("delay") if delay is None else delay
    try:
        if task in ("f1", "f2"):
            recur.check_return_times(samples)
        elif task == "returnmap":
            recur.check_return_map(samples)
        elif task == "rp":
            spec = None
            if options["delay"] is not None:
                spec = EmbeddingSpec(options["delay"], options["dimension"])
            recur.check_window(samples, 0, min(RP_WINDOW_LEN, samples), spec)
        elif task == "mi" or (task in _LYAPUNOV and known is None):
            embed.check_delay_search(samples, _derived(options, "max_lag", samples))
        elif task == "fnn" or (task in _LYAPUNOV and options["dimension"] is None):
            embed.check_fnn(samples, known, 1)
        # an explicit horizon is checked at every point, a default one once
        # the delay it derives from is known; the Theiler window once the
        # delay is, at dimension 1 (the longest embedding) until FNN chooses
        if task in _LYAPUNOV and (options["horizon"] is not None or delay is not None):
            spec = None if delay is None else EmbeddingSpec(delay, dimension)
            horizon = _derived(options, "horizon", delay)
            embed.check_divergence(samples, spec, horizon)
            if spec is not None:
                embed.check_theiler(samples, spec, horizon, _theiler(delay))
    except ValueError as exc:
        raise OptionError(f"{where}{exc}") from None


def _peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB.

    ``VmHWM`` belongs to the address space exec created.  ``ru_maxrss``
    (KiB on Linux), the fallback where there is no ``/proc``, also counts
    the parent's resident set of a process started by fork or vfork and
    exec: under a 300 MB parent a fig5 run reads 328 MB there, 68 MB in
    ``VmHWM``.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stage(task: str, since: float, **labels) -> dict[str, Any]:
    """The ``RunManifest.stages`` record of ``task``, begun at ``since``
    (``time.perf_counter``)."""
    return {
        "task": task, **labels,
        "wall_s": time.perf_counter() - since, "peak_rss_mb": _peak_rss_mb(),
    }


def _preset_outputs(
    preset: ExperimentPreset, resolved: list[dict[str, Any]], out_dir: Path,
    steps: int, dt: float, svg: bool, written: list[Path],
    stages: list[dict[str, Any]],
) -> dict[str, Any]:
    ts = simulate_series(preset.model, preset.params, preset.nu, preset.m, dt, steps)
    stem = out_dir / f"{preset.id}_series"
    written += [Path(f"{stem}.wprs"), Path(f"{stem}.wprs.meta.json")]
    seriesio.write_series(ts, written[-2])
    for item, options in zip(preset.analyses, resolved):
        t0 = time.perf_counter()
        _run_task(item.task, ts, options, stem, svg, written)
        stages.append(_stage(item.task, t0))
    return ts.meta


def _table_outputs(
    preset: TablePreset, resolved: list[dict[str, Any]], out_dir: Path,
    steps: int, dt: float, written: list[Path], stages: list[dict[str, Any]],
) -> dict[str, Any]:
    (item,), (options,) = preset.analyses, resolved
    rows, entries = [], {}
    for entry in preset.entries:
        ts = simulate_series(entry.model, entry.params, entry.nu, entry.m, dt, steps)
        t0 = time.perf_counter()
        payload = _lyapunov_report(item.task, ts, options)[1]
        stages.append(_stage(item.task, t0, entry=entry.id))
        meta = entries[entry.id] = ts.meta
        rows.append(
            {
                "entry": entry.id,
                "gamma_over_g": meta["gamma"] / meta["g"],
                "nu": meta["nu"],
                "m": meta["m"],
                **payload,
            }
        )
    json_path = out_dir / "table1.json"
    written.append(json_path)
    seriesio.write_json({"rows": rows}, json_path)
    txt_path = out_dir / "table1.txt"
    written.append(txt_path)
    lines = [
        "# wplab classification table\n",
        "# columns: gamma_over_g nu m lambda_max dynamics\n",
        *(
            f"{r['gamma_over_g']:g} {r['nu']:g} {r['m']} "
            f"{float(r['lambda_max'])!r} {r['label']}\n"
            for r in rows
        ),
    ]
    seriesio.write_text("".join(lines), txt_path)
    return {"entries": entries, "steps": steps}


def run_preset(
    preset_id: str,
    out_dir: str | Path = ".",
    steps: Optional[int] = None,
    dt: Optional[float] = None,
    full_scale: bool = False,
    svg: bool = False,
) -> RunManifest:
    """Generate a preset's series, run its analyses, write a manifest."""
    try:
        preset = get_preset(preset_id)
    except KeyError as exc:
        raise OptionError(exc.args[0]) from None
    out_dir = Path(out_dir)
    if steps is None:
        steps = preset.full_steps if full_scale else preset.steps
    dt = preset.dt if dt is None else dt
    _check_grid(dt, steps)
    steps, dt = int(steps), float(dt)
    # each analysis's options, resolved and checked against the length
    resolved = [resolve_options(item.task, item.options) for item in preset.analyses]
    for item, options in zip(preset.analyses, resolved):
        _check_lengths(item.task, options, steps, f"{preset.id}: ")

    t0 = time.perf_counter()
    # a failure removes what exists, the manifest included, and the last
    # run's manifest goes before the first write: the outputs stay only
    # with their manifest
    manifest_path = out_dir / f"{preset_id}_manifest.json"
    manifest_path.unlink(missing_ok=True)
    written: list[Path] = []
    stages: list[dict[str, Any]] = []
    with _removed_on_failure(written):
        if isinstance(preset, TablePreset):
            ran = _table_outputs(preset, resolved, out_dir, steps, dt, written, stages)
        else:
            ran = _preset_outputs(
                preset, resolved, out_dir, steps, dt, svg, written, stages
            )
        parameters = {**ran, "dt": dt}
        wall = time.perf_counter() - t0
        outputs = [
            {
                "path": str(p.relative_to(out_dir)),
                "sha256": _sha256(p),
                "bytes": p.stat().st_size,
            }
            for p in written
        ]
        blas = blas_environment()
        manifest = RunManifest(
            preset_id, parameters, outputs, wall, tuple(preset.notes), blas, stages
        )
        written.append(manifest_path)
        seriesio.write_json(asdict(manifest), manifest_path)
    return manifest
