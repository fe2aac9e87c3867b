import gc
import hashlib
import json
import re
import tracemalloc
import weakref
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from wplab import bipartite, embed, lab, neighbors, recur, seriesio
from wplab.embed import FNN_MIN_POINTS, EmbeddingSpec
from wplab.presets import PRESETS, ExperimentPreset
from wplab.recur import Cell
from wplab.series import TimeSeries

from childproc import run_python
from pinned import SMOKE_STEPS, data_digests, pinned_digests
from synthetic import henon_series, preset_series, sine_series


def test_classify_json_for_regular_verdict(tmp_path):
    series = seriesio.write_series(sine_series(20_000, period=100.0), tmp_path / "s.wprs")
    options = {"delay": 25, "dimension": 2, "horizon": 300}
    (path,) = lab.analyze("classify", series, options)
    payload = json.loads(path.read_text())
    assert payload["label"] == "regular"
    assert payload["ambiguous"] is False


def export_header(path):
    """The ``# key = value`` lines of a text export, as text by key."""
    lines = path.read_text().splitlines()
    pairs = (ln[2:].split(" = ", 1) for ln in lines if ln.startswith("# "))
    return dict(pair for pair in pairs if len(pair) == 2)


def test_mi_export_is_the_delay_search(tmp_path):
    ts = sine_series(20_000, period=100.0)
    series = seriesio.write_series(ts, tmp_path / "s.wprs")
    (path,) = lab.analyze("mi", series, {"max_lag": 200})
    mi = embed.mutual_information_delay(
        ts, max_lag=200, bins=embed.MI_BINS, min_window=embed.MI_MIN_WINDOW
    )
    assert mi.has_minimum
    header = export_header(path)
    assert (header["lag"], header["has_minimum"]) == (str(mi.lag), str(mi.has_minimum))
    rows = np.loadtxt(path, ndmin=2)
    assert np.array_equal(rows, np.column_stack((np.arange(1, 201), mi.curve)))


def test_fnn_export_ends_at_the_chosen_dimension(tmp_path):
    ts = henon_series(5000)
    series = seriesio.write_series(ts, tmp_path / "s.wprs")
    (path,) = lab.analyze("fnn", series, {"delay": 1})
    fnn = embed.false_nearest_neighbors(ts, delay=1, d_max=embed.FNN_D_MAX)
    assert fnn.dimension is not None
    header = export_header(path)
    assert (header["dimension"], header["delay"]) == (str(fnn.dimension), "1")
    rows = np.loadtxt(path, ndmin=2)
    assert rows[-1, 0] == fnn.dimension
    assert np.array_equal(rows[:, 1], fnn.fnn_fractions)


@pytest.mark.parametrize(
    "make, options, shared",
    [
        # FNN stops at d = 2 and its tree serves the divergence estimate
        (lambda: sine_series(20_000, period=100.0), {}, True),
        # an explicit dimension: no FNN, the estimator builds its tree
        (lambda: sine_series(20_000, period=100.0), {"dimension": 3}, False),
        # relaxed: FNN scans all FNN_D_MAX, chooses d = 6 and keeps no tree
        (lambda: preset_series("fig4", 20_000), {"horizon": 100}, False),
    ],
    ids=["fnn-stops", "explicit-dimension", "fnn-relaxed"],
)
def test_no_tree_outlives_the_estimate(monkeypatch, make, options, shared):
    built = []
    init = neighbors.BoxGrid.__init__

    def record(self, points):
        init(self, points)
        built.append(weakref.ref(self))

    monkeypatch.setattr(neighbors.BoxGrid, "__init__", record)
    series = make()
    options = lab.resolve_options("lyapunov", options)
    result, payload = lab._lyapunov_report("lyapunov", series, options)
    scanned = len(payload["selection"].get("fnn_fractions", ()))
    assert (result.embedding.dimension == scanned) == shared
    # one tree per FNN dimension, and one more unless FNN's last is shared
    assert len(built) == scanned + (not shared)
    # the result and payload are still held: neither may keep a tree alive
    gc.collect()
    assert [ref() for ref in built] == [None] * len(built)


@pytest.mark.parametrize("dimension", [None, 3], ids=["fnn", "given-dimension"])
@pytest.mark.parametrize("delay", [None, 20], ids=["mi", "given-delay"])
def test_selection_records_the_searches_made(delay, dimension):
    # the MI keys only when the delay was searched, the FNN keys only when
    # the dimension was, and theiler, horizon and method always, in order
    series = sine_series(20_000, period=100.0)
    options = {"delay": delay, "dimension": dimension, "horizon": 300}
    options = lab.resolve_options("lyapunov", options)
    result, payload = lab._lyapunov_report("lyapunov", series, options)
    selection, spec = payload["selection"], result.embedding
    searched = []
    if delay is None:
        searched += ["mi_lag", "mi_has_minimum"]
        delay = selection["mi_lag"]
    if dimension is None:
        searched += ["fnn_fractions", "fnn_dimension"]
        dimension = selection["fnn_dimension"]
        assert len(selection["fnn_fractions"]) == dimension
    assert list(selection) == searched + ["theiler", "horizon", "method"]
    assert (spec.delay, spec.dimension) == (delay, dimension)
    assert (selection["theiler"], selection["horizon"], selection["method"]) == (
        2 * spec.delay, 300, "rosenstein"
    )


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

SEAMS_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import spans
from wplab import lab
from wplab.presets import PRESETS

tracer = spans.Tracer()
spans.install(tracer)
k = PRESETS["fig4"]
lab.simulate_series(k.model, k.params, k.nu, k.m, k.dt, 1_000)
p = PRESETS["fig11-14"]
(item,) = [a for a in p.analyses if a.task == "classify"]
ts = lab.simulate_series(p.model, p.params, p.nu, p.m, p.dt, 41_000)
lab._lyapunov_report("classify", ts, lab.resolve_options("classify", item.options))
print(json.dumps(sorted({span[0] for span in tracer.spans})))
"""


def test_benchmark_tracer_sees_every_lyapunov_stage():
    # the benchmark's tracer wraps each model's stages and the estimators
    # where lab looks them up: a call that leaves lab's namespace, or a
    # lab.MODELS builder holding a stage's function object, reads 0 there
    out = run_python(SEAMS_SCRIPT, PERFBENCH)
    missing = {
        "fock.choose_truncation",
        "fock.pacs_amplitudes",
        "kerr.kerr_spectrum",
        "kerr.generate_series_x",
        "bipartite.decompose_initial",
        "eigen.decompose",
        "bipartite.occupancy_series",
        "embed.mutual_information_delay",
        "embed.false_nearest_neighbors",
        "embed.delay_embed",
        "embed.lyapunov_rosenstein",
        "embed.classify",
        "neighbors.build",
    }.difference(json.loads(out))
    assert not missing


def test_failed_preset_leaves_no_outputs(tmp_path, monkeypatch):
    # density is the last task of fig7-10: the series and the exports
    # written before it must go too
    def failing_density(*args, **kwargs):
        raise RuntimeError("density failed")

    monkeypatch.setattr(lab, "invariant_density", failing_density)
    out = tmp_path / "out"
    with pytest.raises(RuntimeError, match="density failed"):
        lab.run_preset("fig7-10", out, steps=10_000)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("fails", ["manifest write", "digest"])
def test_manifest_failure_leaves_no_outputs(tmp_path, monkeypatch, fails):
    # the outputs are complete by then, but without a manifest they must go
    write_json, sha256 = seriesio.write_json, lab._sha256

    def failing_write(payload, path):
        if Path(path).name == "fig5_manifest.json":
            raise OSError("manifest write failed")
        return write_json(payload, path)

    def failing_digest(path):
        if Path(path).name == "fig5_series_rp.txt":
            raise OSError("digest failed")
        return sha256(path)

    if fails == "manifest write":
        monkeypatch.setattr(seriesio, "write_json", failing_write)
    else:
        monkeypatch.setattr(lab, "_sha256", failing_digest)
    out = tmp_path / "out"
    with pytest.raises(OSError, match=f"{fails} failed"):
        lab.run_preset("fig5", out)
    assert list(out.iterdir()) == []


def test_failed_rerun_leaves_no_manifest(tmp_path, monkeypatch):
    lab.run_preset("fig5", tmp_path)
    # bad input is found before any write: the last run still verifies
    with pytest.raises(lab.OptionError, match="fig5: "):
        lab.run_preset("fig5", tmp_path, steps=1)
    assert lab.RunManifest.load(tmp_path / "fig5_manifest.json").verify(tmp_path)

    # a rerun that fails once writing removes the last run's manifest,
    # which would name the series the failure removed
    def failing_write(*args, **kwargs):
        raise OSError("rp export failed")

    monkeypatch.setattr(seriesio, "write_recurrence", failing_write)
    with pytest.raises(OSError, match="rp export failed"):
        lab.run_preset("fig5", tmp_path)
    assert list(tmp_path.iterdir()) == []


def test_failed_simulate_leaves_no_series(tmp_path, monkeypatch):
    # new samples beside the last run's sidecar would claim its nu
    path = tmp_path / "kerr_series.wprs"
    params = {"chi": 1.0, "chi_prime": 0.01}
    lab.simulate("kerr", params, (5.0, 0), 1e-3, 50, path)

    def failing_write(*args):
        raise OSError("sidecar write failed")

    monkeypatch.setattr(seriesio, "_write_json", failing_write)
    with pytest.raises(OSError, match="sidecar write failed"):
        lab.simulate("kerr", params, (10.0, 0), 1e-3, 50, path)
    assert list(tmp_path.iterdir()) == []


def fail_writing(monkeypatch, suffix):
    """Make every atomic write of a path ending in ``suffix`` raise."""
    replacing = seriesio._replacing

    def failing(path, mode="w"):
        if path.name.endswith(suffix):
            raise OSError(f"{suffix} write failed")
        return replacing(path, mode)

    monkeypatch.setattr(seriesio, "_replacing", failing)


@pytest.mark.parametrize("suffix", [".meta.json", ".sum"])
def test_failed_sidecar_or_sum_write_leaves_no_series_files(tmp_path, monkeypatch, suffix):
    # a simulate rerun whose sidecar or stored sum fails leaves none of the
    # three files, neither the new series nor the last run's siblings; a
    # preset rerun, no file at all: the last run's exports go with its
    # manifest, before the first write
    path = tmp_path / "s" / "kerr_series.wprs"
    params = {"chi": 1.0, "chi_prime": 0.01}
    lab.simulate("kerr", params, (5.0, 0), 1e-3, 50, path)
    lab.run_preset("fig5", tmp_path / "p")
    assert [p.name for p in seriesio.series_files(path) if p.exists()] == [
        "kerr_series.wprs", "kerr_series.wprs.meta.json", "kerr_series.wprs.sum",
    ]
    fail_writing(monkeypatch, suffix)
    with pytest.raises(OSError, match=f"{suffix} write failed"):
        lab.simulate("kerr", params, (10.0, 0), 1e-3, 50, path)
    assert list(path.parent.iterdir()) == []
    with pytest.raises(OSError, match=f"{suffix} write failed"):
        lab.run_preset("fig5", tmp_path / "p")
    assert list((tmp_path / "p").iterdir()) == []


def test_plain_rerun_leaves_no_svg_of_the_last_run(tmp_path):
    lab.run_preset("fig5", tmp_path, svg=True)
    assert (tmp_path / "fig5_series_rp.svg").is_file()
    manifest = lab.run_preset("fig5", tmp_path)
    listed = {rec["path"] for rec in manifest.outputs} | {"fig5_manifest.json"}
    assert {p.name for p in tmp_path.iterdir()} == listed


EMBEDDING = {"delay": 10, "dimension": 3}
SVG_OPTIONS = {
    "f1": {}, "density": {}, "returnmap": {}, "rp": EMBEDDING,
    "lyapunov": {**EMBEDDING, "horizon": 100},
}


@pytest.mark.parametrize("task, options", SVG_OPTIONS.items(), ids=SVG_OPTIONS)
def test_svg_output_is_xml(tmp_path, kerr_3000, task, options):
    written = lab.analyze(task, kerr_3000, options, tmp_path, svg=True)
    (svg,) = [p for p in written if p.suffix == ".svg"]
    root = ET.parse(svg).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(list(root.iter())) > 3


def test_rerun_removes_no_directory_its_last_manifest_lists(tmp_path):
    # RunManifest.load refuses absolute and ".." paths; "", "." and a
    # subdirectory pass it, and name no file to remove
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "keep.txt").write_text("kept\n")
    outputs = [{"path": path, "sha256": "ab"} for path in ("", ".", "sub")]
    stale = {"preset": "fig5", "parameters": {}, "outputs": outputs, "wall_time_s": 0.1}
    (tmp_path / "fig5_manifest.json").write_text(json.dumps(stale))
    lab.run_preset("fig5", tmp_path)
    assert (tmp_path / "sub" / "keep.txt").read_text() == "kept\n"
    assert lab.RunManifest.load(tmp_path / "fig5_manifest.json").verify(tmp_path)


def test_numpy_scalar_inputs_write_as_python_numbers(tmp_path):
    # np.int64 steps and np.float64 parameters are recorded as Python
    # numbers, so the files are those of Python inputs; an np.float32
    # parameter is held as the float the sidecar records
    def files(name, chi, steps):
        out = tmp_path / name / "s.wprs"
        lab.simulate("kerr", {"chi": chi, "chi_prime": 0.01}, (1.0, 0), 1e-3, steps, out)
        return [p.read_bytes() for p in seriesio.series_files(out)]

    assert files("numpy", np.float64(1.0), np.int64(100)) == files("python", 1.0, 100)
    single = files("float32", np.float32(0.1), 100)
    meta = json.loads(single[1])["meta"]
    assert meta["chi"] == float(np.float32(0.1))
    assert single == files("as-float", float(np.float32(0.1)), 100)


class StepsSeen(Exception):
    """Raised by a stand-in simulation with the steps it was asked for."""


@pytest.mark.parametrize("preset_id", ["fig1", "fig4", "fig7-10", "fig11-14", "table1"])
def test_full_scale_runs_1e7_steps(tmp_path, monkeypatch, preset_id):
    # a 1e6-step preset at full scale asks for 1e7 steps; nothing is
    # simulated here, and the failure leaves no file and no manifest
    def record_steps(model, params, nu, m, dt, steps):
        raise StepsSeen(steps)

    monkeypatch.setattr(lab, "simulate_series", record_steps)
    out = tmp_path / "out"
    with pytest.raises(StepsSeen) as seen:
        lab.run_preset(preset_id, out, full_scale=True)
    assert seen.value.args == (10_000_000,)
    assert not out.exists()


def test_full_scale_fig5_keeps_its_4000_steps(tmp_path):
    # fig5's series length is its recurrence window at either scale
    manifest = lab.run_preset("fig5", tmp_path / "full", full_scale=True)
    assert manifest.parameters["steps"] == 4000
    text = (tmp_path / "full" / "fig5_series_rp.txt").read_bytes()
    assert b"\n# window_len = 4000\n" in text
    lab.run_preset("fig5", tmp_path / "desk")
    for name in ("fig5_series.wprs", "fig5_series_rp.txt"):
        want = (tmp_path / "desk" / name).read_bytes()
        assert (tmp_path / "full" / name).read_bytes() == want


@pytest.mark.parametrize(
    "size", [0, 1, lab._HASH_BLOCK - 1, lab._HASH_BLOCK, 3 * lab._HASH_BLOCK + 7]
)
def test_digest_equals_the_whole_file_digest(tmp_path, size):
    path = tmp_path / "out.bin"
    path.write_bytes(np.random.default_rng(size).bytes(size))
    assert lab._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_digest_holds_no_output_whole(tmp_path):
    # a 16 MB output is read a block at a time, not held whole
    path = tmp_path / "out.bin"
    path.write_bytes(np.random.default_rng(0).bytes(16 << 20))
    tracemalloc.start()
    try:
        lab._sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_mismatch_sees_a_byte_flipped_in_the_last_block(tmp_path):
    data = np.random.default_rng(1).bytes(2 * lab._HASH_BLOCK + 5)
    outputs = []
    for name in ("a.bin", "b.bin"):
        (tmp_path / name).write_bytes(data)
        outputs.append({"path": name, "sha256": lab._sha256(tmp_path / name)})
    manifest = lab.RunManifest("x", {}, outputs, 0.1)
    assert manifest.mismatch(tmp_path) is None
    flipped = bytearray(data)
    flipped[-3] ^= 1
    (tmp_path / "b.bin").write_bytes(flipped)
    assert manifest.mismatch(tmp_path) == "b.bin has changed"


@pytest.mark.parametrize(
    "preset_id, steps, reason",
    [
        # rp plots all 2 000 samples; classify's delay search, up to lag
        # 400, needs more than 4 000
        ("fig11-14", 2000, "max_lag 400"),
        ("table1", 20_000, "horizon"),
        # its delay search, up to lag 400, needs more than 4 000 samples
        ("table1", 4000, "max_lag"),
        # not truncated to 100 steps, nor read as 1
        ("fig5", 100.7, "steps must be an integer"),
        ("fig5", True, "steps must be an integer"),
    ],
)
def test_bad_steps_fail_before_simulating(
    tmp_path, monkeypatch, preset_id, steps, reason
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_series ran")

    monkeypatch.setattr(lab, "simulate_series", no_simulation)
    out = tmp_path / "out"
    with pytest.raises(lab.OptionError, match=reason):
        lab.run_preset(preset_id, out, steps=steps)
    assert not out.exists()


def test_series_sidecar_records_pruning(tmp_path):
    models = {"kerr": {"chi": 1.0, "chi_prime": 0.0}, "bipartite": {"gamma": 5.0}}
    for model, params in models.items():
        path = lab.simulate(model, params, (5.0, 5), 1e-2, 50, tmp_path / model)
        meta = json.loads(path.with_name(path.name + ".meta.json").read_text())["meta"]
        assert meta["spectral_terms_kept"] <= meta["spectral_terms"]
        assert meta["spectral_dropped_mass"] <= meta["spectral_prune_budget"]
        assert ("norm_error" in meta) == (model == "bipartite")


@pytest.mark.parametrize(
    "model, params, dt, named",
    [
        ("bipartite", {"gama": 5.0, "g": 1.0}, 1e-3, "'gama'"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "gamma": 5.0}, 1e-3, "'gamma'"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0}, float("nan"), "dt"),
        ("bipartite", {"gamma": 5.0}, float("inf"), "dt"),
        ("bipartite", {"gamma": 5.0}, 0.0, "dt"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0}, -1e-3, "dt"),
        # nu, m and steps, where a case sets them, ride in the parameter dict
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "nu": -1.0}, 1e-3, "nu"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "nu": float("nan")}, 1e-3, "nu"),
        ("bipartite", {"gamma": 5.0, "nu": float("inf")}, 1e-3, "nu"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "m": -1}, 1e-3, "m must"),
        ("bipartite", {"gamma": 5.0, "m": 2.5}, 1e-3, "m must"),
        ("kerr", {"chi": float("nan"), "chi_prime": 0.0}, 1e-3, "'chi'"),
        ("kerr", {"chi": 1.0}, 1e-3, "'chi_prime'"),
        ("bipartite", {"gamma": 5.0, "g": -1.0}, 1e-3, "coupling g"),
        ("bipartite", {"omega": float("nan"), "gamma": 5.0}, 1e-3, "'omega'"),
        ("bipartite", {"gamma": float("inf")}, 1e-3, "'gamma'"),
        # a float count reached the kernel as a TypeError after the state
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "steps": 1e5}, 1e-3, "steps must"),
        ("bipartite", {"gamma": 5.0, "steps": True}, 1e-3, "steps must"),
        ("bipartite", {"gamma": 5.0, "steps": "50"}, 1e-3, "steps must"),
        # True passed as an Integral and broke state preparation
        ("bipartite", {"gamma": 5.0, "m": True}, 1e-3, "m must"),
        # no basis under the cap holds m + 1 states
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "m": 4096}, 1e-3, "m must"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "nu": True}, 1e-3, "nu must"),
        ("bipartite", {"gamma": 5.0, "nu": "5"}, 1e-3, "nu must"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0}, True, "dt must"),
        ("bipartite", {"gamma": 5.0}, "0.001", "dt must"),
        # a text or None parameter raised a bare TypeError, and True ran as 1
        ("bipartite", {"gamma": "5"}, 1e-3, "'gamma'"),
        ("kerr", {"chi": 1.0, "chi_prime": None}, 1e-3, "'chi_prime'"),
        ("bipartite", {"gamma": True}, 1e-3, "'gamma'"),
        ("spin", {"chi": 1.0}, 1e-3, "unknown model 'spin'"),
        ("kerr", {"chi": 1.0, "chi_prime": 0.0, "steps": 0}, 1e-3, "steps must"),
    ],
)
def test_bad_model_input_fails_before_any_state(
    tmp_path, monkeypatch, model, params, dt, named
):
    def no_state(*args, **kwargs):
        raise AssertionError("a field state was prepared")

    monkeypatch.setattr(lab, "initial_field_state", no_state)
    params = dict(params)
    initial = (params.pop("nu", 5.0), params.pop("m", 5))
    steps = params.pop("steps", 50)
    with pytest.raises(lab.OptionError, match=named) as raised:
        lab.simulate(model, params, initial, dt, steps, tmp_path / "s.wprs")
    if model not in lab.MODELS:
        # the message lists the model table, whatever it holds
        for name in lab.MODELS:
            assert name in str(raised.value), name
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nu, m", [(5000.0, 0), (3000.0, 4000)])
def test_nu_or_m_beyond_the_basis_cap_fails_before_any_amplitudes(
    tmp_path, monkeypatch, nu, m
):
    def no_amplitudes(*args, **kwargs):
        raise AssertionError("amplitudes were computed")

    monkeypatch.setattr(lab, "pacs_amplitudes", no_amplitudes)
    params = {"chi": 1.0, "chi_prime": 0.0}
    with pytest.raises(lab.OptionError, match="nu and m exceed the Fock basis cap"):
        lab.simulate("kerr", params, (nu, m), 1e-3, 50, tmp_path / "s.wprs")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dt", [True, "0.001", 0.0])
def test_bad_preset_dt_fails_before_simulating(tmp_path, monkeypatch, dt):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_series ran")

    monkeypatch.setattr(lab, "simulate_series", no_simulation)
    out = tmp_path / "out"
    with pytest.raises(lab.OptionError, match="dt must"):
        lab.run_preset("fig5", out, dt=dt)
    assert not out.exists()


PRUNING_KEYS = {
    "spectral_terms", "spectral_terms_kept", "spectral_dropped_mass",
    "spectral_prune_budget",
}
SERIES_PRESETS = [k for k, p in PRESETS.items() if isinstance(p, ExperimentPreset)]


@pytest.mark.parametrize("preset_id", SERIES_PRESETS)
def test_preset_sidecar_records_the_run_inputs(tmp_path, monkeypatch, preset_id):
    # the run writes its inputs, the model only what it computed; the
    # analyses are skipped, so only the series and its sidecar are written
    monkeypatch.setattr(lab, "_run_task", lambda *args: None)
    preset = PRESETS[preset_id]
    manifest = lab.run_preset(preset_id, tmp_path, steps=SMOKE_STEPS[preset_id])
    sidecar = tmp_path / f"{preset_id}_series.wprs.meta.json"
    meta = json.loads(sidecar.read_text())["meta"]
    run = {"model": preset.model, **preset.params, "nu": preset.nu, "m": preset.m}
    run["steps"] = manifest.parameters["steps"]
    assert {k: meta[k] for k in run} == run
    computed = {"n_max"} if preset.model == "kerr" else {"sectors", "norm_error"}
    assert meta.keys() == run.keys() | computed | PRUNING_KEYS
    # the manifest records that metadata, not the preset restated
    manifest = lab.RunManifest.load(tmp_path / f"{preset_id}_manifest.json")
    assert manifest.parameters == {**meta, "dt": preset.dt}
    # and the stored sum evaluates to the stored samples, bit for bit
    ts = seriesio.read_series(tmp_path / f"{preset_id}_series.wprs")
    assert ts.spectrum.evaluate(ts.dt, len(ts)).tobytes() == ts.values.tobytes()


def test_presets_match_pinned_digests(pinned_runs):
    """Every preset output of ``pinned_runs`` but the manifests, against
    the ``<preset>/<file>`` keys of ``digests.json``.  The digests are of
    numpy 2.4 with OpenBLAS 0.3.31.  A re-pin writes ``data_digests`` of
    one run made as ``pinned_runs`` makes it, in the pinned child (one
    BLAS thread, Haswell), into ``digests.json``."""
    runs = [data_digests(out, wide=False) for out in pinned_runs]
    assert runs[0] == runs[1]
    assert runs[0] == pinned_digests(wide=False)


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_runs_tasks_on_the_series_in_memory(tmp_path, monkeypatch, preset_id):
    # no series file is read back, and each task's options resolve once;
    # svg=True runs the plots through the same path
    def no_read(path):
        raise AssertionError(f"{path} was read")

    resolve, resolved = lab.resolve_options, []

    def resolve_options(task, options):
        resolved.append(task)
        return resolve(task, options)

    monkeypatch.setattr(seriesio, "read_series", no_read)
    monkeypatch.setattr(lab, "resolve_options", resolve_options)
    steps = SMOKE_STEPS[preset_id]
    manifest = lab.run_preset(preset_id, tmp_path, steps=steps, svg=True)
    assert resolved == [item.task for item in PRESETS[preset_id].analyses]
    assert manifest.verify(tmp_path)


def test_manifest_records_blas(pinned_runs):
    # OpenBLAS picks its kernel when it loads: the pinned run's manifest
    # records the thread count and kernel its own process started with
    run = pinned_runs[0] / "fig5"
    m = json.loads((run / "fig5_manifest.json").read_text())
    blas = m["blas"]
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert (blas["name"], blas["version"]) == (info["name"], info["version"])
    assert [blas[var] for var in lab.BLAS_VARIABLES] == ["1", "1", "Haswell"]
    if "openblas" in info["name"]:
        # the kernel in use, not the build host's in numpy's show_config
        assert " Haswell " in blas["openblas_config"]
        assert blas["threads"] == 1
        # numpy's own LAPACK solves the two-mode sectors
        solver = blas["sector_eigensolver"]
        assert solver in ("scipy_dstevd_64_", "scipy_dstevd_", "dstevd_64_", "dstevd_")
    assert blas["sector_eigensolver"] == bipartite.sector_eigensolver()
    # the five positional fields, as the benchmark's checks pass them
    manifest = lab.RunManifest(
        m["preset"], m["parameters"], m["outputs"], m["wall_time_s"],
        tuple(m["assumptions"]),
    )
    assert manifest.blas == {}
    assert manifest.verify(run)


def test_manifest_records_stages(tmp_path):
    # one record per task in run order: its wall time and the process's
    # peak RSS once it ended
    preset_id = "fig7-10"
    manifest = lab.run_preset(preset_id, tmp_path, steps=SMOKE_STEPS[preset_id])
    stages = manifest.stages
    assert [s["task"] for s in stages] == [a.task for a in PRESETS[preset_id].analyses]
    assert all(set(s) == {"task", "wall_s", "peak_rss_mb"} for s in stages)
    walls = [s["wall_s"] for s in stages]
    assert min(walls) > 0.0 and sum(walls) < manifest.wall_time_s
    assert all(s["peak_rss_mb"] > 0.0 for s in stages)
    path = tmp_path / f"{preset_id}_manifest.json"
    assert lab.RunManifest.load(path).stages == stages
    # a manifest written before the stages were recorded loads without them
    data = json.loads(path.read_text())
    del data["stages"]
    path.write_text(json.dumps(data))
    old = lab.RunManifest.load(path)
    assert old.stages == []
    assert old.verify(tmp_path)


STAGES_SCRIPT = """
import json, sys
from wplab import lab
print(json.dumps(lab.run_preset("fig5", sys.argv[1]).stages))
"""


def test_stage_peak_is_the_runs_own(tmp_path):
    # a run started from a larger process reports its own peak RSS, not
    # the parent's that ru_maxrss carries across fork and exec
    ballast = np.ones(192 * 2**20 // 8)  # a 192 MB parent
    out = run_python(STAGES_SCRIPT, tmp_path)
    del ballast
    (stage,) = json.loads(out)
    assert 0.0 < stage["peak_rss_mb"] < 150.0


def test_blas_names_the_fallback_solver(monkeypatch):
    monkeypatch.setattr(bipartite, "_dstevd", lambda: None)
    assert lab.blas_environment()["sector_eigensolver"] == "numpy.linalg.eigh"


BLAS_WITH_SCIPY = """
import ctypes, json
from wplab import lab
before = lab.blas_environment()  # numpy's OpenBLAS is the only one mapped
import scipy.spatial  # maps scipy's own OpenBLAS too, with scipy.linalg
from scipy.linalg import _fblas
scipy_blas = ctypes.CDLL(_fblas.__file__)
for name in ("scipy_openblas_set_num_threads", "openblas_set_num_threads"):
    if hasattr(scipy_blas, name):
        set_threads = getattr(scipy_blas, name)
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(2)  # a thread count numpy's library does not have
        break
print(json.dumps([before, lab.blas_environment()]))
"""


def test_blas_is_numpys_with_scipy_loaded():
    # with a second OpenBLAS in the process the manifest still names the
    # one numpy's arrays run on, whichever path sorts first
    before, after = json.loads(run_python(BLAS_WITH_SCIPY, threads=1))
    assert after == before


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_presets_restate_no_default(preset_id):
    # a preset states only what differs; a derived default has no value
    # to restate
    for item in PRESETS[preset_id].analyses:
        for name, value in item.options.items():
            default = lab.OPTIONS[name].default
            assert callable(default) or value != default, (item.task, name)


@pytest.mark.parametrize("preset_id", sorted(PRESETS))
def test_preset_options_resolve(preset_id):
    for item in PRESETS[preset_id].analyses:
        resolved = lab.resolve_options(item.task, item.options)
        owned = {n for n, o in lab.OPTIONS.items() if item.task in o.tasks}
        assert set(resolved) == owned
        assert lab.resolve_options(item.task, resolved) == resolved


def test_table_row_is_the_classify_export(tmp_path):
    # a table row is the classify json of its entry's series plus the
    # columns that series' metadata gives, key for key; the manifest
    # maps each entry to that metadata
    table = PRESETS["table1"]
    (item,) = table.analyses
    entry = table.entries[4]  # gamma/g = 5, coherent state
    steps = 41_000
    manifest = lab.run_preset("table1", tmp_path / "table", steps=steps)
    # one stage per entry's task
    stages = [(s["task"], s["entry"]) for s in manifest.stages]
    assert stages == [(item.task, e.id) for e in table.entries]
    manifest_path = tmp_path / "table" / "table1_manifest.json"
    parameters = lab.RunManifest.load(manifest_path).parameters
    entries = parameters.pop("entries")
    assert parameters == {"dt": table.dt, "steps": steps}
    rows = json.loads((tmp_path / "table" / "table1.json").read_text())["rows"]
    assert [r["entry"] for r in rows] == [e.id for e in table.entries]
    assert entries.keys() == {r["entry"] for r in rows}
    for r in rows:
        meta = entries[r["entry"]]
        columns = (meta["gamma"] / meta["g"], meta["nu"], meta["m"])
        assert (r["gamma_over_g"], r["nu"], r["m"]) == columns
    (row,) = [r for r in rows if r["entry"] == entry.id]
    columns = {"entry": entry.id, "gamma_over_g": 5.0, "nu": 1.0, "m": 0}
    assert {key: row.pop(key) for key in columns} == columns

    series = lab.simulate(
        entry.model, entry.params, (entry.nu, entry.m), table.dt, steps,
        tmp_path / "s.wprs",
    )
    sidecar = json.loads(series.with_name(series.name + ".meta.json").read_text())
    assert entries[entry.id] == sidecar["meta"]
    (path,) = lab.analyze(item.task, series, item.options, tmp_path / "classify")
    assert json.loads(path.read_text()) == row


@pytest.mark.parametrize("preset_id, task", [("fig4", "lyapunov"), ("fig11-14", "classify")])
def test_analyze_samples_the_estimate_as_the_preset_does(tmp_path, preset_id, task):
    # given only the series scale, max_lag and horizon, analyze uses the
    # preset's reference points and curve stride: its exports are the preset's
    preset = tmp_path / "preset"
    lab.run_preset(preset_id, preset, steps=41_000)
    series = preset / f"{preset_id}_series.wprs"
    options = {"max_lag": 400, "horizon": 4000}
    for path in lab.analyze(task, series, options, tmp_path / "a"):
        assert path.read_bytes() == (preset / path.name).read_bytes(), path.name


@pytest.mark.parametrize("preset_id", ["fig4", "fig11-14"])
def test_simulated_spectrum_evaluates_to_the_samples(preset_id):
    # the kept sum the series carries is summed whole: evaluating it
    # prunes nothing more, though pruning it anew would drop terms
    ts = preset_series(preset_id, 41_000)
    kept = ts.spectrum
    assert kept.amp.size == ts.meta["spectral_terms_kept"]
    assert kept.terms == ts.meta["spectral_terms"]
    assert kept.evaluate(ts.dt, len(ts)).tobytes() == ts.values.tobytes()
    assert kept.pruned()[1]["spectral_terms_kept"] < kept.amp.size


def test_series_without_a_stored_sum_runs_every_task(tmp_path):
    # a series file from outside wplab has no .sum: it reads with no
    # spectrum, and every task writes what it writes with one
    series = lab.simulate("kerr", {"chi": 1.0, "chi_prime": 0.01}, (4.0, 0), 1e-3,
                          41_000, tmp_path / "s.wprs")
    bare = tmp_path / "bare" / "s.wprs"
    bare.parent.mkdir()
    for p in seriesio.series_files(series)[:2]:
        (bare.parent / p.name).write_bytes(p.read_bytes())
    assert seriesio.read_series(bare).spectrum is None
    lyapunov = {"max_lag": 400, "horizon": 4000}
    options = {"fnn": {"delay": 25}, "lyapunov": lyapunov, "classify": lyapunov}
    for task in lab.ANALYSIS_TASKS:
        with_sum = lab.analyze(task, series, options.get(task), tmp_path / "a")
        without = lab.analyze(task, bare, options.get(task), tmp_path / "b")
        assert [p.name for p in without] == [p.name for p in with_sum]
        for path, got in zip(with_sum, without):
            assert got.read_bytes() == path.read_bytes(), got.name


@pytest.mark.parametrize(
    "task, options, named",
    [
        ("mi", {"max_lagg": 5}, "max_lagg"),
        ("density", {"horizon": 5}, "horizon"),
        ("rp", {"delay": 3}, "dimension"),
        ("fnn", {}, "delay"),
        # no such option: events are cell entries
        ("f1", {"mode": "visit"}, "mode"),
        # no such option: Rosenstein is the one estimator of a run
        ("lyapunov", {"method": "kantzz"}, "method"),
        ("lyapunov", {"horizon": 2.5}, "horizon"),
        ("f2", {"cell": "0.5"}, "cell"),
        ("classify", {"d_max": 8}, "d_max"),
        # values out of their option's range; marked "rule", settings
        # that are fixed rules and no options (2 * delay,
        # max(1, horizon // 200), embed.MAX_REFERENCE, 16 bins, 0.01)
        ("lyapunov", {"curve_stride": 20}, "curve_stride"),  # rule
        ("lyapunov", {"max_reference": 2000}, "max_reference"),  # rule
        ("classify", {"threshold": 0.01}, "threshold"),  # rule: embed.CHAOS_THRESHOLD
        # no such option for any task: the recurrence radius is a fixed rule
        ("classify", {"epsilon_frac": float("nan")}, "epsilon_frac"),
        ("lyapunov", {"horizon": -5}, "horizon"),
        ("lyapunov", {"horizon": 1}, "horizon"),
        ("mi", {"max_lag": 0}, "max_lag"),
        ("lyapunov", {"theiler": 4}, "theiler"),  # rule
        ("rp", {"epsilon_frac": 0.2}, "epsilon_frac"),  # rule: RP_EPSILON_FRAC
        ("density", {"bin_width": -1}, "bin_width"),
        ("mi", {"bins": 16}, "bins"),  # rule
        ("rp", {"window_start": 5}, "window_start"),  # rule: the window starts at 0
        ("rp", {"window_len": 10}, "window_len"),  # rule: RP_WINDOW_LEN
        ("fnn", {"delay": 0}, "delay"),
        ("rp", {"delay": 2, "dimension": 0}, "dimension"),
        # positive options are finite too
        ("density", {"bin_width": float("inf")}, "bin_width"),
        # no such option, whatever the value
        ("rp", {"epsilon_frac": "inf"}, "epsilon_frac"),
        ("lyapunov", {"epsilon_frac": float("inf")}, "epsilon_frac"),
        # neither a number nor its text
        ("density", {"bin_width": [1]}, "bin_width"),
        ("mi", {"max_lag": "2.5"}, "max_lag"),
        ("f1", {"cell": "0.6:0.5"}, "cell"),  # an empty cell
    ],
)
def test_bad_options_fail_before_reading(tmp_path, task, options, named):
    # the series file does not exist: reading it would raise OSError
    with pytest.raises(ValueError, match=f"'{task}'.*'{named}'"):
        lab.analyze(task, tmp_path / "missing.wprs", options)


def test_unknown_task_is_an_option_error():
    with pytest.raises(lab.OptionError, match="unknown task 'spectrum'; expected one"):
        lab.resolve_options("spectrum", {})


@pytest.mark.parametrize(
    "options, reason, steps",
    [
        # the window is the whole series, and one sample spans no pair
        ({}, "does not fit", 1),
        # 300 - 7 * 50 leaves no delay vector in the window
        ({"delay": 50, "dimension": 8}, "embedded points", 300),
        # one delay vector, and a recurrence needs two
        ({"delay": 100, "dimension": 3}, "embedded points", 201),
    ],
)
def test_rp_window_the_series_cannot_fit_fails_before_any_output(
    tmp_path, options, reason, steps
):
    params = {"chi": 1.0, "chi_prime": 0.01}
    series = lab.simulate("kerr", params, (1.0, 0), 1e-3, steps, tmp_path / "s.wprs")
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(lab.OptionError, match=reason):
        lab.analyze("rp", series, options, out)
    assert list(out.iterdir()) == []


def test_rp_below_the_window_plots_the_whole_series(tmp_path):
    # a 3 000-sample fig5 series is shorter than lab.RP_WINDOW_LEN: analyze
    # and the preset both plot all of it, byte for byte alike
    lab.run_preset("fig5", tmp_path / "p", steps=3000)
    (path,) = lab.analyze("rp", tmp_path / "p" / "fig5_series.wprs", {}, tmp_path / "a")
    text = path.read_bytes()
    assert b"\n# window_len = 3000\n" in text
    assert text == (tmp_path / "p" / path.name).read_bytes()


@pytest.mark.parametrize(
    "task, options",
    [
        ("fnn", {"delay": 290}),  # 300 - 290 leaves 10 points, fewer than 20
        ("fnn", {"delay": 500}),  # past the end of the series
        # FNN runs when no dimension is given; the horizon fits
        ("lyapunov", {"delay": 290, "horizon": 2}),
        ("classify", {"delay": 290, "horizon": 2}),
    ],
)
def test_fnn_delay_the_series_cannot_hold_fails_before_any_output(
    tmp_path, task, options
):
    params = {"chi": 1.0, "chi_prime": 0.01}
    series = lab.simulate("kerr", params, (1.0, 0), 1e-3, 300, tmp_path / "s.wprs")
    out = tmp_path / "out"
    out.mkdir()
    with pytest.raises(lab.OptionError, match="FNN at delay"):
        lab.analyze(task, series, options, out)
    assert list(out.iterdir()) == []


def test_fnn_delay_rule_is_the_first_dimensions():
    # FNN_MIN_POINTS extended points at dimension 1 pass, one fewer fails
    fnn = lab.resolve_options("fnn", {"delay": 280})
    lab._check_lengths("fnn", fnn, 280 + FNN_MIN_POINTS)
    with pytest.raises(lab.OptionError, match="FNN at delay 280"):
        lab._check_lengths("fnn", fnn, 279 + FNN_MIN_POINTS)
    # with a dimension given, no FNN runs and the rule does not apply
    given = lab.resolve_options("lyapunov", {"delay": 290, "dimension": 1, "horizon": 2})
    lab._check_lengths("lyapunov", given, 300)


def wave(samples):
    k = np.arange(samples)
    return TimeSeries(1.0, np.sin(0.7 * k) + 0.3 * np.sin(2.1 * k))


def lab_check(task, options, samples, **chosen):
    lab._check_lengths(task, lab.resolve_options(task, options), samples, **chosen)


# each series-length rule: the message of its owner's check, the fewest
# samples it accepts, lab's check at the point that knows its lengths,
# and the estimator
LENGTH_RULES = {
    "mi-delay-search": (
        "max_lag 20 needs", 201,
        lambda n: lab_check("mi", {"max_lag": 20}, n),
        lambda n: embed.mutual_information_delay(wave(n), 20, embed.MI_BINS),
    ),
    "lyapunov-delay-search": (
        "max_lag 20 needs", 201,
        lambda n: lab_check("lyapunov", {"max_lag": 20}, n),
        lambda n: embed.mutual_information_delay(wave(n), 20, embed.MI_BINS),
    ),
    "fnn": (
        "FNN at delay 5, dimension 1 ", 25,
        lambda n: lab_check("fnn", {"delay": 5}, n),
        lambda n: embed.false_nearest_neighbors(wave(n), 5, embed.FNN_D_MAX),
    ),
    "lyapunov-fnn-once-the-delay-is-chosen": (
        "FNN at delay 5, dimension 1 ", 25,
        lambda n: lab_check("lyapunov", {"horizon": 2}, n, delay=5),
        lambda n: embed.false_nearest_neighbors(wave(n), 5, embed.FNN_D_MAX),
    ),
    "horizon-on-the-bare-series": (
        "horizon 10 needs", 101,
        lambda n: lab_check(
            "lyapunov", {"delay": 3, "dimension": 1, "horizon": 10}, n
        ),
        lambda n: embed.lyapunov_rosenstein(wave(n), EmbeddingSpec(3, 1), 6, 10),
    ),
    "default-horizon-once-the-delay-is-chosen": (
        "horizon 100 needs", 1001,
        lambda n: lab_check("classify", {}, n, delay=2),
        lambda n: embed.lyapunov_rosenstein(wave(n), EmbeddingSpec(2, 1), 4, 100),
    ),
    "horizon-once-the-dimension-is-chosen": (
        "horizon 10 needs", 104,
        lambda n: lab_check("lyapunov", {"horizon": 10}, n, delay=3, dimension=2),
        lambda n: embed.lyapunov_rosenstein(wave(n), EmbeddingSpec(3, 2), 6, 10),
    ),
    "theiler-once-the-dimension-is-chosen": (
        "Theiler window 40 leaves", 64,
        lambda n: lab_check("lyapunov", {"horizon": 2}, n, delay=20, dimension=2),
        lambda n: embed.lyapunov_rosenstein(wave(n), EmbeddingSpec(20, 2), 40, 2),
    ),
    "rp-default-window": (
        "does not fit", 2,
        lambda n: lab_check("rp", {}, n),
        lambda n: recur.recurrence_matrix(wave(n), 0, min(lab.RP_WINDOW_LEN, n), 0.1),
    ),
    "rp-embedded-window": (
        "embedded points", 22,
        lambda n: lab_check("rp", {"delay": 10, "dimension": 3}, n),
        lambda n: recur.recurrence_matrix(wave(n), 0, n, 0.1, EmbeddingSpec(10, 3)),
    ),
    "f1": (
        "return times need", 2,
        lambda n: lab_check("f1", {}, n),
        lambda n: recur.first_return_times(wave(n), Cell(-2.0, 2.0)),
    ),
    "f2": (
        "return times need", 2,
        lambda n: lab_check("f2", {}, n),
        lambda n: recur.second_return_times(wave(n), Cell(-2.0, 2.0)),
    ),
    "returnmap": (
        "return map needs", 3,
        lambda n: lab_check("returnmap", {}, n),
        lambda n: recur.return_map(wave(n)),
    ),
}


@pytest.mark.parametrize(
    "rule, fewest, check, estimate", LENGTH_RULES.values(), ids=LENGTH_RULES
)
def test_lab_and_the_owner_accept_the_same_lengths(rule, fewest, check, estimate):
    check(fewest)
    with pytest.raises(lab.OptionError, match=rule):
        check(fewest - 1)
    with pytest.raises(ValueError, match=rule):
        estimate(fewest - 1)
    try:
        estimate(fewest)
    except (ValueError, RuntimeError) as exc:  # a later rule or the data's limit
        assert not re.search(rule, str(exc))


THEILER = {"delay": 1500, "dimension": 1, "horizon": 2}

# each staged length check of analyze on ``kerr_3000``: the task, its
# options, the check's message, and the stages that run before it
# rejects: "mi", the delay search, and "tree", a neighbour tree (FNN's or
# the divergence estimate's)
STAGED_CHECKS = {
    # horizon 300 needs more than 3 000 samples, and a delay search up to
    # lag 1000 more than 10 000: both are known before any search
    "horizon-lyapunov": ("lyapunov", {"horizon": 300}, "horizon 300 needs", set()),
    "horizon-classify": ("classify", {"horizon": 300}, "horizon 300 needs", set()),
    "mi-max-lag": ("mi", {"max_lag": 1000}, "max_lag 1000 needs", set()),
    "lyapunov-max-lag": (
        "lyapunov", {"max_lag": 1000, "horizon": 100}, "max_lag 1000 needs", set()
    ),
    "classify-max-lag": (
        "classify", {"max_lag": 1000, "horizon": 100}, "max_lag 1000 needs", set()
    ),
    # the default horizon 50 * 30 needs more than 15 000 samples: found
    # once the delay search has chosen lag 30, before FNN builds a tree
    "default-horizon-lyapunov": ("lyapunov", {}, "horizon 1500 needs", {"mi"}),
    "default-horizon-classify": ("classify", {}, "horizon 1500 needs", {"mi"}),
    # 3 000 samples fit horizon 299 (more than 2 990 needed), but d = 2 at
    # delay 30 leaves 2 970 embedded samples
    "embedded-horizon": (
        "lyapunov", {"horizon": 299}, "horizon 299 needs .* got 2970", {"mi", "tree"}
    ),
    # at delay 1500 the Theiler window is 3 000 samples, and the reference
    # points end at index 2 997: none has an admissible neighbour
    "theiler-lyapunov": ("lyapunov", THEILER, "Theiler window 3000 leaves", set()),
    "theiler-classify": ("classify", THEILER, "Theiler window 3000 leaves", set()),
}


@pytest.mark.parametrize(
    "task, options, reason, ran", STAGED_CHECKS.values(), ids=STAGED_CHECKS
)
def test_staged_length_check_fails_before_the_work_it_guards(
    tmp_path, monkeypatch, kerr_3000, task, options, reason, ran
):
    stages = set()
    mi, init = lab.mutual_information_delay, neighbors.BoxGrid.__init__

    def spy_mi(*args, **kwargs):
        stages.add("mi")
        return mi(*args, **kwargs)

    def spy_tree(self, points):
        stages.add("tree")
        init(self, points)

    monkeypatch.setattr(lab, "mutual_information_delay", spy_mi)
    monkeypatch.setattr(neighbors.BoxGrid, "__init__", spy_tree)
    with pytest.raises(lab.OptionError, match=reason):
        lab.analyze(task, kerr_3000, options, tmp_path)
    assert stages == ran
    assert list(tmp_path.iterdir()) == []


def test_density_bin_width_past_the_bin_cap_is_an_option_error(tmp_path, kerr_3000):
    # 1e-12 cuts the series' range into about 4.7e12 bins, whose edges
    # numpy was once asked to hold (34.5 TiB): a usage error, found once
    # the series is read and before any array is sized
    with pytest.raises(lab.OptionError, match="task 'density', option 'bin_width'"):
        lab.analyze("density", kerr_3000, {"bin_width": 1e-12}, tmp_path)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "preset_id, steps, reason",
    [
        ("fig1", 1, "return times need"),
        ("fig3", 1, "return times need"),
        ("fig7-10", 2, "return map needs"),
        ("fig5", 1, "recurrence window"),  # it spans no 2 samples
    ],
)
def test_too_short_for_a_task_fails_before_simulating(
    tmp_path, monkeypatch, preset_id, steps, reason
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_series ran")

    monkeypatch.setattr(lab, "simulate_series", no_simulation)
    out = tmp_path / "out"
    with pytest.raises(lab.OptionError, match=f"{preset_id}: {reason}"):
        lab.run_preset(preset_id, out, steps=steps)
    assert not out.exists()


@pytest.mark.parametrize(
    "values",
    [
        [3.0, 1.0, 2.0],
        [0.1, 0.7, 0.2, 0.3],
        [2.0, 2.0, 1.0, 2.0, 5.0],  # ties at the middle, odd length
        [1.0, 4.0, 4.0, 1.0, 4.0, 1.0],  # ties, even length
        [7.0],
        [-0.0, 0.0, -0.0],
        np.random.default_rng(0).normal(size=1001),
        np.random.default_rng(1).integers(0, 5, size=1000) / 7.0,  # many ties
    ],
)
def test_median_cell_is_numpys_median_bitwise(values):
    def bits(cell):
        return np.array([cell.lower, cell.upper]).tobytes()

    for v in (np.array(values), np.random.default_rng(2).permutation(values)):
        mid = float(np.median(v))
        expect = Cell(mid - lab.CELL_WIDTH / 2.0, mid + lab.CELL_WIDTH / 2.0)
        assert bits(lab._median_cell(TimeSeries(1.0, v))) == bits(expect)


NO_MASKED_ARRAYS = """
import sys
from pathlib import Path
from wplab import lab
out = Path(sys.argv[1])
params = {"omega": 1.0, "omega0": 1.0, "gamma": 5.0, "g": 1.0}
series = lab.simulate("bipartite", params, (5.0, 5), 1e-3, 4000, out / "s.wprs")
for task in ("rp", "density", "returnmap", "f1", "f2"):
    lab.analyze(task, series, {}, out)
assert "numpy.ma" not in sys.modules, "numpy.ma was imported"
assert "_hashlib" not in sys.modules, "OpenSSL was loaded"
"""


def test_two_mode_run_does_not_import_masked_arrays(tmp_path):
    # numpy.ma costs 14 ms to import, and numpy's median and bare unique
    # import it on their first call
    run_python(NO_MASKED_ARRAYS, tmp_path, threads=1)
    assert len(list(tmp_path.glob("s_*.txt"))) == 5
