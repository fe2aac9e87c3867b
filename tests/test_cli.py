import argparse
import hashlib
import json
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from wplab import cli, lab, neighbors, seriesio
from wplab.presets import get_preset

from childproc import run_python
from pinned import data_digests, pinned_digests


def exit_code(argv):
    """``cli.main``'s status; argparse reports usage errors by SystemExit."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@pytest.fixture(scope="module")
def series_file(tmp_path_factory):
    out = tmp_path_factory.mktemp("series")
    argv = ["simulate", "--model", "kerr", "--nu", "4", "--steps", "3000", "--out", out]
    assert exit_code(argv) == 0
    return out / "kerr_series.wprs"


def test_exit_codes(tmp_path, series_file):
    assert exit_code(["list-presets"]) == 0
    # mi and fnn are no preset's tasks; test_lab checks what each export holds
    for flags in (["--task", "density"], ["--task", "mi"], ["--task", "fnn", "--delay", 25]):
        argv = ["analyze", *flags, "--series", series_file, "--out", tmp_path]
        assert exit_code(argv) == 0
    assert exit_code(["analyze", "--task", "density", "--series",
                      tmp_path / "missing.wprs"]) == 1
    assert exit_code(["analyze", "--task", "spectrum", "--series", series_file]) == 2
    assert exit_code(["simulate", "--model", "kerr", "--steps", "many"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--model", "kerr", "--dt", "nan"],
        ["simulate", "--model", "kerr", "--steps", 0],
        ["preset", "nosuch"],
        ["preset", "fig11-14", "--steps", 2000],  # the rp window does not fit
        ["simulate", "--model", "kerr", "--nu", -1],
        ["simulate", "--model", "kerr", "--nu", "nan"],
        ["simulate", "--model", "bipartite", "--nu", "inf"],
        ["simulate", "--model", "kerr", "--m", -1],
        ["simulate", "--model", "kerr", "--chi", "nan"],
        ["simulate", "--model", "bipartite", "--g", -1],
        ["simulate", "--model", "bipartite", "--omega", "nan"],
        # a flag of another model is rejected, not dropped
        ["simulate", "--model", "bipartite", "--chi", 7, "--chi-prime-ratio", 3],
        ["simulate", "--model", "kerr", "--g", 4, "--gamma-over-g", 9],
    ],
)
def test_bad_input_exits_2_and_creates_nothing(tmp_path, monkeypatch, argv):
    def no_state(*args, **kwargs):
        raise AssertionError("a field state was prepared")

    monkeypatch.setattr(lab, "initial_field_state", no_state)
    assert exit_code(argv + ["--out", tmp_path / "d" / "x"]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("nu, m", [(5000, 0), (3000, 4000)])
def test_nu_or_m_beyond_the_basis_cap_exits_2_and_creates_nothing(
    tmp_path, capsys, nu, m
):
    argv = ["simulate", "--model", "kerr", "--nu", nu, "--m", m, "--steps", 10]
    assert exit_code(argv + ["--out", tmp_path / "d"]) == 2
    assert "usage error: nu and m exceed the Fock basis cap" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# (id, flags): an id is a fixed case number, not a position in the list,
# so that removing a case leaves the other cases' ids as they are
BAD_OPTIONS = [
    # no such flag: Rosenstein is the one estimator of a run
    (0, ["--task", "lyapunov", "--method", "kantzz"]),
    (2, ["--task", "f1", "--svg", "maybe"]),  # a switch takes no value
    (3, ["--task", "mi", "--max-lag", "2.5"]),
    (4, ["--task", "lyapunov", "--horizn", "5"]),
    (5, ["--task", "f1", "--cell", "0.5"]),
    (6, ["--task", "f1", "--cell", "0.6:0.5"]),
    (7, ["--task", "density", "--horizon", "5"]),
    (8, ["--task", "rp", "--delay", "3"]),
    (9, ["--task", "fnn"]),
    # no such flag: the Theiler window is a fixed rule (2 * delay)
    (10, ["--task", "lyapunov", "--theiler", "5"]),
    # no such flag: the reference points are embed.MAX_REFERENCE
    (11, ["--task", "lyapunov", "--max-reference", "2000"]),
    # no task takes --epsilon-frac: the radius is lab.RP_EPSILON_FRAC
    (12, ["--task", "classify", "--epsilon-frac", "nan"]),
    # values out of their option's range
    (13, ["--task", "lyapunov", "--horizon", "-5"]),
    (14, ["--task", "lyapunov", "--horizon", "400", "--max-lag", "0"]),
    # nor --window-start: the window starts at sample 0
    (15, ["--task", "rp", "--window-start", "5"]),
    (16, ["--task", "rp", "--epsilon-frac", "0.2"]),
    (17, ["--task", "density", "--bin-width", "-1"]),
    (18, ["--task", "lyapunov", "--horizon", "1"]),
    # no such flag: the window is min(lab.RP_WINDOW_LEN, samples)
    (19, ["--task", "rp", "--window-len", "10"]),
    (20, ["--task", "fnn", "--delay", "0"]),
    # no such flag: the curve stride is max(1, horizon // 200)
    (21, ["--task", "lyapunov", "--curve-stride", "20"]),
    # positive values are finite too
    (23, ["--task", "density", "--bin-width", "inf"]),
    (24, ["--task", "rp", "--epsilon-frac", "inf"]),  # no such flag
    # no task counts every visit
    (26, ["--task", "f1", "--mode", "visit"]),
]


@pytest.mark.parametrize(
    "flags", [pytest.param(flags, id=f"-flags{n}") for n, flags in BAD_OPTIONS]
)
def test_bad_options_exit_2_before_reading(tmp_path, flags):
    # the series file does not exist: reading it would exit 1
    argv = ["analyze", "--series", tmp_path / "missing.wprs"]
    assert exit_code(argv + flags) == 2


def test_config_is_no_flag():
    # options are flags only: --config is no flag, a usage error
    assert exit_code(["--config", "wplab.cfg", "list-presets"]) == 2


def subcommand_flags(command: str) -> dict[str, argparse.Action]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {f: a for a in sub.choices[command]._actions for f in a.option_strings}


def test_analyze_flags_are_the_lab_options():
    flags = subcommand_flags("analyze")
    del flags["-h"], flags["--help"]
    names = {"--" + name.replace("_", "-"): name for name in lab.OPTIONS}
    assert flags.keys() == {"--task", "--series", "--out", "--svg", *names}
    for flag, name in names.items():
        assert flags[flag].type is lab.OPTIONS[name].type, flag


EMBEDDING = ["--delay", 10, "--dimension", 3]


@pytest.mark.parametrize(
    "task, flags",
    [
        ("f1", []),
        ("density", []),
        ("returnmap", []),
        ("rp", EMBEDDING),
        ("lyapunov", EMBEDDING + ["--horizon", 100]),
    ],
)
def test_svg_output_is_xml(tmp_path, series_file, task, flags):
    argv = ["analyze", "--task", task, "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + flags + ["--svg"]) == 0
    (svg,) = tmp_path.glob("*.svg")
    root = ET.parse(svg).getroot()
    assert root.tag == "{http://www.w3.org/2000/svg}svg"
    assert len(list(root.iter())) > 3


@pytest.mark.parametrize(
    "task, flags",
    [("mi", []), ("fnn", ["--delay", 25]), ("classify", EMBEDDING + ["--horizon", 100])],
)
def test_svg_is_drawn_only_for_the_svg_tasks(tmp_path, series_file, task, flags):
    # the tasks that --svg's help names draw (test_svg_output_is_xml),
    # and no other does
    argv = ["analyze", "--task", task, "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + flags + ["--svg"]) == 0
    assert any(tmp_path.glob("*.svg")) == (task in cli.SVG_TASKS)


@pytest.mark.parametrize(
    "task, flags",
    [
        ("lyapunov", ["--horizon", 300]),
        ("classify", ["--horizon", 300]),
        ("mi", ["--max-lag", 1000]),
        ("lyapunov", ["--max-lag", 1000, "--horizon", 100]),
        ("classify", ["--max-lag", 1000, "--horizon", 100]),
    ],
    ids=["lyapunov", "classify", "mi-max-lag", "lyapunov-max-lag", "classify-max-lag"],
)
def test_horizon_too_long_exits_2_before_any_search(
    tmp_path, monkeypatch, series_file, task, flags
):
    # 3 000 samples cannot fit horizon 300 (more than 3 000 needed), nor a
    # delay search up to lag 1000 (more than 10 000): no mutual
    # information, no FNN or divergence tree, no export
    builds = []

    def no_mi(*args, **kwargs):
        raise AssertionError("the mutual information ran")

    def spy(self, points):
        builds.append(points.shape)

    monkeypatch.setattr(lab, "mutual_information_delay", no_mi)
    monkeypatch.setattr(neighbors.BoxGrid, "__init__", spy)
    argv = ["analyze", "--task", task, "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + flags) == 2
    assert builds == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task", ["lyapunov", "classify"])
def test_default_horizon_too_long_exits_2_before_fnn(
    tmp_path, monkeypatch, series_file, task
):
    # the delay search takes the largest lag, 30, on 3 000 samples: the
    # default horizon 50 * 30 needs more than 15 000, so FNN builds no tree
    builds = []

    def spy(self, points):
        builds.append(points.shape)

    monkeypatch.setattr(neighbors.BoxGrid, "__init__", spy)
    argv = ["analyze", "--task", task, "--series", series_file, "--out", tmp_path]
    assert exit_code(argv) == 2
    assert builds == []
    assert list(tmp_path.iterdir()) == []


def test_horizon_the_embedding_cannot_fit_exits_2(tmp_path, series_file):
    # 3 000 samples fit horizon 299 (more than 2 990 needed), but FNN picks
    # d = 2 at delay 30, which leaves 2 970 embedded samples
    argv = ["analyze", "--task", "lyapunov", "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + ["--horizon", 299]) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flags",
    [
        # the window is the whole 3 000-sample series
        ["--delay", 1500, "--dimension", 3],  # 3 000 - 2 * 1500 = 0 points
        ["--delay", 2999, "--dimension", 2],  # one point, and a pair needs two
        ["--delay", 500, "--dimension", 8],  # 3 000 - 7 * 500 < 2 points
    ],
)
def test_rp_window_the_series_cannot_fit_exits_2(tmp_path, series_file, flags):
    argv = ["analyze", "--task", "rp", "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + flags) == 2
    assert list(tmp_path.iterdir()) == []


def test_density_bin_width_past_the_bin_cap_exits_2(tmp_path, series_file, capsys):
    # 1e-12 cuts the series' range into about 4.7e12 bins, whose edges
    # numpy was once asked to hold (34.5 TiB): a usage error, found once
    # the series is read and before any array is sized
    out = tmp_path / "out"
    argv = ["analyze", "--task", "density", "--bin-width", "1e-12"]
    assert exit_code(argv + ["--series", series_file, "--out", out]) == 2
    assert not out.exists()
    assert "'bin_width'" in capsys.readouterr().err


def sidecar_meta(directory: Path, model: str) -> dict:
    return json.loads((directory / f"{model}_series.wprs.meta.json").read_text())["meta"]


def test_simulate_sidecar_records_nu_as_given(tmp_path):
    # nu squared back from sqrt(5) once read 5.000000000000001
    argv = ["simulate", "--model", "kerr", "--nu", "5", "--m", "2", "--steps", 10]
    assert exit_code(argv + ["--out", tmp_path]) == 0
    meta = sidecar_meta(tmp_path, "kerr")
    assert (meta["nu"], meta["m"]) == (5.0, 2)


def test_simulate_maps_the_kerr_ratio_flag(tmp_path):
    # chi' is chi times the ratio, so a mapping that dropped chi shows here
    argv = ["simulate", "--model", "kerr", "--chi", 2, "--chi-prime-ratio", 0.25]
    assert exit_code(argv + ["--steps", 10, "--out", tmp_path]) == 0
    meta = sidecar_meta(tmp_path, "kerr")
    assert (meta["chi"], meta["chi_prime"]) == (2.0, 0.5)


def test_simulate_maps_the_two_mode_flags(tmp_path):
    # gamma is g times the ratio; each frequency goes to its own field
    argv = ["simulate", "--model", "bipartite", "--nu", 2, "--m", 1, "--steps", 200,
            "--g", 0.5, "--gamma-over-g", 4, "--omega", 1.5, "--omega0", 0.75]
    assert exit_code(argv + ["--out", tmp_path / "cli"]) == 0
    meta = sidecar_meta(tmp_path / "cli", "bipartite")
    assert (meta["gamma"], meta["g"]) == (2.0, 0.5)
    params = {"omega": 1.5, "omega0": 0.75, "gamma": 2.0, "g": 0.5}
    lab.simulate("bipartite", params, (2.0, 1), 1e-3, 200, tmp_path / "lab.wprs")
    cli_series = (tmp_path / "cli" / "bipartite_series.wprs").read_bytes()
    assert cli_series == (tmp_path / "lab.wprs").read_bytes()


def test_model_choices_are_the_model_table():
    assert subcommand_flags("simulate")["--model"].choices == tuple(lab.MODELS)
    # and each model declares its own flags and their mapping
    assert cli.MODEL_FLAGS.keys() == cli.MODEL_PARAMS.keys() == lab.MODELS.keys()


def test_rp_below_the_window_plots_the_whole_series(tmp_path):
    # a 3 000-sample fig5 series is shorter than lab.RP_WINDOW_LEN: analyze
    # and the preset both plot all of it, byte for byte alike
    lab.run_preset("fig5", tmp_path / "p", steps=3000)
    series = tmp_path / "p" / "fig5_series.wprs"
    argv = ["analyze", "--task", "rp", "--series", series, "--out", tmp_path / "a"]
    assert exit_code(argv) == 0
    text = (tmp_path / "a" / "fig5_series_rp.txt").read_bytes()
    assert b"\n# window_len = 3000\n" in text
    assert text == (tmp_path / "p" / "fig5_series_rp.txt").read_bytes()


@pytest.mark.parametrize(
    "flags",
    [
        ["--task", "fnn", "--delay", 5000],  # past the end of the 3 000 samples
        ["--task", "fnn", "--delay", 2990],  # 10 points at d = 1, fewer than 20
        ["--task", "lyapunov", "--delay", 2990, "--horizon", 2],
        ["--task", "classify", "--delay", 2990, "--horizon", 2],
    ],
)
def test_fnn_delay_the_series_cannot_hold_exits_2(tmp_path, series_file, flags):
    argv = ["analyze", "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + flags) == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("task", ["lyapunov", "classify"])
def test_theiler_window_leaving_no_neighbour_exits_2_before_any_tree(
    tmp_path, monkeypatch, series_file, task
):
    # at delay 1500 the Theiler window is 3 000 samples, and the reference
    # points of the 3 000 end at index 2 997: none has an admissible
    # neighbour, so no divergence tree is built and nothing is written
    builds = []

    def spy(self, points):
        builds.append(points.shape)

    monkeypatch.setattr(neighbors.BoxGrid, "__init__", spy)
    argv = ["analyze", "--task", task, "--series", series_file, "--out", tmp_path]
    assert exit_code(argv + ["--delay", 1500, "--dimension", 1, "--horizon", 2]) == 2
    assert builds == []
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("dt", ["nan", "inf", "-0.0"])
def test_series_file_with_a_bad_time_step_exits_1(tmp_path, dt):
    # the header of a 3 000-sample series file, with the time step ``dt``
    header = seriesio._HEADER.pack(seriesio.MAGIC, seriesio.VERSION, 0, 3000, float(dt))
    path = tmp_path / "s.wprs"
    path.write_bytes(header + np.sin(np.arange(3000) / 7.0).astype("<f8").tobytes())
    out = tmp_path / "out"
    argv = ["analyze", "--task", "lyapunov", "--series", path, "--out", out]
    assert exit_code(argv) == 1
    assert not out.exists()


@pytest.mark.parametrize("task", ["f1", "density"])
def test_series_file_of_no_samples_exits_1(tmp_path, task, capsys):
    path = tmp_path / "s.wprs"
    # a header that counts 0 samples, and no body
    header = seriesio._HEADER.pack(seriesio.MAGIC, seriesio.VERSION, 0, 0, 1e-3)
    path.write_bytes(header)
    out = tmp_path / "out"
    assert exit_code(["analyze", "--task", task, "--series", path, "--out", out]) == 1
    assert "s.wprs: header counts 0 samples" in capsys.readouterr().err
    assert not out.exists()


def series_file_bytes(magic=seriesio.MAGIC, version=seriesio.VERSION, count=3):
    """A series file of three samples whose header says ``magic``,
    ``version`` and ``count``."""
    header = seriesio._HEADER.pack(magic, version, 0, count, 1e-3)
    return header + np.array([0.0, 1.0, 0.5], dtype="<f8").tobytes()


BAD_HEADERS = {
    "truncated": (series_file_bytes()[:20], "truncated header"),
    "bad-magic": (series_file_bytes(magic=b"WPRX"), "bad magic"),
    "version": (series_file_bytes(version=2), "unsupported version 2"),
    "count": (series_file_bytes(count=4), "expected 64 bytes, found 56"),
}


@pytest.mark.parametrize("raw, reason", BAD_HEADERS.values(), ids=BAD_HEADERS)
def test_series_file_with_a_bad_header_exits_1(tmp_path, raw, reason, capsys):
    path = tmp_path / "s.wprs"
    path.write_bytes(raw)
    out = tmp_path / "out"
    assert exit_code(["analyze", "--task", "f1", "--series", path, "--out", out]) == 1
    assert f"s.wprs: {reason}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task", ["rp", "f1", "f2", "returnmap"])
def test_one_sample_series_exits_2(tmp_path, task):
    # each task's length rule rejects it once the series is read
    argv = ["simulate", "--model", "kerr", "--steps", 1, "--out", tmp_path]
    assert exit_code(argv) == 0
    out = tmp_path / "out"
    series = tmp_path / "kerr_series.wprs"
    assert exit_code(["analyze", "--task", task, "--series", series, "--out", out]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "text", ["{bad", "[1,2]", '{"observable": 5, "meta": [1]}'],
    ids=["not-json", "a-list", "bad-fields"],
)
def test_malformed_sidecar_exits_1(tmp_path, series_file, text, capsys):
    # a copy of the valid Kerr series whose sidecar is ``text``
    path = tmp_path / "s.wprs"
    path.write_bytes(series_file.read_bytes())
    (tmp_path / "s.wprs.meta.json").write_text(text)
    out = tmp_path / "out"
    argv = ["analyze", "--task", "density", "--series", path, "--out", out]
    assert exit_code(argv) == 1
    assert "s.wprs.meta.json: " in capsys.readouterr().err
    assert not out.exists()


def test_series_file_with_a_nan_sample_exits_1(tmp_path, series_file, capsys):
    # a copy of the valid Kerr series with a NaN at sample 100
    raw = bytearray(series_file.read_bytes())
    offset = seriesio._HEADER.size + 8 * 100
    raw[offset : offset + 8] = np.array([np.nan], dtype="<f8").tobytes()
    path = tmp_path / "s.wprs"
    path.write_bytes(raw)
    out = tmp_path / "out"
    argv = ["analyze", "--task", "density", "--series", path, "--out", out]
    assert exit_code(argv) == 1
    assert "s.wprs: series values must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cut", [20, -1, None], ids=["truncated", "short", "long"])
def test_malformed_stored_sum_exits_1(tmp_path, series_file, cut, capsys):
    # a copy of the valid Kerr series whose .sum is cut short or a byte long
    path = tmp_path / "s.wprs"
    path.write_bytes(series_file.read_bytes())
    raw = series_file.with_name("kerr_series.wprs.sum").read_bytes()
    (tmp_path / "s.wprs.sum").write_bytes(raw + b"\0" if cut is None else raw[:cut])
    out = tmp_path / "out"
    argv = ["analyze", "--task", "density", "--series", path, "--out", out]
    assert exit_code(argv) == 1
    assert "s.wprs.sum: " in capsys.readouterr().err
    assert not out.exists()


def option_flags(options):
    """The ``analyze`` flags that give ``options``; a cell pair as LO:HI."""
    flags = []
    for key, value in options.items():
        if isinstance(value, tuple):
            value = ":".join(map(repr, value))
        flags += ["--" + key.replace("_", "-"), value]
    return flags


def test_analyze_reproduces_preset_lyapunov_run(tmp_path):
    # every export of a preset, the Lyapunov run included, is what analyze
    # writes from the preset's series file with the task's options as flags
    for preset_id, steps in (("fig4", 41_000), ("fig7-10", 20_000), ("fig11-14", 41_000)):
        preset, out = tmp_path / preset_id / "preset", tmp_path / preset_id / "cli"
        lab.run_preset(preset_id, preset, steps=steps)
        series = preset / f"{preset_id}_series.wprs"
        for item in get_preset(preset_id).analyses:
            argv = ["analyze", "--task", item.task, "--series", series, "--out", out]
            assert exit_code(argv + option_flags(item.options)) == 0
        exports = sorted(p.name for p in out.iterdir())
        assert exports == sorted(p.name for p in preset.glob(f"{preset_id}_series_*"))
        for name in exports:
            assert (out / name).read_bytes() == (preset / name).read_bytes(), name


def test_full_scale_fig5_keeps_its_4000_steps(tmp_path):
    # fig5's series length is its recurrence window at either scale, and
    # the flag resolves as run_preset's switch does
    manifest = lab.run_preset("fig5", tmp_path / "lab", full_scale=True)
    assert manifest.parameters["steps"] == 4000
    assert exit_code(["preset", "fig5", "--full-scale", "--out", tmp_path / "cli"]) == 0
    lab.run_preset("fig5", tmp_path / "desk")
    text = (tmp_path / "cli" / "fig5_series_rp.txt").read_bytes()
    assert b"\n# window_len = 4000\n" in text
    for name in ("fig5_series.wprs", "fig5_series_rp.txt"):
        want = (tmp_path / "cli" / name).read_bytes()
        assert (tmp_path / "lab" / name).read_bytes() == want
        assert (tmp_path / "desk" / name).read_bytes() == want


@pytest.fixture
def fig5_run(tmp_path, monkeypatch):
    """A fig5 run under the working directory, and its manifest's relative path."""
    monkeypatch.chdir(tmp_path)
    assert exit_code(["preset", "fig5", "--out", "p"]) == 0
    return Path("p") / "fig5_manifest.json"


def test_verify_accepts_untouched_outputs(fig5_run, capsys):
    # the outputs are looked up beside the manifest, not in the working directory
    capsys.readouterr()
    assert exit_code(["verify", fig5_run]) == 0
    assert capsys.readouterr().out == "fig5: 4 outputs verified\n"


def test_verify_names_first_bad_output(fig5_run, capsys):
    rp = fig5_run.with_name("fig5_series_rp.txt")
    rp.write_bytes(rp.read_bytes() + b"0 0\n")
    capsys.readouterr()
    assert exit_code(["verify", fig5_run]) == 1
    assert "fig5_series_rp.txt has changed" in capsys.readouterr().err
    fig5_run.with_name("fig5_series.wprs").unlink()
    assert exit_code(["verify", fig5_run]) == 1
    assert "fig5_series.wprs is missing" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [None, "{not json", '["fig5"]', '{"preset": "fig5"}', '{"preset": "fig5", '
     '"parameters": {}, "outputs": [{"bytes": 3}], "wall_time_s": 0.1}',
     # an output record whose path is not text
     '{"preset": "fig5", "parameters": {}, "outputs": [{"path": 5, "sha256": "ab"}], '
     '"wall_time_s": 0.1}',
     # outputs with their right digests that do not lie beside the manifest
     '{"preset": "fig5", "parameters": {}, "outputs": [{"path": "OUTSIDE", '
     '"sha256": "SHA"}], "wall_time_s": 0.1}',
     '{"preset": "fig5", "parameters": {}, "outputs": [{"path": "../outside.txt", '
     '"sha256": "SHA"}], "wall_time_s": 0.1}'],
)
def test_verify_unreadable_manifest_exits_2(tmp_path, capsys, text):
    outside = tmp_path / "outside.txt"
    outside.write_text("x\n")
    manifest = tmp_path / "run" / "fig5_manifest.json"
    manifest.parent.mkdir()
    if text is not None:
        sha = hashlib.sha256(outside.read_bytes()).hexdigest()
        manifest.write_text(text.replace("OUTSIDE", str(outside)).replace("SHA", sha))
    assert exit_code(["verify", manifest]) == 2
    assert "unreadable manifest" in capsys.readouterr().err


def test_import_does_not_load_the_cli():
    run_python("import wplab, sys; assert not {'argparse', 'wplab.cli'} & set(sys.modules)")


def test_two_mode_wide_matches_pinned_digests(pinned_runs):
    """The outputs of the two-mode-wide benchmark's CLI path in
    ``pinned_runs`` against the ``two-mode-wide/<file>`` keys of
    ``digests.json``; no preset covers this series, the widest the kernel
    and the recurrence-plot sweep run in the benchmark.  A re-pin is made
    as ``test_lab.py::test_presets_match_pinned_digests`` says."""
    runs = [data_digests(out, wide=True) for out in pinned_runs]
    assert runs[0] == runs[1]
    assert runs[0] == pinned_digests(wide=True)
