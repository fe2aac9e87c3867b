import argparse
import hashlib
import json
import re
from pathlib import Path

import pytest

from wplab import cli, lab, seriesio
from wplab.presets import get_preset

from childproc import run_python
from pinned import data_digests, pinned_digests


def exit_code(argv):
    """``cli.main``'s status; argparse reports usage errors by SystemExit."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


def test_exit_codes(tmp_path, kerr_3000):
    assert exit_code(["list-presets"]) == 0
    # mi and fnn are no preset's tasks; test_lab checks what each export holds
    for flags in (["--task", "density"], ["--task", "mi"], ["--task", "fnn", "--delay", 25]):
        argv = ["analyze", *flags, "--series", kerr_3000, "--out", tmp_path]
        assert exit_code(argv) == 0
    assert exit_code(["analyze", "--task", "density", "--series",
                      tmp_path / "missing.wprs"]) == 1
    assert exit_code(["analyze", "--task", "spectrum", "--series", kerr_3000]) == 2
    assert exit_code(["simulate", "--model", "kerr", "--steps", "many"]) == 2


def subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def subcommand_flags(command: str) -> dict[str, argparse.Action]:
    return {f: a for a in subparsers()[command]._actions for f in a.option_strings}


def test_every_argument_has_help():
    # -h of each subcommand describes every argument, and renders
    commands = subparsers()
    bare = [
        f"{command} {(a.option_strings or [a.dest])[-1]}"
        for command, subparser in commands.items()
        for a in subparser._actions
        if not a.help
    ]
    assert bare == []
    for subparser in commands.values():
        subparser.format_help()


# (id, argv): an id is a fixed case number, not a position in the list, so
# that removing a case leaves the other cases' ids as they are.  One bad
# value of simulate and of preset, and the flags of another model; test_lab
# checks each rule of lab.simulate and lab.run_preset
BAD_INPUT = [
    (0, ["simulate", "--model", "kerr", "--dt", "nan"]),
    (2, ["preset", "nosuch"]),
    (3, ["preset", "fig11-14", "--steps", 2000]),  # the rp window does not fit
    # a flag of another model is rejected, not dropped
    (11, ["simulate", "--model", "bipartite", "--chi", 7, "--chi-prime-ratio", 3]),
    (12, ["simulate", "--model", "kerr", "--g", 4, "--gamma-over-g", 9]),
]


@pytest.mark.parametrize(
    "argv", [pytest.param(argv, id=f"argv{n}") for n, argv in BAD_INPUT]
)
def test_bad_input_exits_2_and_creates_nothing(tmp_path, monkeypatch, capsys, argv):
    def no_state(*args, **kwargs):
        raise AssertionError("a field state was prepared")

    monkeypatch.setattr(lab, "initial_field_state", no_state)
    assert exit_code(argv + ["--out", tmp_path / "d" / "x"]) == 2
    assert capsys.readouterr().err.startswith("wplab: usage error: ")
    assert list(tmp_path.iterdir()) == []


# (id, flags, stderr), ids as in BAD_INPUT.  One case of each way analyze
# rejects its flags before reading; test_lab checks each option's rules
# (test_bad_options_fail_before_reading)
BAD_OPTIONS = [
    # no such flag: the flags are lab.OPTIONS (test_analyze_flags_are_the_lab_options)
    (4, ["--task", "lyapunov", "--horizn", "5"], "unrecognized arguments: --horizn"),
    # argparse converts a value with its lab.OPTIONS type
    (13, ["--task", "lyapunov", "--horizon", "-5"], "error: argument --horizon: invalid"),
    # lab.OptionError: a flag of another task
    (7, ["--task", "density", "--horizon", "5"], "wplab: usage error: task 'density'"),
]


@pytest.mark.parametrize(
    "flags, stderr",
    [pytest.param(flags, stderr, id=f"-flags{n}") for n, flags, stderr in BAD_OPTIONS],
)
def test_bad_options_exit_2_before_reading(tmp_path, capsys, flags, stderr):
    # the series file does not exist: reading it would exit 1
    argv = ["analyze", "--series", tmp_path / "missing.wprs"]
    assert exit_code(argv + flags) == 2
    assert stderr in capsys.readouterr().err


def test_config_is_no_flag():
    # options are flags only: --config is no flag, a usage error
    assert exit_code(["--config", "wplab.cfg", "list-presets"]) == 2


def test_analyze_flags_are_the_lab_options():
    flags = subcommand_flags("analyze")
    del flags["-h"], flags["--help"]
    names = {"--" + name.replace("_", "-"): name for name in lab.OPTIONS}
    assert flags.keys() == {"--task", "--series", "--out", "--svg", *names}
    for flag, name in names.items():
        assert flags[flag].type is lab.OPTIONS[name].type, flag
    assert flags["--svg"].nargs == 0  # a switch takes no value


EMBEDDING = ["--delay", 10, "--dimension", 3]


@pytest.mark.parametrize(
    "task, flags",
    [
        ("mi", []),
        ("fnn", ["--delay", 25]),
        ("classify", EMBEDDING + ["--horizon", 100]),
        ("f1", []),
    ],
)
def test_svg_is_drawn_only_for_the_svg_tasks(tmp_path, kerr_3000, task, flags):
    # the tasks that --svg's help names draw (test_lab's
    # test_svg_output_is_xml checks each drawing), and no other does
    argv = ["analyze", "--task", task, "--series", kerr_3000, "--out", tmp_path]
    assert exit_code(argv + flags + ["--svg"]) == 0
    assert any(tmp_path.glob("*.svg")) == (task in cli.SVG_TASKS)


def test_length_rule_exits_2_once_the_series_is_read(tmp_path, kerr_3000, capsys):
    # 3 000 - 2 * 1500 leaves no delay vector in the recurrence window;
    # test_lab checks each length rule (LENGTH_RULES) and the stage that
    # applies it
    argv = ["analyze", "--task", "rp", "--series", kerr_3000, "--out", tmp_path]
    assert exit_code(argv + ["--delay", 1500, "--dimension", 3]) == 2
    assert capsys.readouterr().err.startswith("wplab: usage error: recurrence window")
    assert list(tmp_path.iterdir()) == []


# one damaged file of each kind that a series reads, in a copy of the Kerr
# series; test_seriesio checks each file's rules
DAMAGED = {
    "wprs": (".wprs", lambda raw: raw[:20]),  # a truncated header
    "meta-json": (".wprs.meta.json", lambda raw: b"{bad"),
    "sum": (".wprs.sum", lambda raw: raw[:-1]),
}


@pytest.mark.parametrize("suffix, damage", DAMAGED.values(), ids=DAMAGED)
def test_malformed_series_file_exits_1(tmp_path, kerr_3000, capsys, suffix, damage):
    for p in seriesio.series_files(kerr_3000):
        (tmp_path / p.name).write_bytes(p.read_bytes())
    bad = tmp_path / f"kerr_series{suffix}"
    bad.write_bytes(damage(bad.read_bytes()))
    out = tmp_path / "out"
    argv = ["analyze", "--task", "density", "--series", tmp_path / "kerr_series.wprs"]
    assert exit_code(argv + ["--out", out]) == 1
    assert capsys.readouterr().err.startswith(f"wplab: error: {bad}: ")
    assert not out.exists()


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


def test_preset_flags_map_to_run_preset(monkeypatch):
    calls = []

    def record(preset_id, **kwargs):
        calls.append((preset_id, kwargs))
        return lab.RunManifest(preset_id, {}, [], 0.0)

    monkeypatch.setattr(lab, "run_preset", record)
    assert exit_code(["preset", "fig4"]) == 0
    argv = ["preset", "fig4", "--out", "o", "--steps", 7, "--dt", 0.5]
    assert exit_code(argv + ["--full-scale", "--svg"]) == 0
    defaults = {"out_dir": ".", "steps": None, "dt": None, "full_scale": False,
                "svg": False}
    given = {"out_dir": "o", "steps": 7, "dt": 0.5, "full_scale": True, "svg": True}
    assert calls == [("fig4", defaults), ("fig4", given)]


@pytest.fixture
def fig5_run(tmp_path, monkeypatch):
    """A fig5 run under the working directory, and its manifest's relative path."""
    monkeypatch.chdir(tmp_path)
    assert exit_code(["preset", "fig5", "--out", "p"]) == 0
    return Path("p") / "fig5_manifest.json"


def test_each_command_prints_what_it_made(capsys, fig5_run):
    # preset: a summary line, then each output's path and digest prefix
    outputs = lab.RunManifest.load(fig5_run).outputs
    summary, *lines = capsys.readouterr().out.splitlines()
    assert re.fullmatch(r"fig5: 4 outputs, \d+\.\ds", summary)
    assert lines == [f"  {rec['path']}  {rec['sha256'][:12]}" for rec in outputs]
    # list-presets: the ids; simulate and analyze: each path written
    assert exit_code(["list-presets"]) == 0
    assert capsys.readouterr().out.splitlines() == lab.list_presets()
    assert exit_code(["simulate", "--model", "kerr", "--steps", 50, "--out", "s"]) == 0
    series = Path("s", "kerr_series.wprs")
    assert capsys.readouterr().out == f"{series}\n"
    assert exit_code(["analyze", "--task", "density", "--series", series, "--svg"]) == 0
    written = [str(series.with_name(f"kerr_series_density.{s}")) for s in ("txt", "svg")]
    assert capsys.readouterr().out.splitlines() == written


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
