import pytest

from wplab import cli, seriesio


def simulate_with_config(tmp_path, config_text, *flags):
    config = tmp_path / "wplab.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    argv = ["--config", str(config), "simulate", "--model", "kerr", "--nu", "0.5"]
    assert cli.main(argv + ["--out", str(out), *flags]) == 0
    return seriesio.read_series(out / "kerr_series.wprs")


def test_config_value_becomes_default(tmp_path):
    ts = simulate_with_config(tmp_path, "steps = 50  # short run\ndt = 0.002\n")
    assert len(ts) == 50
    assert ts.dt == 0.002


def test_explicit_flag_beats_config(tmp_path):
    ts = simulate_with_config(tmp_path, "steps = 50\ndt = 0.002\n", "--steps", "7")
    assert len(ts) == 7
    assert ts.dt == 0.002


@pytest.mark.parametrize(
    "command", [["simulate", "--model", "kerr"], ["preset", "fig1"]]
)
def test_parser_takes_config_defaults(command):
    args = cli.build_parser({"steps": 50, "out": "runs"}).parse_args(command)
    assert (args.steps, args.out) == (50, "runs")
