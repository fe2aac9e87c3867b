import json

import pytest

from wplab import lab, seriesio
from wplab.benchmarks import sine_series


def test_classify_json_for_regular_verdict(tmp_path):
    series = seriesio.write_series(sine_series(20_000, period=100.0), tmp_path / "s.wprs")
    options = {
        "delay": 25,
        "dimension": 2,
        "theiler": 50,
        "horizon": 300,
        "curve_stride": 3,
    }
    (path,) = lab.analyze("classify", series, options)
    payload = json.loads(path.read_text())
    assert payload["label"] == "regular"
    assert payload["ambiguous"] is False


def test_failed_preset_leaves_no_outputs(tmp_path):
    # the 4000-sample recurrence window does not fit 2000 steps; the
    # series and the exports written before that task must go too
    out = tmp_path / "out"
    with pytest.raises(ValueError, match="does not fit"):
        lab.run_preset("fig11-14", out, steps=2000)
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "preset_id, steps, reason",
    [("fig11-14", 2000, "does not fit"), ("table1", 20_000, "horizon")],
)
def test_bad_steps_fail_before_simulating(
    tmp_path, monkeypatch, preset_id, steps, reason
):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulate_series ran")

    monkeypatch.setattr(lab, "simulate_series", no_simulation)
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=reason):
        lab.run_preset(preset_id, out, steps=steps)
    assert list(out.iterdir()) == []


def test_series_sidecar_records_pruning(tmp_path):
    models = {"kerr": {"chi": 1.0, "chi_prime": 0.0}, "bipartite": {"gamma": 5.0}}
    for model, params in models.items():
        path = lab.simulate(model, params, (5.0, 5), 1e-2, 50, tmp_path / model)
        meta = json.loads(path.with_name(path.name + ".meta.json").read_text())["meta"]
        assert meta["spectral_terms_kept"] <= meta["spectral_terms"]
        assert meta["spectral_dropped_mass"] <= meta["spectral_prune_budget"]
        assert ("norm_error" in meta) == (model == "bipartite")
