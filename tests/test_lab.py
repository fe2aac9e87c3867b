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
