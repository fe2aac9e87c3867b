"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest perfbench
"""

import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from wplab.presets import get_preset  # noqa: E402


def test_seed_to_inputs_is_deterministic():
    for w in workloads.WORKLOADS.values():
        a = workloads.resolve(w, 7)
        assert a == workloads.resolve(w, 7)
        base = workloads.resolve(w, 0)
        assert a.dt != base.dt
        assert abs(a.dt / base.dt - 1.0) <= workloads.DT_JITTER
        assert (a.steps, a.tasks, a.params) == (base.steps, base.tasks, base.params)
    fig4 = workloads.resolve(workloads.WORKLOADS["kerr-lyapunov"], 0)
    assert fig4.dt == get_preset("fig4").dt
    assert workloads.dt_scale(3) != workloads.dt_scale(4)


def test_self_time_of_synthetic_nesting():
    nested = [
        ["lab.run_preset", 0.0, 10.0, -1],
        ["embed.false_nearest_neighbors", 1.0, 4.0, 0],
        ["neighbors.nearest", 2.0, 3.0, 1],
        ["neighbors.nearest", 3.0, 3.5, 1],
        ["seriesio.write_json", 5.0, 6.0, 0],
        ["lab.analyze", 11.0, 12.0, -1],
    ]
    assert spans.self_times(nested) == pytest.approx([6.0, 1.5, 1.0, 0.5, 1.0, 1.0])
    layers = spans.layer_metrics(
        {"spans": nested, "counts": {"neighbors.nearest_calls": 2, "neighbors.found": 1}}
    )
    assert layers["lab.self_s"] == pytest.approx(7.0)
    assert layers["embed.fnn_s"] == pytest.approx(1.5)
    assert layers["neighbors.nearest_s"] == pytest.approx(1.5)
    assert layers["seriesio.export_s"] == pytest.approx(1.0)
    assert layers["neighbors.found_frac"] == 0.5
    assert layers["eigen.decompose_s"] == 0.0


def test_overlapping_children_are_covered_once():
    nested = [["a", 0.0, 10.0, -1], ["b", 1.0, 5.0, 0], ["c", 3.0, 7.0, 0]]
    assert spans.self_times(nested)[0] == pytest.approx(4.0)


def test_tracer_records_parents():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: 1)
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    assert [(s[0], s[3]) for s in tracer.spans] == [
        ("outer", -1),
        ("inner", 0),
        ("inner", 0),
    ]


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A two-mode-wide run shrunk to a few seconds, with its first digests."""
    wide = workloads.resolve(workloads.WORKLOADS["two-mode-wide"], 1)
    inputs = replace(wide, nu=5.0, steps=2000)
    out = tmp_path_factory.mktemp("run")
    assert all(t["ok"] for t in workloads.execute(inputs, out))
    assert all(c["ok"] for c in checks.run_checks(inputs, out, None))
    return inputs, out, checks.data_digests(out)


@pytest.mark.parametrize("suffix", [".wprs", "_rp.txt"])
def test_flipped_byte_is_a_failed_operation(small_run, suffix):
    inputs, out, reference = small_run
    assert all(c["ok"] for c in checks.run_checks(inputs, out, reference))
    path = out / f"{inputs.stem}{suffix}"
    original = path.read_bytes()
    flipped = bytearray(original)
    flipped[len(flipped) // 2] ^= 0x01
    path.write_bytes(bytes(flipped))
    try:
        failed = [c for c in checks.run_checks(inputs, out, reference) if not c["ok"]]
    finally:
        path.write_bytes(original)
    assert failed
