"""The pinned run and its byte pins in ``digests.json``.

``pinned_runs`` makes the run twice, each in its own process with one BLAS
thread and the Haswell kernel: OpenBLAS rounds a GEMM differently per
thread count and per CPU kernel, and picks both when it loads.
``conftest.py`` shares the fixture, so one session makes it once.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from childproc import run_python

# every preset at small steps: long enough for its recurrence window and
# Lyapunov horizon (4000 -> more than 40 000 steps); fig5/fig6 at their own
SMOKE_STEPS = {
    **dict.fromkeys(("fig1", "fig2", "fig3", "fig7-10"), 20_000),
    **dict.fromkeys(("fig4", "fig11-14", "table1"), 41_000),
    **dict.fromkeys(("fig5", "fig6"), None),
}

# every preset at its SMOKE_STEPS, then the two-mode-wide benchmark's
# path, which no preset covers: a nu = 50 two-mode series, the widest the
# kernel and the recurrence-plot sweep run in the benchmark, through
# ``wplab simulate``, then ``wplab analyze`` at each task's defaults
PINNED_SCRIPT = """
import json, sys
from pathlib import Path
from wplab import cli, lab, seriesio
out = Path(sys.argv[1])
for preset_id, steps in json.loads(sys.argv[2]).items():
    lab.run_preset(preset_id, out / preset_id, steps=steps)
wide = out / "two-mode-wide"
series = str(wide / "bipartite_series.wprs")
argv = ["simulate", "--model", "bipartite", "--nu", "50", "--m", "5",
        "--gamma-over-g", "5", "--steps", "4000", "--out", str(wide)]
assert cli.main(argv) == 0
# the stored sum evaluates to the stored samples, bit for bit
ts = seriesio.read_series(series)
assert ts.spectrum.evaluate(ts.dt, len(ts)).tobytes() == ts.values.tobytes()
for task in ("rp", "density", "returnmap", "f1", "f2"):
    argv = ["analyze", "--task", task, "--series", series, "--out", str(wide)]
    assert cli.main(argv) == 0
"""
WIDE = "two-mode-wide/"


def is_wide(key: str) -> bool:
    return key.startswith(WIDE)


def data_digests(out: Path, *, wide: bool) -> dict[str, str]:
    """sha256 of every output except the manifests, which record wall
    time: the two-mode-wide path's if ``wide``, else the presets'."""
    return {
        key: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.glob("*/*"))
        if not p.name.endswith("_manifest.json")
        and is_wide(key := p.relative_to(out).as_posix()) == wide
    }


def pinned_digests(*, wide: bool) -> dict[str, str]:
    """``digests.json``'s entries of the same part as ``data_digests``."""
    pinned = json.loads(Path(__file__).with_name("digests.json").read_text())
    return {key: hex_ for key, hex_ in pinned.items() if is_wide(key) == wide}


@pytest.fixture(scope="session")
def pinned_runs(tmp_path_factory) -> list[Path]:
    """Two runs of ``PINNED_SCRIPT``, each in its pinned child."""
    out = tmp_path_factory.mktemp("pinned")
    for rerun in ("a", "b"):
        run_python(
            PINNED_SCRIPT, out / rerun, json.dumps(SMOKE_STEPS),
            threads=1, coretype="Haswell",
        )
    return [out / "a", out / "b"]
