"""wplab benchmark: closed-loop batch runs of one workload.

Usage, from the root of a source checkout (wplab is imported from src/):

    python3 perfbench/run.py --workload two-mode-wide --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 40 --trace 0

Runs go one at a time from this process, each in a fresh Python process
(child.py) with BLAS pinned to one thread, until the next run would end
after ``--seconds``; to reach MIN_RUNS runs it may end up to OVERRUN_S
later.  After each run, outside
its timed region, the output checks in checks.py run; every analysis
task and every check is one operation, and one that fails or raises
counts as failed.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are reported
as medians over the runs; set-up time also takes in SETUP_PROBES
set-up-only processes after each run.  With ``--trace 1`` untraced and traced runs
alternate; the per-layer metrics are medians over the traced runs, and
``trace.overhead_s`` is the traced minus the untraced median wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The environment
(cores, CPU, versions, BLAS threads, load, commit) is printed before it
and saved with the per-run records under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
MIN_RUNS = 3
# set-up-only processes started after each run, so that set-up time is a
# median over several samples spread across the measurement
SETUP_PROBES = 2
OVERRUN_S = 5.0
CHILD_TIMEOUT_S = 120.0


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict[str, object]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
                check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_ENV,
        "git_commit": commit,
    }


def run_child(workload: str, seed: int, run_dir: Path, mode: str):
    """One child process (see child.py); its result record, or None if it died."""
    out = run_dir / "out"
    out.mkdir(parents=True)
    result = run_dir / "result.json"
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    cmd = [sys.executable, str(BENCH / "child.py"), workload, str(seed), str(out),
           str(result), mode]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"run timed out after {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    if proc.returncode != 0 or not result.exists():
        print(f"run exited with code {proc.returncode}", file=sys.stderr)
        return None
    rec = json.loads(result.read_text())
    rec["setup_s"] = rec.pop("setup_end") - spawned
    return rec


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import checks
    import spans
    from workloads import WORKLOADS, resolve

    inputs = resolve(WORKLOADS[workload], seed)
    base = WORK / "runs" / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    runs: list[dict] = []
    setups: list[float] = []
    attempted = failed = 0
    failures: list[str] = []
    reference = None
    start = time.monotonic()
    while True:
        began = time.monotonic()
        traced = trace and len(runs) % 2 == 1
        run_dir = base / f"run{len(runs)}"
        rec = run_child(workload, seed, run_dir, "trace" if traced else "run")
        if rec is None:
            rec = {"tasks": [{"task": t, "ok": False, "error": "run died"}
                             for t, _ in inputs.tasks]}
        rec["traced"] = traced
        rec["checks"] = checks.run_checks(inputs, run_dir / "out", reference)
        if reference is None:
            reference = checks.data_digests(run_dir / "out")
        if "trace" in rec:
            rec["layers"] = spans.layer_metrics(rec.pop("trace"))
        for op in rec["tasks"] + rec["checks"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                failures.append(
                    f"run {len(runs)} {op.get('task') or op.get('check')}: {op['error']}"
                )
        runs.append(rec)
        shutil.rmtree(run_dir, ignore_errors=True)
        for k in range(0 if trace else SETUP_PROBES):
            probe = run_child(workload, seed, base / f"setup{k}", "setup")
            if probe is not None:
                setups.append(probe["setup_s"])
            shutil.rmtree(base / f"setup{k}", ignore_errors=True)
        now = time.monotonic()
        ahead = now - start + (now - began)  # projected end of one more run
        if ahead > seconds + OVERRUN_S or (len(runs) >= MIN_RUNS and ahead > seconds):
            break
    shutil.rmtree(base, ignore_errors=True)
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "dt": inputs.dt,
        "steps": inputs.steps,
        "runs": runs,
        "setup_probes": setups,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def end_to_end(m: dict) -> dict[str, float]:
    timed = [r for r in m["runs"] if "wall_s" in r and not r["traced"]]
    return {
        "wall_s": statistics.median(r["wall_s"] for r in timed),
        "setup_s": statistics.median(
            [r["setup_s"] for r in m["runs"] if "setup_s" in r] + m["setup_probes"]
        ),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in timed),
        "ok_frac": (m["attempted"] - m["failed"]) / m["attempted"],
    }


def per_layer(m: dict) -> dict[str, float]:
    traced = [r for r in m["runs"] if "layers" in r]
    plain = [r["wall_s"] for r in m["runs"] if "wall_s" in r and not r["traced"]]
    out = {
        key: statistics.median(r["layers"][key] for r in traced)
        for key in traced[0]["layers"]
    }
    out["process.cpu_s"] = statistics.median(r["cpu_s"] for r in traced)
    out["trace.overhead_s"] = statistics.median(
        r["wall_s"] for r in traced
    ) - statistics.median(plain)
    return out


def summary_line(m: dict, values: dict[str, float], units: dict[str, str]) -> str:
    shown = " ".join(f"{k}={v:.6g} {units[k]}" for k, v in values.items())
    fail_frac = m["failed"] / m["attempted"]
    return (
        f"{m['workload']} seed={m['seed']} dt={m['dt']!r} steps={m['steps']} "
        f"runs={len(m['runs'])}: {shown} fail_frac={fail_frac:.6g} ratio "
        f"({m['failed']}/{m['attempted']} operations failed)"
    )


def main(argv=None) -> int:
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "wplab" / "__init__.py").is_file():
        print(f"wplab sources not found under {SRC}", file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()
    units = layer_units if args.trace else e2e_units

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    env["loadavg_after"] = os.getloadavg()

    metrics: dict[str, dict[str, object]] = {}
    for m in results:
        done = [r for r in m["runs"] if "wall_s" in r]
        if not any(not r["traced"] for r in done) or (
            args.trace and not any(r["traced"] for r in done)
        ):
            print(f"{m['workload']}: no run completed", file=sys.stderr)
            for line in m["failures"]:
                print(line, file=sys.stderr)
            return 1
        values = per_layer(m) if args.trace else end_to_end(m)
        values = {k: values[k] for k in units}
        m["metrics"] = values
        prefix = "" if len(results) == 1 else f"{m['workload']}/"
        for k, v in values.items():
            metrics[prefix + k] = {"value": v, "unit": units[k]}
        for line in m["failures"]:
            print(line, file=sys.stderr)
        print(summary_line(m, values, units))

    WORK.joinpath("results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = WORK / "results" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    record.write_text(json.dumps({"env": env, "results": results}, indent=1))
    print("env: " + json.dumps(env))
    attempted = sum(m["attempted"] for m in results)
    failed = sum(m["failed"] for m in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
