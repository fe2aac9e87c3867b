"""One benchmark run in a fresh process; started by run.py, one at a time.

Usage: python3 perfbench/child.py WORKLOAD SEED OUT_DIR RESULT_JSON MODE

MODE is ``run``, ``trace`` (a run with span wrappers installed) or
``setup`` (stop once set up, to sample set-up time alone).

Set-up ends once ``wplab`` is imported and the workload's inputs are
resolved; the parent measures it from just before it started this
process, on the shared monotonic clock.  The timed region runs from the
first call into ``wplab`` until all outputs (and the manifest) are
written.  Traced runs install the span wrappers after set-up and write
the spans to RESULT_JSON with the timings.
"""

import json
import resource
import sys
import time
from pathlib import Path

import wplab  # noqa: F401  (import cost belongs to set-up)
from workloads import WORKLOADS, execute, resolve


def peak_rss_kib(usage) -> float:
    """High-water resident set of this process image.

    Linux carries the parent's ``ru_maxrss`` across fork and exec, so a
    child of a large parent would report the parent's peak; ``VmHWM``
    belongs to the address space created by exec.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(usage.ru_maxrss)


def main(argv: list[str]) -> int:
    name, seed, out_dir, result_path, mode = argv
    inputs = resolve(WORKLOADS[name], int(seed))
    setup_end = time.monotonic()
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"setup_end": setup_end}))
        return 0

    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    t0 = time.perf_counter()
    tasks = execute(inputs, Path(out_dir))
    wall = time.perf_counter() - t0

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "setup_end": setup_end,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_kib(usage) / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "tasks": tasks,
    }
    if tracer is not None:
        result["trace"] = tracer.dump()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
