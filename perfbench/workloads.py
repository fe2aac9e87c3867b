"""Benchmark workloads, the seed -> inputs rule, and one timed run.

Each workload is a batch job that goes through ``wplab``'s public entry
points: ``lab.run_preset`` for the two preset-derived workloads and
``lab.simulate`` followed by ``lab.analyze`` for ``two-mode-wide``.

Why these three:

* ``kerr-lyapunov`` (preset ``fig4``, Kerr nu=100, m=5, n_max=189; f1, f2
  and ``lyapunov``): neighbour search in FNN and Rosenstein dominates.
  It bypasses ``eigen``, ``bipartite`` and the recurrence-plot export.
  FNN cost falls only slowly with length, so 6e4 steps still show
  neighbour-search gains (horizon 4000 needs about 45k steps).
* ``two-mode-chaos`` (preset ``fig11-14``, nu=5, m=5, gamma/g=5; 34
  sectors, 765 terms; all six tasks, 2e5 steps): ``bipartite.occupancy_series``
  dominates and grows linearly with steps; neighbour search in ``classify``
  comes second.  ``eigen`` is a small share.  It bypasses ``kerr``.
* ``two-mode-wide`` (the CLI's simulate-then-analyze path, nu=50, m=5,
  gamma/g=5, 4000 steps; 104 sectors, 7124 terms): the pure-Python QL
  in ``eigen.decompose`` dominates, then the RP matrix and its export.
  It runs the same ``bipartite`` kernel as ``two-mode-chaos`` in the
  opposite shape (many terms, few steps), so per-call set-up added to
  the kernel shows here.  It bypasses neighbour search and embedding.

Left out on purpose: ``table1`` (every "regular" verdict crashes in
``embed.classify`` -> ``write_json`` on a ``numpy.bool_``; add it once
fixed), full-scale 1e7-step runs (too long for a benchmark run), and
``svg`` output and the Kantz estimator (no preset uses them).

The workload seed perturbs ``dt`` by a small deterministic factor (seed 0
keeps the preset's ``dt``).  That changes the sampled series and the
neighbour structure but not the amount of work.
"""

from __future__ import annotations

import hashlib
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

# largest relative change of dt a seed can make
DT_JITTER = 0.01


@dataclass(frozen=True)
class Workload:
    name: str
    steps: int
    preset: Optional[str] = None  # run through lab.run_preset when set
    # the fields below describe a simulate-then-analyze job (preset is None)
    model: str = ""
    params: dict[str, float] = field(default_factory=dict)
    nu: float = 0.0
    m: int = 0
    dt: float = 0.0
    tasks: tuple[str, ...] = ()  # run with lab.analyze's default options


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("kerr-lyapunov", steps=60_000, preset="fig4"),
        Workload("two-mode-chaos", steps=200_000, preset="fig11-14"),
        Workload(
            "two-mode-wide",
            steps=4000,
            model="bipartite",
            params={"omega": 1.0, "omega0": 1.0, "gamma": 5.0, "g": 1.0},
            nu=50.0,
            m=5,
            dt=1e-3,
            tasks=("rp", "density", "returnmap", "f1", "f2"),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Everything a run needs, resolved from a workload and a seed."""

    workload: str
    preset: Optional[str]
    model: str
    params: dict[str, float]
    nu: float
    m: int
    dt: float
    steps: int
    tasks: tuple[tuple[str, dict[str, Any]], ...]

    @property
    def stem(self) -> str:
        """File stem of the series; analysis exports are ``<stem>_<task>.txt``."""
        return f"{self.preset or self.workload}_series"


def dt_scale(seed: int) -> float:
    """1 for seed 0, else a factor in [1 - DT_JITTER, 1 + DT_JITTER)."""
    if seed == 0:
        return 1.0
    digest = hashlib.sha256(f"wplab-bench-seed-{seed}".encode()).digest()
    u = int.from_bytes(digest[:8], "big") / 2.0**64
    return 1.0 + DT_JITTER * (2.0 * u - 1.0)


def resolve(workload: Workload, seed: int) -> Inputs:
    """Preset lookup and seed -> dt; the same seed gives the same inputs."""
    if workload.preset is not None:
        from wplab.presets import get_preset

        p = get_preset(workload.preset)
        return Inputs(
            workload.name,
            p.id,
            p.model,
            dict(p.params),
            p.nu,
            p.m,
            p.dt * dt_scale(seed),
            workload.steps,
            tuple((a.task, dict(a.options)) for a in p.analyses),
        )
    return Inputs(
        workload.name,
        None,
        workload.model,
        dict(workload.params),
        workload.nu,
        workload.m,
        workload.dt * dt_scale(seed),
        workload.steps,
        tuple((t, {}) for t in workload.tasks),
    )


def execute(inputs: Inputs, out_dir: Path) -> list[dict[str, Any]]:
    """Run the workload's calls into wplab; one record per analysis task.

    A task that raises is recorded as failed.  ``run_preset`` runs all of
    a preset's tasks in one call, so when it raises every task fails.
    """
    from wplab import lab

    if inputs.preset is not None:
        try:
            lab.run_preset(inputs.preset, out_dir, steps=inputs.steps, dt=inputs.dt)
            error = ""
        except Exception as exc:  # noqa: BLE001 - counted as failed tasks
            error = f"{type(exc).__name__}: {exc}"
        return [{"task": t, "ok": not error, "error": error} for t, _ in inputs.tasks]

    records = []
    series = out_dir / f"{inputs.stem}.wprs"
    try:
        lab.simulate(
            inputs.model,
            inputs.params,
            (inputs.nu, inputs.m),
            inputs.dt,
            inputs.steps,
            series,
        )
    except Exception as exc:  # noqa: BLE001 - every task then fails reading it
        print(f"simulate failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    for task, options in inputs.tasks:
        try:
            lab.analyze(task, series, options, out_dir)
            records.append({"task": task, "ok": True, "error": ""})
        except Exception as exc:  # noqa: BLE001 - counted as a failed task
            records.append(
                {"task": task, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )
    return records
