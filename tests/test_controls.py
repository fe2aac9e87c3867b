"""Signals of known dynamics through the verdict that ``table1`` reports.

Every control is run through ``lab._lyapunov_report`` at the ``table1``
classify options on 60 000 samples.  The chaotic controls must come out
"chaotic" and the regular ones must not.  Each case that fails today is
a strict xfail naming ROADMAP defect 1 (the fit window that ``classify``
accepts is checked against nothing) with what it measured, so fixing
the verdict turns it into a pass that must be unmarked.
"""

from dataclasses import replace

import numpy as np
import pytest

from wplab import lab
from wplab.presets import PRESETS
from wplab.series import TimeSeries

from synthetic import (
    henon_series,
    logistic_series,
    lorenz_series,
    rossler_series,
    rotation_series,
    sine_series,
)

SAMPLES = 60_000
DT = 1e-3  # sample spacing of the signals written as functions of t


def signal(f) -> TimeSeries:
    return TimeSeries(DT, f(np.arange(SAMPLES) * DT))


def phase_surrogate() -> TimeSeries:
    """An exact phase surrogate of the second mode's <b+b> in ``table1``'s
    gamma/g = 5 CS row: the kept sum that the row's series carries, without
    its ``minuend``, with every kept term's phase drawn uniformly (seeded).
    The row's own series is <a+a> = N - <b+b>, and the reflection
    x -> N - x leaves unchanged every distance between delay vectors that
    the verdict uses.  It keeps each |a_j| and frequency, so it is
    quasi-periodic by construction, and its amplitudes are complex where
    the row's own are real."""
    (entry,) = (
        e for e in PRESETS["table1"].entries if e.id.startswith("gamma_over_g=5 CS")
    )
    kept = lab.simulate_series(
        entry.model, entry.params, entry.nu, entry.m, DT, SAMPLES
    ).spectrum
    phases = np.exp(2j * np.pi * np.random.default_rng(0).random(kept.amp.size))
    surrogate = replace(kept, amp=kept.amp * phases, minuend=None)
    return TimeSeries(DT, surrogate.evaluate(DT, SAMPLES))


def kerr_state(preset_id: str, dt: float) -> TimeSeries:
    """The series of a Kerr preset's state and parameters at spacing
    ``dt``.  Every Kerr preset's series repeats after exactly 100 pi."""
    p = PRESETS[preset_id]
    return lab.simulate_series(p.model, p.params, p.nu, p.m, dt, SAMPLES)


KERR_DT = 0.011  # SAMPLES * KERR_DT = 660: 2.1 periods of 100 pi


def defect_1(measured: str):
    return pytest.mark.xfail(strict=True, reason=f"ROADMAP defect 1: {measured}")


CHAOTIC = [
    pytest.param(
        lambda: logistic_series(SAMPLES),
        id="logistic",
        marks=defect_1("regular, lambda 3.9e-06 on fallback fit [20, 4000], R2 0.02"),
    ),
    pytest.param(
        lambda: henon_series(SAMPLES),
        id="henon",
        marks=defect_1("regular, lambda 5.7e-07 on fallback fit [20, 4000], R2 0.005"),
    ),
    # lambda_1 = 1.50 (Rosenstein et al. 1993); 1.385 measured
    pytest.param(lambda: lorenz_series(SAMPLES), id="lorenz"),
    # lambda_1 = 0.090; 0.0813 measured
    pytest.param(lambda: rossler_series(SAMPLES), id="rossler"),
]

REGULAR = [
    pytest.param(lambda: sine_series(SAMPLES, period=1000.0), id="sine"),
    pytest.param(lambda: rotation_series(SAMPLES), id="rotation"),
    pytest.param(
        lambda: signal(lambda t: np.cos(t) ** 2),  # periodic
        id="cos2",
        marks=defect_1("chaotic, lambda 0.048 on fit [1520, 1600], R2 0.9992"),
    ),
    pytest.param(
        lambda: signal(lambda t: np.cos(t) + np.cos(np.sqrt(2.0) * t)),
        id="cos-plus-cos-sqrt2",
        marks=defect_1("chaotic, lambda 0.349 on fit [3440, 4000], R2 0.9998"),
    ),
    pytest.param(
        lambda: signal(
            lambda t: np.cos(t) + np.cos(np.sqrt(2.0) * t) + np.cos(np.sqrt(5.0) * t)
        ),
        id="three-frequency",
        marks=defect_1("chaotic, lambda 0.133 on fit [2920, 3340], R2 0.9998"),
    ),
    pytest.param(
        phase_surrogate,
        id="phase-surrogate",
        marks=defect_1("chaotic, lambda 0.556 on fit [860, 1360], R2 0.9998"),
    ),
    # the fig1, fig3 and fig4 states (nu, m = 1, 0; 100, 0; 100, 5) over
    # two periods come out "regular" with lambda -2.6e-4, 1.3e-4 and
    # 4.9e-5, but only on the fallback fit [20, 4000] (R2 0.47, 0.002,
    # 0.0004): the same fallback that makes logistic and Henon falsely
    # "regular", so these pass for a reason that defect 1 does not check
    pytest.param(lambda: kerr_state("fig1", KERR_DT), id="kerr-fig1"),
    pytest.param(lambda: kerr_state("fig3", KERR_DT), id="kerr-fig3"),
    pytest.param(lambda: kerr_state("fig4", KERR_DT), id="kerr-fig4"),
    # 0.19 periods: the delay search stops at its max_lag cap, 400
    pytest.param(
        lambda: kerr_state("fig1", DT),
        id="kerr-fig1-short",
        marks=defect_1(
            "chaotic, lambda 0.273 on fit [1360, 1480], R2 0.9998, at delay 400"
        ),
    ),
]


def verdict(series: TimeSeries) -> dict:
    (item,) = PRESETS["table1"].analyses
    options = lab.resolve_options(item.task, item.options)
    return lab._lyapunov_report(item.task, series, options)[1]


@pytest.mark.parametrize("make", CHAOTIC)
def test_chaotic_control_is_chaotic(make):
    payload = verdict(make())
    assert payload["label"] == "chaotic", payload


@pytest.mark.parametrize("make", REGULAR)
def test_regular_control_is_not_chaotic(make):
    payload = verdict(make())
    assert payload["label"] != "chaotic", payload
