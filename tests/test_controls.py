"""Signals of known dynamics through the verdict that ``table1`` reports.

Every control is run through ``lab._lyapunov_report`` at the ``table1``
classify options on 60 000 samples.  The chaotic controls must come out
"chaotic" and the regular ones must not.  Each case that fails today is
a strict xfail naming ROADMAP defect 1 (the fit window that ``classify``
accepts is checked against nothing) with what it measured, so fixing
the verdict turns it into a pass that must be unmarked.
"""

import numpy as np
import pytest

from wplab import lab
from wplab.bipartite import TwoModeParams, decompose_initial, occupancy_sum
from wplab.presets import PRESETS
from wplab.series import SpectralSum, TimeSeries

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
    gamma/g = 5 CS row: the sum ``occupancy_sum`` returns, with every
    term's phase drawn uniformly (seeded).  The row's own series is
    <a+a> = N - <b+b>, and the reflection x -> N - x leaves unchanged
    every distance between delay vectors that the verdict uses.  It
    keeps each |a_j| and frequency, so it is quasi-periodic by
    construction, and its amplitudes are complex where the row's own are
    real."""
    (entry,) = (
        e for e in PRESETS["table1"].entries if e.id.startswith("gamma_over_g=5 CS")
    )
    p = TwoModeParams(**entry.params)
    field = lab.initial_field_state(entry.nu, entry.m)
    s = occupancy_sum(decompose_initial(field, p))[0]
    phases = np.exp(2j * np.pi * np.random.default_rng(0).random(s.amp.size))
    surrogate = SpectralSum(s.amp * phases, s.levels, s.upper, s.lower, s.const)
    return TimeSeries(DT, surrogate.evaluate(DT, SAMPLES)[0])


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
        marks=defect_1("chaotic, lambda 0.555 on fit [860, 1360], R2 0.9998"),
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
