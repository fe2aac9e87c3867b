"""Deterministic synthetic series used for estimator validation, and
the series of a preset's model.

Each generator's start, parameters, transient and sampling step are fixed
values, named in its docstring: the length (and a sine's period) is all
a caller chooses."""

from __future__ import annotations

import numpy as np

from wplab import lab
from wplab.presets import PRESETS
from wplab.series import TimeSeries

GOLDEN_ROTATION = float((np.sqrt(5.0) - 1.0) / 2.0)


def logistic_series(length: int) -> TimeSeries:
    """Orbit of x -> 4x(1-x) from x0 = 0.2 after 1 000 transient steps."""
    x = 0.2
    for _ in range(1000):
        x = 4.0 * x * (1.0 - x)
    out = np.empty(length)
    for k in range(length):
        out[k] = x
        x = 4.0 * x * (1.0 - x)
    return TimeSeries(1.0, out, observable="logistic", meta={"a": 4.0, "x0": 0.2})


def henon_series(length: int) -> TimeSeries:
    """x-coordinate orbit of the Henon map (a = 1.4, b = 0.3) from
    (0.1, 0.1) after 1 000 transient steps."""
    x, y = 0.1, 0.1
    for _ in range(1000):
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
    out = np.empty(length)
    for k in range(length):
        out[k] = x
        x, y = 1.0 - 1.4 * x * x + y, 0.3 * x
    return TimeSeries(1.0, out, observable="henon_x", meta={"a": 1.4, "b": 0.3})


def rotation_series(length: int) -> TimeSeries:
    """Circle rotation frac(k * GOLDEN_ROTATION), in extended precision."""
    k = np.arange(length, dtype=np.longdouble)
    vals = np.mod(k * np.longdouble(GOLDEN_ROTATION), np.longdouble(1.0)).astype(float)
    return TimeSeries(1.0, vals, observable="rotation", meta={"angle": GOLDEN_ROTATION})


def preset_series(preset_id: str, steps: int, dt: float | None = None) -> TimeSeries:
    """``steps`` samples of a preset's model, parameters and state, at the
    preset's sample spacing unless ``dt`` is given."""
    p = PRESETS[preset_id]
    dt = p.dt if dt is None else dt
    return lab.simulate_series(p.model, p.params, p.nu, p.m, dt, steps)


def sine_series(length: int, period: float) -> TimeSeries:
    """sin(2 pi k / period), sampled at dt = 1."""
    k = np.arange(length)
    return TimeSeries(
        1.0, np.sin(2.0 * np.pi * k / period), observable="sine", meta={"period": period}
    )


def _rk4(field, dt: float, length: int) -> np.ndarray:
    """x of the fixed-step RK4 orbit of (x, y, z)' = field(x, y, z) from
    (1, 1, 1), one sample a step after 5 000 transient steps."""
    v, out = (1.0, 1.0, 1.0), np.empty(5000 + length)
    for k in range(out.size):
        out[k] = v[0]
        a = field(*v)
        b = field(*(s + 0.5 * dt * e for s, e in zip(v, a)))
        c = field(*(s + 0.5 * dt * e for s, e in zip(v, b)))
        d = field(*(s + dt * e for s, e in zip(v, c)))
        v = tuple(
            s + dt / 6.0 * (p + 2.0 * q + 2.0 * r + w)
            for s, p, q, r, w in zip(v, a, b, c, d)
        )
    return out[5000:]


def lorenz_series(length: int) -> TimeSeries:
    """x of the Lorenz flow (sigma = 16, R = 45.92, b = 4) by RK4 at
    dt = 0.01 after a transient; lambda_1 = 1.50 (Rosenstein et al.,
    Physica D 65 (1993) 117)."""

    def field(x, y, z):
        return 16.0 * (y - x), x * (45.92 - z) - y, x * y - 4.0 * z

    return TimeSeries(0.01, _rk4(field, 0.01, length), observable="lorenz_x")


def rossler_series(length: int) -> TimeSeries:
    """x of the Rossler flow (a = 0.15, b = 0.2, c = 10) by RK4 at dt = 0.1
    after a transient; lambda_1 = 0.090 (Rosenstein et al. 1993)."""

    def field(x, y, z):
        return -y - z, x + 0.15 * y, 0.2 + z * (x - 10.0)

    return TimeSeries(0.1, _rk4(field, 0.1, length), observable="rossler_x")
