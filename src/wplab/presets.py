"""Preset experiments at desk scale, with a full-scale switch.

Single-mode presets use chi = 1, chi'/chi = 1e-2, dt = 1e-3; two-mode
presets use omega = omega0 = g = 1 with gamma setting the nonlinearity,
and reuse dt = 1e-3 (the manifest records this assumption).  Desk-scale
series hold 1e6 samples; ``full_scale`` raises that to 1e7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

DESK_STEPS = 1_000_000
FULL_STEPS = 10_000_000


@dataclass(frozen=True)
class AnalysisTask:
    task: str
    options: dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentPreset:
    id: str
    model: str  # "kerr" | "bipartite"
    nu: float
    m: int
    params: dict[str, float]
    dt: float
    steps: int
    analyses: tuple[AnalysisTask, ...]
    notes: tuple[str, ...] = ()
    full_steps: int = FULL_STEPS


@dataclass(frozen=True)
class TablePreset:
    """A table: the report of its classify task on each entry's series, one row each."""

    id: str
    entries: tuple[ExperimentPreset, ...]
    dt: float
    steps: int
    analyses: tuple[AnalysisTask, ...]
    notes: tuple[str, ...] = ()
    full_steps: int = FULL_STEPS


_KERR = {"chi": 1.0, "chi_prime": 0.01}
_BIP_DT_NOTE = (
    "two-mode runs reuse dt = 1e-3 and the desk-scale series length; "
    "neither is pinned down for this model by the source material"
)

# analysis options state only values that differ from lab.OPTIONS' defaults

# embedding/divergence settings for the long model series; the embedding
# itself is still chosen per series from mutual information + FNN
_MODEL_LYAP = {"max_lag": 400, "horizon": 4000}

_F1 = AnalysisTask("f1")
_F2 = AnalysisTask("f2")
_RP = AnalysisTask("rp")
_RP_NOTE = "series length equals the recurrence-plot window"
_CLASSIFY = AnalysisTask("classify", dict(_MODEL_LYAP))


def _kerr(id: str, nu: float, m: int, *analyses: AnalysisTask, steps=DESK_STEPS, **kw):
    return ExperimentPreset(id, "kerr", nu, m, dict(_KERR), 1e-3, steps, analyses, **kw)


def _two_mode(id: str, nu: float, m: int, gamma: float, analyses: tuple):
    params = {"omega": 1.0, "omega0": 1.0, "gamma": gamma, "g": 1.0}
    return ExperimentPreset(
        id, "bipartite", nu, m, params, 1e-3, DESK_STEPS, analyses, (_BIP_DT_NOTE,)
    )


PRESETS: dict[str, ExperimentPreset | TablePreset] = {
    p.id: p
    for p in (
        _kerr("fig1", 1.0, 0, _F1, notes=("median-centered cell of width 1e-2",)),
        _kerr("fig2", 1.0, 5, _F1),
        _kerr("fig3", 100.0, 0, _F1, _F2),
        _kerr("fig4", 100.0, 5, _F1, _F2, AnalysisTask("lyapunov", dict(_MODEL_LYAP))),
        _kerr("fig5", 1.0, 0, _RP, steps=4000, full_steps=4000, notes=(_RP_NOTE,)),
        _kerr("fig6", 100.0, 5, _RP, steps=4000, full_steps=4000, notes=(_RP_NOTE,)),
        _two_mode("fig7-10", 1.0, 0, gamma=0.01, analyses=(
            AnalysisTask("returnmap"),
            _RP,
            AnalysisTask("f1", {"cell": (0.596, 0.604)}),
            AnalysisTask("density", {"bin_width": 0.001}),
        )),
        _two_mode("fig11-14", 5.0, 5, gamma=5.0, analyses=(
            AnalysisTask("returnmap"),
            _RP,
            AnalysisTask("f1", {"cell": (12.455, 12.465)}),
            AnalysisTask("f2", {"cell": (12.455, 12.465)}),
            AnalysisTask("density"),
            _CLASSIFY,
        )),
        TablePreset(
            id="table1",
            entries=tuple(
                _two_mode(f"gamma_over_g={go:g} {kind} nu={nu:g} m={m}", nu, m, go, ())
                for go in (0.01, 1.0, 5.0)
                for kind, nu, m in (("CS", 1.0, 0), ("PACS", 5.0, 5))
            ),
            dt=1e-3,
            steps=DESK_STEPS,
            analyses=(_CLASSIFY,),
            notes=(
                "classification grid over the nonlinearity ratio and the two "
                "reference initial states",
                _BIP_DT_NOTE,
            ),
        ),
    )
}


def get_preset(preset_id: str):
    try:
        return PRESETS[preset_id]
    except KeyError:
        raise KeyError(
            f"unknown preset {preset_id!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
