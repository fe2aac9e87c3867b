"""Command-line interface.

Subcommands: ``simulate`` (write a series file, its ``.meta.json``
sidecar and its stored spectral sum, ``.sum``), ``analyze`` (run one
analysis task on a series file), ``preset`` (run a catalogued
experiment), ``verify`` (check a preset's outputs against its
manifest), ``list-presets``.  ``--model``'s choices are the keys of
``lab.MODELS``, and ``MODEL_FLAGS`` holds each model's own ``simulate``
flags; the ``analyze`` option flags come from ``lab.OPTIONS``.
``analyze --svg`` and ``preset --svg`` also draw an SVG plot for the
tasks in ``SVG_TASKS`` (f1, f2, density, returnmap, rp and lyapunov);
mi, fnn and classify draw none, so neither does the ``table1`` preset.

Exit status: 0 success, 1 runtime error, such as a malformed or empty
series file, ``.meta.json`` sidecar or ``.sum`` file (nothing is written), 2 usage
error: a bad flag, a flag of another model, analysis option, preset
id, model parameter, ``nu``, ``m``, ``dt`` or ``steps``, or an ``nu``
or ``m`` beyond the Fock basis cap, found before any file is read or written, or a series
too short for the task and its options by a length rule of ``embed``
or ``recur`` (their ``check_*`` functions), found once the series is
read (``preset``: before simulating it), or once the delay or
dimension the rule needs is chosen, and before any output.  ``verify``
exits 0 when every output matches its manifest, 1 naming the first
missing or changed one, and 2 when the manifest cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import lab


# each model's ``simulate`` flags, with their defaults, and the model
# parameters they map to; a flag of another model is a usage error
MODEL_FLAGS = {
    "kerr": {"chi": 1.0, "chi_prime_ratio": 0.01},
    "bipartite": {"g": 1.0, "omega": 1.0, "omega0": 1.0, "gamma_over_g": 0.01},
}
MODEL_PARAMS = {
    "kerr": lambda f: {"chi": f["chi"], "chi_prime": f["chi"] * f["chi_prime_ratio"]},
    "bipartite": lambda f: {"omega": f["omega"], "omega0": f["omega0"],
                            "gamma": f["g"] * f["gamma_over_g"], "g": f["g"]},
}
FLAG_HELP = {"chi_prime_ratio": "chi'/chi", "gamma_over_g": "gamma/g"}

# the tasks whose export ``--svg`` also draws
SVG_TASKS = ("f1", "f2", "density", "returnmap", "rp", "lyapunov")
SVG_HELP = (
    f"also draw an SVG plot of tasks {', '.join(SVG_TASKS[:-1])} and "
    f"{SVG_TASKS[-1]}; mi, fnn and classify draw none"
)


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _model_params(args: argparse.Namespace) -> dict[str, float]:
    """The parameters of ``args.model`` from its flags, each flag not
    given at its default; a flag of another model raises ``OptionError``."""
    own = MODEL_FLAGS[args.model]
    given = {name: getattr(args, name) for flags in MODEL_FLAGS.values() for name in flags}
    foreign = [_flag(n) for n, value in given.items() if value is not None and n not in own]
    if foreign:
        raise lab.OptionError(f"model {args.model!r} takes no {', '.join(foreign)}")
    flags = {n: default if given[n] is None else given[n] for n, default in own.items()}
    return MODEL_PARAMS[args.model](flags)


def _option_help(opt: lab.Option) -> str:
    default = opt.default
    if default is None or callable(default):
        default = ""  # the help names a derived default
    else:
        default = f" [{default}]"
    return f"{opt.help}{default}; tasks: {', '.join(opt.tasks)}"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wplab",
        description="Wave-packet dynamics laboratory: simulate nonlinear "
        "quantum-optical models and analyze recurrence statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a series file")
    sim.add_argument(
        "--model", choices=tuple(lab.MODELS), required=True,
        help=f"the model: {', '.join(lab.MODELS)}",
    )
    sim.add_argument("--nu", type=float, default=1.0, help="mean photon number")
    sim.add_argument("--m", type=int, default=0, help="photon additions")
    for model, flags in MODEL_FLAGS.items():
        for name, default in flags.items():
            text = f"{FLAG_HELP[name]} ({model})" if name in FLAG_HELP else model
            sim.add_argument(_flag(name), type=float, help=f"{text} [{default}]")
    sim.add_argument("--dt", type=float, default=1e-3, help="sample spacing [1e-3]")
    sim.add_argument("--steps", type=int, default=100_000, help="samples [100 000]")
    sim.add_argument("--out", default=".", help="output directory")

    ana = sub.add_parser("analyze", help="run one analysis task on a series file")
    ana.add_argument(
        "--task", choices=lab.ANALYSIS_TASKS, required=True,
        help=f"the analysis: {', '.join(lab.ANALYSIS_TASKS)}",
    )
    ana.add_argument("--series", required=True, help="input .wprs file")
    ana.add_argument("--out", help="output directory")
    for name, opt in lab.OPTIONS.items():
        ana.add_argument(_flag(name), type=opt.type, help=_option_help(opt))
    ana.add_argument("--svg", action="store_true", help=SVG_HELP)

    pre = sub.add_parser("preset", help="run a catalogued experiment")
    pre.add_argument("id", help="preset id (see list-presets)")
    pre.add_argument("--out", default=".", help="output directory")
    pre.add_argument("--steps", type=int, help="samples [the preset's own]")
    pre.add_argument("--dt", type=float, help="sample spacing [the preset's own]")
    pre.add_argument(
        "--full-scale", action="store_true",
        help="1e7-sample series (fig5 and fig6 keep their 4000)",
    )
    pre.add_argument(
        "--svg", action="store_true", help=f"{SVG_HELP}, so table1 draws none"
    )

    ver = sub.add_parser("verify", help="check a preset's outputs against its manifest")
    ver.add_argument("manifest", help="<preset>_manifest.json; outputs lie beside it")

    sub.add_parser("list-presets", help="list preset ids")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list-presets":
            for pid in lab.list_presets():
                print(pid)
        elif args.command == "simulate":
            path = lab.simulate(
                args.model,
                _model_params(args),
                (args.nu, args.m),
                args.dt,
                args.steps,
                Path(args.out) / f"{args.model}_series.wprs",
            )
            print(path)
        elif args.command == "analyze":
            options = {name: getattr(args, name) for name in lab.OPTIONS}
            written = lab.analyze(
                args.task, args.series, options, out_dir=args.out, svg=args.svg
            )
            for p in written:
                print(p)
        elif args.command == "preset":
            manifest = lab.run_preset(
                args.id,
                out_dir=args.out,
                steps=args.steps,
                dt=args.dt,
                full_scale=args.full_scale,
                svg=args.svg,
            )
            print(f"{manifest.preset}: {len(manifest.outputs)} outputs, "
                  f"{manifest.wall_time_s:.1f}s")
            for rec in manifest.outputs:
                print(f"  {rec['path']}  {rec['sha256'][:12]}")
        elif args.command == "verify":
            try:
                manifest = lab.RunManifest.load(args.manifest)
            except (OSError, ValueError) as exc:
                print(f"wplab: unreadable manifest: {exc}", file=sys.stderr)
                return 2
            problem = manifest.mismatch(Path(args.manifest).parent)
            if problem is not None:
                print(f"wplab: {problem}", file=sys.stderr)
                return 1
            print(f"{manifest.preset}: {len(manifest.outputs)} outputs verified")
    except lab.OptionError as exc:
        print(f"wplab: usage error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"wplab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
