"""Command-line interface.

Subcommands: ``simulate`` (write a series file, its ``.meta.json``
sidecar and its stored spectral sum, ``.sum``), ``analyze`` (run one
analysis task on a series file), ``preset`` (run a catalogued
experiment), ``verify`` (check a preset's outputs against its
manifest), ``list-presets``.  ``--model``'s choices are the keys of
``lab.MODELS``; the ``analyze`` option flags come from ``lab.OPTIONS``.

Exit status: 0 success, 1 runtime error, such as a malformed or empty
series file, ``.meta.json`` sidecar or ``.sum`` file (nothing is written), 2 usage
error: a bad flag, analysis option, preset id, model parameter,
``nu``, ``m``, ``dt`` or ``steps``, or an ``nu`` or ``m`` beyond the
Fock basis cap, found before any file is read or written, or a series
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
    sim.add_argument("--model", choices=tuple(lab.MODELS), required=True)
    sim.add_argument("--nu", type=float, default=1.0, help="mean photon number")
    sim.add_argument("--m", type=int, default=0, help="photon additions")
    sim.add_argument("--chi", type=float, default=1.0)
    sim.add_argument(
        "--chi-prime-ratio", type=float, default=0.01, help="chi'/chi (kerr)"
    )
    sim.add_argument("--g", type=float, default=1.0)
    sim.add_argument("--omega", type=float, default=1.0)
    sim.add_argument("--omega0", type=float, default=1.0)
    sim.add_argument(
        "--gamma-over-g", type=float, default=0.01, help="gamma/g (bipartite)"
    )
    sim.add_argument("--dt", type=float, default=1e-3)
    sim.add_argument("--steps", type=int, default=100_000)
    sim.add_argument("--out", default=".", help="output directory")

    ana = sub.add_parser("analyze", help="run one analysis task on a series file")
    ana.add_argument("--task", choices=lab.ANALYSIS_TASKS, required=True)
    ana.add_argument("--series", required=True, help="input .wprs file")
    ana.add_argument("--out", help="output directory")
    for name, opt in lab.OPTIONS.items():
        ana.add_argument(
            "--" + name.replace("_", "-"), type=opt.type, help=_option_help(opt)
        )
    ana.add_argument("--svg", action="store_true")

    pre = sub.add_parser("preset", help="run a catalogued experiment")
    pre.add_argument("id", help="preset id (see list-presets)")
    pre.add_argument("--out", default=".", help="output directory")
    pre.add_argument("--steps", type=int, default=None)
    pre.add_argument("--dt", type=float, default=None)
    pre.add_argument(
        "--full-scale", action="store_true",
        help="1e7-sample series (fig5 and fig6 keep their 4000)",
    )
    pre.add_argument("--svg", action="store_true")

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
            params = {
                "kerr": {"chi": args.chi, "chi_prime": args.chi * args.chi_prime_ratio},
                "bipartite": {"omega": args.omega, "omega0": args.omega0,
                              "gamma": args.g * args.gamma_over_g, "g": args.g},
            }[args.model]
            path = lab.simulate(
                args.model,
                params,
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
