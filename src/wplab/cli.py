"""Command-line interface.

Subcommands: ``simulate`` (write a series file), ``analyze`` (run one
analysis task on a series file), ``preset`` (run a catalogued
experiment), ``verify`` (check a preset's outputs against its
manifest), ``list-presets``.  The ``analyze`` option flags are
generated from ``lab.OPTIONS``.

``--config FILE`` reads flat ``key = value`` lines (``#`` starts a
comment).  The keys are the subcommands' optional flags without the
leading dashes (``max-lag`` or ``max_lag``); a value goes through the
same conversion as its flag, and a switch such as ``svg`` takes yes/no,
true/false, on/off or 1/0.  Config values become the defaults; explicit
flags win.  One config file may serve several tasks, so ``analyze``
passes on only the config values its ``--task`` owns, while a flag the
task does not own is an error.

Exit status: 0 success, 1 runtime error, such as a malformed or empty
series file or ``.meta.json`` sidecar (nothing is written), 2 usage
error: a bad flag, config value, analysis option, preset id, model
parameter, ``nu``, ``m``, ``dt`` or ``steps``, found before any file is
read or written, or a series too short for the task and its options by
a length rule of ``embed`` or ``recur`` (their ``check_*`` functions),
found once the series is read (``preset``: before simulating it), or
once the delay or dimension the rule needs is chosen, and before any
output.  ``verify``
exits 0 when every output matches its manifest, 1 naming the first
missing or changed one, and 2 when the manifest cannot be read.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict
from pathlib import Path

from . import lab

_SWITCH = {
    **dict.fromkeys(("1", "true", "yes", "on"), True),
    **dict.fromkeys(("0", "false", "no", "off"), False),
}


def read_config(path: str | Path) -> dict[str, str]:
    """Flat key = value lines, values as text; # starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, _, val = line.partition("=")
        out[key.strip().replace("-", "_")] = val.strip()
    return out


def _config_value(action: argparse.Action, value):
    """A config value through the same conversion as its flag."""
    if isinstance(value, str):
        try:
            if action.nargs == 0:  # an on/off switch
                value = _SWITCH[value.lower()]
            elif action.type is not None:
                value = action.type(value)
        except (KeyError, TypeError, ValueError):
            raise ValueError(f"invalid {action.dest} value {value!r}") from None
    return value


def _option_help(opt: lab.Option) -> str:
    default = opt.default
    if default is None or callable(default):
        default = ""  # the help names a derived default
    else:
        default = f" [{default}]"
    return f"{opt.help}{default}; tasks: {', '.join(opt.tasks)}"


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` values become the subcommands' defaults.

    Raises ``ValueError`` for a config key that is no optional flag, or a
    value its flag would reject.
    """
    parser = argparse.ArgumentParser(
        prog="wplab",
        description="Wave-packet dynamics laboratory: simulate nonlinear "
        "quantum-optical models and analyze recurrence statistics.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)
    # dest -> (subparser, action) of each optional flag, which a config can seed
    flags = defaultdict(list)

    def flag(subparser, name, **kwargs):
        action = subparser.add_argument(name, **kwargs)
        flags[action.dest].append((subparser, action))

    sim = sub.add_parser("simulate", help="generate a series file")
    sim.add_argument("--model", choices=("kerr", "bipartite"), required=True)
    flag(sim, "--nu", type=float, default=1.0, help="mean photon number")
    flag(sim, "--m", type=int, default=0, help="photon additions")
    flag(sim, "--chi", type=float, default=1.0)
    flag(sim, "--chi-prime-ratio", type=float, default=0.01, help="chi'/chi (kerr)")
    flag(sim, "--g", type=float, default=1.0)
    flag(sim, "--omega", type=float, default=1.0)
    flag(sim, "--omega0", type=float, default=1.0)
    flag(sim, "--gamma-over-g", type=float, default=0.01, help="gamma/g (bipartite)")
    flag(sim, "--dt", type=float, default=1e-3)
    flag(sim, "--steps", type=int, default=100_000)
    flag(sim, "--out", default=".", help="output directory")

    ana = sub.add_parser("analyze", help="run one analysis task on a series file")
    ana.add_argument("--task", choices=lab.ANALYSIS_TASKS, required=True)
    ana.add_argument("--series", required=True, help="input .wprs file")
    flag(ana, "--out", default=None, help="output directory")
    for name, opt in lab.OPTIONS.items():
        flag(ana, "--" + name.replace("_", "-"), type=opt.type, help=_option_help(opt))
    flag(ana, "--svg", action="store_true")

    pre = sub.add_parser("preset", help="run a catalogued experiment")
    pre.add_argument("id", help="preset id (see list-presets)")
    flag(pre, "--out", default=".", help="output directory")
    flag(pre, "--steps", type=int, default=None)
    flag(pre, "--dt", type=float, default=None)
    flag(
        pre, "--full-scale", action="store_true",
        help="1e7-sample series (fig5 and fig6 keep their 4000)",
    )
    flag(pre, "--svg", action="store_true")

    ver = sub.add_parser("verify", help="check a preset's outputs against its manifest")
    ver.add_argument("manifest", help="<preset>_manifest.json; outputs lie beside it")

    sub.add_parser("list-presets", help="list preset ids")
    for key, value in (config or {}).items():
        if key not in flags:
            raise ValueError(f"unknown config key {key!r}")
        # a subcommand's own defaults win over the top-level parser's
        for subparser, action in flags[key]:
            subparser.set_defaults(**{key: _config_value(action, value)})
    return parser


def main(argv=None) -> int:
    args = given = build_parser().parse_args(argv)
    if args.config:
        try:
            parser = build_parser(read_config(args.config))
        except (OSError, ValueError) as exc:
            print(f"wplab: config error: {exc}", file=sys.stderr)
            return 2
        args = parser.parse_args(argv)

    try:
        if args.command == "list-presets":
            for pid in lab.list_presets():
                print(pid)
        elif args.command == "simulate":
            if args.model == "kerr":
                params = {"chi": args.chi, "chi_prime": args.chi * args.chi_prime_ratio}
            else:
                params = {
                    "omega": args.omega,
                    "omega0": args.omega0,
                    "gamma": args.g * args.gamma_over_g,
                    "g": args.g,
                }
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
            # every flag given, and the config values the task owns
            options = {
                name: getattr(args, name)
                for name, opt in lab.OPTIONS.items()
                if getattr(given, name) is not None or args.task in opt.tasks
            }
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
