"""Command-line interface.

Subcommands: ``simulate`` (write a series file), ``analyze`` (run one
analysis task on a series file), ``preset`` (run a catalogued
experiment), ``list-presets``.  A flat ``key = value`` config file can
seed any flag; explicit flags win.  Exit status: 0 success, 1 runtime
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import lab
from .lab import ANALYSIS_TASKS

# config keys and the conversion applied to their values
_CONFIG_TYPES = {
    "dt": float,
    "steps": int,
    "nu": float,
    "m": int,
    "chi": float,
    "chi_prime_ratio": float,
    "g": float,
    "omega": float,
    "omega0": float,
    "gamma_over_g": float,
    "cell": str,
    "mode": str,
    "out": str,
    "full_scale": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "svg": lambda v: v.lower() in ("1", "true", "yes", "on"),
    "bin_width": float,
    "window_start": int,
    "window_len": int,
    "epsilon_frac": float,
    "delay": int,
    "dimension": int,
    "theiler": int,
    "horizon": int,
    "method": str,
    "threshold": float,
    "max_lag": int,
    "bins": int,
}


def read_config(path: str | Path) -> dict:
    """Flat key = value lines; # starts a comment."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line without '=': {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _CONFIG_TYPES:
            raise ValueError(f"unknown config key {key!r}")
        out[key] = _CONFIG_TYPES[key](val.strip())
    return out


def build_parser(config: dict | None = None) -> argparse.ArgumentParser:
    """The CLI parser; ``config`` values become the subcommands' defaults."""
    parser = argparse.ArgumentParser(
        prog="wplab",
        description="Wave-packet dynamics laboratory: simulate nonlinear "
        "quantum-optical models and analyze recurrence statistics.",
    )
    parser.add_argument("--config", help="flat key = value config file")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="generate a series file")
    sim.add_argument("--model", choices=("kerr", "bipartite"), required=True)
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
    ana.add_argument("--task", choices=ANALYSIS_TASKS, required=True)
    ana.add_argument("--series", required=True, help="input .wprs file")
    ana.add_argument("--out", default=None, help="output directory")
    ana.add_argument("--cell", default=None, help="LO:HI value cell")
    ana.add_argument("--mode", choices=("entry", "visit"), default="entry")
    ana.add_argument("--bin-width", type=float, default=None)
    ana.add_argument("--window-start", type=int, default=None)
    ana.add_argument("--window-len", type=int, default=None)
    ana.add_argument("--epsilon-frac", type=float, default=None)
    ana.add_argument("--delay", type=int, default=None)
    ana.add_argument("--dimension", type=int, default=None)
    ana.add_argument("--theiler", type=int, default=None)
    ana.add_argument("--horizon", type=int, default=None)
    ana.add_argument("--method", choices=("rosenstein", "kantz"), default=None)
    ana.add_argument("--threshold", type=float, default=None)
    ana.add_argument("--max-lag", type=int, default=None)
    ana.add_argument("--bins", type=int, default=None)
    ana.add_argument("--svg", action="store_true")

    pre = sub.add_parser("preset", help="run a catalogued experiment")
    pre.add_argument("id", help="preset id (see list-presets)")
    pre.add_argument("--out", default=".", help="output directory")
    pre.add_argument("--steps", type=int, default=None)
    pre.add_argument("--dt", type=float, default=None)
    pre.add_argument(
        "--full-scale", action="store_true", help="full-length series (1e7 samples)"
    )
    pre.add_argument("--svg", action="store_true")

    sub.add_parser("list-presets", help="list preset ids")
    if config:
        # a subcommand's own defaults win over the top-level parser's, so
        # the config values go to each subcommand
        for subparser in (sim, ana, pre):
            subparser.set_defaults(**config)
    return parser


def _analyze_options(args) -> dict:
    opts = {}
    for key in (
        "cell",
        "mode",
        "bin_width",
        "window_start",
        "window_len",
        "epsilon_frac",
        "delay",
        "dimension",
        "theiler",
        "horizon",
        "method",
        "threshold",
        "max_lag",
        "bins",
    ):
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    return opts


def main(argv=None) -> int:
    parser = build_parser()
    args, remaining = parser.parse_known_args(argv)
    if remaining:
        parser.error(f"unrecognized arguments: {' '.join(remaining)}")
    if args.config:
        try:
            defaults = read_config(args.config)
        except (OSError, ValueError) as exc:
            print(f"wplab: config error: {exc}", file=sys.stderr)
            return 2
        args = build_parser(defaults).parse_args(argv)

    try:
        if args.command == "list-presets":
            for pid in lab.list_presets():
                print(pid)
        elif args.command == "simulate":
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
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
                out_dir / f"{args.model}_series.wprs",
            )
            print(path)
        elif args.command == "analyze":
            written = lab.analyze(
                args.task,
                args.series,
                _analyze_options(args),
                out_dir=args.out,
                svg=args.svg,
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
    except KeyError as exc:
        print(f"wplab: {exc.args[0]}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - boundary of the CLI
        print(f"wplab: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
