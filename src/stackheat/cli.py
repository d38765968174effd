"""Command-line interface.

Subcommands:
    run        full pipeline (saddle solve, HUM synthesis, verification)
    converge   heat-solver refinement ladder + oracle column + epsilon sweep
    probe      observability-ratio sampling
    sweep-eps  terminal-residual law across the epsilon ladder

Common flags: --out DIR, --seed N, --quiet.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import sys

from .config import parse_config
from .errors import ConfigError, StackheatError


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("config", help="experiment configuration file (INI sections)")
    p.add_argument("--out", default=None, help="output directory (overrides [output])")
    p.add_argument("--seed", type=int, default=None, help="seed override (unsigned)")
    p.add_argument("--quiet", action="store_true", help="suppress progress output")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process.

    ``parse_args`` fills a new namespace on every call, so the calls share no
    state through it.
    """
    parser = argparse.ArgumentParser(
        prog="stackheat",
        description="Robust Stackelberg control of the 1D heat equation: "
                    "follower saddle points and penalized-HUM null control.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, descr in (("run", "full experiment pipeline"),
                        ("converge", "convergence and oracle study"),
                        ("probe", "observability-ratio probe"),
                        ("sweep-eps", "epsilon sweep of the terminal residual")):
        _add_common(sub.add_parser(name, help=descr))
    return parser


def _load(args):
    spec = parse_config(args.config)
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError("--seed must be a nonnegative integer")
        # data kinds derive from the recipe seed; rebuild so the override
        # propagates into the sampled fields as well
        recipe = dataclasses.replace(spec.recipe, seed=args.seed)
        scenario = recipe.build(spec.scenario.grid.n_interior,
                                spec.scenario.tgrid.n_steps)
        spec = dataclasses.replace(spec, recipe=recipe, scenario=scenario,
                                   seed=args.seed)
    if args.out is not None:
        spec = dataclasses.replace(spec, out_dir=args.out)
    return spec


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    from . import runner

    try:
        if args.command == "run":
            report = runner.run_experiment(spec, quiet=args.quiet)
        elif args.command == "converge":
            report = runner.convergence_study(spec, quiet=args.quiet)
        elif args.command == "probe":
            report = runner.probe_run(spec, quiet=args.quiet)
        else:
            report = runner.eps_sweep(spec, quiet=args.quiet)
    except StackheatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.quiet:
        print(f"wrote {len(report.files)} files to {report.out_dir}")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
