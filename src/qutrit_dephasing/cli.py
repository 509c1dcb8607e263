"""Command-line harness: beta tables, sweeps, preservation times, oracle runs
and figure reproduction.

    sim beta         --noise ou --g 1 --tau-max 2 --tau-steps 101 --out DIR
    sim sweep        --noise gn --g 1,3,10 --tau-max 2 --out DIR
    sim preservation --noise ou --g 1e-3 --delta 1e-3 --measure purity
    sim oracle       --noise fgn --hurst 0.5 --tau-max 1 --samples 50000 --seed 7 --out DIR
    sim figure joint --out DIR

Each subcommand declares only the flags it reads.  A config file (--config,
``key = value`` lines keyed by that subcommand's long flags) is read as
``--key=value`` flags placed before the command line: its values pass the
same types and choices, and explicit flags win.  Flags and keys are spelt in
full, every float must be finite and every integer must parse.  An integer
out of range (``--tau-steps 1``, ``--samples 0``, ``--seed -1``) reaches the
library, which rejects it as an invalid parameter, as it does the oracle's
``--tau-max 0``.  Exit codes: 0 ok, 1
usage error (including an unreadable config file or an output path that
cannot be written), 2 numerical failure, invalid parameters or a grid too
large to allocate, 3 oracle bound violation.

``run()`` is the process entry point (the ``sim`` script and ``python -m
qutrit_dephasing.cli``): it calls ``gc.freeze()`` and exits with ``main()``'s
code.  The freeze moves everything allocated so far, the import-time heap of
numpy, argparse and this package, to the collector's permanent generation,
so the full collections of interpreter shutdown skip it.  ``main(argv)``
does not freeze: tests and library callers that run it in-process keep a
normal collector.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import math
import os
import sys

from . import experiments
from .experiments import (
    FIGURES,
    csv_text,
    fmt,
    preservation_time,
    run_oracle,
    run_sweep,
    sweep_rows,
    tau_grid,
    write_rows,
)
from .noise import KINDS, PARAMETERS, NoiseSpec, phase_law

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ORACLE = 3


# every family parameter, each a flag that only the families reading it take
_FAMILY_FLAGS = tuple(dict.fromkeys(name for names in PARAMETERS.values() for name in names))


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):  # flags and config keys are spelt in full
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


def _finite(text: str) -> float:
    """A float flag: nan and inf are rejected like any other bad number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _floats(text: str) -> tuple[float, ...]:
    """A comma-separated list of floats (the swept values of ``sim sweep``)."""
    return tuple(_finite(part) for part in text.split(","))


def _integer(text: str) -> int:
    """An integer flag: a misspelt one is a usage error that quotes the text."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None


def _boolean(text: str) -> bool:
    """An on/off switch: bare on the command line, or true/false in a config."""
    word = text.lower()
    if word not in ("1", "true", "yes", "0", "false", "no"):
        raise argparse.ArgumentTypeError(f"expected true or false, got {text!r}")
    return word in ("1", "true", "yes")


def build_parser() -> _Parser:
    parser = _Parser(prog="sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def system(p: _Parser, number=_finite) -> _Parser:
        """The noise family and its parameters, the coupling and the state."""
        p.add_argument("--noise", choices=KINDS, required=True)
        for name in _FAMILY_FLAGS:  # no default: an unset flag keeps NoiseSpec's
            p.add_argument(f"--{name}", type=number)
        p.add_argument("--omega", type=_finite, default=1.0)
        p.add_argument("--r", type=_finite, default=1.0)
        p.add_argument("--config", help="key = value defaults file")
        return p

    def grid(p: _Parser, number=_finite) -> _Parser:
        system(p, number)
        p.add_argument("--tau-max", type=_finite, default=2.0)
        p.add_argument("--tau-steps", type=_integer, default=201)
        p.add_argument("--out", help="output directory")
        return p

    p = grid(sub.add_parser("beta", help="tabulate beta/purity/entropy vs tau"))
    p.set_defaults(run=_cmd_beta)
    p = grid(
        sub.add_parser("sweep", help="sweep a noise parameter, one CSV per value"),
        number=_floats,
    )
    p.add_argument(
        "--with-matrix", type=_boolean, nargs="?", const=True, default=False, metavar="BOOL"
    )
    p.set_defaults(run=_cmd_sweep)
    p = system(sub.add_parser("preservation", help="time to reach saturation proximity"))
    p.add_argument("--delta", type=_finite, default=1e-3)
    p.add_argument("--measure", choices=("purity", "entropy"), default="purity")
    p.set_defaults(run=_cmd_preservation)
    p = system(sub.add_parser("oracle", help="Monte-Carlo check of the averaged state"))
    p.add_argument("--tau-max", type=_finite, default=2.0)
    p.add_argument("--out", help="output directory")
    p.add_argument("--samples", type=_integer, default=50000)
    p.add_argument("--seed", type=_integer, default=0)
    p.set_defaults(run=_cmd_oracle)
    p = sub.add_parser("figure", help="reproduce a canned figure recipe")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--out", help="output directory")
    p.set_defaults(run=_cmd_figure)
    return parser


def config_flags(argv: list[str]) -> list[str]:
    """The ``key = value`` lines of the ``--config`` file in argv, as
    ``--key=value`` flags; empty when argv names no config file."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
    except (OSError, UnicodeError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from exc
    flags = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key = key.strip().replace("_", "-")
        if key == "config":
            raise UsageError(f"{path}:{lineno}: config files do not nest")
        flags.append(f"--{key}={value.strip()}")
    return flags


def _family(args: argparse.Namespace) -> dict:
    """The family flags given, by name; one --noise does not read is a usage error."""
    given = {k: v for k, v in vars(args).items() if k in _FAMILY_FLAGS and v is not None}
    unread = [f"--{name}" for name in given if name not in PARAMETERS[args.noise]]
    if unread:
        raise UsageError(f"--noise {args.noise} does not read {unread[0]}")
    return given


def _cmd_beta(args: argparse.Namespace) -> int:
    spec = NoiseSpec(args.noise, **_family(args))
    taus = tau_grid(args.tau_max, args.tau_steps)
    table = sweep_rows(taus, phase_law(spec, taus, args.omega), args.r)
    if args.out:
        path = os.path.join(args.out, f"beta_{spec.label()}.csv")
        write_rows(path, *table)
        print(path)
    else:
        sys.stdout.write(csv_text(*table))
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    lists = _family(args)
    swept = [f"--{name}" for name, values in lists.items() if len(values) > 1]
    if len(swept) > 1:
        raise UsageError(f"sim sweep sweeps one parameter; give {swept[1]} a single value")
    # with at most one list, the product is the sweep of that list
    points = itertools.product(*lists.values())
    specs = [NoiseSpec(args.noise, **dict(zip(lists, point))) for point in points]
    if len(set(specs)) < len(specs):
        raise UsageError(f"{swept[0]} repeats a value")
    grid = tau_grid(args.tau_max, args.tau_steps)
    outputs = args.out or "."
    for path in run_sweep(specs, grid, args.omega, args.r, args.with_matrix, outputs):
        print(path)
    return EXIT_OK


def _cmd_preservation(args: argparse.Namespace) -> int:
    spec = NoiseSpec(args.noise, **_family(args))
    tau_star = preservation_time(
        spec, omega=args.omega, delta=args.delta, measure=args.measure, r=args.r
    )
    print(
        f"noise={spec.label()} measure={args.measure} delta={args.delta:g} "
        f"tau_star={fmt(tau_star)}"
    )
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = NoiseSpec(args.noise, **_family(args))
    report, path = run_oracle(
        spec,
        args.tau_max,
        n=args.samples,
        seed=args.seed,
        omega=args.omega,
        r=args.r,
        outputs=args.out or None,
    )
    if path:
        print(path)
    print(
        f"max_abs_deviation={fmt(report.max_abs_deviation)} "
        f"bound={fmt(report.stderr_bound)} within_bound={report.within_bound}"
    )
    if not report.within_bound:
        print(
            f"oracle bound violated: deviation {report.max_abs_deviation:g} "
            f"exceeds bound {report.stderr_bound:g}",
            file=sys.stderr,
        )
        return EXIT_ORACLE
    return EXIT_OK


def _cmd_figure(args: argparse.Namespace) -> int:
    for path in experiments.figure(args.name, args.out or "."):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config flags go first, so that argparse's last-wins lets explicit
        # flags override them
        args = build_parser().parse_args(argv[:1] + config_flags(argv[1:]) + argv[1:])
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"usage error: cannot write outputs: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def run() -> None:
    """Run ``main()`` on sys.argv and exit with its code, after freezing the
    heap allocated so far out of the collector's reach (see the module
    docstring); outputs are those of ``main()``."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
