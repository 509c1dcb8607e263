"""Command-line harness: beta tables, sweeps, preservation times, oracle runs
and figure reproduction.

    sim beta         --noise ou --g 1 --tau-max 2 --tau-steps 101 --out DIR
    sim sweep        --noise gn --g 1,3,10 --tau-max 2 --out DIR
    sim preservation --noise ou --g 1e-3 --delta 1e-3 --measure purity
    sim oracle       --noise fgn --hurst 0.5 --tau-max 1 --samples 50000 --seed 7 --out DIR
    sim figure joint --out DIR

A config file (--config, line-oriented ``key = value`` with the same names as
the long flags) supplies defaults; explicit flags win.  Exit codes: 0 ok,
1 usage error, 2 numerical failure or invalid parameters, 3 oracle bound
violation.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .experiments import (
    CSV_HEADER,
    FIGURES,
    OracleBoundError,
    SweepConfig,
    fmt,
    preservation_time,
    run_oracle,
    run_sweep,
    sweep_rows,
    write_rows,
)
from .montecarlo import CovarianceError
from .noise import KINDS, NoiseSpec

import numpy as np

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_ORACLE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # exit 1, not argparse's default 2
        raise UsageError(message)


_DEFAULTS = {
    "hurst": 0.5,
    "g": 1.0,
    "alpha": 3.0,
    "omega": 1.0,
    "r": 1.0,
    "tau_max": 2.0,
    "tau_steps": 201,
    "delta": 1e-3,
    "samples": 50000,
    "seed": 0,
    "measure": "purity",
}


def build_parser() -> _Parser:
    parser = _Parser(prog="sim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser, noise_required: bool = True) -> None:
        p.add_argument("--noise", choices=KINDS, required=False)
        p.add_argument("--hurst", type=str, default=None)
        p.add_argument("--g", type=str, default=None)
        p.add_argument("--alpha", type=str, default=None)
        p.add_argument("--omega", type=float, default=None)
        p.add_argument("--r", type=float, default=None)
        p.add_argument("--tau-max", type=float, default=None)
        p.add_argument("--tau-steps", type=int, default=None)
        p.add_argument("--delta", type=float, default=None)
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--config", default=None, help="key = value defaults file")

    common(sub.add_parser("beta", help="tabulate beta/purity/entropy vs tau"))
    p = sub.add_parser("sweep", help="sweep a noise parameter, one CSV per value")
    common(p)
    p.add_argument("--with-matrix", action="store_true")
    p = sub.add_parser("preservation", help="time to reach saturation proximity")
    common(p)
    p.add_argument("--measure", choices=("purity", "entropy"), default=None)
    common(sub.add_parser("oracle", help="Monte-Carlo check of the averaged state"))
    p = sub.add_parser("figure", help="reproduce a canned figure recipe")
    p.add_argument("name", choices=FIGURES)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    return parser


def read_config(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace) -> dict:
    """Layer defaults < config file < explicit flags."""
    merged = dict(_DEFAULTS)
    if getattr(args, "config", None):
        config = read_config(args.config)
        unknown = set(config) - set(_DEFAULTS) - {"noise", "out", "with_matrix"}
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        for key, value in config.items():
            if key in ("noise", "out"):
                merged[key] = value
            elif key in ("tau_steps", "samples", "seed"):
                merged[key] = int(value)
            elif key == "measure":
                merged[key] = value
            elif key == "with_matrix":
                merged[key] = value.lower() in ("1", "true", "yes")
            else:
                merged[key] = value if key in ("hurst", "g", "alpha") else float(value)
    for key in list(_DEFAULTS) + ["noise", "out", "with_matrix"]:
        value = getattr(args, key, None)
        if value is not None and value is not False:
            merged[key] = value
    return merged


def _values(raw) -> tuple[float, ...]:
    if isinstance(raw, (int, float)):
        return (float(raw),)
    try:
        return tuple(float(part) for part in str(raw).split(","))
    except ValueError as exc:
        raise UsageError(f"bad numeric list {raw!r}") from exc


def _single_value(opts: dict, name: str) -> float:
    values = _values(opts[name])
    if len(values) != 1:
        raise UsageError(f"--{name} takes a single value for this command")
    return values[0]


def _single_spec(opts: dict) -> NoiseSpec:
    kind = opts.get("noise")
    if kind is None:
        raise UsageError("--noise is required")
    return NoiseSpec(
        kind,
        hurst=_single_value(opts, "hurst"),
        g=_single_value(opts, "g"),
        alpha=_single_value(opts, "alpha"),
    )


def _cmd_beta(opts: dict) -> int:
    spec = _single_spec(opts)
    tau_grid = np.linspace(0.0, opts["tau_max"], opts["tau_steps"])
    rows = sweep_rows(spec, tau_grid, opts["omega"], opts["r"])
    if opts.get("out"):
        path = f'{opts["out"]}/beta_{spec.label()}.csv'
        write_rows(path, CSV_HEADER, rows)
        print(path)
    else:
        print(",".join(CSV_HEADER))
        for row in rows:
            print(",".join(fmt(v) for v in row))
    return EXIT_OK


def _cmd_sweep(opts: dict) -> int:
    kind = opts.get("noise")
    if kind is None:
        raise UsageError("--noise is required")
    if kind == "fgn":
        param, values = "hurst", _values(opts["hurst"])
    elif kind == "pl" and len(_values(opts["alpha"])) > 1:
        param, values = "alpha", _values(opts["alpha"])
    else:
        param, values = "g", _values(opts["g"])
    base = NoiseSpec(
        kind,
        hurst=_values(opts["hurst"])[0],
        g=_values(opts["g"])[0],
        alpha=_values(opts["alpha"])[0],
    )
    config = SweepConfig(
        base=base,
        param=param,
        values=values,
        tau_max=opts["tau_max"],
        tau_steps=opts["tau_steps"],
        omega=opts["omega"],
        r=opts["r"],
        outputs=opts.get("out") or ".",
        with_matrix=bool(opts.get("with_matrix")),
    )
    for path in run_sweep(config):
        print(path)
    return EXIT_OK


def _cmd_preservation(opts: dict) -> int:
    spec = _single_spec(opts)
    result = preservation_time(
        spec, omega=opts["omega"], delta=opts["delta"], measure=opts["measure"]
    )
    print(
        f"noise={spec.label()} measure={result.measure} delta={result.delta:g} "
        f"tau_star={fmt(result.tau_star)}"
    )
    return EXIT_OK


def _cmd_oracle(opts: dict) -> int:
    spec = _single_spec(opts)
    if opts["samples"] < 1:
        raise UsageError("--samples must be at least 1")
    report, path = run_oracle(
        spec,
        tau=opts["tau_max"],
        n=opts["samples"],
        seed=opts["seed"],
        omega=opts["omega"],
        r=opts["r"],
        outputs=opts.get("out"),
        grid_points=opts["tau_steps"],
    )
    if path:
        print(path)
    print(
        f"max_abs_deviation={fmt(report.max_abs_deviation)} "
        f"bound={fmt(report.stderr_bound)} within_bound={report.within_bound}"
    )
    if not report.within_bound:
        raise OracleBoundError(
            f"deviation {report.max_abs_deviation:g} exceeds bound "
            f"{report.stderr_bound:g}"
        )
    return EXIT_OK


def _cmd_figure(opts: dict, name: str) -> int:
    for path in experiments.figure(name, opts.get("out") or "."):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        opts = _resolve(args)
        if args.command == "beta":
            return _cmd_beta(opts)
        if args.command == "sweep":
            return _cmd_sweep(opts)
        if args.command == "preservation":
            return _cmd_preservation(opts)
        if args.command == "oracle":
            return _cmd_oracle(opts)
        return _cmd_figure(opts, args.name)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OracleBoundError as exc:
        print(f"oracle bound violated: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (ValueError, CovarianceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
