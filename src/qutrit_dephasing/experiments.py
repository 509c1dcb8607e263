"""Parameter sweeps, preservation times, oracle runs, and figure recipes.

Everything here writes flat artifacts: CSV files with the stable header
``tau,beta,purity,entropy`` (plus optional extra columns) and a plain-text
matplotlib script per figure.  Files are written atomically (temp file then
rename) and floats with 17 significant digits, so identical inputs produce
byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import SystemParams, evolve_averaged, fluctuation_series, initial_state
from .metrics import purity_closed, vn_entropy_closed
from .montecarlo import OracleReport, mc_average_state, sample_trajectories
from .noise import NoiseSpec, beta_closed, dephasing_factor

CSV_HEADER = ["tau", "beta", "purity", "entropy"]

_MATRIX_COLUMNS = [
    f"rho_{part}_{i}{j}" for i in range(3) for j in range(3) for part in ("re", "im")
]


class OracleBoundError(RuntimeError):
    """Monte-Carlo deviation exceeded its statistical bound."""


@dataclass(frozen=True)
class SweepConfig:
    """One family swept over one parameter against a common tau grid."""

    base: NoiseSpec
    param: str  # "g" | "hurst" | "alpha"
    values: tuple[float, ...]
    tau_max: float = 2.0
    tau_steps: int = 201
    omega: float = 1.0
    r: float = 1.0
    outputs: str = "."
    with_matrix: bool = False

    def __post_init__(self) -> None:
        if self.tau_steps < 2:
            raise ValueError("tau_steps must be at least 2")
        if self.tau_max <= 0.0:
            raise ValueError("tau_max must be positive")
        if not self.values:
            raise ValueError("no parameter values to sweep")
        if self.param not in ("g", "hurst", "alpha"):
            raise ValueError(f"unknown sweep parameter {self.param!r}")
        for value in self.values:
            self.spec_for(value)  # validates the combination

    def spec_for(self, value: float) -> NoiseSpec:
        return replace(self.base, **{self.param: value})


@dataclass(frozen=True)
class PreservationTime:
    """First time a metric comes within delta of its saturation level."""

    tau_star: float
    delta: float
    measure: str  # "purity" | "entropy"


def fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(path: str, header: list[str], rows: np.ndarray) -> None:
    """Atomic CSV write; 17 significant digits, dot decimal separator."""
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows.tolist())
    _atomic_write(path, "\n".join(lines) + "\n")


def _matrix_columns(states: np.ndarray) -> np.ndarray:
    """(T, 3, 3) states as the (T, 18) real columns named by _MATRIX_COLUMNS."""
    flat = states.reshape(len(states), 9)
    return np.stack([flat.real, flat.imag], axis=-1).reshape(len(states), 18)


def sweep_rows(
    spec: NoiseSpec,
    tau_grid: np.ndarray,
    omega: float = 1.0,
    r: float = 1.0,
    with_matrix: bool = False,
    extra: str | None = None,
) -> np.ndarray:
    """CSV rows (tau, beta, purity, entropy[, extra][, matrix]) for one spec,
    as one (T, ncols) array."""
    tau = np.asarray(tau_grid, dtype=float)
    beta = beta_closed(spec, tau)
    sigma2 = omega * omega * beta
    columns = [tau, beta, purity_closed(sigma2, r), vn_entropy_closed(sigma2, r)]
    if extra == "dephasing_n2":
        columns.append(dephasing_factor(2, spec, tau, omega))
    if with_matrix:
        columns.append(_matrix_columns(evolve_averaged(initial_state(r), sigma2)))
    return np.column_stack(columns)


def run_sweep(config: SweepConfig) -> list[str]:
    """Write one CSV per swept value plus a combined plot script."""
    tau_grid = np.linspace(0.0, config.tau_max, config.tau_steps)
    header = list(CSV_HEADER) + (_MATRIX_COLUMNS if config.with_matrix else [])
    written = []
    for value in config.values:
        spec = config.spec_for(value)
        rows = sweep_rows(
            spec, tau_grid, config.omega, config.r, with_matrix=config.with_matrix
        )
        path = os.path.join(config.outputs, f"sweep_{spec.label()}.csv")
        write_rows(path, header, rows)
        written.append(path)
    script = os.path.join(config.outputs, f"plot_sweep_{config.base.kind}.py")
    _write_plot_script(script, written, "tau", ["purity", "entropy"])
    written.append(script)
    return written


def preservation_time(
    spec: NoiseSpec,
    omega: float = 1.0,
    delta: float = 1e-3,
    measure: str = "purity",
    rel_tol: float = 1e-4,
    r: float = 1.0,
) -> PreservationTime:
    """Smallest tau at which the metric is within delta of its saturation.

    The state starts from initial_state(r); the saturation level is the
    closed form at beta = inf.  Monotone beta makes the crossing unique;
    located by doubling then bisection to the given relative tolerance.
    """
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    if measure not in ("purity", "entropy"):
        raise ValueError(f"unknown measure {measure!r}")

    def satisfied(tau: float) -> bool:
        sigma2 = omega * omega * beta_closed(spec, tau)
        if measure == "purity":
            return purity_closed(sigma2, r) - purity_closed(math.inf, r) <= delta
        return vn_entropy_closed(math.inf, r) - vn_entropy_closed(sigma2, r) <= delta

    if satisfied(0.0):
        raise ValueError(
            f"delta={delta:g} already satisfied at tau=0; choose a smaller delta"
        )
    hi = 1.0
    while not satisfied(hi):
        hi *= 2.0
        if hi > 2**60:
            raise ValueError("saturation never reached; delta too small")
    lo = 0.0
    while (hi - lo) > rel_tol * hi:
        mid = 0.5 * (lo + hi)
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return PreservationTime(tau_star=hi, delta=delta, measure=measure)


def run_oracle(
    spec: NoiseSpec,
    tau: float,
    n: int,
    seed: int,
    omega: float = 1.0,
    r: float = 1.0,
    outputs: str | None = None,
    grid_points: int = 201,
) -> tuple[OracleReport, str | None]:
    """Sample an ensemble, average the evolved states, compare to analytic.

    Writes a plain-text report when ``outputs`` is given; callers should
    treat a report outside its bound as a failure (the CLI exits 3).
    """
    if tau <= 0.0:
        raise ValueError("tau must be positive")
    if n < 1:
        raise ValueError("need at least one sample")
    t_grid = np.linspace(0.0, tau, grid_points)
    ensemble = sample_trajectories(spec, t_grid, n, seed)
    params = SystemParams(omega=omega, r=r)
    report = mc_average_state(initial_state(r), ensemble, params, at_index=-1)
    path = None
    if outputs is not None:
        path = os.path.join(outputs, f"oracle_{spec.label()}.txt")
        _write_report(path, report)
    return report, path


def _write_report(path: str, report: OracleReport) -> None:
    lines = [
        f"noise = {report.spec.label()}",
        f"tau = {fmt(report.tau)}",
        f"n_samples = {report.n_samples}",
        f"seed = {report.seed}",
        f"rng_algorithm = {report.rng_algorithm}",
        f"grid_step = {fmt(report.grid_step)}",
        f"cholesky_jitter = {fmt(report.jitter)}",
        f"max_abs_deviation = {fmt(report.max_abs_deviation)}",
        f"stderr_bound = {fmt(report.stderr_bound)}",
        f"within_bound = {report.within_bound}",
        "",
        "analytic:",
    ]
    for row in report.analytic:
        lines.append("  " + "  ".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row))
    lines.append("empirical:")
    for row in report.empirical:
        lines.append("  " + "  ".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


FIGURES = ("noiseless", "noisephase", "fgn", "gn", "ou", "pl", "joint")


def figure(name: str, outputs: str = ".") -> list[str]:
    """Emit the CSVs + plot script for one of the canned figure recipes."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; expected one of {FIGURES}")
    if name == "noiseless":
        return _figure_noiseless(outputs)
    if name == "noisephase":
        return _figure_noisephase(outputs)
    if name == "joint":
        return _figure_joint(outputs)
    recipes: dict[str, SweepConfig] = {
        "fgn": SweepConfig(NoiseSpec.fgn(0.5), "hurst", (0.1, 0.5, 0.9)),
        "gn": SweepConfig(NoiseSpec.gn(1.0), "g", (1.0, 3.0, 10.0)),
        "ou": SweepConfig(NoiseSpec.ou(1.0), "g", (1.0, 3.0, 10.0)),
    }
    if name in recipes:
        return run_sweep(replace(recipes[name], outputs=outputs))
    # pl: swept in g at alpha=3 and in alpha at g=0.5
    written = run_sweep(
        SweepConfig(NoiseSpec.pl(1.0, 3.0), "g", (1.0, 3.0, 10.0), outputs=outputs)
    )
    written += run_sweep(
        SweepConfig(NoiseSpec.pl(0.5, 3.0), "alpha", (3.0, 5.0, 10.0), outputs=outputs)
    )
    return written


def _figure_noiseless(outputs: str) -> list[str]:
    t_grid = np.linspace(0.0, 15.0, 1501)
    zeros, ones = np.zeros_like(t_grid), np.ones_like(t_grid)
    header = list(CSV_HEADER) + _MATRIX_COLUMNS
    written = []
    for omega in (0.5, 1.0):
        params = SystemParams(omega=omega, eta_const=1.0, r=1.0)
        states = fluctuation_series(params, t_grid)
        rows = np.column_stack([t_grid, zeros, ones, zeros, _matrix_columns(states)])
        path = os.path.join(outputs, f"noiseless_omega{omega:g}.csv")
        write_rows(path, header, rows)
        written.append(path)
    script = os.path.join(outputs, "plot_noiseless.py")
    _write_plot_script(script, written, "tau", ["rho_re_00", "rho_re_02"])
    written.append(script)
    return written


def _figure_noisephase(outputs: str) -> list[str]:
    specs = [NoiseSpec.fgn(0.5), NoiseSpec.gn(1.0), NoiseSpec.ou(1.0), NoiseSpec.pl(1.0, 5.0)]
    tau_grid = np.linspace(0.0, 3.0, 301)
    header = list(CSV_HEADER) + ["dephasing_n2"]
    written = []
    for spec in specs:
        rows = sweep_rows(spec, tau_grid, extra="dephasing_n2")
        path = os.path.join(outputs, f"noisephase_{spec.label()}.csv")
        write_rows(path, header, rows)
        written.append(path)
    script = os.path.join(outputs, "plot_noisephase.py")
    _write_plot_script(script, written, "tau", ["dephasing_n2"])
    written.append(script)
    return written


def _figure_joint(outputs: str) -> list[str]:
    tau_grid = np.linspace(0.0, 50.0, 501)
    written = []
    for g in (1e-3, 1e-2):
        for spec in (NoiseSpec.gn(g), NoiseSpec.ou(g), NoiseSpec.pl(g, 3.0)):
            rows = sweep_rows(spec, tau_grid)
            path = os.path.join(outputs, f"joint_{spec.label()}.csv")
            write_rows(path, CSV_HEADER, rows)
            written.append(path)
    script = os.path.join(outputs, "plot_joint.py")
    _write_plot_script(script, written, "tau", ["purity", "entropy"])
    written.append(script)
    return written


def _write_plot_script(path: str, csv_paths: list[str], x: str, ys: list[str]) -> None:
    names = [os.path.basename(p) for p in csv_paths]
    lines = [
        "#!/usr/bin/env python3",
        '"""Plot the CSV curves emitted alongside this script."""',
        "import csv, os.path, sys",
        "",
        "import matplotlib.pyplot as plt",
        "",
        f"FILES = {names!r}",
        f"YS = {ys!r}",
        "",
        "here = os.path.dirname(os.path.abspath(__file__))",
        "fig, axes = plt.subplots(1, len(YS), figsize=(6 * len(YS), 4))",
        "if len(YS) == 1:",
        "    axes = [axes]",
        "for name in FILES:",
        "    with open(os.path.join(here, name), newline='') as handle:",
        "        rows = list(csv.DictReader(handle))",
        f"    x = [float(r[{x!r}]) for r in rows]",
        "    for ax, column in zip(axes, YS):",
        "        ax.plot(x, [float(r[column]) for r in rows], label=name)",
        "for ax, column in zip(axes, YS):",
        f"    ax.set_xlabel({x!r})",
        "    ax.set_ylabel(column)",
        "    ax.legend(fontsize=7)",
        "out = sys.argv[1] if len(sys.argv) > 1 else None",
        "plt.tight_layout()",
        "plt.savefig(out) if out else plt.show()",
    ]
    _atomic_write(path, "\n".join(lines) + "\n")
