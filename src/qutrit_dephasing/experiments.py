"""Parameter sweeps, preservation times, oracle runs, and figure recipes.

Sweeps and figures write their curves through one writer: one CSV per curve,
with the stable header ``tau,beta,purity,entropy`` (plus optional extra
columns), then one plain-text matplotlib script over those files.  Every row
comes from ``sweep_rows`` over one phase law: a spec's ``phase_law``, or the
noiseless field's ``fluctuation_series``.  A figure is a list of specs per
sweep, or one of three short recipes over those rows.  Files are written
atomically (temp file then rename) and floats with 17 significant digits, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import math
import os
import sys

import numpy as np

from .dynamics import evolve_averaged, fluctuation_series, initial_state
from .metrics import purity_closed, vn_entropy_closed
from .montecarlo import RNG_ALGORITHM, OracleReport, mc_average_state, sample_trajectories
from .noise import NoiseSpec, phase_law

CSV_HEADER = ["tau", "beta", "purity", "entropy"]

_MATRIX_COLUMNS = [
    f"rho_{part}_{i}{j}" for i in range(3) for j in range(3) for part in ("re", "im")
]


def fmt(x: float) -> str:
    return f"{x:.17g}"


def tau_grid(tau_max: float, steps: int) -> np.ndarray:
    """The uniform grid ``linspace(0, tau_max, steps)`` of beta and sweep."""
    if steps < 2:
        raise ValueError("tau_steps must be at least 2")
    if not 0.0 < tau_max < math.inf:  # nan fails too
        raise ValueError(f"tau_max must be positive and finite, got {tau_max}")
    return np.linspace(0.0, tau_max, steps)


def csv_text(header: list[str], rows: np.ndarray) -> str:
    """CSV text of a (T, ncols) array: 17 significant digits, dot decimal separator."""
    line = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)] + [line % tuple(row) for row in rows.tolist()]
    return "\n".join(lines) + "\n"


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    # mode 0666 less the umask, the mode open() gives a new file
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_rows(path: str, header: list[str], rows: np.ndarray) -> None:
    """Atomic CSV write of ``csv_text(header, rows)``."""
    _atomic_write(path, csv_text(header, rows))


def sweep_rows(taus: np.ndarray, law, r: float = 1.0, with_matrix: bool = False) -> tuple:
    """The CSV ``(header, rows)`` of one phase law ``(beta, s, chi)`` at the
    times ``taus``: ``CSV_HEADER`` (plus ``_MATRIX_COLUMNS``) over one (T, ncols)
    array.  The metrics read the coherence loss s and the matrix alone reads chi,
    through ``evolve_averaged``."""
    beta, loss, chi = law
    header = CSV_HEADER + (_MATRIX_COLUMNS if with_matrix else [])
    columns = [taus, beta, purity_closed(loss, r), vn_entropy_closed(loss, r)]
    if with_matrix:
        # the (T, 3, 3) states as the (T, 18) real columns named by _MATRIX_COLUMNS
        flat = evolve_averaged(initial_state(r), chi).reshape(-1, 9)
        columns.append(np.stack([flat.real, flat.imag], axis=-1).reshape(-1, 18))
    return header, np.column_stack(columns)


_PLOT_SCRIPT = '''\
#!/usr/bin/env python3
"""Plot the CSV curves emitted alongside this script."""
import csv, os.path, sys

import matplotlib.pyplot as plt

FILES = {files!r}
YS = {ys!r}

here = os.path.dirname(os.path.abspath(__file__))
fig, axes = plt.subplots(1, len(YS), figsize=(6 * len(YS), 4))
if len(YS) == 1:
    axes = [axes]
for name in FILES:
    with open(os.path.join(here, name), newline='') as handle:
        rows = list(csv.DictReader(handle))
    x = [float(r['tau']) for r in rows]
    for ax, column in zip(axes, YS):
        ax.plot(x, [float(r[column]) for r in rows], label=name)
for ax, column in zip(axes, YS):
    ax.set_xlabel('tau')
    ax.set_ylabel(column)
    ax.legend(fontsize=7)
out = sys.argv[1] if len(sys.argv) > 1 else None
plt.tight_layout()
plt.savefig(out) if out else plt.show()
'''


def _write_curves(outputs: str, script: str, ys: list[str], curves) -> list[str]:
    """Write each ``(file name, header, rows)`` of ``curves`` into ``outputs``,
    then a plot script of ``ys`` against tau over those files.

    ``curves`` is iterated once, so a generator computes each file's rows only
    after the previous file is written.  Returns the paths in writing order.
    """
    names = []
    for name, header, rows in curves:
        write_rows(os.path.join(outputs, name), header, rows)
        names.append(name)
    _atomic_write(os.path.join(outputs, script), _PLOT_SCRIPT.format(files=names, ys=ys))
    return [os.path.join(outputs, name) for name in names + [script]]


def run_sweep(
    specs: list[NoiseSpec],
    taus: np.ndarray,
    omega: float = 1.0,
    r: float = 1.0,
    with_matrix: bool = False,
    outputs: str = ".",
) -> list[str]:
    """Write one CSV per spec plus a combined plot script named after the
    family of the first spec; equal specs would share a file, so none repeats."""
    if not specs:
        raise ValueError("the spec list is empty")
    if len(set(specs)) < len(specs):
        raise ValueError("the spec list repeats a spec")
    laws = ((s.label(), phase_law(s, taus, omega)) for s in specs)
    curves = ((f"sweep_{n}.csv", *sweep_rows(taus, law, r, with_matrix)) for n, law in laws)
    script = f"plot_sweep_{specs[0].kind}.py"
    return _write_curves(outputs, script, ["purity", "entropy"], curves)


def preservation_time(
    spec: NoiseSpec,
    omega: float = 1.0,
    delta: float = 1e-3,
    measure: str = "purity",
    r: float = 1.0,
) -> float:
    """Smallest tau at which the metric is within delta of its saturation.

    The state starts from initial_state(r); the saturation level is the
    closed form at s = 1, the dephased state.  Monotone beta makes the
    crossing unique; it is located by doubling up to the largest float, then
    by bisection until the bracket holds two adjacent floats, and the upper
    one is returned.  The remaining error comes from the rounding of metric - saturation and grows
    roughly as 1e-16 / delta, relative.  That gap is 0 or at least one float
    spacing of the saturation level, so a delta below that spacing is
    rejected: it would return where the metric first rounds to saturation.
    Where the gap is at most that spacing already at tau = 0 (r near 0), no
    delta can resolve the crossing, and that is rejected too.
    """
    if not delta > 0.0:  # nan fails too
        raise ValueError(f"delta must be positive, got {delta}")
    if measure not in ("purity", "entropy"):
        raise ValueError(f"unknown measure {measure!r}")
    metric = purity_closed if measure == "purity" else vn_entropy_closed
    saturation = metric(1.0, r)
    spacing = np.spacing(saturation)
    if abs(metric(0.0, r) - saturation) <= spacing:  # the gap at tau = 0
        raise ValueError(
            f"at r={r:g} the {measure} starts within the float spacing {spacing:g} "
            "of its saturation level, so no delta can resolve the crossing"
        )
    if delta < spacing:
        raise ValueError(
            f"delta={delta:g} is below the float spacing {spacing:g} "
            f"of the {measure} saturation level, so the crossing cannot be resolved"
        )

    def satisfied(tau: float) -> bool:
        _, loss, _ = phase_law(spec, tau, omega)
        return abs(metric(loss, r) - saturation) <= delta

    if satisfied(0.0):
        raise ValueError(
            f"delta={delta:g} already satisfied at tau=0; choose a smaller delta"
        )
    lo, hi = 0.0, 1.0
    while not satisfied(hi):
        if hi == sys.float_info.max:
            raise ValueError("saturation is not reached at any finite tau")
        lo, hi = hi, min(2.0 * hi, sys.float_info.max)
    # lo + (hi - lo) / 2 cannot overflow, where lo + hi can above 2**1023
    while lo < (mid := lo + 0.5 * (hi - lo)) < hi:
        if satisfied(mid):
            hi = mid
        else:
            lo = mid
    return hi


def run_oracle(
    spec: NoiseSpec,
    tau: float,
    n: int,
    seed: int,
    omega: float = 1.0,
    r: float = 1.0,
    outputs: str | None = None,
) -> tuple[OracleReport, str | None]:
    """Sample the phases at tau of an n-path ensemble, average the states
    evolved by them and compare to the analytic state at tau.

    Writes a plain-text report when ``outputs`` is given; callers should
    treat a report outside its bound as a failure (the CLI exits 3).
    """
    rho0 = initial_state(r)
    ensemble = sample_trajectories(spec, [tau], n, seed)
    report = mc_average_state(rho0, ensemble, omega)
    path = None
    if outputs is not None:
        path = os.path.join(outputs, f"oracle_{spec.label()}.txt")
        _write_report(path, report, omega, r)
    return report, path


def _write_report(path: str, report: OracleReport, omega: float, r: float) -> None:
    ensemble = report.ensemble
    (tau,) = ensemble.taus
    lines = [
        f"noise = {ensemble.spec.label()}",
        f"tau = {fmt(tau)}",
        f"omega = {fmt(omega)}",
        f"r = {fmt(r)}",
        f"n_samples = {ensemble.n_paths}",
        f"seed = {ensemble.seed}",
        f"rng_algorithm = {RNG_ALGORITHM}",
        # C takes no jitter; perfbench/workloads.py's check_oracle reads this key,
        # and ROADMAP item 1 drops both
        "cholesky_jitter = 0",
        f"max_abs_deviation = {fmt(report.max_abs_deviation)}",
        f"stderr_bound = {fmt(report.stderr_bound)}",
        f"within_bound = {report.within_bound}",
        "",
    ]
    for name, (state,) in (("analytic", report.analytic), ("empirical", report.empirical)):
        lines.append(f"{name}:")
        lines += ("  " + "  ".join(f"{v.real:.17g}{v.imag:+.17g}j" for v in row) for row in state)
    _atomic_write(path, "\n".join(lines) + "\n")


FIGURES = ("noiseless", "noisephase", "fgn", "gn", "ou", "pl", "joint")

# figure name -> the specs of each of its sweeps, all on tau_grid(2, 201)
_FIGURE_SWEEPS = {
    "fgn": [[NoiseSpec("fgn", hurst=h) for h in (0.1, 0.5, 0.9)]],
    "gn": [[NoiseSpec("gn", g=g) for g in (1.0, 3.0, 10.0)]],
    "ou": [[NoiseSpec("ou", g=g) for g in (1.0, 3.0, 10.0)]],
    "pl": [
        [NoiseSpec("pl", g=g, alpha=3.0) for g in (1.0, 3.0, 10.0)],
        [NoiseSpec("pl", g=0.5, alpha=alpha) for alpha in (3.0, 5.0, 10.0)],
    ],
}


def figure(name: str, outputs: str = ".") -> list[str]:
    """Emit the CSVs + plot script for one of the canned figure recipes."""
    if name not in FIGURES:
        raise ValueError(f"unknown figure {name!r}; expected one of {FIGURES}")
    if name in _FIGURE_SWEEPS:
        written = []
        for specs in _FIGURE_SWEEPS[name]:
            written += run_sweep(specs, tau_grid(2.0, 201), outputs=outputs)
        return written
    if name == "noiseless":
        t = tau_grid(15.0, 1501)
        laws = {w: fluctuation_series(t, w) for w in (0.5, 1.0)}
        curves = (
            (f"noiseless_omega{w:g}.csv", *sweep_rows(t, law, with_matrix=True))
            for w, law in laws.items()
        )
        ys = ["rho_re_00", "rho_re_02"]
        return _write_curves(outputs, "plot_noiseless.py", ys, curves)
    if name == "noisephase":
        t = tau_grid(3.0, 301)
        specs = [
            NoiseSpec("fgn", hurst=0.5), NoiseSpec("gn", g=1.0),
            NoiseSpec("ou", g=1.0), NoiseSpec("pl", g=1.0, alpha=5.0),
        ]

        def phase_rows(law) -> tuple:
            header, rows = sweep_rows(t, law)
            return header + ["dephasing_n2"], np.column_stack([rows, law[2](2)])  # chi(2)

        curves = ((f"noisephase_{s.label()}.csv", *phase_rows(phase_law(s, t))) for s in specs)
        return _write_curves(outputs, "plot_noisephase.py", ["dephasing_n2"], curves)
    # joint: gn, ou and pl (alpha=3) at small g on one long grid
    t = tau_grid(50.0, 501)
    specs = [NoiseSpec(kind, g=g) for g in (1e-3, 1e-2) for kind in ("gn", "ou", "pl")]
    curves = ((f"joint_{s.label()}.csv", *sweep_rows(t, phase_law(s, t))) for s in specs)
    return _write_curves(outputs, "plot_joint.py", ["purity", "entropy"], curves)
