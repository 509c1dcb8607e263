"""The benchmark's workloads and the checks applied to every invocation.

A workload is a list of steps; one repetition runs each step once as its own
``sim`` process with a fresh ``--out`` directory.  Each step's check raises
``CheckFailed`` when the files or stdout differ from what the arguments ask
for.  The parameters are the ROADMAP's baseline workloads; they are not tuned
to show or hide any known defect.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import mpmath
import numpy as np

BASE_HEADER = ["tau", "beta", "purity", "entropy"]
MATRIX_HEADER = [
    f"rho_{part}_{i}{j}" for i in range(3) for j in range(3) for part in ("re", "im")
]
# Tolerance of the acceptance suite's closed-form beta check (criterion 03).
BETA_REL_TOL = 1e-6
# Purity and entropy columns against the functionals of the row's own matrix.
MATRIX_FUNCTIONAL_TOL = 1e-10

FIGURES = ("noiseless", "noisephase", "fgn", "gn", "ou", "pl", "joint")

SWEEP_G = (1.0, 3.0, 10.0)
SWEEP_ALPHA = 3.0
SWEEP_TAU = np.linspace(0.0, 2.0, 2001)
ORACLE_SAMPLES = 200000

WORKLOADS = ("sweep-matrix", "oracle-fgn-200k", "figures-all")


class CheckFailed(Exception):
    """An invocation's output does not match what its arguments ask for."""


@dataclass(frozen=True)
class Step:
    """One ``sim`` invocation: its arguments (without ``--out``) and its check."""

    label: str
    args: tuple[str, ...]
    check: Callable[[Path, str], None]


def steps_for(workload: str, seed: int) -> list[Step]:
    """The steps of one repetition of ``workload``; ``seed`` feeds the oracle."""
    if workload == "sweep-matrix":
        reference = {g: pl_beta_reference(g, SWEEP_ALPHA, SWEEP_TAU) for g in SWEEP_G}
        args = (
            "sweep", "--noise", "pl", "--g", "1,3,10", "--alpha", "3",
            "--tau-max", "2", "--tau-steps", "2001", "--with-matrix",
        )
        return [Step("sweep", args, lambda out, stdout: check_sweep_matrix(out, stdout, reference))]
    if workload == "oracle-fgn-200k":
        args = (
            "oracle", "--noise", "fgn", "--hurst", "0.5", "--tau-max", "2",
            "--samples", str(ORACLE_SAMPLES), "--seed", str(seed),
        )
        return [Step("oracle", args, lambda out, stdout: check_oracle(out, stdout, seed))]
    if workload == "figures-all":
        return [
            Step(
                f"figure-{name}",
                ("figure", name),
                lambda out, stdout, name=name: check_figure(out, stdout, name),
            )
            for name in FIGURES
        ]
    raise ValueError(f"unknown workload {workload!r}")


def pl_beta_reference(g: float, alpha: float, taus: np.ndarray) -> np.ndarray:
    """Closed-form power-law beta evaluated in 40-digit arithmetic."""
    with mpmath.workdps(40):
        a, gm = mpmath.mpf(alpha), mpmath.mpf(g)
        values = []
        for tau in taus:
            x = gm * mpmath.mpf(float(tau))
            beta = (x * (a - 2) - 1 + (1 + x) ** (2 - a)) / (gm * (a - 2))
            values.append(float(beta))
    return np.array(values)


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def check_files(out: Path, lines: list[str], printed: list[str]) -> None:
    """``lines`` list ``printed`` in order and ``out`` holds exactly those files."""
    expected = [os.path.join(str(out), name) for name in printed]
    _check(lines == expected, f"stdout paths {lines} != {expected}")
    found = sorted(os.listdir(out))
    _check(found == sorted(set(printed)), f"files {found} != {sorted(set(printed))}")


def read_csv(path: Path, header: list[str], rows: int) -> np.ndarray:
    """Parse a CSV after checking its header, row count and finiteness."""
    lines = path.read_text(encoding="utf-8").splitlines()
    _check(bool(lines) and lines[0].split(",") == header, f"{path.name}: header {lines[:1]}")
    _check(len(lines) - 1 == rows, f"{path.name}: {len(lines) - 1} rows, expected {rows}")
    try:
        table = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc
    _check(table.shape == (rows, len(header)), f"{path.name}: ragged rows")
    _check(bool(np.all(np.isfinite(table))), f"{path.name}: non-finite value")
    return table


def matrix_functionals(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tr(rho^2) and the eigenvalue entropy of each row's matrix columns."""
    start = len(BASE_HEADER)
    rho = (table[:, start::2] + 1j * table[:, start + 1 :: 2]).reshape(-1, 3, 3)
    purity = np.sum(np.abs(rho) ** 2, axis=(1, 2))
    eigs = np.clip(np.linalg.eigvalsh(rho), 0.0, 1.0)
    safe = np.where(eigs > 0.0, eigs, 1.0)
    entropy = -np.sum(eigs * np.log(safe), axis=1)
    return purity, entropy


def _check_close(name: str, got: np.ndarray, want: np.ndarray, tol: float) -> None:
    worst = float(np.max(np.abs(got - want)))
    _check(worst <= tol, f"{name}: max deviation {worst:.3g} > {tol:g}")


def check_sweep_matrix(out: Path, stdout: str, reference: dict[float, np.ndarray]) -> None:
    names = [f"sweep_pl_g{g:g}_a{SWEEP_ALPHA:g}.csv" for g in SWEEP_G]
    check_files(out, stdout.splitlines(), names + ["plot_sweep_pl.py"])
    _check_script(out / "plot_sweep_pl.py")
    for g, name in zip(SWEEP_G, names):
        table = read_csv(out / name, BASE_HEADER + MATRIX_HEADER, SWEEP_TAU.size)
        tau, beta, purity, entropy = table[:, :4].T
        _check(np.array_equal(tau, SWEEP_TAU), f"{name}: tau grid differs")
        want_purity, want_entropy = matrix_functionals(table)
        _check_close(f"{name} purity", purity, want_purity, MATRIX_FUNCTIONAL_TOL)
        _check_close(f"{name} entropy", entropy, want_entropy, MATRIX_FUNCTIONAL_TOL)
        want_beta = reference[g]
        rel = np.abs(beta - want_beta) / np.maximum(want_beta, 1e-12)
        _check(float(rel.max()) <= BETA_REL_TOL, f"{name} beta: rel error {rel.max():.3g}")


def read_report(path: Path) -> dict[str, str]:
    """The ``key = value`` header of an oracle report."""
    fields = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip():
            break
        key, sep, value = line.partition(" = ")
        _check(bool(sep), f"{path.name}: malformed line {line!r}")
        fields[key] = value
    return fields


def check_oracle(out: Path, stdout: str, seed: int) -> None:
    name = "oracle_fgn_H0.5.txt"
    lines = stdout.splitlines()
    _check(len(lines) == 2 and lines[1].endswith("within_bound=True"), f"stdout {lines}")
    check_files(out, lines[:1], [name])
    report = read_report(out / name)
    _check(report.get("noise") == "fgn_H0.5", f"noise {report.get('noise')}")
    _check(report.get("n_samples") == str(ORACLE_SAMPLES), f"n_samples {report.get('n_samples')}")
    _check(report.get("seed") == str(seed), f"seed {report.get('seed')} != {seed}")
    _check(report.get("within_bound") == "True", f"within_bound {report.get('within_bound')}")
    try:
        deviation = float(report["max_abs_deviation"])
        bound = float(report["stderr_bound"])
        jitter = float(report["cholesky_jitter"])
    except (KeyError, ValueError) as exc:
        raise CheckFailed(f"{name}: {exc!r}") from exc
    _check(deviation <= bound, f"deviation {deviation} > bound {bound}")
    _check(math.isfinite(jitter) and jitter >= 0.0, f"cholesky_jitter {jitter}")


def _sweep(labels: list[str], kind: str) -> list:
    return [(f"sweep_{label}.csv", BASE_HEADER, 201) for label in labels] + [
        f"plot_sweep_{kind}.py"
    ]


# Printed outputs of each figure, in order: (csv, header, rows) or a script name.
FIGURE_OUTPUTS = {
    "noiseless": [
        (f"noiseless_omega{omega}.csv", BASE_HEADER + MATRIX_HEADER, 1501)
        for omega in ("0.5", "1")
    ]
    + ["plot_noiseless.py"],
    "noisephase": [
        (f"noisephase_{label}.csv", BASE_HEADER + ["dephasing_n2"], 301)
        for label in ("fgn_H0.5", "gn_g1", "ou_g1", "pl_g1_a5")
    ]
    + ["plot_noisephase.py"],
    "fgn": _sweep(["fgn_H0.1", "fgn_H0.5", "fgn_H0.9"], "fgn"),
    "gn": _sweep(["gn_g1", "gn_g3", "gn_g10"], "gn"),
    "ou": _sweep(["ou_g1", "ou_g3", "ou_g10"], "ou"),
    "pl": _sweep(["pl_g1_a3", "pl_g3_a3", "pl_g10_a3"], "pl")
    + _sweep(["pl_g0.5_a3", "pl_g0.5_a5", "pl_g0.5_a10"], "pl"),
    "joint": [
        (f"joint_{label}.csv", BASE_HEADER, 501)
        for label in (
            "gn_g0.001", "ou_g0.001", "pl_g0.001_a3", "gn_g0.01", "ou_g0.01", "pl_g0.01_a3",
        )
    ]
    + ["plot_joint.py"],
}


def _check_script(path: Path) -> None:
    try:
        compile(path.read_text(encoding="utf-8"), path.name, "exec")
    except SyntaxError as exc:
        raise CheckFailed(f"{path.name}: {exc}") from exc


def check_figure(out: Path, stdout: str, name: str) -> None:
    outputs = FIGURE_OUTPUTS[name]
    names = [item if isinstance(item, str) else item[0] for item in outputs]
    check_files(out, stdout.splitlines(), names)
    for item in outputs:
        if isinstance(item, str):
            _check_script(out / item)
        else:
            read_csv(out / item[0], item[1], item[2])


def written(out: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) of the files an invocation left in ``out``."""
    rows = size = 0
    for path in out.iterdir():
        data = path.read_bytes()
        size += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, size
