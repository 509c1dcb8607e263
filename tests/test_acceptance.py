"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import functools
import math

import numpy as np
import pytest

from qutrit_dephasing import (
    NoiseSpec,
    SystemParams,
    beta_closed,
    beta_quadrature,
    evolve_averaged,
    initial_state,
    mc_average_state,
    purity,
    purity_closed,
    sample_trajectories,
    vn_entropy_closed,
)
from qutrit_dephasing.cli import main as cli_main
from qutrit_dephasing.experiments import preservation_time

PURITY_SAT = 17.0 / 18.0

# parameters that drive beta past 5 for each family
DEEP_SATURATION = [
    (NoiseSpec.fgn(0.5), 2.5),
    (NoiseSpec.gn(5.0), 6.0),
    (NoiseSpec.ou(5.0), 6.0),
    (NoiseSpec.pl(5.0, 3.0), 6.0),
]


def criterion(label):
    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {label}: FAIL")
                raise
            print(f"ACCEPTANCE {label}: PASS")

        return inner

    return wrap


@criterion("01 purity saturation 17/18")
def test_criterion_01_purity_saturation():
    for spec, tau in DEEP_SATURATION:
        beta = beta_closed(spec, tau)
        assert beta >= 5.0, spec.label()
        assert abs(purity_closed(beta) - PURITY_SAT) <= 1e-6


@criterion("02 entropy saturation 0.1302")
def test_criterion_02_entropy_saturation():
    for spec, tau in DEEP_SATURATION:
        beta = beta_closed(spec, tau)
        assert beta >= 5.0
        assert abs(vn_entropy_closed(beta) - 0.1302) <= 1e-3


@criterion("03 beta closed form vs quadrature 1e-6")
def test_criterion_03_beta_quadrature():
    combos = []
    for hurst in (0.1, 0.5, 0.9):
        combos += [(NoiseSpec.fgn(hurst), tau) for tau in (0.5, 1.0, 2.0)]
    for g in (1.0, 5.0):
        combos += [(NoiseSpec.gn(g), tau) for tau in (1.0, 2.0)]
        combos += [(NoiseSpec.ou(g), tau) for tau in (1.0, 2.0)]
    for g in (1.0, 5.0):
        for alpha in (3.0, 5.0, 10.0):
            combos.append((NoiseSpec.pl(g, alpha), 1.0))
    assert len(combos) >= 20
    for spec, tau in combos:
        closed = beta_closed(spec, tau)
        quad = beta_quadrature(spec, tau, panels=1024)
        assert abs(quad - closed) / max(closed, 1e-12) <= 1e-6, spec.label()


@criterion("04 Monte-Carlo oracle equivalence, all four families")
def test_criterion_04_oracle_equivalence():
    n = 50000
    grid = np.linspace(0.0, 1.0, 201)
    rho0 = initial_state(1.0)
    params = SystemParams(omega=1.0, r=1.0)
    for spec in (NoiseSpec.fgn(0.5), NoiseSpec.gn(1.0), NoiseSpec.ou(1.0), NoiseSpec.pl(1.0, 3.0)):
        ensemble = sample_trajectories(spec, grid, n, seed=2024)
        report = mc_average_state(rho0, ensemble, params, at_index=-1)
        assert report.stderr_bound == pytest.approx(3.0 / math.sqrt(n))
        assert report.max_abs_deviation <= report.stderr_bound, (
            spec.label(),
            report.max_abs_deviation,
        )


@criterion("05 analytic averaged-matrix identity to 1e-12")
def test_criterion_05_matrix_identity():
    for beta in (0.0, 0.5, 2.0, 10.0):
        rho = evolve_averaged(initial_state(1.0), beta)
        corner = (3.0 + math.exp(-2.0 * beta)) / 12.0
        center = 0.5 - math.exp(-2.0 * beta) / 6.0
        expected = np.full((3, 3), 1.0 / 3.0, dtype=complex)
        for i, j in ((0, 0), (2, 2), (0, 2), (2, 0)):
            expected[i, j] = corner
        expected[1, 1] = center
        assert np.max(np.abs(rho - expected)) <= 1e-12
        assert abs(purity(rho) - (17.0 + math.exp(-4.0 * beta)) / 18.0) <= 1e-12


@criterion("06 averaged state is rank 2 at r=1")
def test_criterion_06_rank_two():
    for beta in (0.0, 0.1, 0.5, 2.0, 10.0, 50.0):
        rho = evolve_averaged(initial_state(1.0), beta)
        eigs = np.sort(np.abs(np.linalg.eigvalsh(rho)))
        assert eigs[0] <= 1e-10


SWEEP_SETS = (
    [NoiseSpec.fgn(h) for h in (0.1, 0.5, 0.9)]
    + [NoiseSpec.gn(g) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec.ou(g) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec.pl(g, 3.0) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec.pl(0.5, a) for a in (3.0, 5.0, 10.0)]
)


@criterion("07 monotone, revival-free decay on all sweeps")
def test_criterion_07_monotone_decay():
    taus = np.linspace(0.0, 2.0, 201)
    for spec in SWEEP_SETS:
        purities = [purity_closed(beta_closed(spec, t)) for t in taus]
        entropies = [vn_entropy_closed(beta_closed(spec, t)) for t in taus]
        assert all(b <= a for a, b in zip(purities, purities[1:])), spec.label()
        assert all(b >= a for a, b in zip(entropies, entropies[1:])), spec.label()


@criterion("08 purity ordering g=1 > g=3 > g=10")
def test_criterion_08_g_ordering():
    taus = np.linspace(0.0, 2.0, 201)[1:]
    for kind in ("gn", "ou", "pl"):
        curves = [
            [purity_closed(beta_closed(NoiseSpec(kind, g=g), t)) for t in taus]
            for g in (1.0, 3.0, 10.0)
        ]
        for t_idx in range(len(taus)):
            assert curves[0][t_idx] > curves[1][t_idx] > curves[2][t_idx], kind


@criterion("09 fGn Hurst crossover in beta")
def test_criterion_09_fgn_crossover():
    early = [beta_closed(NoiseSpec.fgn(h), 0.5) for h in (0.9, 0.5, 0.1)]
    assert early[0] < early[1] < early[2]
    late = [beta_closed(NoiseSpec.fgn(h), 2.0) for h in (0.9, 0.5, 0.1)]
    assert late[0] > late[1] > late[2]


@criterion("10 preservation-time ratio OU/PL = sqrt(2), OU slowest")
def test_criterion_10_preservation_ratio():
    delta = 1e-3
    tau_ou = preservation_time(NoiseSpec.ou(1e-3), delta=delta).tau_star
    tau_pl = preservation_time(NoiseSpec.pl(1e-3, 3.0), delta=delta).tau_star
    tau_gn = preservation_time(NoiseSpec.gn(1e-3), delta=delta).tau_star
    ratio = tau_ou / tau_pl
    assert abs(ratio - math.sqrt(2.0)) / math.sqrt(2.0) <= 0.05
    assert tau_ou > tau_gn > tau_pl


@criterion("11 byte-identical CLI reruns")
def test_criterion_11_determinism(tmp_path):
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        argv = [
            "sweep", "--noise", "ou", "--g", "1,3,10",
            "--tau-max", "2", "--tau-steps", "101", "--out", str(out),
        ]
        assert cli_main(argv) == 0
        outs.append(out)
    for name in sorted(p.name for p in outs[0].iterdir()):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
