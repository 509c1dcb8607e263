"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdicts.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from qutrit_dephasing import (
    NoiseSpec,
    beta_closed,
    coherence_loss,
    evolve_averaged,
    initial_state,
    mc_average_state,
    purity_closed,
    sample_trajectories,
    vn_entropy_closed,
)
from qutrit_dephasing.cli import main as cli_main
from qutrit_dephasing.experiments import preservation_time, tau_grid
from references import beta_exact, beta_quadrature, purity

PURITY_SAT = 17.0 / 18.0

# parameters that drive beta past 5 for each family
DEEP_SATURATION = [
    (NoiseSpec("fgn", hurst=0.5), 2.5),
    (NoiseSpec("gn", g=5.0), 6.0),
    (NoiseSpec("ou", g=5.0), 6.0),
    (NoiseSpec("pl", g=5.0, alpha=3.0), 6.0),
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
        assert abs(purity_closed(coherence_loss(2, beta)) - PURITY_SAT) <= 1e-6


@criterion("02 entropy saturation 0.1302")
def test_criterion_02_entropy_saturation():
    for spec, tau in DEEP_SATURATION:
        beta = beta_closed(spec, tau)
        assert beta >= 5.0
        assert abs(vn_entropy_closed(coherence_loss(2, beta)) - 0.1302) <= 1e-3


@criterion("03 beta closed form vs quadrature 1e-6")
def test_criterion_03_beta_quadrature():
    combos = []
    for hurst in (0.1, 0.5, 0.9):
        combos += [(NoiseSpec("fgn", hurst=hurst), tau) for tau in (0.5, 1.0, 2.0)]
    for g in (1.0, 5.0):
        combos += [(NoiseSpec("gn", g=g), tau) for tau in (1.0, 2.0)]
        combos += [(NoiseSpec("ou", g=g), tau) for tau in (1.0, 2.0)]
    for g in (1.0, 5.0):
        for alpha in (3.0, 5.0, 10.0):
            combos.append((NoiseSpec("pl", g=g, alpha=alpha), 1.0))
    assert len(combos) >= 20
    for spec, tau in combos:
        closed = beta_closed(spec, tau)
        quad = beta_quadrature(spec, tau)
        assert abs(quad - closed) / max(closed, 1e-12) <= 1e-6, spec.label()


@criterion("04 Monte-Carlo oracle equivalence, all four families")
def test_criterion_04_oracle_equivalence():
    n = 50000
    rho0 = initial_state(1.0)
    specs = (
        NoiseSpec("fgn", hurst=0.5),
        NoiseSpec("gn", g=1.0),
        NoiseSpec("ou", g=1.0),
        NoiseSpec("pl", g=1.0, alpha=3.0),
    )
    for spec in specs:
        ensemble = sample_trajectories(spec, [1.0], n, seed=2024)
        (report,) = mc_average_state(rho0, ensemble, 1.0)
        assert report.stderr_bound == pytest.approx(3.0 / math.sqrt(n))
        assert report.max_abs_deviation <= report.stderr_bound, (
            spec.label(),
            report.max_abs_deviation,
        )


@criterion("05 analytic averaged-matrix identity to 1e-12")
def test_criterion_05_matrix_identity():
    for beta in (0.0, 0.5, 2.0, 10.0):
        rho = evolve_averaged(initial_state(1.0), lambda n: math.exp(-0.5 * n * n * beta))
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
        rho = evolve_averaged(initial_state(1.0), lambda n: math.exp(-0.5 * n * n * beta))
        eigs = np.sort(np.abs(np.linalg.eigvalsh(rho)))
        assert eigs[0] <= 1e-10


SWEEP_SETS = (
    [NoiseSpec("fgn", hurst=h) for h in (0.1, 0.5, 0.9)]
    + [NoiseSpec("gn", g=g) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec("ou", g=g) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec("pl", g=g, alpha=3.0) for g in (1.0, 3.0, 10.0)]
    + [NoiseSpec("pl", g=0.5, alpha=a) for a in (3.0, 5.0, 10.0)]
)


@criterion("07 monotone, revival-free decay on all sweeps")
def test_criterion_07_monotone_decay():
    # beta' is 1 - e^-x (ou), erf x (gn), 1 - (1+x)^(1-alpha) (pl) with
    # x = g*tau, and tau^(2H+1) (fgn): all > 0 for tau > 0, so beta rises,
    # the coherence loss with it, and this cannot fail for these four families
    taus = np.linspace(0.0, 2.0, 201)
    for spec in SWEEP_SETS:
        purities = [purity_closed(coherence_loss(2, beta_closed(spec, t))) for t in taus]
        entropies = [vn_entropy_closed(coherence_loss(2, beta_closed(spec, t))) for t in taus]
        assert all(b <= a for a, b in zip(purities, purities[1:])), spec.label()
        assert all(b >= a for a, b in zip(entropies, entropies[1:])), spec.label()


@criterion("08 purity ordering g=1 > g=3 > g=10")
def test_criterion_08_g_ordering():
    taus = np.linspace(0.0, 2.0, 201)[1:]
    for kind in ("gn", "ou", "pl"):
        curves = [
            [purity_closed(coherence_loss(2, beta_closed(NoiseSpec(kind, g=g), t))) for t in taus]
            for g in (1.0, 3.0, 10.0)
        ]
        for t_idx in range(len(taus)):
            assert curves[0][t_idx] > curves[1][t_idx] > curves[2][t_idx], kind


@criterion("09 fGn Hurst crossover in beta")
def test_criterion_09_fgn_crossover():
    early = [beta_closed(NoiseSpec("fgn", hurst=h), 0.5) for h in (0.9, 0.5, 0.1)]
    assert early[0] < early[1] < early[2]
    late = [beta_closed(NoiseSpec("fgn", hurst=h), 2.0) for h in (0.9, 0.5, 0.1)]
    assert late[0] > late[1] > late[2]


@criterion("10 preservation-time ratio OU/PL = sqrt(2), OU slowest")
def test_criterion_10_preservation_ratio():
    delta = 1e-3
    tau_ou = preservation_time(NoiseSpec("ou", g=1e-3), delta=delta)
    tau_pl = preservation_time(NoiseSpec("pl", g=1e-3, alpha=3.0), delta=delta)
    tau_gn = preservation_time(NoiseSpec("gn", g=1e-3), delta=delta)
    ratio = tau_ou / tau_pl
    assert abs(ratio - math.sqrt(2.0)) / math.sqrt(2.0) <= 0.05
    assert tau_ou > tau_gn > tau_pl
    # the ratio tends to sqrt(2) as ~0.26 sqrt(g): -2.65e-5 off at g = 1e-8
    tau_ou = preservation_time(NoiseSpec("ou", g=1e-8), delta=delta)
    tau_pl = preservation_time(NoiseSpec("pl", g=1e-8, alpha=3.0), delta=delta)
    assert abs(tau_ou / tau_pl / math.sqrt(2.0) - 1.0) <= 1e-4


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


@criterion("13 OU is the least destructive at equal g")
def test_criterion_13_ou_least_destructive():
    # pl with alpha < 3 is excluded: at alpha = 2.5 its longer tail keeps more
    # purity than OU from g*tau ~ 2.3 on
    grids = [tau_grid(2.0, 201), tau_grid(3.0, 301), tau_grid(15.0, 1501), tau_grid(50.0, 501)]
    for g in np.logspace(-3.0, 1.0, 17):
        rivals = [NoiseSpec("gn", g=g)] + [NoiseSpec("pl", g=g, alpha=a) for a in (3.0, 5.0, 10.0)]
        for taus in grids:
            ou = purity_closed(coherence_loss(2, beta_closed(NoiseSpec("ou", g=g), taus)))
            for spec in rivals:
                rival = purity_closed(coherence_loss(2, beta_closed(spec, taus)))
                assert np.all(ou >= rival), spec.label()
    # The same claim in x = g*tau: at the default g = 1, beta_exact is
    # f(x) = g*beta, and purity falls as f grows, so OU keeps the most purity
    # wherever f_ou is least.  Only references are compared: at alpha = 3 and
    # x = 1e8 the float gap between the two betas is one ulp.
    def f(x, kind, **params):
        return beta_exact(NoiseSpec(kind, **params), x)

    with mpmath.workdps(60):
        for x in np.logspace(-8.0, 8.0, 129):
            ou = f(x, "ou")
            # the smallest relative gap to gn, 4.4e-9, is at x = 1e8
            assert f(x, "gn") > ou, x
            for alpha in (3.0, 5.0, 10.0):
                assert f(x, "pl", alpha=alpha) > ou, (alpha, x)
        # at alpha = 3 the gap is exact: (1 - (1+x) e^-x) / (1+x)
        for x in map(mpmath.mpf, (1e-3, 1.0, 30.0)):
            gap = (1 - (1 + x) * mpmath.exp(-x)) / (1 + x)
            assert abs(f(x, "pl", alpha=3.0) - f(x, "ou") - gap) <= 1e-40 * gap, x
        # below alpha = 3 the order turns at x*, README's 2.32 on a 0.01 grid
        crossing = mpmath.findroot(lambda x: f(x, "pl", alpha=2.5) - f(x, "ou"), 2.3)
        assert abs(crossing - mpmath.mpf("2.31057135675369")) <= 1e-10
