"""Monte-Carlo oracle: sample the Gaussian phases of field realizations at
chosen times and average the evolved qutrit states over the ensemble.

The sampling never touches the analytic dephasing factors; only the
reference state does, through the factors chi_n of ``noise.phase_law``.  The
phases at the K chosen times are jointly Gaussian with the exact covariance
C of ``noise.phase_covariance``, so the oracle needs no paths and no time
grid.  A ``TrajectoryEnsemble`` stores four inputs (times, count, seed,
spec), holds every rule on them, and, when it is built, derives from them the
Cholesky factor F of C; its phases are drawn as ``Z F^T``.  The state
U(phi) rho0 U(phi)+ is a degree-2 trigonometric polynomial in phi, so its
ensemble mean depends on the paths only through the two moments
m_n = mean exp(i n omega phi), n = 1, 2.  It is the sum of the states at
five equispaced phases theta_j, built with the closed-form ``propagator``,
with weights (1 + 2 Re(m1 exp(-i theta_j) + m2 exp(-2i theta_j))) / 5: the
mean of the polynomial's interpolant on those nodes.  One pass over the
blocks keeps the two moment sums of every drawn column, so
``mc_average_state`` returns one report over all K times.  Agreement with
``evolve_averaged`` within the 3/sqrt(N) bound is the independent check of
the analytic averaging rule, whose eigenbasis the empirical side never uses.

Path p's K standard normals are the flat indices pK .. pK + K - 1 of one
counter-based stream (``_normals``): normals 2j and 2j + 1 are the Box-Muller
pair of Philox4x32-10 call j (Salmon, Moraes, Dror & Shaw, SC11), keyed by
the seed's low 64 bits, with its high 64 bits in the counter.  So path p
depends only on (seed, p), and the ensemble is bit-reproducible.  Key and
counter read exactly SEED_BITS = 128 bits of seed, so an ensemble takes a
seed in [0, 2**128) only: any other would draw the paths of one of those.
Sampling and averaging stream over blocks of BLOCK = 4096 paths, which
bounds the memory and is no part of the stream.
The phases, the moment sums and the node sums are plain ``np.einsum``
and ``sum`` calls, which sum in one fixed order and never call the BLAS, and
the K x K factor is too small for the BLAS to thread; that a report is the
same bits for any BLAS thread count is pinned by a test
(``test_report_bits_do_not_depend_on_blas_threads``).  One block is in
memory at a time, so memory is O(BLOCK * K).
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import evolve_averaged, propagator
from .noise import NoiseSpec, phase_covariance, phase_law

BLOCK = 4096
SEED_BITS = 128
RNG_ALGORITHM = (
    "Philox4x32-10 + Box-Muller, call j keyed by seed bits 0-63 with counter "
    "(j mod 2**32, j >> 32, seed bits 64-95, seed bits 96-127) gives normals 2j, 2j+1; "
    "path p takes normals pK .. pK+K-1 at K phase times"
)

_WORD = 0xFFFFFFFF
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)

_JITTERS = (0.0, 1e-12, 1e-10, 1e-8)
# theta_j = 2 pi j / 5, the phases at which mc_average_state evaluates states.
_NODES = 2.0 * np.pi / 5.0 * np.arange(5)


@dataclass(frozen=True)
class TrajectoryEnsemble:
    """n_paths >= 1 draws of the Gaussian phases (the integrals of eta from 0,
    before omega) of ``spec`` at positive, strictly increasing, finite times
    ``taus``, with a seed in [0, 2**128).  Only these four inputs are stored,
    the times as a read-only copy that no later write can move, checked by
    every construction (``replace`` too), which then factors C (``cholesky``)."""

    taus: np.ndarray
    n_paths: int
    seed: int
    spec: NoiseSpec

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        taus.flags.writeable = False
        if taus.ndim != 1 or not taus.size:
            raise ValueError(f"phase times must be a non-empty 1-D array, got shape {taus.shape}")
        (bad,) = np.nonzero(~((np.diff(taus, prepend=0.0) > 0.0) & np.isfinite(taus)))
        if bad.size:
            raise ValueError(
                "phase times must be positive, strictly increasing and finite, "
                f"got {taus[bad[0]]} at index {bad[0]}"
            )
        object.__setattr__(self, "taus", taus)
        object.__setattr__(self, "n_paths", operator.index(self.n_paths))
        object.__setattr__(self, "seed", operator.index(self.seed))
        if self.n_paths < 1:
            raise ValueError(f"need at least one path, got {self.n_paths}")
        if not 0 <= self.seed < 2**SEED_BITS:
            raise ValueError(f"seed must lie in [0, 2**{SEED_BITS}), got {self.seed}")
        self.cholesky

    @cached_property
    def cholesky(self) -> tuple[np.ndarray, float]:
        """(F, jitter) with F F^T = C + jitter scale I, C the phases' covariance."""
        cov = phase_covariance(self.spec, self.taus)
        return _cholesky_with_jitter(cov, self.spec)

    def phases(self) -> Iterator[np.ndarray]:
        """Each block's (rows, K) phases ``Z_b F^T``: the block of paths
        start .. start + rows - 1 takes normals start K .. (start + rows) K - 1."""
        factor, _ = self.cholesky
        k = self.taus.size
        for start in range(0, self.n_paths, BLOCK):
            rows = min(BLOCK, self.n_paths - start)
            z = _normals(self.seed, start * k, rows * k).reshape(rows, k)
            yield np.einsum("ij,kj->ik", z, factor)


def _philox(x0, x1, x2, x3, k0, k1):
    """Philox4x32-10 of the counter (x0, x1, x2, x3) under the key (k0, k1):
    uint64 arrays (the key may be ints) that hold 32-bit words, so each
    32 x 32-bit product is exact."""
    for _ in range(10):
        p0, p1 = x0 * _PHILOX_M[0], x2 * _PHILOX_M[1]
        x0, x1, x2, x3 = (p1 >> 32) ^ x1 ^ k0, p1 & _WORD, (p0 >> 32) ^ x3 ^ k1, p0 & _WORD
        k0, k1 = (k0 + _PHILOX_W[0]) & _WORD, (k1 + _PHILOX_W[1]) & _WORD
    return x0, x1, x2, x3


def _normals(seed: int, first: int, count: int) -> np.ndarray:
    """Standard normals first .. first + count - 1 of the seed's stream.

    Philox call j takes the key (seed bits 0-31, 32-63) and the counter
    (j mod 2**32, j >> 32, seed bits 64-95, 96-127).  Its words (x0, x1) and
    (x2, x3) form the 64-bit words x0 + 2**32 x1 and x2 + 2**32 x3, each made
    a uniform u = ((w >> 11) + 0.5) 2**-53, never 0.  Box-Muller turns
    (u1, u2) into normals 2j = r cos(2 pi u2) and 2j + 1 = r sin(2 pi u2),
    with r = sqrt(-2 ln u1).
    """
    j = np.arange(first // 2, (first + count + 1) // 2, dtype=np.uint64)
    x0, x1, x2, x3 = _philox(
        j & _WORD,
        j >> 32,
        np.full_like(j, (seed >> 64) & _WORD),
        np.full_like(j, (seed >> 96) & _WORD),
        seed & _WORD,
        (seed >> 32) & _WORD,
    )
    u1 = (((x0 | x1 << 32) >> 11) + 0.5) * 2.0**-53
    u2 = (((x2 | x3 << 32) >> 11) + 0.5) * 2.0**-53
    r = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.stack([r * np.cos(angle), r * np.sin(angle)], axis=-1).ravel()
    return z[first % 2 : first % 2 + count]


@dataclass(frozen=True)
class OracleReport:
    """The (K, 3, 3) analytic averaged states against the averages over
    ``ensemble``, row k at ``ensemble.taus[k]``; the figures cover all K."""

    analytic: np.ndarray
    empirical: np.ndarray
    ensemble: TrajectoryEnsemble

    @property
    def max_abs_deviation(self) -> float:
        return float(np.max(np.abs(self.empirical - self.analytic)))

    @property
    def stderr_bound(self) -> float:
        return float(3.0 / np.sqrt(self.ensemble.n_paths))

    @property
    def within_bound(self) -> bool:
        return self.max_abs_deviation <= self.stderr_bound


def _cholesky_with_jitter(cov: np.ndarray, spec: NoiseSpec) -> tuple[np.ndarray, float]:
    if not np.all(np.isfinite(cov)):
        raise ValueError(f"covariance for {spec.label()} is not finite")
    scale = max(np.max(np.abs(np.diag(cov))), 1.0)
    for jitter in _JITTERS:
        try:
            factor = np.linalg.cholesky(cov + jitter * scale * np.eye(cov.shape[0]))
            return factor, jitter
        except np.linalg.LinAlgError:
            continue
    raise ValueError(
        f"covariance for {spec.label()} is not positive semidefinite "
        f"even with diagonal jitter up to {_JITTERS[-1]:g}"
    )


def sample_trajectories(spec: NoiseSpec, taus, n: int, seed: int) -> TrajectoryEnsemble:
    """n draws of the zero-mean Gaussian phases of ``spec`` at ``taus``, each
    accumulated from 0, drawn block by block when read (``phases``).  A module
    function, not the bare constructor: perfbench's tracer times it as the
    ``montecarlo.sample_trajectories`` span that its tests pin."""
    return TrajectoryEnsemble(taus, n, seed, spec)


def mc_average_state(rho0: np.ndarray, ensemble: TrajectoryEnsemble, omega: float) -> OracleReport:
    """Ensemble-averaged evolved states at every drawn time, vs the analytic
    states: one report, whose (K, 3, 3) states follow ``ensemble.taus``.

    The analytic references, evolve_averaged with the chi of the spec's phase
    law at each tau, are computed first, so a bad rho0 or omega fails before
    the state sum.  One pass over the blocks sums exp(i omega phi) and
    exp(2i omega phi) for every drawn column, in block order.  Their means
    m1, m2 weight the states U(theta_j) rho0 U(theta_j)+ at theta_j =
    2 pi j / 5, j = 0..4, and each weighted sum is exactly the mean of the
    per-path states U(omega phi) rho0 U(omega phi)+ at its time.  Where
    omega * phi overflows, the sums are not finite: a ValueError.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    taus = ensemble.taus
    _, _, chi = phase_law(ensemble.spec, taus, omega)
    analytic = evolve_averaged(rho0, chi)
    sums = np.zeros((2, taus.size), dtype=complex)
    for phases in ensemble.phases():
        # omega * phi may overflow to inf, and its phasor is then nan
        with np.errstate(over="ignore", invalid="ignore"):
            phasor = np.exp(1j * (omega * phases))
        sums += phasor.sum(axis=0), (phasor * phasor).sum(axis=0)
    if not np.all(np.isfinite(sums)):
        raise ValueError(f"the phases omega * phi overflow the float range at omega={omega:g}")
    m1, m2 = sums[..., None] / ensemble.n_paths
    weights = (1.0 + 2.0 * (m1 * np.exp(-1j * _NODES) + m2 * np.exp(-2j * _NODES)).real) / 5.0
    u = propagator(_NODES)
    empirical = np.einsum("kn,nij,jl,nml->kim", weights, u, rho0, u.conj())
    return OracleReport(analytic, empirical, ensemble)
