"""Trajectory sampling, phase accumulation, and the ensemble-average oracle."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

import qutrit_dephasing
from qutrit_dephasing import (
    NoiseSpec,
    SystemParams,
    TrajectoryEnsemble,
    initial_state,
    mc_average_state,
    phase_of,
    sample_trajectories,
)
from qutrit_dephasing import cli, montecarlo
from qutrit_dephasing.dynamics import propagator
from qutrit_dephasing.montecarlo import BLOCK, _trapezoid_weights


class TestSampleTrajectories:
    def test_grid_validation(self):
        spec = NoiseSpec.ou(1.0)
        with pytest.raises(ValueError):
            sample_trajectories(spec, [0.0], 10, 0)
        with pytest.raises(ValueError):
            sample_trajectories(spec, [0.0, 0.0, 1.0], 10, 0)

    def test_deterministic_for_seed(self):
        spec = NoiseSpec.gn(1.0)
        grid = np.linspace(0.0, 1.0, 21)
        a = sample_trajectories(spec, grid, 50, 123)
        b = sample_trajectories(spec, grid, 50, 123)
        assert np.array_equal(a.paths, b.paths)
        c = sample_trajectories(spec, grid, 50, 124)
        assert not np.array_equal(a.paths, c.paths)

    def test_batch_invariant_substreams(self):
        # path i depends only on (seed, i), not on how many paths were asked for
        spec = NoiseSpec.ou(2.0)
        grid = np.linspace(0.0, 1.0, 11)
        small = sample_trajectories(spec, grid, 5, 7)
        large = sample_trajectories(spec, grid, 20, 7)
        assert np.array_equal(small.paths, large.paths[:5])

    def test_batch_invariant_across_a_block_boundary(self):
        spec = NoiseSpec.gn(1.0)
        grid = np.linspace(0.0, 1.0, 6)
        small = sample_trajectories(spec, grid, BLOCK + 2, 7)
        large = sample_trajectories(spec, grid, BLOCK + 5, 7)
        assert np.array_equal(small.paths, large.paths[: BLOCK + 2])

    def test_block_streams_are_spawned_sfc64(self, tmp_path):
        # block b draws from SFC64(SeedSequence(seed, spawn_key=(b,))), the
        # stream the report names
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 7)
        blocks = list(sample_trajectories(spec, grid, 2 * BLOCK + 5, 11).normals())
        assert [z.shape[0] for z in blocks] == [BLOCK, BLOCK, 5]
        for b, z in enumerate(blocks):
            bits = np.random.SFC64(np.random.SeedSequence(11, spawn_key=(b,)))
            assert np.array_equal(z, np.random.Generator(bits).standard_normal(z.shape))
        # a seed + b scheme would draw block 1 of seed 11 as block 0 of seed 12
        (first,) = sample_trajectories(spec, grid, BLOCK, 12).normals()
        assert not np.array_equal(blocks[1], first)
        argv = ["oracle", "--noise", "ou", "--samples", "10", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        report = (tmp_path / "oracle_ou_g1.txt").read_text().splitlines()
        assert f"rng_algorithm = {montecarlo.RNG_ALGORITHM}" in report

    def test_zero_mean(self):
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 2.0, 9)
        ensemble = sample_trajectories(spec, grid, 1000, 5)
        std = np.sqrt(0.5)  # K(s, s) = g/2
        bound = 4.0 * std / np.sqrt(1000)
        assert np.max(np.abs(ensemble.paths.mean(axis=0))) < bound

    def test_ou_empirical_covariance(self):
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 2.0, 9)
        n = 20000
        ensemble = sample_trajectories(spec, grid, n, 11)
        emp = np.cov(ensemble.paths, rowvar=False, bias=True)
        for i, s in enumerate(grid):
            for j, sp in enumerate(grid):
                expected = 0.5 * np.exp(-abs(s - sp))
                # var of a covariance estimate ~ (K_ii K_jj + K_ij^2)/n
                se = np.sqrt((0.25 + expected**2) / n)
                assert abs(emp[i, j] - expected) < 5.0 * se

    def test_fgn_brownian_variance(self):
        spec = NoiseSpec.fgn(0.5)
        grid = np.linspace(0.0, 1.0, 6)
        n = 20000
        ensemble = sample_trajectories(spec, grid, n, 3)
        variances = ensemble.paths.var(axis=0)
        for t, var in zip(grid, variances):
            se = t * np.sqrt(2.0 / n) if t > 0 else 1e-6
            assert abs(var - t) < 5.0 * se + 1e-9

    def test_fgn_needs_jitter_at_origin(self):
        # fBm has zero variance at t=0; the covariance is singular there and
        # the recorded jitter must be nonzero but tiny
        ensemble = sample_trajectories(NoiseSpec.fgn(0.3), np.linspace(0, 1, 11), 5, 0)
        assert 0.0 < ensemble.jitter <= 1e-8


class TestPhaseOf:
    def test_constant_path(self):
        phases = phase_of(np.ones(3), np.array([0.0, 1.0, 2.0]), 1.0)
        assert np.allclose(phases, [0.0, 1.0, 2.0])

    def test_zero_path(self):
        phases = phase_of(np.zeros(5), np.linspace(0, 2, 5), 3.0)
        assert np.all(phases == 0.0)

    def test_linear_path(self):
        grid = np.linspace(0.0, 1.0, 101)
        phases = phase_of(grid.copy(), grid, 2.0)
        assert phases[-1] == pytest.approx(1.0, abs=1e-4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            phase_of(np.ones(4), np.linspace(0, 1, 5), 1.0)

    @pytest.mark.parametrize("at_index", [1, 37, -1])
    def test_trapezoid_weights_match_cumulative_phase(self, at_index):
        rng = np.random.default_rng(3)
        grid = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 2.0, size=63))])
        paths = rng.normal(size=(50, 64))
        weighted = 1.7 * (paths @ _trapezoid_weights(grid, at_index))
        cumulative = phase_of(paths, grid, 1.7)[:, at_index]
        assert np.max(np.abs(weighted - cumulative)) < 1e-13


class TestMcAverageState:
    def _manual_ensemble(self, factor, n, grid, spec, seed=0):
        return TrajectoryEnsemble(
            t_grid=np.asarray(grid, float),
            factor=np.asarray(factor, float),
            n_paths=n,
            seed=seed,
            spec=spec,
        )

    @staticmethod
    def _random_state(rng):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = a @ a.conj().T
        return rho0 / np.trace(rho0).real

    @staticmethod
    def _per_path_average(rho0, paths, grid, omega):
        sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / np.sqrt(2.0)
        u = expm(-1j * phase_of(paths, grid, omega)[:, -1, None, None] * sx)
        return (u @ rho0 @ u.conj().transpose(0, 2, 1)).mean(axis=0)

    def test_single_zero_path_is_noiseless(self):
        grid = np.linspace(0.0, 1.0, 11)
        ensemble = self._manual_ensemble(np.zeros((11, 11)), 1, grid, NoiseSpec.ou(1.0))
        rho0 = initial_state(0.8)
        report = mc_average_state(rho0, ensemble, SystemParams(), -1)
        assert np.max(np.abs(report.empirical - rho0)) < 1e-14

    def test_matches_per_path_matrix_exponential(self):
        rng = np.random.default_rng(5)
        rho0 = self._random_state(rng)
        grid = np.linspace(0.0, 1.0, 11)
        factor = np.tril(rng.normal(size=(11, 11)))
        params = SystemParams(omega=1.3)
        ensemble = self._manual_ensemble(factor, 4, grid, NoiseSpec.ou(1.0))
        report = mc_average_state(rho0, ensemble, params, -1)
        expected = self._per_path_average(rho0, ensemble.paths, grid, params.omega)
        assert np.max(np.abs(report.empirical - expected)) < 1e-13

    def test_streamed_blocks_match_per_path_matrix_exponential(self):
        rho0 = self._random_state(np.random.default_rng(8))
        grid = np.linspace(0.0, 1.0, 11)
        params = SystemParams(omega=1.3)
        ensemble = sample_trajectories(NoiseSpec.ou(2.0), grid, BLOCK + 37, 4)
        report = mc_average_state(rho0, ensemble, params, -1)
        expected = self._per_path_average(rho0, ensemble.paths, grid, params.omega)
        assert np.max(np.abs(report.empirical - expected)) < 1e-13

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_same_bits_for_any_worker_count(self, workers, monkeypatch):
        # the serial loop over whole blocks is the reference; 3 blocks and 37
        # paths cover a partial last block and more blocks than workers + 1
        rho0 = self._random_state(np.random.default_rng(2))
        grid = np.linspace(0.0, 1.0, 101)
        params = SystemParams(omega=1.3)
        ensemble = sample_trajectories(NoiseSpec.gn(1.0), grid, 3 * BLOCK + 37, 6)
        weights = _trapezoid_weights(grid, -1)
        v = params.omega * np.einsum("ji,j->i", ensemble.factor, weights)
        total = np.zeros((3, 3), dtype=complex)
        for z in ensemble.normals():
            u = propagator(np.einsum("ij,j->i", z, v))
            total += np.einsum("nij,jk,nlk->il", u, rho0, u.conj(), optimize=True)
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: workers)
        report = mc_average_state(rho0, ensemble, params, -1)
        assert np.array_equal(report.empirical, total / ensemble.n_paths)

    @pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 1297, 1298, 2049, BLOCK])
    def test_chunked_draw_matches_one_block_product(self, rows):
        # 101 points draw 1297 rows a chunk; 1298 rows leave a last chunk of one
        v = np.random.default_rng(rows).normal(size=101)
        grid = np.linspace(0.0, 1.0, 101)
        ensemble = self._manual_ensemble(np.eye(101), rows, grid, NoiseSpec.ou(1.0), seed=9)
        ((rng, _),) = ensemble.blocks()
        whole = rng.standard_normal((rows, 101))
        ((rng, _),) = ensemble.blocks()
        chunked = montecarlo._block_phases(rng, rows, v)
        assert np.array_equal(chunked, np.einsum("ij,j->i", whole, v))

    def test_report_bits_do_not_depend_on_chunk_size(self, monkeypatch):
        # on 201 points these chunks hold 1, 3 and 652 rows of a block
        rho0 = self._random_state(np.random.default_rng(4))
        grid = np.linspace(0.0, 1.0, 201)
        ensemble = sample_trajectories(NoiseSpec.gn(1.0), grid, BLOCK + 37, 8)
        reports = []
        for normals in (201, 604, 2**17):
            monkeypatch.setattr(montecarlo, "_CHUNK_NORMALS", normals)
            reports.append(mc_average_state(rho0, ensemble, SystemParams(), -1))
        for report in reports[1:]:
            assert np.array_equal(report.empirical, reports[0].empirical)

    def test_report_bits_do_not_depend_on_blas_threads(self):
        # a fixed factor, so no Cholesky runs; on 1001 points the BLAS would
        # split L^T w across its threads
        code = (
            "import numpy as np\n"
            "from qutrit_dephasing import NoiseSpec, SystemParams, TrajectoryEnsemble,"
            " initial_state, mc_average_state\n"
            "rng = np.random.default_rng(12)\n"
            "factor = np.tril(rng.normal(size=(1001, 1001)))\n"
            "ensemble = TrajectoryEnsemble(np.linspace(0.0, 1.0, 1001), factor, 300, 5,"
            " NoiseSpec.ou(1.0))\n"
            "report = mc_average_state(initial_state(1.0), ensemble, SystemParams(), -1)\n"
            "print(report.empirical.tobytes().hex())\n"
        )
        src = os.path.dirname(os.path.dirname(qutrit_dephasing.__file__))
        empirical = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert out.returncode == 0, out.stderr
            empirical.append(np.frombuffer(bytes.fromhex(out.stdout.strip()), complex))
        assert np.array_equal(*empirical)

    def test_memory_bounded_by_one_block(self, monkeypatch):
        # eight blocks of paths, but never more than one block in memory; each
        # worker adds one chunk of at most 1 MB, so their number is fixed here
        monkeypatch.setattr(montecarlo, "_worker_count", lambda: 3)
        for points, bound in ((51, 3 * BLOCK * 51 * 16), (201, BLOCK * 201 * 8)):
            grid = np.linspace(0.0, 1.0, points)
            tracemalloc.start()
            try:
                ensemble = sample_trajectories(NoiseSpec.ou(1.0), grid, 8 * BLOCK, 3)
                mc_average_state(initial_state(1.0), ensemble, SystemParams(), -1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, points

    def test_empirical_state_well_formed(self):
        spec = NoiseSpec.gn(1.0)
        grid = np.linspace(0.0, 1.0, 51)
        ensemble = sample_trajectories(spec, grid, 500, 9)
        report = mc_average_state(initial_state(1.0), ensemble, SystemParams(), -1)
        emp = report.empirical
        assert abs(np.trace(emp).real - 1.0) < 1e-12
        assert np.max(np.abs(emp - emp.conj().T)) < 1e-12

    def test_dephasing_factor_cross_check(self):
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 201)
        ensemble = sample_trajectories(spec, grid, 20000, 21)
        phis = phase_of(ensemble.paths, grid, 1.0)[:, -1]
        sample = np.cos(2.0 * phis)
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - np.exp(-2.0 * np.exp(-1.0))) < 3.0 * se

    def test_odd_moments_vanish(self):
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 101)
        ensemble = sample_trajectories(spec, grid, 20000, 33)
        phis = phase_of(ensemble.paths, grid, 1.0)[:, -1]
        for n in (1, 2):
            sample = np.sin(n * phis)
            se = sample.std(ddof=1) / np.sqrt(sample.size)
            assert abs(sample.mean()) < 3.0 * se

    def test_convergence_scaling(self):
        # quadrupling N should roughly halve the median deviation
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 51)
        rho0 = initial_state(1.0)
        medians = {}
        for n in (400, 1600):
            deviations = []
            for seed in range(40):
                ensemble = sample_trajectories(spec, grid, n, seed)
                report = mc_average_state(rho0, ensemble, SystemParams(), -1)
                deviations.append(report.max_abs_deviation)
            medians[n] = np.median(deviations)
        ratio = medians[400] / medians[1600]
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5

    def test_grid_refinement_stability(self):
        # common random numbers: subsampling a fine-grid draw yields a valid
        # coarse-grid draw, so the variance difference is pure discretization
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 401)
        ensemble = sample_trajectories(spec, grid, 4000, 17)
        phi_fine = phase_of(ensemble.paths, grid, 1.0)[:, -1]
        phi_coarse = phase_of(ensemble.paths[:, ::2], grid[::2], 1.0)[:, -1]
        assert abs(phi_coarse.var() - phi_fine.var()) / phi_fine.var() < 0.01

    def test_index_out_of_range(self):
        spec = NoiseSpec.ou(1.0)
        grid = np.linspace(0.0, 1.0, 11)
        ensemble = sample_trajectories(spec, grid, 5, 0)
        with pytest.raises(IndexError):
            mc_average_state(initial_state(1.0), ensemble, SystemParams(), 11)
