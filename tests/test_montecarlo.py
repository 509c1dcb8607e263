"""Trajectory sampling, phase accumulation, and the ensemble-average oracle."""

import dataclasses
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import qutrit_dephasing
from qutrit_dephasing import (
    NoiseSpec,
    TrajectoryEnsemble,
    beta_closed,
    evolve_averaged,
    initial_state,
    mc_average_state,
    phase_covariance,
    phase_law,
    sample_trajectories,
)
from qutrit_dephasing import cli, montecarlo
from qutrit_dephasing.montecarlo import BLOCK
from references import normal_pair, philox4x32, propagated, random_state


def all_phases(ensemble):
    """The ensemble's (n_paths, K) phases, all blocks at once."""
    return np.concatenate(list(ensemble.phases()))


TWENTY = np.linspace(0.1, 2.0, 20)


class TestSampleTrajectories:
    @pytest.mark.parametrize(
        "taus, message",
        [
            ([[0.5, 1.0]], "a non-empty 1-D array, got shape (1, 2)"),
            ([], "a non-empty 1-D array, got shape (0,)"),
            ([0.0, 1.0], "positive, strictly increasing and finite, got 0.0 at index 0"),
            ([0.5, -1.0], "positive, strictly increasing and finite, got -1.0 at index 1"),
            ([0.5, np.nan], "positive, strictly increasing and finite, got nan at index 1"),
            ([0.5, np.inf], "positive, strictly increasing and finite, got inf at index 1"),
            ([0.5, 1.0, 1.0], "positive, strictly increasing and finite, got 1.0 at index 2"),
            ([0.5, 2.0, 1.5], "positive, strictly increasing and finite, got 1.5 at index 2"),
        ],
        ids=["2-D", "empty", "zero", "negative", "nan", "inf", "repeated", "decreasing"],
    )
    def test_bad_time_names_its_value(self, taus, message):
        # the rule holds however the ensemble is built
        spec = NoiseSpec("ou", g=1.0)
        with pytest.raises(ValueError, match="phase times must be " + re.escape(message)):
            sample_trajectories(spec, taus, 10, 0)
        ensemble = sample_trajectories(spec, [1.0], 10, 0)
        with pytest.raises(ValueError, match="phase times must be " + re.escape(message)):
            dataclasses.replace(ensemble, taus=taus)

    def test_non_finite_covariance_is_value_error(self):
        # fgn's beta overflows at tau ~ 1e200: an invalid numerical input
        with pytest.raises(ValueError, match="covariance for fgn_H0.5 is not finite"):
            sample_trajectories(NoiseSpec("fgn", hurst=0.5), [5e199, 1e200], 10, 0)

    @pytest.mark.parametrize("build", ["constructor", "replace"])
    def test_every_construction_factors_the_covariance(self, build):
        # the factor is derived when the ensemble is built, not at its first
        # draw, so no way of building one defers the failure
        spec, taus = NoiseSpec("fgn", hurst=0.5), [5e199, 1e200]
        with pytest.raises(ValueError, match="covariance for fgn_H0.5 is not finite"):
            if build == "constructor":
                TrajectoryEnsemble(taus, 10, 0, spec)
            else:
                dataclasses.replace(sample_trajectories(spec, [1.0, 2.0], 10, 0), taus=taus)

    def test_needs_a_path(self):
        with pytest.raises(ValueError, match="need at least one path"):
            sample_trajectories(NoiseSpec("ou", g=1.0), [1.0], 0, 0)

    @pytest.mark.parametrize(
        "seed, error", [(-1, ValueError), (2**128, ValueError), (1.0, TypeError)]
    )
    def test_seed_is_an_integer_below_2_128(self, seed, error):
        # the stream reads the seed's 128 bits: a wider one would alias
        with pytest.raises(error):
            sample_trajectories(NoiseSpec("ou", g=1.0), [1.0], 1, seed)

    def test_path_count_is_an_integer(self):
        # a float count would only fail later, when the blocks are drawn
        with pytest.raises(TypeError):
            sample_trajectories(NoiseSpec("ou", g=1.0), [1.0], 2.0, 0)

    @pytest.mark.parametrize(
        "field, value, error",
        [
            ("seed", -1, ValueError),
            ("seed", 2**128, ValueError),
            ("seed", 2**130 + 5, ValueError),
            ("seed", 1.0, TypeError),
            ("n_paths", 0, ValueError),
            ("n_paths", -5, ValueError),
            ("n_paths", 2.5, TypeError),
        ],
    )
    def test_every_ensemble_checks_count_and_seed(self, field, value, error):
        # replace re-runs the checks: no ensemble aliases a seed's paths or
        # reports a nan bound
        ensemble = sample_trajectories(NoiseSpec("ou", g=1.0), [1.0], 1, 0)
        with pytest.raises(error):
            dataclasses.replace(ensemble, **{field: value})

    def test_ensemble_stores_int_count_and_seed(self):
        ensemble = TrajectoryEnsemble(
            taus=[1.0], n_paths=np.int64(3), seed=True, spec=NoiseSpec("ou", g=1.0)
        )
        assert (ensemble.n_paths, ensemble.seed) == (3, 1)
        assert type(ensemble.n_paths) is int and type(ensemble.seed) is int

    @pytest.mark.parametrize(
        "field, value",
        [("spec", NoiseSpec("ou", g=50.0)), ("taus", np.array([0.15, 0.25]))],
        ids=["spec", "taus"],
    )
    def test_replaced_ensemble_draws_like_a_fresh_one(self, field, value):
        # the factor is derived from the replaced inputs, never carried over
        inputs = {"spec": NoiseSpec("ou", g=1.0), "taus": np.array([0.1, 0.2])}
        ensemble = sample_trajectories(inputs["spec"], inputs["taus"], 500, 7)
        inputs[field] = value
        fresh = sample_trajectories(inputs["spec"], inputs["taus"], 500, 7)
        replaced = dataclasses.replace(ensemble, **{field: value})
        got, expected = (
            (r.ensemble.taus.tobytes(), r.analytic.tobytes(), r.empirical.tobytes())
            for r in (
                mc_average_state(initial_state(1.0), replaced, 1.0),
                mc_average_state(initial_state(1.0), fresh, 1.0),
            )
        )
        assert got == expected

    def test_ensemble_keeps_its_own_times(self):
        # a later write to the caller's array must not move the reported tau
        # away from the time the phases were drawn at
        spec, taus = NoiseSpec("ou", g=1.0), np.array([1.0])
        ensemble = sample_trajectories(spec, taus, 1000, 0)
        taus[0] = 2.0
        assert np.array_equal(ensemble.taus, [1.0])
        fresh = sample_trajectories(spec, [1.0], 1000, 0)
        got, expected = (
            (r.ensemble.taus.tobytes(), r.analytic.tobytes(), r.empirical.tobytes())
            for r in (
                mc_average_state(initial_state(1.0), ensemble, 1.0),
                mc_average_state(initial_state(1.0), fresh, 1.0),
            )
        )
        assert got == expected
        with pytest.raises(ValueError, match="read-only"):
            ensemble.taus[0] = 3.0

    def test_indefinite_covariance_is_covariance_error(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        message = "not positive semidefinite even with diagonal jitter up to 1e-08"
        with pytest.raises(ValueError, match=message):
            montecarlo._cholesky_with_jitter(cov, NoiseSpec("ou", g=1.0))

    def test_deterministic_for_seed(self):
        spec = NoiseSpec("gn", g=1.0)
        a = sample_trajectories(spec, [0.25, 1.0], 50, 123)
        b = sample_trajectories(spec, [0.25, 1.0], 50, 123)
        assert np.array_equal(all_phases(a), all_phases(b))
        c = sample_trajectories(spec, [0.25, 1.0], 50, 124)
        assert not np.array_equal(all_phases(a), all_phases(c))

    def test_batch_invariant_substreams(self):
        # path i depends only on (seed, i), not on how many paths were asked for
        spec = NoiseSpec("ou", g=2.0)
        small = sample_trajectories(spec, [0.3, 1.0], 5, 7)
        large = sample_trajectories(spec, [0.3, 1.0], 20, 7)
        assert np.array_equal(all_phases(small), all_phases(large)[:5])

    def test_batch_invariant_across_a_block_boundary(self):
        spec = NoiseSpec("gn", g=1.0)
        small = sample_trajectories(spec, [0.4, 1.0], BLOCK + 2, 7)
        large = sample_trajectories(spec, [0.4, 1.0], BLOCK + 5, 7)
        assert np.array_equal(all_phases(small), all_phases(large)[: BLOCK + 2])

    def test_blocks_read_one_philox_stream(self, tmp_path):
        # path p takes normals pK .. pK + K - 1 of the seed's one stream, the
        # stream the report names; the block size is no part of it
        spec = NoiseSpec("ou", g=1.0)
        taus = [1.0 / 3.0, 2.0 / 3.0, 1.0]
        ensemble = sample_trajectories(spec, taus, 2 * BLOCK + 5, 11)
        blocks = list(ensemble.phases())
        assert [phi.shape for phi in blocks] == [(BLOCK, 3), (BLOCK, 3), (5, 3)]
        z = montecarlo._normals(11, 0, 3 * (2 * BLOCK + 5)).reshape(-1, 3)
        for b, phi in enumerate(blocks):
            rows = z[b * BLOCK : b * BLOCK + len(phi)]
            assert np.array_equal(phi, np.einsum("ij,kj->ik", rows, ensemble.cholesky[0]))
        # a seed + b scheme would draw block 1 of seed 11 as block 0 of seed 12
        (first,) = sample_trajectories(spec, taus, BLOCK, 12).phases()
        assert not np.array_equal(blocks[1], first)
        argv = ["oracle", "--noise", "ou", "--samples", "10", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        report = (tmp_path / "oracle_ou_g1.txt").read_text().splitlines()
        assert f"rng_algorithm = {montecarlo.RNG_ALGORITHM}" in report

    def test_zero_mean(self):
        spec = NoiseSpec("ou", g=1.0)
        taus = np.linspace(0.25, 2.0, 8)
        ensemble = sample_trajectories(spec, taus, 1000, 5)
        std = np.sqrt(beta_closed(spec, taus))
        bound = 4.0 * std / np.sqrt(1000)
        assert np.all(np.abs(all_phases(ensemble).mean(axis=0)) < bound)

    def test_ou_empirical_covariance(self):
        spec = NoiseSpec("ou", g=1.0)
        taus = np.linspace(0.25, 2.0, 8)
        n = 20000
        ensemble = sample_trajectories(spec, taus, n, 11)
        emp = np.cov(all_phases(ensemble), rowvar=False, bias=True)
        cov = phase_covariance(spec, taus)
        for i in range(8):
            for j in range(8):
                # var of a covariance estimate ~ (C_ii C_jj + C_ij^2)/n
                se = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(emp[i, j] - cov[i, j]) < 5.0 * se

    def test_fgn_brownian_variance(self):
        # eta is Brownian motion, so the phase at t has variance t^3 / 3
        spec = NoiseSpec("fgn", hurst=0.5)
        n = 20000
        ensemble = sample_trajectories(spec, np.linspace(0.2, 1.0, 5), n, 3)
        variances = all_phases(ensemble).var(axis=0)
        for t, var in zip(ensemble.taus, variances):
            expected = t**3 / 3.0
            assert abs(var - expected) < 5.0 * expected * np.sqrt(2.0 / n)

    @pytest.mark.parametrize("hurst", [0.1, 0.3, 0.9])
    def test_fgn_needs_no_jitter(self, hurst):
        # fBm has zero variance at t=0, but the phases never include t=0
        for taus in ([1.0], np.linspace(0.1, 1.0, 10)):
            ensemble = sample_trajectories(NoiseSpec("fgn", hurst=hurst), taus, 5, 0)
            assert ensemble.cholesky[1] == 0.0

    @pytest.mark.parametrize(
        "spec, flags, tau",
        [
            (NoiseSpec("fgn", hurst=0.5), ["fgn", "--hurst", "0.5"], "1e-150"),
            (NoiseSpec("ou", g=1.0), ["ou", "--g", "1"], "1e-300"),
        ],
        ids=["fgn_H0.5", "ou_g1"],
    )
    def test_underflowed_variance_takes_the_first_jitter(self, tmp_path, spec, flags, tau):
        # beta rounds to 0 below tau ~ 1.95e-108 (fgn H 0.5) and ~ 2.2e-162
        # (ou g 1); numpy rejects C = [[0]], so even at K = 1 the ladder's
        # 1e-12 rung factors C, and the oracle stays within its bound
        assert beta_closed(spec, float(tau)) == 0.0
        assert phase_covariance(spec, [float(tau)]).tolist() == [[0.0]]
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(np.zeros((1, 1)))
        argv = ["oracle", "--noise", *flags, "--tau-max", tau, "--samples", "1000",
                "--seed", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        report = (tmp_path / f"oracle_{spec.label()}.txt").read_text().splitlines()
        assert "cholesky_jitter = 9.9999999999999998e-13" in report
        assert "within_bound = True" in report

    @pytest.mark.parametrize("taus", [[2.0], TWENTY], ids=["K1", "K20"])
    @pytest.mark.parametrize(
        "spec",
        [
            NoiseSpec("fgn", hurst=0.1),
            NoiseSpec("fgn", hurst=0.5),
            NoiseSpec("fgn", hurst=0.9),
            NoiseSpec("gn", g=1.0),
            NoiseSpec("gn", g=10.0),
            NoiseSpec("ou", g=1.0),
            NoiseSpec("pl", g=1.0, alpha=3.0),
        ],
        ids=NoiseSpec.label,
    )
    def test_factor_reconstructs_covariance(self, spec, taus):
        ensemble = sample_trajectories(spec, taus, 5, 0)
        cov = phase_covariance(spec, taus)
        scale = max(np.max(np.diag(cov)), 1.0)
        factor, jitter = ensemble.cholesky
        shifted = cov + jitter * scale * np.eye(len(taus))
        assert np.max(np.abs(factor @ factor.T - shifted)) <= 1e-14 * np.max(cov)
        # at 20 times on (0, 2] the smooth gn g=1 covariance is singular to
        # rounding: its smallest eigenvalue is -1e-17 of its largest
        needs_jitter = spec == NoiseSpec("gn", g=1.0) and len(taus) == 20
        assert (jitter > 0.0) == needs_jitter


class TestNormals:
    # Random123's known-answer vectors for philox4x32-10
    @pytest.mark.parametrize(
        "counter, key, words",
        [
            ((0, 0, 0, 0), (0, 0), (0x6627E8D5, 0xE169C58D, 0xBC57AC4C, 0x9B00DBD8)),
            (
                (0xFFFFFFFF,) * 4,
                (0xFFFFFFFF,) * 2,
                (0x408F276D, 0x41C83B0E, 0xA20BC7C6, 0x6D5451FD),
            ),
            (
                (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
                (0xA4093822, 0x299F31D0),
                (0xD16CFE09, 0x94FDCCEB, 0x5001E420, 0x24126EA1),
            ),
        ],
    )
    def test_philox_known_answers(self, counter, key, words):
        assert philox4x32(counter, key) == words
        columns = [np.array([word], dtype=np.uint64) for word in counter]
        assert [int(x[0]) for x in montecarlo._philox(*columns, *key)] == list(words)

    def test_vectorised_words_match_reference(self):
        rng = np.random.default_rng(31)
        counters = rng.integers(0, 2**32, size=(4, 1000), dtype=np.uint64)
        key = [int(word) for word in rng.integers(0, 2**32, size=2)]
        words = np.stack(montecarlo._philox(*counters, *key), axis=-1)
        expected = [philox4x32([int(word) for word in counter], key) for counter in counters.T]
        assert np.array_equal(words, np.array(expected, dtype=np.uint64))

    @pytest.mark.parametrize("seed", [0, 11, 2**64 + 5, 2**96 + 3, 2**128 - 1])
    @pytest.mark.parametrize("first, count", [(0, 2000), (4097, 2001), (2**33 + 1, 6)])
    def test_normals_match_reference(self, seed, first, count):
        # an odd first starts at the sin half of a call; past 2**33 the
        # counter's second word is set.  numpy's SIMD log, cos and sin may
        # differ from libm's by a few ulp, so the normals agree to 4 ulp.
        z = montecarlo._normals(seed, first, count)
        pairs = [normal_pair(seed, j) for j in range(first // 2, (first + count + 1) // 2)]
        expected = np.array(pairs).ravel()[first % 2 :][:count]
        assert z.shape == (count,)
        assert np.all(np.abs(z - expected) <= 4 * np.spacing(np.abs(expected)))

    def test_a_path_depends_on_its_index_only(self):
        # any window of the stream is the same slice of a longer draw
        seed = 2**100 + 7
        whole = montecarlo._normals(seed, 0, 10001)
        for first, count in ((0, 1), (1, 1), (3, 9998), (5000, 5001)):
            assert np.array_equal(montecarlo._normals(seed, first, count), whole[first:][:count])


class TestMcAverageState:
    def _manual_ensemble(self, factor, n, spec, taus=(1.0,), seed=0):
        ensemble = TrajectoryEnsemble(taus, n, seed, spec)
        # the given factor stands in for the one the spec would give
        ensemble.__dict__["cholesky"] = (np.asarray(factor, float), 0.0)
        return ensemble

    def test_single_zero_path_is_noiseless(self):
        ensemble = self._manual_ensemble(np.zeros((1, 1)), 1, NoiseSpec("ou", g=1.0))
        rho0 = initial_state(0.8)
        report = mc_average_state(rho0, ensemble, 1.0)
        assert np.max(np.abs(report.empirical - rho0)) < 1e-14

    def test_report_figures_are_python_scalars(self):
        ensemble = self._manual_ensemble(np.zeros((1, 1)), 9, NoiseSpec("ou", g=1.0))
        report = mc_average_state(initial_state(0.8), ensemble, 1.0)
        assert type(report.max_abs_deviation) is float
        assert type(report.stderr_bound) is float and report.stderr_bound == 1.0
        assert report.within_bound is True

    def test_phase_overflow_rejected(self):
        # omega * phi overflows to inf and its phasor is nan; a warning fails
        # the test
        ensemble = sample_trajectories(NoiseSpec("ou", g=1.0), [2.0], 100, 0)
        with pytest.raises(ValueError, match=r"overflow the float range at omega=1e\+308"):
            mc_average_state(initial_state(1.0), ensemble, 1e308)

    def test_matches_per_path_matrix_exponential(self):
        # four drawn paths; the same four with each column scaled so that its
        # largest omega * phi is 1e3; one path with omega * phi = pi
        rng = np.random.default_rng(5)
        rho0 = random_state(rng)
        taus = (0.3, 0.7, 1.0)
        factor = np.tril(rng.normal(size=(3, 3)))
        omega = 1.3
        spec = NoiseSpec("ou", g=1.0)
        for n, peak in ((4, None), (4, 1e3), (1, np.pi)):
            ensemble = self._manual_ensemble(factor, n, spec, taus)
            phases = all_phases(ensemble)
            if peak is not None:
                top = phases[np.argmax(np.abs(phases), axis=0), range(3)]
                scaled = factor * (peak / (omega * top))[:, None]
                ensemble = self._manual_ensemble(scaled, n, spec, taus)
                phases = all_phases(ensemble)
                assert np.allclose(np.max(omega * phases, axis=0), peak, rtol=1e-14)
            report = mc_average_state(rho0, ensemble, omega)
            for column, empirical in enumerate(report.empirical):
                expected = propagated(rho0, omega * phases[:, column]).mean(axis=0)
                assert np.max(np.abs(empirical - expected)) < 1e-13, (n, peak)

    def test_five_node_interpolant_is_the_state_at_one_phase(self):
        # one path: the moments are exp(i n omega phi) themselves, so the
        # empirical state is the five-node interpolant at omega * phi
        rng = np.random.default_rng(12)
        spec = NoiseSpec("ou", g=1.0)
        worst = 0.0
        for seed in range(200):
            rho0 = random_state(rng)
            omega = rng.uniform(0.1, 20.0)
            ensemble = self._manual_ensemble(np.ones((1, 1)), 1, spec, seed=seed)
            expected = propagated(rho0, omega * all_phases(ensemble)[0, 0])
            (empirical,) = mc_average_state(rho0, ensemble, omega).empirical
            worst = max(worst, np.max(np.abs(empirical - expected)))
        assert worst < 1e-14

    def test_streamed_blocks_match_per_path_matrix_exponential(self):
        rho0 = random_state(np.random.default_rng(8))
        omega = 1.3
        ensemble = sample_trajectories(NoiseSpec("ou", g=2.0), [1.0], BLOCK + 37, 4)
        (empirical,) = mc_average_state(rho0, ensemble, omega).empirical
        expected = propagated(rho0, omega * all_phases(ensemble)[:, 0]).mean(axis=0)
        assert np.max(np.abs(empirical - expected)) < 1e-13

    @pytest.mark.parametrize("rows", [1, 2, 1023, 1024, 1025, 1297, 1298, 2049, BLOCK])
    def test_chunked_draw_matches_one_block_product(self, rows):
        # the average streams BLOCK + rows paths in two chunks; each chunk's
        # phases are its paths' rows of the one stream's normals times F^T
        spec = NoiseSpec("pl", g=1.0, alpha=3.0)
        ensemble = sample_trajectories(spec, TWENTY, BLOCK + rows, 9)
        chunks = list(ensemble.phases())
        assert [phi.shape for phi in chunks] == [(BLOCK, 20), (rows, 20)]
        z = montecarlo._normals(9, 0, 20 * (BLOCK + rows)).reshape(-1, 20)
        for phi, start in zip(chunks, (0, BLOCK)):
            rows_z = z[start : start + len(phi)]
            assert np.array_equal(phi, np.einsum("ij,kj->ik", rows_z, ensemble.cholesky[0]))

    def test_report_bits_do_not_depend_on_blas_threads(self, tmp_path):
        # the phases, the moment sums and the node sums are fixed-order einsum
        # and sum calls that never reach the BLAS, and the phases' K x K factor
        # is too small for it to thread: one or two threads give the same bits
        src = os.path.dirname(os.path.dirname(qutrit_dephasing.__file__))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / threads
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            argv = [
                sys.executable, "-m", "qutrit_dephasing.cli", "oracle", "--noise", "gn",
                "--tau-max", "2", "--samples", "50000", "--seed", "3", "--out", str(out),
            ]
            run = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert run.returncode == 0, run.stderr
            reports.append((out / "oracle_gn_g1.txt").read_bytes())
        assert reports[0] == reports[1]

    def test_twenty_time_report_bits_do_not_depend_on_blas_threads(self):
        # at K = 20 the factor is 20 x 20, wide enough for a product that
        # reached the BLAS to thread: one or two threads still give the same bits
        src = os.path.dirname(os.path.dirname(qutrit_dephasing.__file__))
        code = (
            "import hashlib, numpy as np\n"
            "from qutrit_dephasing import NoiseSpec, initial_state, mc_average_state, "
            "sample_trajectories\n"
            "taus = np.linspace(0.1, 2.0, 20)\n"
            "ensemble = sample_trajectories(NoiseSpec('gn', g=1.0), taus, 20000, 3)\n"
            "report = mc_average_state(initial_state(1.0), ensemble, 1.0)\n"
            "states = report.analytic.tobytes() + report.empirical.tobytes()\n"
            "print(hashlib.sha256(states).hexdigest())\n"
        )
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            run = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True
            )
            assert run.returncode == 0, run.stderr
            digests.append(run.stdout)
        assert digests[0] == digests[1]

    def test_memory_bounded_by_one_block(self):
        # eight blocks of paths, but never more than one block in memory:
        # sixteen float64 per path and time of one block, O(BLOCK K)
        bound = BLOCK * TWENTY.size * 16 * 8
        tracemalloc.start()
        try:
            ensemble = sample_trajectories(NoiseSpec("ou", g=1.0), TWENTY, 8 * BLOCK, 3)
            mc_average_state(initial_state(1.0), ensemble, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound
        # the state sum itself builds no per-path matrices; the untraced
        # warm-up call keeps first-call costs out
        mc_average_state(initial_state(1.0), ensemble, 1.0)
        tracemalloc.start()
        try:
            mc_average_state(initial_state(1.0), ensemble, 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound

    def test_empirical_state_well_formed(self):
        spec = NoiseSpec("gn", g=1.0)
        ensemble = sample_trajectories(spec, [1.0], 500, 9)
        (emp,) = mc_average_state(initial_state(1.0), ensemble, 1.0).empirical
        assert abs(np.trace(emp).real - 1.0) < 1e-12
        assert np.max(np.abs(emp - emp.conj().T)) < 1e-12

    def test_every_drawn_time_within_bound(self):
        ensemble = sample_trajectories(NoiseSpec("gn", g=1.0), TWENTY, 20000, 13)
        assert ensemble.cholesky[1] > 0.0
        report = mc_average_state(initial_state(1.0), ensemble, 1.0)
        assert np.array_equal(report.ensemble.taus, TWENTY)
        deviations = np.max(np.abs(report.empirical - report.analytic), axis=(1, 2))
        assert report.within_bound, deviations

    def test_one_report_over_twenty_times(self):
        # row k is the state at TWENTY[k]; the rows are one joint draw, so the
        # deviation is the largest over the rows
        spec = NoiseSpec("gn", g=1.0)
        rho0 = initial_state(1.0)
        report = mc_average_state(rho0, sample_trajectories(spec, TWENTY, 2000, 13), 1.0)
        assert report.analytic.shape == report.empirical.shape == (20, 3, 3)
        for analytic, tau in zip(report.analytic, TWENTY):
            expected = evolve_averaged(rho0, phase_law(spec, tau)[2])
            assert np.max(np.abs(analytic - expected)) <= 1e-15, tau
        rows = np.max(np.abs(report.empirical - report.analytic), axis=(1, 2))
        assert type(report.max_abs_deviation) is float
        assert report.max_abs_deviation == np.max(rows)

    def test_dephasing_factor_cross_check(self):
        spec = NoiseSpec("ou", g=1.0)
        ensemble = sample_trajectories(spec, [1.0], 20000, 21)
        phis = all_phases(ensemble)[:, 0]
        sample = np.cos(2.0 * phis)
        se = sample.std(ddof=1) / np.sqrt(sample.size)
        assert abs(sample.mean() - np.exp(-2.0 * np.exp(-1.0))) < 3.0 * se

    def test_odd_moments_vanish(self):
        spec = NoiseSpec("ou", g=1.0)
        ensemble = sample_trajectories(spec, [1.0], 20000, 33)
        phis = all_phases(ensemble)[:, 0]
        for n in (1, 2):
            sample = np.sin(n * phis)
            se = sample.std(ddof=1) / np.sqrt(sample.size)
            assert abs(sample.mean()) < 3.0 * se

    def test_convergence_scaling(self):
        # quadrupling N should roughly halve the median deviation
        spec = NoiseSpec("ou", g=1.0)
        rho0 = initial_state(1.0)
        medians = {}
        for n in (400, 1600):
            deviations = []
            for seed in range(40):
                ensemble = sample_trajectories(spec, [1.0], n, seed)
                report = mc_average_state(rho0, ensemble, 1.0)
                deviations.append(report.max_abs_deviation)
            medians[n] = np.median(deviations)
        ratio = medians[400] / medians[1600]
        assert 2.0 / 1.5 < ratio < 2.0 * 1.5

    def test_one_pass_over_the_blocks(self, monkeypatch):
        # twenty drawn times, three blocks: each block's normals are drawn
        # once per call, not once per time
        ensemble = sample_trajectories(NoiseSpec("ou", g=1.0), TWENTY, 2 * BLOCK + 1, 6)
        normals = montecarlo._normals
        drawn = []

        def counting(seed, first, count):
            drawn.append((seed, first, count))
            return normals(seed, first, count)

        monkeypatch.setattr(montecarlo, "_normals", counting)
        report = mc_average_state(initial_state(1.0), ensemble, 1.0)
        assert report.empirical.shape == (20, 3, 3)
        assert drawn == [(6, 0, 20 * BLOCK), (6, 20 * BLOCK, 20 * BLOCK), (6, 40 * BLOCK, 20)]

    def test_empty_ensemble(self):
        with pytest.raises(ValueError, match="need at least one path"):
            self._manual_ensemble(np.ones((1, 1)), 0, NoiseSpec("ou", g=1.0))
