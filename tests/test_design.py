"""Design-module tests.

The MICE selection is checked against an exhaustive brute-force oracle that
rebuilds every numerator and denominator with plain dense numpy algebra.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mlasce import design
from mlasce.design import (
    CandidateSet,
    DesignState,
    _GRAM_BLOCK,
    _corr_gram,
    _select,
    generate_grid,
    mice_criterion,
    mice_run,
    mice_scores,
    mice_step,
)
from mlasce.errors import CandidatesExhausted, FactorizationError
from mlasce.gp import GPModel, posterior_batch, power_batch
from mlasce.kernels import SUPPORTED_NU, CholeskyFactor, KernelSpec, matern_corr


def brute_scores(state, points):
    """Oracle: per-candidate ratio via explicit dense solves."""
    spec = state.model.spec
    X = state.model.X
    tau_bar = max(state.tau2, state.tau2_s)
    pts = np.atleast_2d(points)

    def corr(A, B):
        return matern_corr(
            np.linalg.norm(A[:, None, :] - B[None, :, :], axis=-1), spec.nu, spec.lam
        )

    Ktr = spec.sigma2 * (corr(X, X) + spec.nugget * np.eye(len(X)))
    out = np.empty(len(pts))
    for i, x in enumerate(pts):
        k = spec.sigma2 * corr(x[None, :], X)[0]
        num = spec.sigma2 - k @ np.linalg.solve(Ktr, k)
        rest = np.delete(pts, i, axis=0)
        if len(rest) == 0:
            den = spec.sigma2 * (1.0 + tau_bar)
        else:
            Kr = spec.sigma2 * (corr(rest, rest) + tau_bar * np.eye(len(rest)))
            kr = spec.sigma2 * corr(x[None, :], rest)[0]
            den = spec.sigma2 * (1.0 + tau_bar) - kr @ np.linalg.solve(Kr, kr)
        out[i] = max(num, 0.0) / den
    return out


def assert_gram_is_dense(pts, nu):
    """_corr_gram is Fortran-ordered and bitwise equal to the dense cdist Gram."""
    spec = KernelSpec(nu=nu, lam=0.35, sigma2=1.0)
    dense = matern_corr(cdist(pts, pts), nu, spec.lam)
    dense[np.diag_indices_from(dense)] += 0.3
    R = _corr_gram(pts, spec, 0.3)
    assert R.flags.f_contiguous
    assert np.array_equal(R, dense)


def make_state(X, y, spec, tau2=1e-8, tau2_s=1.0):
    X = np.atleast_2d(np.asarray(X, float).reshape(-1, 1))
    model = GPModel.from_spec(X, y, spec)
    return DesignState(X=X, y=np.asarray(y, float), model=model, tau2=tau2, tau2_s=tau2_s)


def make_state_2d(spec, tau2_s=1.0, n=6, seed=5):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, size=(n, 2))
    model = GPModel.from_spec(X, rng.normal(size=n), spec)
    return DesignState(X=X, y=model.y, model=model, tau2=1e-8, tau2_s=tau2_s)


class TestGenerateGrid:
    def test_uniform_1d(self):
        cs = generate_grid((0.0, math.pi), 5, seed=0)
        np.testing.assert_allclose(
            cs.grid.ravel(), [0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi]
        )
        np.testing.assert_array_equal(cs.cand, np.arange(5))

    def test_deterministic(self):
        a = generate_grid(([0.0, 0.0], [1.0, 2.0]), 40, seed=123)
        b = generate_grid(([0.0, 0.0], [1.0, 2.0]), 40, seed=123)
        np.testing.assert_array_equal(a.grid, b.grid)

    def test_stratified_one_point_per_stratum(self):
        cs = generate_grid(([0.0, 0.0], [1.0, 1.0]), 100, seed=7)
        for j in range(2):
            strata = np.floor(cs.grid[:, j] * 100).astype(int)
            assert sorted(strata) == list(range(100))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_tensor_grid_exact_power(self, d):
        # 1000 ** (1/3) is 9.999... in floating point; the axis count must
        # still be 10.
        for m in (2, 3, 5, 10):
            cs = generate_grid(([0.0] * d, [1.0] * d), m ** d, seed=0, mode="grid")
            assert cs.grid.shape == (m ** d, d)
            for j in range(d):
                np.testing.assert_array_equal(np.unique(cs.grid[:, j]), np.linspace(0, 1, m))

    def test_tensor_grid_non_power_rounds_down(self):
        cs = generate_grid(([0.0] * 3, [1.0] * 3), 999, seed=0, mode="grid")
        assert cs.grid.shape == (9 ** 3, 3)

    def test_tensor_grid_below_two_per_axis_rejected(self):
        # Two points per axis is the smallest tensor grid: 2**3 = 8 in 3-D.
        with pytest.raises(ValueError, match="n_grid >= 8"):
            generate_grid(([0.0] * 3, [1.0] * 3), 5, seed=0, mode="grid")

    def test_tensor_grid_smallest_exact(self):
        cs = generate_grid(([0.0] * 3, [1.0] * 3), 8, seed=0, mode="grid")
        assert cs.grid.shape == (8, 3)
        assert set(map(tuple, cs.grid.tolist())) == {
            (a, b, c) for a in (0.0, 1.0) for b in (0.0, 1.0) for c in (0.0, 1.0)
        }

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            generate_grid((1.0, 1.0), 10, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            generate_grid((0.0, 1.0), 1, seed=0)


class TestMiceCriterion:
    def test_empty_rest_uses_unconditioned_denominator(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        state = make_state([0.0, 1.0], [0.0, 1.0], spec, tau2=1e-8, tau2_s=0.7)
        x = np.array([2.0])
        num = posterior_batch(state.model, x)[1][0]
        want = num / (2.0 * (1.0 + 0.7))
        assert mice_criterion(state, x, []) == pytest.approx(want, rel=1e-12)

    def test_duplicate_of_training_point_scores_zero(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        state = make_state([0.0, 1.0, 2.0], [0.1, -0.4, 0.2], spec)
        score = mice_criterion(state, np.array([1.0]), np.array([[0.5], [1.5]]))
        assert 0.0 <= score < 1e-6

    def test_argmax_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        spec = KernelSpec(nu=1.5, lam=0.4, sigma2=1.3, nugget=1e-8)
        state = make_state(
            rng.uniform(0.0, math.pi, 4), rng.normal(size=4), spec, tau2_s=1.0
        )
        pts = rng.uniform(0.0, math.pi, size=(10, 1))
        direct = np.array(
            [
                mice_criterion(state, pts[i], np.delete(pts, i, axis=0))
                for i in range(10)
            ]
        )
        oracle = brute_scores(state, pts)
        np.testing.assert_allclose(direct, oracle, rtol=1e-9)
        assert int(np.argmax(direct)) == int(np.argmax(oracle))

    def test_fast_scores_equal_per_candidate_conditioning(self):
        rng = np.random.default_rng(13)
        spec = KernelSpec(nu=2.5, lam=0.7, sigma2=2.1, nugget=1e-8)
        state = make_state(rng.uniform(0, 2, 5), rng.normal(size=5), spec)
        pts = rng.uniform(0.0, 2.0, size=(25, 1))
        fast = mice_scores(state, pts)
        slow = np.array(
            [
                mice_criterion(state, pts[i], np.delete(pts, i, axis=0))
                for i in range(25)
            ]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-9)


class TestMiceScores:
    """The batched path: one Cholesky plus one in-place triangular inverse."""

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_equals_per_candidate_criterion_2d(self, nu):
        spec = KernelSpec(nu=nu, lam=0.3, sigma2=1.7, nugget=1e-8)
        state = make_state_2d(spec)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(200, 2))
        fast = mice_scores(state, pts)
        slow = np.array(
            [
                mice_criterion(state, pts[i], np.delete(pts, i, axis=0))
                for i in range(len(pts))
            ]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-9)
        assert int(np.argmax(fast)) == int(np.argmax(slow))

    def test_jittered_factor_matches_raised_stabilizer(self, monkeypatch):
        # When chol_factor has to add jitter, the scores are those of the
        # matrix it actually factorised: stabilizer tau_bar + extra.
        extra = 0.25
        real = design.chol_factor

        def jittered(A, jitter0=0.0, overwrite_a=False):
            # A Fortran-ordered identity keeps the sum Fortran-ordered, as
            # the in-place path requires.
            jA = A + extra * np.eye(len(A), order="F")
            fac = real(jA, jitter0=jitter0, overwrite_a=overwrite_a)
            return CholeskyFactor(fac.lower, extra)

        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.3, nugget=1e-8)
        state = make_state_2d(spec, tau2_s=0.5)
        pts = np.random.default_rng(8).uniform(0.0, 1.0, size=(40, 2))
        monkeypatch.setattr(design, "chol_factor", jittered)
        got = mice_scores(state, pts)
        monkeypatch.undo()
        oracle = brute_scores(replace(state, tau2_s=0.5 + extra), pts)
        np.testing.assert_allclose(got, oracle, rtol=1e-9)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_corr_gram_bitwise_equal_to_dense(self, nu, d):
        assert_gram_is_dense(np.random.default_rng(11).uniform(0.0, 2.0, size=(97, d)), nu)

    @pytest.mark.parametrize(
        "m", [1, 2, _GRAM_BLOCK - 1, _GRAM_BLOCK, _GRAM_BLOCK + 1, 300]
    )
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_corr_gram_across_block_edges(self, nu, d, m):
        assert_gram_is_dense(np.random.default_rng(m).uniform(0.0, 2.0, size=(m, d)), nu)

    def test_peak_memory_is_one_gram(self):
        # The Gram is factorised and inverted in its own buffer and the
        # kernel runs on column blocks, so numpy's peak stays near one
        # m x m array.
        m = 600
        spec = KernelSpec(nu=3.5, lam=0.3, sigma2=1.3, nugget=1e-8)
        state = make_state_2d(spec)
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(m, 2))
        mice_scores(state, pts)
        tracemalloc.start()
        try:
            mice_scores(state, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * m * m * 8

    def test_single_candidate(self):
        spec = KernelSpec(nu=1.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        state = make_state_2d(spec)
        pts = np.array([[0.4, 0.6]])
        got = mice_scores(state, pts)
        assert got.shape == (1,)
        np.testing.assert_allclose(got, brute_scores(state, pts), rtol=1e-12)
        assert got[0] == pytest.approx(mice_criterion(state, pts[0], np.empty((0, 2))))

    def test_two_candidates(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        state = make_state_2d(spec)
        pts = np.array([[0.1, 0.2], [0.8, 0.7]])
        np.testing.assert_allclose(mice_scores(state, pts), brute_scores(state, pts), rtol=1e-9)

    def test_failed_inverse_falls_back_to_per_candidate(self, monkeypatch):
        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.0, nugget=1e-8)
        state = make_state_2d(spec)
        grid = np.random.default_rng(2).uniform(0.0, 1.0, size=(12, 2))
        cands = CandidateSet(grid=grid, cand=np.arange(12), rng_seed=0)
        expected = _select(state, cands)[1]
        monkeypatch.setattr(
            design.lapack, "dtrtri", lambda c, lower=0, overwrite_c=0: (c, 3)
        )
        with pytest.raises(FactorizationError, match="info=3"):
            mice_scores(state, grid)
        assert _select(state, cands)[1] == expected


class TestMiceStep:
    def test_single_candidate(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        state = make_state([0.0], [1.0], spec)
        cands = CandidateSet(
            grid=np.array([[0.3]]), cand=np.array([0]), rng_seed=0
        )
        x, rest = mice_step(state, cands)
        assert x[0] == 0.3
        assert rest.cand.size == 0

    def test_symmetric_state_picks_midpoint(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8)
        state = make_state([0.0, math.pi], [0.0, 0.0], spec)
        grid = np.array([[math.pi / 4], [math.pi / 2], [3 * math.pi / 4]])
        cands = CandidateSet(grid=grid, cand=np.arange(3), rng_seed=0)
        x, _ = mice_step(state, cands)
        assert x[0] == pytest.approx(math.pi / 2)

    def test_exact_tie_breaks_to_lower_index(self):
        # Candidates at -c and +c around a single training point at 0 give
        # bitwise-equal scores; the lower grid index must win.
        spec = KernelSpec(nu=1.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        state = make_state([0.0], [1.0], spec)
        grid = np.array([[-0.5], [0.5]])
        cands = CandidateSet(grid=grid, cand=np.arange(2), rng_seed=0)
        x, _ = mice_step(state, cands)
        assert x[0] == -0.5

    def test_exhausted_candidates(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        state = make_state([0.0], [1.0], spec)
        cands = CandidateSet(grid=np.array([[0.3]]), cand=np.array([], int), rng_seed=0)
        with pytest.raises(CandidatesExhausted):
            mice_step(state, cands)


class TestMiceRun:
    def test_target_equals_initial_size(self):
        state = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 3, nu=2.5, seed=5, n_initial=3)
        assert state.X.shape == (3, 1)
        np.testing.assert_allclose(state.y, np.sin(state.X.ravel()))

    def test_coverage_improves_sup_power(self):
        small = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 3, nu=2.5, seed=9)
        big = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 10, nu=2.5, seed=9)
        probes = np.linspace(0.0, math.pi, 200)
        assert power_batch(big.model, probes).max() < power_batch(small.model, probes).max()

    def test_deterministic(self):
        a = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 8, nu=2.5, seed=42)
        b = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 8, nu=2.5, seed=42)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.model.spec == b.model.spec

    def test_points_distinct_and_on_grid(self):
        state = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 12, nu=2.5, seed=3, n_grid=41)
        pts = state.X.ravel()
        assert len(np.unique(pts)) == 12
        grid = generate_grid((0.0, math.pi), 41, seed=0).grid.ravel()
        for p in pts:
            assert np.min(np.abs(grid - p)) < 1e-12

    def test_sup_power_monotone_under_frozen_hyperparameters(self):
        state = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 12, nu=2.5, seed=21)
        spec = state.model.spec
        probes = np.linspace(0.0, math.pi, 300)
        values = []
        for k in range(3, 13):
            model = GPModel.from_spec(state.X[:k], state.y[:k], spec)
            values.append(power_batch(model, probes).max())
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_fixed_spec_skips_refitting(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8)
        state = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 9, nu=2.5, seed=2, spec=spec)
        assert state.model.spec == spec


class TestStabilizerValidation:
    @pytest.mark.parametrize("tau2_s", [math.nan, math.inf, -math.inf, -1.0])
    def test_bad_stabilizer_rejected_before_any_evaluation(self, tau2_s):
        calls = []

        def spy(x):
            calls.append(x)
            return 0.0

        with pytest.raises(ValueError, match="stabilizer"):
            mice_run(spy, (0.0, math.pi), 5, nu=2.5, seed=1, tau2_s=tau2_s)
        assert calls == []

    def test_zero_stabilizer_accepted(self):
        state = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 5, nu=2.5, seed=1, tau2_s=0.0)
        assert state.X.shape == (5, 1)


class TestSimulatorFailures:
    def test_mice_run_propagates_with_offending_input(self):
        calls = []

        def flaky(x):
            calls.append(float(x[0]))
            if len(calls) > 2:
                raise RuntimeError("solver diverged")
            return math.sin(x[0])

        from mlasce.errors import SimulatorError

        with pytest.raises(SimulatorError) as err:
            mice_run(flaky, (0.0, math.pi), 6, nu=2.5, seed=1)
        assert err.value.x is not None
