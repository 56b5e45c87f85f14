"""Design-module tests.

The MICE selection is checked against an exhaustive brute-force oracle that
rebuilds every numerator and denominator with plain dense numpy algebra.
"""

import hashlib
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from mlasce import design, kernels
from mlasce.design import (
    CandidateSet,
    _GRAM_BLOCK,
    _PRUNE_MARGIN,
    _SUFFIX0,
    _THREADED_M,
    _corr_gram,
    _design_stream,
    _first_max,
    _select,
    generate_grid,
    mice_criterion,
    mice_run,
    mice_scores,
    mice_step,
)
from mlasce.errors import CandidatesExhausted, FactorizationError
from mlasce.gp import GPModel, posterior_batch
from mlasce.kernels import SUPPORTED_NU, CholeskyFactor, KernelSpec, matern_corr
from oracles import power


def brute_scores(model, points, tau2=1e-8, tau2_s=1.0):
    """Oracle: per-candidate ratio via explicit dense solves."""
    spec = model.spec
    X = model.X
    tau_bar = max(tau2, tau2_s)
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
    """_corr_gram is Fortran-ordered and its lower triangle, the only part
    any caller reads, is bitwise that of the dense cdist Gram."""
    spec = KernelSpec(nu=nu, lam=0.35, sigma2=1.0)
    dense = matern_corr(cdist(pts, pts), nu, spec.lam)
    dense[np.diag_indices_from(dense)] += 0.3
    R = _corr_gram(pts, spec, 0.3)
    assert R.flags.f_contiguous
    assert np.array_equal(np.tril(R), np.tril(dense))


def make_model(spec, X=None, y=None, tau2=1e-8, tau2_s=1.0):
    """A fixed-spec model and its stabilized nugget max(tau2, tau2_s).

    X given is a 1-D design; without it the model holds six random
    points of the unit square.
    """
    if X is None:
        rng = np.random.default_rng(5)
        X, y = rng.uniform(0.0, 1.0, size=(6, 2)), rng.normal(size=6)
    model = GPModel.from_spec(np.reshape(np.asarray(X, float), (len(X), -1)), y, spec)
    return model, max(tau2, tau2_s)


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

    def test_empty_domain_rejected(self):
        with pytest.raises(ValueError):
            generate_grid((1.0, 1.0), 10, seed=0)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            generate_grid((0.0, 1.0), 1, seed=0)


class TestMiceCriterion:
    def test_empty_rest_uses_unconditioned_denominator(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0, 1.0], [0.0, 1.0], tau2=1e-8, tau2_s=0.7)
        x = np.array([2.0])
        num = posterior_batch(model, x)[1][0]
        want = num / (2.0 * (1.0 + 0.7))
        assert mice_criterion(model, x, [], tau_bar) == pytest.approx(want, rel=1e-12)

    def test_duplicate_of_training_point_scores_zero(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0, 1.0, 2.0], [0.1, -0.4, 0.2])
        score = mice_criterion(model, np.array([1.0]), np.array([[0.5], [1.5]]), tau_bar)
        assert 0.0 <= score < 1e-6

    def test_argmax_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(77)
        spec = KernelSpec(nu=1.5, lam=0.4, sigma2=1.3, nugget=1e-8)
        model, tau_bar = make_model(
            spec, rng.uniform(0.0, math.pi, 4), rng.normal(size=4), tau2_s=1.0
        )
        pts = rng.uniform(0.0, math.pi, size=(10, 1))
        direct = np.array(
            [
                mice_criterion(model, pts[i], np.delete(pts, i, axis=0), tau_bar)
                for i in range(10)
            ]
        )
        oracle = brute_scores(model, pts)
        np.testing.assert_allclose(direct, oracle, rtol=1e-9)
        assert int(np.argmax(direct)) == int(np.argmax(oracle))

    def test_fast_scores_equal_per_candidate_conditioning(self):
        rng = np.random.default_rng(13)
        spec = KernelSpec(nu=2.5, lam=0.7, sigma2=2.1, nugget=1e-8)
        model, tau_bar = make_model(spec, rng.uniform(0, 2, 5), rng.normal(size=5))
        pts = rng.uniform(0.0, 2.0, size=(25, 1))
        fast = mice_scores(model, pts, tau_bar)
        slow = np.array(
            [
                mice_criterion(model, pts[i], np.delete(pts, i, axis=0), tau_bar)
                for i in range(25)
            ]
        )
        np.testing.assert_allclose(fast, slow, rtol=1e-9)


class TestMiceScores:
    """The batched path: one Cholesky plus one in-place triangular inverse."""

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_equals_per_candidate_criterion_2d(self, nu):
        spec = KernelSpec(nu=nu, lam=0.3, sigma2=1.7, nugget=1e-8)
        model, tau_bar = make_model(spec)
        pts = np.random.default_rng(3).uniform(0.0, 1.0, size=(200, 2))
        fast = mice_scores(model, pts, tau_bar)
        slow = np.array(
            [
                mice_criterion(model, pts[i], np.delete(pts, i, axis=0), tau_bar)
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

        def jittered(A, jitter0=0.0, refill=None):
            # Only the diagonal changes: the Gram's upper triangle is not set.
            A[np.diag_indices_from(A)] += extra
            fac = real(A, jitter0=jitter0, refill=refill)
            return CholeskyFactor(fac.lower, extra)

        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.3, nugget=1e-8)
        model, tau_bar = make_model(spec, tau2_s=0.5)
        pts = np.random.default_rng(8).uniform(0.0, 1.0, size=(40, 2))
        monkeypatch.setattr(design, "chol_factor", jittered)
        got = mice_scores(model, pts, tau_bar)
        monkeypatch.undo()
        oracle = brute_scores(model, pts, tau2_s=0.5 + extra)
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
        model, tau_bar = make_model(spec)
        pts = np.random.default_rng(4).uniform(0.0, 1.0, size=(m, 2))
        mice_scores(model, pts, tau_bar)
        tracemalloc.start()
        try:
            mice_scores(model, pts, tau_bar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * m * m * 8

    def test_single_candidate(self):
        spec = KernelSpec(nu=1.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        model, tau_bar = make_model(spec)
        pts = np.array([[0.4, 0.6]])
        got = mice_scores(model, pts, tau_bar)
        assert got.shape == (1,)
        np.testing.assert_allclose(got, brute_scores(model, pts), rtol=1e-12)
        assert got[0] == pytest.approx(mice_criterion(model, pts[0], np.empty((0, 2)), tau_bar))

    def test_two_candidates(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=2.0, nugget=1e-8)
        model, tau_bar = make_model(spec)
        pts = np.array([[0.1, 0.2], [0.8, 0.7]])
        np.testing.assert_allclose(
            mice_scores(model, pts, tau_bar), brute_scores(model, pts), rtol=1e-9
        )

    def test_failed_inverse_propagates(self, monkeypatch):
        # No per-candidate fallback: the select and the step raise too.
        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec)
        grid = np.random.default_rng(2).uniform(0.0, 1.0, size=(12, 2))
        cands = CandidateSet(grid=grid, cand=np.arange(12))
        monkeypatch.setattr(
            design.lapack, "dtrtri", lambda c, lower=0, overwrite_c=0: (c, 3)
        )
        with pytest.raises(FactorizationError, match="info=3"):
            mice_scores(model, grid, tau_bar)
        with pytest.raises(FactorizationError, match="info=3"):
            _select(model, cands, tau_bar)
        with pytest.raises(FactorizationError, match="info=3"):
            mice_step(model, cands, tau_bar)


def spy_trtri(monkeypatch):
    """Record the order of every block design hands to LAPACK trtri."""
    sizes = []
    real = design.lapack.dtrtri

    def spy(c, lower=0, overwrite_c=0):
        sizes.append(len(c))
        return real(c, lower=lower, overwrite_c=overwrite_c)

    monkeypatch.setattr(design.lapack, "dtrtri", spy)
    return sizes


class TestSelectPruning:
    """_select inverts only the suffix of candidates, sorted by numerator,
    whose upper bound num / (tau_bar sigma2) can reach the best exact score."""

    @pytest.mark.parametrize("m", [2, _SUFFIX0 - 1, _SUFFIX0, _SUFFIX0 + 1, 300, 1500])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_pick_equals_full_scores(self, nu, d, m, monkeypatch):
        spec = KernelSpec(nu=nu, lam=0.3, sigma2=1.7, nugget=1e-8)
        model, tau_bar = make_model(spec)
        if d == 1:
            model = GPModel.from_spec(model.X[:, :1], model.y, spec)
        grid = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, d))
        full = mice_scores(model, grid, tau_bar)
        sizes = spy_trtri(monkeypatch)
        _, chosen = _select(model, CandidateSet(grid=grid, cand=np.arange(m)), tau_bar)
        assert chosen == _first_max(full)
        # At most two inverses, and every candidate left out of the last
        # one is certified: its bound is below the best score.
        assert 1 <= len(sizes) <= 2 and sizes == sorted(sizes)
        num = posterior_batch(model, grid)[1]
        pruned = np.argsort(num, kind="stable")[: m - sizes[-1]]
        bound = num[pruned] / (tau_bar * spec.sigma2)
        assert np.all(bound < full.max() * (1.0 - _PRUNE_MARGIN) * (1.0 + 1e-12))

    def test_indices_map_back_to_the_grid(self):
        # Only some grid rows are active, in an order unrelated to num.
        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec)
        grid = np.random.default_rng(6).uniform(0.0, 1.0, size=(400, 2))
        active = np.sort(np.random.default_rng(7).choice(400, size=250, replace=False))
        x, chosen = _select(model, CandidateSet(grid=grid, cand=active), tau_bar)
        assert chosen == active[_first_max(mice_scores(model, grid[active], tau_bar))]
        np.testing.assert_array_equal(x, grid[chosen])

    def test_zero_stabilizer_keeps_every_candidate(self, monkeypatch):
        # tau_bar = 0 gives no bound: one inverse over all m, no division by 0.
        spec = KernelSpec(nu=1.5, lam=0.2, sigma2=1.3, nugget=0.0)
        model, tau_bar = make_model(spec, tau2=0.0, tau2_s=0.0)
        assert tau_bar == 0.0
        m = 150
        grid = np.random.default_rng(9).uniform(0.0, 1.0, size=(m, 2))
        with np.errstate(divide="raise", invalid="raise"):
            full = mice_scores(model, grid, tau_bar)
            sizes = spy_trtri(monkeypatch)
            _, chosen = _select(model, CandidateSet(grid=grid, cand=np.arange(m)), tau_bar)
        assert sizes == [m]
        assert chosen == _first_max(full)

    def test_jittered_factor_scores_raised_stabilizer(self, monkeypatch):
        # When chol_factor has to add jitter, _select ranks the candidates
        # of the matrix it actually factorised: stabilizer tau_bar + extra.
        extra = 0.25
        real = design.chol_factor
        calls = []

        def jittered(A, jitter0=0.0, refill=None):
            calls.append(len(A))
            A[np.diag_indices_from(A)] += extra
            fac = real(A, jitter0=jitter0, refill=refill)
            return CholeskyFactor(fac.lower, extra)

        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.3, nugget=1e-8)
        model, tau_bar = make_model(spec, tau2_s=0.5)
        m = 2 * _SUFFIX0
        grid = np.random.default_rng(8).uniform(0.0, 1.0, size=(m, 2))
        oracle = brute_scores(model, grid, tau2_s=0.5 + extra)
        monkeypatch.setattr(design, "chol_factor", jittered)
        _, chosen = _select(model, CandidateSet(grid=grid, cand=np.arange(m)), tau_bar)
        assert calls == [m]
        assert chosen == _first_max(oracle)

    def test_pruning_runs_at_scale(self, monkeypatch):
        # The design_2d size: without pruning trtri would see k = m.
        m = 1500
        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.7, nugget=1e-8)
        model, tau_bar = make_model(spec)
        grid = np.random.default_rng(15).uniform(0.0, 1.0, size=(m, 2))
        sizes = spy_trtri(monkeypatch)
        _select(model, CandidateSet(grid=grid, cand=np.arange(m)), tau_bar)
        assert 0 < max(sizes) < m / 2


@pytest.mark.skipif(
    not kernels._openblas_pools(), reason="no OpenBLAS mapped into this process"
)
class TestBlasThreadRule:
    """The candidate Gram's Cholesky runs on one BLAS thread below
    _THREADED_M candidates and at the caller's count from there up."""

    @pytest.mark.parametrize("m, threads", [(200, 1), (_THREADED_M - 1, 1), (_THREADED_M, 2)])
    def test_select_factorises_at_the_sized_count(self, m, threads, monkeypatch):
        real = design.chol_factor
        seen = []

        def spy(A, jitter0=0.0, refill=None):
            seen.append([get() for get, _ in kernels._openblas_pools()])
            return real(A, jitter0=jitter0, refill=refill)

        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.7, nugget=1e-8)
        model, tau_bar = make_model(spec)
        grid = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, 2))
        monkeypatch.setattr(design, "chol_factor", spy)
        with kernels._blas_threads(2):
            _select(model, CandidateSet(grid=grid, cand=np.arange(m)), tau_bar)
            assert [get() for get, _ in kernels._openblas_pools()] == [2] * len(seen[0])
        assert seen == [[threads] * len(seen[0])]


class TestLowerTriangleOnly:
    """The candidate Gram's strict upper triangle is never read or zeroed:
    chol_factor factorises the lower triangle in place and a jitter retry
    rebuilds it."""

    @pytest.mark.parametrize("tau2_s", [0.0, 1.0])
    @pytest.mark.parametrize("m", [_SUFFIX0 - 1, _SUFFIX0, _SUFFIX0 + 1, 300])
    def test_nan_upper_triangle_changes_nothing(self, m, tau2_s, monkeypatch):
        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.7, nugget=0.0)
        model, tau_bar = make_model(spec, tau2=0.0, tau2_s=tau2_s)
        assert tau_bar == tau2_s
        grid = np.random.default_rng(m).uniform(0.0, 1.0, size=(m, 2))
        cands = CandidateSet(grid=grid, cand=np.arange(m))
        want_pick = _select(model, cands, tau_bar)[1]
        want_scores = mice_scores(model, grid, tau_bar)
        real = design._corr_gram

        def poisoned(pts, spec, diag_add):
            R = real(pts, spec, diag_add)
            R[np.triu_indices_from(R, 1)] = np.nan
            return R

        monkeypatch.setattr(design, "_corr_gram", poisoned)
        assert _select(model, cands, tau_bar)[1] == want_pick
        assert np.array_equal(mice_scores(model, grid, tau_bar), want_scores)

    def test_jitter_retry_rebuilds_the_gram(self, monkeypatch):
        # nugget 0, tau2_s 0 and nu = inf on 41 points of [0, pi]: the Gram
        # is numerically singular, so every pick needs jitter 1e-11 and
        # builds the Gram twice, factorising the second build.
        builds, factors = [], []
        real_gram, real_chol = design._corr_gram, design.chol_factor

        def gram(pts, spec, diag_add):
            builds.append((pts.copy(), spec, diag_add))
            return real_gram(pts, spec, diag_add)

        def chol(A, jitter0=0.0, refill=None):
            fac = real_chol(A, jitter0=jitter0, refill=refill)
            # dtrtri then overwrites the factor in place.
            factors.append((np.tril(fac.lower), fac.jitter))
            return fac

        monkeypatch.setattr(design, "_corr_gram", gram)
        monkeypatch.setattr(design, "chol_factor", chol)
        mice_run(
            lambda x: math.sin(x[0]), (0.0, math.pi), 6, nu=math.inf,
            seed=2, nugget=0.0, tau2_s=0.0, n_grid=41,
        )
        monkeypatch.undo()
        assert len(factors) == 3 and len(builds) == 6
        for (pts, spec, tau_bar), second, (lower, jitter) in zip(
            builds[::2], builds[1::2], factors
        ):
            assert np.array_equal(second[0], pts) and second[1:] == (spec, tau_bar)
            R = _corr_gram(pts, spec, tau_bar)
            dense = np.tril(R) + np.tril(R, -1).T
            ref = design.chol_factor(dense, jitter0=tau_bar)
            assert jitter == ref.jitter == 1e-11
            assert np.array_equal(lower, ref.lower)

    def test_peak_memory_of_select_is_one_gram(self):
        # The design_2d size, pruned: the kernel runs on column blocks and
        # only the trailing block is inverted, so numpy's peak stays near
        # one m x m array.
        m = 1500
        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.7, nugget=1e-8)
        model, tau_bar = make_model(spec)
        cands = CandidateSet(
            grid=np.random.default_rng(15).uniform(0.0, 1.0, size=(m, 2)), cand=np.arange(m)
        )
        tracemalloc.start()
        try:
            _select(model, cands, tau_bar)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * m * m * 8

    @pytest.mark.skipif(
        sys.version_info < (3, 11),
        reason="before 3.11 a caller keeps its call arguments alive until the call returns",
    )
    def test_peak_memory_of_a_retry_is_one_gram(self, monkeypatch):
        # The failed buffer is dropped before the rebuild.
        m = 600
        spec = KernelSpec(nu=math.inf, lam=4.0, sigma2=6.0, nugget=0.0)
        model = GPModel.from_spec(np.array([[0.3], [1.5], [2.9]]), np.zeros(3), spec)
        cands = CandidateSet(grid=np.linspace(0.0, math.pi, m)[:, None], cand=np.arange(m))
        jitters = []
        real = design.chol_factor

        def chol(A, jitter0=0.0, refill=None):
            fac = real(A, jitter0=jitter0, refill=refill)
            jitters.append(fac.jitter)
            return fac

        monkeypatch.setattr(design, "chol_factor", chol)
        _select(model, cands, 0.0)
        monkeypatch.undo()
        assert jitters == [1e-11]
        tracemalloc.start()
        try:
            _select(model, cands, 0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.7 * m * m * 8


class TestMiceStep:
    def test_single_candidate(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0], [1.0])
        cands = CandidateSet(grid=np.array([[0.3]]), cand=np.array([0]))
        x, rest = mice_step(model, cands, tau_bar)
        assert x[0] == 0.3
        assert rest.cand.size == 0

    def test_symmetric_state_picks_midpoint(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0, math.pi], [0.0, 0.0])
        grid = np.array([[math.pi / 4], [math.pi / 2], [3 * math.pi / 4]])
        cands = CandidateSet(grid=grid, cand=np.arange(3))
        x, _ = mice_step(model, cands, tau_bar)
        assert x[0] == pytest.approx(math.pi / 2)

    def test_exact_tie_breaks_to_lower_index(self):
        # Candidates at -c and +c around a single training point at 0 give
        # bitwise-equal scores; the lower grid index must win.
        spec = KernelSpec(nu=1.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0], [1.0])
        grid = np.array([[-0.5], [0.5]])
        cands = CandidateSet(grid=grid, cand=np.arange(2))
        x, _ = mice_step(model, cands, tau_bar)
        assert x[0] == -0.5

    def test_exhausted_candidates(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-8)
        model, tau_bar = make_model(spec, [0.0], [1.0])
        cands = CandidateSet(grid=np.array([[0.3]]), cand=np.array([], int))
        with pytest.raises(CandidatesExhausted):
            mice_step(model, cands, tau_bar)


class TestMiceRun:
    def test_target_beyond_grid_fails_before_any_evaluation(self):
        calls = []

        def spy(x):
            calls.append(x)
            return 0.0

        with pytest.raises(CandidatesExhausted, match="n_target=10 exceeds n_grid=5"):
            mice_run(spy, (0.0, math.pi), 10, nu=2.5, n_grid=5)
        assert calls == []

    def test_target_equals_initial_size(self):
        model = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 3, nu=2.5, seed=5, n_initial=3)
        assert model.X.shape == (3, 1)
        np.testing.assert_allclose(model.y, np.sin(model.X.ravel()))

    def test_coverage_improves_sup_power(self):
        small = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 3, nu=2.5, seed=9)
        big = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 10, nu=2.5, seed=9)
        probes = np.linspace(0.0, math.pi, 200)
        assert power(big, probes).max() < power(small, probes).max()

    def test_deterministic(self):
        a = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 8, nu=2.5, seed=42)
        b = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 8, nu=2.5, seed=42)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.spec == b.spec

    def test_points_distinct_and_on_grid(self):
        model = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 12, nu=2.5, seed=3, n_grid=41)
        pts = model.X.ravel()
        assert len(np.unique(pts)) == 12
        grid = generate_grid((0.0, math.pi), 41, seed=0).grid.ravel()
        for p in pts:
            assert np.min(np.abs(grid - p)) < 1e-12

    def test_sup_power_monotone_under_frozen_hyperparameters(self):
        final = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 12, nu=2.5, seed=21)
        spec = final.spec
        probes = np.linspace(0.0, math.pi, 300)
        values = []
        for k in range(3, 13):
            model = GPModel.from_spec(final.X[:k], final.y[:k], spec)
            values.append(power(model, probes).max())
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_fixed_spec_skips_refitting(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8)
        model = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 9, nu=2.5, seed=2, spec=spec)
        assert model.spec == spec

    def test_degenerate_fixed_spec_runs_to_n_target(self):
        # sigma2 = 1e-300 overflows alpha, so every extension score is nan;
        # a lone level is picked without comparing scores, as it must be.
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1e-300, nugget=1e-8)
        with np.errstate(all="ignore"):
            model = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 8,
                             nu=2.5, seed=1, n_grid=41, spec=spec)
        assert model.n == 8 and len(np.unique(model.X)) == 8

    def test_returns_model_of_the_evaluated_design(self):
        seen = []

        def sim(x):
            seen.append(x.copy())
            return math.sin(3.0 * x[0])

        model = mice_run(sim, (0.0, math.pi), 7, nu=2.5, seed=4)
        assert isinstance(model, GPModel)
        assert model.n == 7
        np.testing.assert_array_equal(model.X, np.array(seen))
        np.testing.assert_array_equal(model.y, [math.sin(3.0 * x[0]) for x in seen])


def _bits_sim_1d(x):
    return math.sin(3.0 * x[0]) + 0.5 * x[0]


def _bits_sim_2d(x):
    return math.sin(3.0 * x[0]) * math.cos(x[1]) + 0.3 * x[1]


# mice_run arguments per shape: refitted; a fixed spec on a 201-point grid
# from one opening point; nu = inf with nugget 0 (the jitter route); 2-D.
_BITS_SHAPES = {
    "fitted": (_bits_sim_1d, (0.0, math.pi), 10, {"nu": 2.5}),
    "fixed-spec": (_bits_sim_1d, (0.0, math.pi), 12, {
        "nu": 2.5, "n_grid": 201, "n_initial": 1,
        "spec": KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8),
    }),
    "nu-inf-nugget-0": (_bits_sim_1d, (0.0, math.pi), 8, {"nu": math.inf, "nugget": 0.0}),
    "2d": (_bits_sim_2d, ((0.0, 0.0), (1.0, 2.0)), 10, {"nu": 2.5, "n_grid": 61}),
}

# (shape, seed, sha256(X, y and alpha bytes)[:16], repr(spec)) of mice_run
# results recorded from the design's own refit loop, before it ran on
# emulator._grow. Every grid is below _THREADED_M, so the factorisations
# run on one BLAS thread and the bits hold at any thread count.
_PINNED_RUNS = [
    ('fitted', 0, 'eeeb819e34847360', 'KernelSpec(nu=2.5, lam=1.1092580603317603, sigma2=2.6923982179802177, nugget=1e-08)'),
    ('fitted', 1, '3add0d6b3a140eca', 'KernelSpec(nu=2.5, lam=1.1072456765419236, sigma2=2.678009241659005, nugget=1e-08)'),
    ('fitted', 2, '66e410e1666155e3', 'KernelSpec(nu=2.5, lam=1.0933688131266959, sigma2=2.597792102705069, nugget=1e-08)'),
    ('fitted', 3, '29c5ce154ebfe486', 'KernelSpec(nu=2.5, lam=1.065983365677983, sigma2=2.4165806880400544, nugget=1e-08)'),
    ('fitted', 4, '860d74e9607c4622', 'KernelSpec(nu=2.5, lam=1.0746997481164315, sigma2=2.449936438890525, nugget=1e-08)'),
    ('fitted', 5, 'fa05e82eeacd04f6', 'KernelSpec(nu=2.5, lam=1.0892958854662775, sigma2=2.5587134364362485, nugget=1e-08)'),
    ('fitted', 6, '6d342e270cc4830c', 'KernelSpec(nu=2.5, lam=1.0912729810326691, sigma2=2.5652343310409855, nugget=1e-08)'),
    ('fitted', 7, '0c79a045bf60d86e', 'KernelSpec(nu=2.5, lam=1.0796229279035512, sigma2=2.4954010044030133, nugget=1e-08)'),
    ('fitted', 8, '8df902a8ca864427', 'KernelSpec(nu=2.5, lam=1.0863182409132757, sigma2=2.5433158903482798, nugget=1e-08)'),
    ('fitted', 9, 'e7ff272da08dc915', 'KernelSpec(nu=2.5, lam=1.0673139517144576, sigma2=2.406053946838984, nugget=1e-08)'),
    ('fixed-spec', 0, 'f9245f11dc1ca730', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 1, '11325325534d07c5', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 2, '78f4695b0127cca6', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 3, '825d7e4137037b48', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 4, '12f10ccec83c0391', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 5, 'adacd4489c89e17f', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 6, '5b112ceceb95dd1a', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 7, '2ca9cf792bdab21a', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 8, '78e3557d1dce54e5', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('fixed-spec', 9, 'f1ead8762c0b104e', 'KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-08)'),
    ('nu-inf-nugget-0', 0, '8290da902660f16c', 'KernelSpec(nu=inf, lam=1.1844265640917027, sigma2=3.3137662217598924, nugget=0.0)'),
    ('nu-inf-nugget-0', 1, 'fa333b44b3387dc7', 'KernelSpec(nu=inf, lam=1.1840718530894583, sigma2=3.3524893452940137, nugget=0.0)'),
    ('nu-inf-nugget-0', 2, 'b04020e2884dd7d3', 'KernelSpec(nu=inf, lam=1.1739240447173802, sigma2=3.3233317914726954, nugget=0.0)'),
    ('nu-inf-nugget-0', 3, 'e0c968bcfd7b0068', 'KernelSpec(nu=inf, lam=1.108016009610835, sigma2=2.6667272510103444, nugget=0.0)'),
    ('nu-inf-nugget-0', 4, 'cc5c440366cc2b02', 'KernelSpec(nu=inf, lam=1.1459480656100753, sigma2=3.013108868371054, nugget=0.0)'),
    ('nu-inf-nugget-0', 5, 'f03f6fdb57843cfa', 'KernelSpec(nu=inf, lam=1.1631303187977438, sigma2=3.029575674165062, nugget=0.0)'),
    ('nu-inf-nugget-0', 6, '26eee35b615f7f6f', 'KernelSpec(nu=inf, lam=1.1832043689345706, sigma2=3.2597949268208883, nugget=0.0)'),
    ('nu-inf-nugget-0', 7, '7e8c6eae7efa14ae', 'KernelSpec(nu=inf, lam=1.196592071261916, sigma2=3.452635261641558, nugget=0.0)'),
    ('nu-inf-nugget-0', 8, 'ff5e503ab9bfc2d9', 'KernelSpec(nu=inf, lam=1.141501876867676, sigma2=2.950183434098056, nugget=0.0)'),
    ('nu-inf-nugget-0', 9, '1233c4d999dabe3a', 'KernelSpec(nu=inf, lam=1.1955042408225713, sigma2=3.4116430065138257, nugget=0.0)'),
    ('2d', 0, '450dd31db9d0b42b', 'KernelSpec(nu=2.5, lam=0.614586438892095, sigma2=0.23356372351129967, nugget=1e-08)'),
    ('2d', 1, '0d50cf4805be217b', 'KernelSpec(nu=2.5, lam=0.6405879862988603, sigma2=0.2694467742770771, nugget=1e-08)'),
    ('2d', 2, 'b2a11372205c7c76', 'KernelSpec(nu=2.5, lam=0.6121347557118613, sigma2=0.21108793013174615, nugget=1e-08)'),
    ('2d', 3, '06bc90c37d13a2a4', 'KernelSpec(nu=2.5, lam=0.49928322121249274, sigma2=0.23918440622561993, nugget=1e-08)'),
    ('2d', 4, '4e590bf626a547db', 'KernelSpec(nu=2.5, lam=0.6165874392631518, sigma2=0.23840645071173405, nugget=1e-08)'),
    ('2d', 5, '7b7b76069ef4af2f', 'KernelSpec(nu=2.5, lam=0.6876004105227503, sigma2=0.227069196993361, nugget=1e-08)'),
    ('2d', 6, 'b7419e4f4cf7ded0', 'KernelSpec(nu=2.5, lam=0.767395844545563, sigma2=0.1901028430869467, nugget=1e-08)'),
    ('2d', 7, 'c5ffd74f362ac071', 'KernelSpec(nu=2.5, lam=0.7109210199284327, sigma2=0.1572353677092885, nugget=1e-08)'),
    ('2d', 8, '816edb45bd292a8f', 'KernelSpec(nu=2.5, lam=0.6769451400370108, sigma2=0.21722888145280028, nugget=1e-08)'),
    ('2d', 9, '3ffda5daf450cde1', 'KernelSpec(nu=2.5, lam=0.7140746063809787, sigma2=0.24699077999898203, nugget=1e-08)'),
]


class TestMiceRunBits:
    @pytest.mark.parametrize(
        "shape, seed, digest, spec", _PINNED_RUNS,
        ids=[f"{c[0]}-seed{c[1]}" for c in _PINNED_RUNS],
    )
    def test_mice_run_is_bitwise_pinned(self, shape, seed, digest, spec):
        sim, domain, n_target, kwargs = _BITS_SHAPES[shape]
        model = mice_run(sim, domain, n_target, seed=seed, **kwargs)
        data = model.X.tobytes() + model.y.tobytes() + model.alpha.tobytes()
        assert hashlib.sha256(data).hexdigest()[:16] == digest
        assert repr(model.spec) == spec


class TestMiceRunInputs:
    """mice_run checks every input before its first simulator call, with
    the integer rule and the smoothness rule that mlasce_run uses."""

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"nu": 3.0}, "nu=3.0 unsupported"),
            ({"seed": True}, "seed must be an integer, got True"),
            ({"seed": 3.0}, "seed must be an integer, got 3.0"),
            ({"seed": None}, "seed must be an integer, got None"),
            ({"n_target": 4.5}, "n_target must be an integer, got 4.5"),
            ({"n_initial": 2.5}, "n_initial must be an integer, got 2.5"),
            ({"n_grid": 41.0}, "n_grid must be an integer, got 41.0"),
        ],
        ids=["nu", "seed-bool", "seed-float", "seed-none", "n_target", "n_initial", "n_grid"],
    )
    def test_invalid_input_rejected_before_any_evaluation(self, change, message):
        calls = []
        kwargs = {"n_target": 5, "nu": 2.5, "seed": 1, "n_grid": 21, **change}
        with pytest.raises(ValueError, match=re.escape(message)):
            mice_run(calls.append, (0.0, math.pi), **kwargs)
        assert calls == []

    def test_numpy_integers_accepted(self):
        def sim(x):
            return math.sin(3.0 * x[0])

        a = mice_run(sim, (0.0, math.pi), np.int64(6), nu=2.5, seed=np.int32(4),
                     n_grid=np.int64(21), n_initial=np.int8(2))
        b = mice_run(sim, (0.0, math.pi), 6, nu=2.5, seed=4, n_grid=21, n_initial=2)
        np.testing.assert_array_equal(a.X, b.X)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.spec == b.spec


class TestDesignStream:
    """Both sequential designs open on _design_stream's grid and generator."""

    def test_mice_run_opens_on_the_stream(self):
        domain = ((0.0, 0.0), (1.0, 2.0))
        cands, rng = _design_stream(domain, 31, np.random.SeedSequence(7))
        opening = cands.grid[np.sort(rng.choice(31, size=3, replace=False))]
        model = mice_run(lambda x: float(x[0] * x[1]), domain, 3, nu=2.5, seed=7, n_grid=31)
        np.testing.assert_array_equal(model.X, opening)

    def test_mlasce_run_levels_open_on_the_stream(self):
        from mlasce.bench import TOY3, ladder_for
        from mlasce.emulator import mlasce_run

        # The opening cost alone: one point per level and no MICE pick.
        em = mlasce_run(ladder_for(TOY3), 104.0, nu=2.5, seed=5, n_grid=21)
        for lv, child in zip(em.levels, np.random.SeedSequence(5).spawn(3)):
            cands, rng = _design_stream(TOY3.domain, 21, child)
            np.testing.assert_array_equal(lv.model.X, cands.grid[[rng.integers(21)]])


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

    @pytest.mark.parametrize("nugget", [math.nan, math.inf, -1.0])
    def test_bad_nugget_rejected_before_any_evaluation(self, nugget):
        calls = []

        def spy(x):
            calls.append(x)
            return 0.0

        with pytest.raises(ValueError, match="nugget must be finite and >= 0"):
            mice_run(spy, (0.0, math.pi), 5, nu=2.5, seed=1, nugget=nugget)
        assert calls == []

    @pytest.mark.parametrize("nugget", [1.0, 1e6])
    def test_nugget_of_one_or_more_rejected_before_any_evaluation(self, nugget):
        calls = []
        with pytest.raises(ValueError, match="nugget must be < 1"):
            mice_run(calls.append, (0.0, math.pi), 5, nu=2.5, seed=1, nugget=nugget)
        assert calls == []

    def test_zero_stabilizer_accepted(self):
        model = mice_run(lambda x: math.sin(x[0]), (0.0, math.pi), 5, nu=2.5, seed=1, tau2_s=0.0)
        assert model.X.shape == (5, 1)


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
        # The shared run step tags the one level, and x is the failing input.
        assert err.value.level == 1
        assert err.value.x.tolist() == [calls[-1]]
