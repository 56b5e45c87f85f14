"""Kernel-module tests.

Closed-form values are checked against direct evaluation of the published
formulas written out independently inside the tests; matrices are checked
against element-wise kernel calls.
"""

import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from scipy.spatial.distance import cdist

from mlasce import kernels
from mlasce.errors import FactorizationError
from mlasce.gp import _bordered_profile, _profile
from mlasce.kernels import (
    SUPPORTED_NU,
    CholeskyFactor,
    KernelSpec,
    chol_factor,
    corr_vector,
    distances,
    matern_corr,
)
from oracles import corr_matrix, cov_matrix, matern


def bump(x, a, lam):
    """Literal transcription of the 5/2 correlation bump used by the toy sims."""
    r = np.abs(x - a)
    return (1.0 + math.sqrt(5.0) * r / lam + 5.0 * r ** 2 / (3.0 * lam ** 2)) * np.exp(
        -math.sqrt(5.0) * r / lam
    )


class TestMatern:
    def test_zero_distance_is_sigma2(self):
        for nu in SUPPORTED_NU:
            spec = KernelSpec(nu=nu, lam=0.7, sigma2=3.25)
            assert matern(0.0, spec) == 3.25

    def test_exponential_closed_form(self):
        spec = KernelSpec(nu=0.5, lam=1.0, sigma2=1.0)
        assert matern(1.0, spec) == pytest.approx(math.exp(-1.0), abs=1e-15)

    def test_halfinteger_closed_forms_at_unit_distance(self):
        # Directly evaluated polynomial-times-exponential forms.
        lam = 0.8
        r = 1.3
        u = r / lam
        expected = {
            1.5: (1 + math.sqrt(3) * u) * math.exp(-math.sqrt(3) * u),
            2.5: (1 + math.sqrt(5) * u + 5 * u ** 2 / 3) * math.exp(-math.sqrt(5) * u),
            3.5: (
                1 + math.sqrt(7) * u + 14 * u ** 2 / 5 + 7 * math.sqrt(7) * u ** 3 / 15
            )
            * math.exp(-math.sqrt(7) * u),
            math.inf: math.exp(-(u ** 2)),
        }
        for nu, val in expected.items():
            spec = KernelSpec(nu=nu, lam=lam, sigma2=1.0)
            assert matern(r, spec) == pytest.approx(val, rel=1e-14)

    def test_matches_bump_formula_on_grid(self):
        # The nu=5/2 correlation must reproduce the toy bump pointwise.
        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.0)
        x = np.linspace(0.0, math.pi, 1000)
        a = math.pi / 3
        np.testing.assert_allclose(
            matern(np.abs(x - a), spec), bump(x, a, 0.4), atol=1e-12, rtol=0
        )

    def test_monotone_nonincreasing(self):
        rng = np.random.default_rng(7)
        for nu in SUPPORTED_NU:
            spec = KernelSpec(nu=nu, lam=rng.uniform(0.2, 2.0), sigma2=1.7)
            r = np.sort(rng.uniform(0.0, 10.0, size=200))
            k = matern(r, spec)
            assert np.all(np.diff(k) <= 1e-15)
            assert np.all(k > 0.0)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(nu=2.0, lam=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=1.0, sigma2=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=1.0, sigma2=1.0, nugget=-1e-9)

    @pytest.mark.parametrize("nugget", [1.0, 1e6])
    def test_nugget_of_one_or_more_rejected(self, nugget):
        # The nugget is relative to sigma2: at 1 the noise matches the signal.
        with pytest.raises(ValueError, match="nugget must be < 1"):
            KernelSpec(nu=2.5, lam=1.0, sigma2=1.0, nugget=nugget)
        assert KernelSpec(nu=2.5, lam=1.0, sigma2=1.0, nugget=0.999).nugget == 0.999


def _distances():
    rng = np.random.default_rng(31)
    X = rng.uniform(0.0, 3.0, size=(12, 2))
    D = np.linalg.norm(X[:, None] - X[None], axis=-1)
    lams = np.exp(np.linspace(np.log(0.05), np.log(4.0), 7))
    return {
        "1-D": (np.r_[0.0, rng.uniform(0.0, 8.0, size=500)], 0.9),
        "2-D": (D, 1.3),
        "stack": (D, lams[..., None, None]),
    }


class TestMaternCorr:
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    @pytest.mark.parametrize("shape", list(_distances()))
    def test_input_unchanged_and_result_fresh_and_writeable(self, nu, shape):
        # gp.fit reuses one distance matrix for its lattice stack and every
        # Brent call, and gp._profile adds the nugget to the result's diagonal.
        r, lam = _distances()[shape]
        before = r.copy()
        got = matern_corr(r, nu, lam)
        assert np.array_equal(r, before)
        assert not np.shares_memory(got, r)
        assert got.flags.writeable and got.flags.owndata
        if shape != "1-D":
            idx = np.arange(r.shape[-1])
            got[..., idx, idx] += 1e-8
        assert np.array_equal(r, before)

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_stack_is_bitwise_one_call_per_lambda(self, nu):
        # gp._bordered_profile evaluates a lattice of lambdas as one stack.
        D, lams = _distances()["stack"]
        got = matern_corr(D, nu, lams)
        for k, lam in enumerate(lams[:, 0, 0]):
            want = matern_corr(D, nu, float(lam))
            assert np.array_equal(got[k].view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("r", [0.83, np.array(0.83)], ids=["float", "0-d"])
    def test_scalar_distance_gives_scalar(self, r):
        got = matern_corr(r, 2.5, 0.6)
        assert np.ndim(got) == 0
        assert got == matern_corr(np.array([0.83]), 2.5, 0.6)[0]

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    @pytest.mark.parametrize("shape", list(_distances()))
    def test_out_is_bitwise_the_allocating_call(self, nu, shape):
        r, lam = _distances()[shape]
        want = matern_corr(r, nu, lam).view(np.int64)
        buffer = np.full(want.shape, np.nan)
        assert matern_corr(r, nu, lam, out=buffer) is buffer
        assert np.array_equal(buffer.view(np.int64), want)
        if np.ndim(lam) == 0:  # in place over the distances themselves
            r = r.copy()
            assert matern_corr(r, nu, lam, out=r) is r
            assert np.array_equal(r.view(np.int64), want)

    def test_unsupported_nu_rejected(self):
        with pytest.raises(ValueError, match="unsupported"):
            matern_corr(np.ones(3), 2.0, 1.0)


class TestDistances:
    """distances is the numpy twin of scipy's euclidean cdist, bit for bit."""

    @staticmethod
    def _pairs(d, scale, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(40, d)) * scale
        B = rng.normal(size=(33, d)) * scale
        B[:4] = A[:4]  # duplicate rows
        B[4:8] = A[4:8] * (1.0 + 2.0 ** -52)  # near-duplicate rows
        B[8:10] = np.nextafter(A[8:10], np.inf)
        return A, B

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    @pytest.mark.parametrize("scale", [1e-160, 1e-8, 1.0, 1e8, 1e160])
    def test_bitwise_equal_to_cdist(self, d, scale):
        A, B = self._pairs(d, scale, seed=d)
        with np.errstate(over="ignore", under="ignore"):
            for P, Q in ((A, B), (B, A), (A, A), (A[:1], B), (A, B[:1])):
                got = distances(P, Q)
                want = cdist(P, Q)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_bitwise_symmetric(self, d):
        # design._corr_gram evaluates each pair once and relies on
        # d(a, b) == d(b, a) to fill the lower triangle.
        rng = np.random.default_rng(40 + d)
        A = rng.uniform(-1e3, 1e3, size=(57, d)) * np.exp(rng.normal(size=(57, 1)) * 5)
        B = np.vstack([A[::-3], rng.uniform(size=(9, d))])
        assert np.array_equal(distances(A, B).T.view(np.int64), distances(B, A).view(np.int64))
        D = distances(A, A)
        assert np.array_equal(D.view(np.int64), D.T.view(np.int64))
        assert not np.any(np.diagonal(D))

    def test_fills_and_returns_out(self):
        A, B = self._pairs(2, 1.0, seed=7)
        out = np.full((len(A), len(B)), np.nan)
        assert distances(A, B, out=out) is out
        assert np.array_equal(out.view(np.int64), cdist(A, B).view(np.int64))


class TestCorrVector:
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("n", [1, 74])
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_row_blocks_are_bitwise_one_call(self, nu, n, d):
        # Rows are filled step = _CROSS_ENTRIES // n at a time. The query
        # counts cover one pass, both sides of the one-to-two-pass edge and
        # the L2 error's 10,001 points.
        rng = np.random.default_rng(10 * n + d)
        X = rng.uniform(0.0, 3.0, size=(n, d))
        spec = KernelSpec(nu=nu, lam=0.7, sigma2=1.0)
        step = kernels._CROSS_ENTRIES // n
        for m in (0, 1, step - 1, step, step + 1, 10001):
            Xq = rng.uniform(-0.5, 3.5, size=(m, d))
            got = corr_vector(Xq, X, spec)
            want = matern_corr(cdist(Xq, X), nu, spec.lam)
            assert got.shape == (m, n)
            assert got.flags.c_contiguous and got.flags.writeable
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestCovMatrix:
    def test_single_point(self):
        K = cov_matrix([[0.3]], KernelSpec(nu=2.5, lam=1.0, sigma2=2.0))
        np.testing.assert_allclose(K, [[2.0]])

    def test_duplicate_points_rank_one(self):
        spec = KernelSpec(nu=1.5, lam=1.0, sigma2=1.3)
        K = cov_matrix([[0.5], [0.5]], spec)
        np.testing.assert_allclose(K, 1.3 * np.ones((2, 2)))
        assert np.linalg.matrix_rank(K) == 1

    def test_elementwise_oracle(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.9, nugget=1e-6)
        X = np.array([[0.05], [0.2], [0.46], [0.71], [0.99]])
        K = cov_matrix(X, spec)
        n = len(X)
        for i in range(n):
            for j in range(n):
                r = abs(X[i, 0] - X[j, 0])
                want = matern(r, spec)
                if i == j:
                    want = spec.sigma2 * (1.0 + spec.nugget)
                assert K[i, j] == pytest.approx(want, rel=1e-14)
        np.testing.assert_allclose(K, K.T)

    def test_dimension_mismatch(self):
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            cov_matrix(np.ones((2, 2, 2)), spec)

    def test_nugget_makes_random_designs_factorizable(self):
        # Distinct points, any supported smoothness, nugget 1e-8: the Gram
        # matrix must factor without escalation kicking past the nugget.
        rng = np.random.default_rng(11)
        for trial in range(20):
            n = int(rng.integers(2, 101))
            d = int(rng.integers(1, 4))
            nu = SUPPORTED_NU[trial % len(SUPPORTED_NU)]
            X = rng.uniform(0.0, 1.0, size=(n, d))
            spec = KernelSpec(nu=nu, lam=0.5, sigma2=1.0, nugget=1e-8)
            fac = chol_factor(cov_matrix(X, spec), jitter0=1e-8)
            assert np.isfinite(fac.logdet)


class TestCholSolve:
    def test_identity(self):
        b = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(chol_factor(np.eye(3)).solve(b), b)

    def test_diagonal(self):
        A = np.array([[4.0, 0.0], [0.0, 9.0]])
        np.testing.assert_allclose(chol_factor(A).solve(np.array([8.0, 27.0])), [2.0, 3.0])

    def test_random_spd_residual(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(10, 10))
        A = M @ M.T + 10.0 * np.eye(10)
        B = rng.normal(size=10)
        X = chol_factor(A).solve(B)
        resid = np.max(np.abs(A @ X - B))
        assert resid < 1e-9 * np.max(np.abs(B))

    def test_logdet(self):
        rng = np.random.default_rng(5)
        M = rng.normal(size=(6, 6))
        A = M @ M.T + 6.0 * np.eye(6)
        fac = chol_factor(A)
        assert fac.logdet == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-10)

    def test_jitter_escalation_recovers_singular(self):
        # Rank-deficient matrix from duplicated inputs: jitter must rescue it.
        A = np.ones((3, 3))
        fac = chol_factor(A, jitter0=1e-8)
        assert 0.0 < fac.jitter <= 1e-4
        x = fac.solve(np.array([1.0, 1.0, 1.0]))
        assert np.all(np.isfinite(x))

    def test_indefinite_raises_with_final_jitter(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(FactorizationError) as err:
            chol_factor(A)
        assert err.value.jitter is not None
        assert err.value.jitter > 1e-4

    def test_factor_solve_matches_direct(self):
        rng = np.random.default_rng(9)
        M = rng.normal(size=(8, 8))
        A = M @ M.T + 8.0 * np.eye(8)
        B = rng.normal(size=(8, 3))
        np.testing.assert_allclose(chol_factor(A).solve(B), np.linalg.solve(A, B), atol=1e-10)

    def test_factor_type(self):
        fac = chol_factor(np.eye(2))
        assert isinstance(fac, CholeskyFactor)
        assert fac.jitter == 0.0


def near_duplicate_gram(shift):
    """Gaussian Gram over 40 point pairs 1e-6 apart, diagonal lowered by shift."""
    base = np.random.default_rng(5).uniform(0.0, 1.0, size=(40, 2))
    pts = np.vstack([base, base + 1e-6])
    R = corr_matrix(pts, KernelSpec(nu=math.inf, lam=1.0, sigma2=1.0))
    R[np.diag_indices_from(R)] -= shift
    return R


class TestCholFactorInPlace:
    # shift -1e-3 factorises as given; 0 needs one escalation, 5e-10 three.
    @pytest.mark.parametrize("shift", [-1e-3, 0.0, 5e-10])
    def test_bitwise_equal_to_copying_path(self, shift):
        retries = {-1e-3: 0, 0.0: 1, 5e-10: 3}[shift]
        R = near_duplicate_gram(shift)
        ref = chol_factor(R, jitter0=1e-14)
        built = [np.array(R, order="F")]

        def refill():
            built.append(np.array(R, order="F"))
            return built[-1]

        fac = chol_factor(built[0], jitter0=1e-14, refill=refill)
        assert (ref.jitter > 0.0) == (shift >= 0.0)
        assert fac.jitter == ref.jitter
        # Each retry factorises a fresh buffer; the last one holds L.
        assert len(built) == 1 + retries
        assert np.shares_memory(fac.lower, built[-1])
        assert np.array_equal(np.tril(fac.lower), ref.lower)
        # The strict upper triangle is neither read nor written.
        assert np.array_equal(np.triu(fac.lower, 1), np.triu(R, 1))

    def test_reads_only_the_lower_triangle(self):
        R = near_duplicate_gram(5e-10)
        ref = chol_factor(R, jitter0=1e-14)

        def refill():
            A = np.array(R, order="F")
            A[np.triu_indices_from(A, 1)] = np.nan
            return A

        fac = chol_factor(refill(), jitter0=1e-14, refill=refill)
        assert fac.jitter == ref.jitter > 0.0
        assert np.array_equal(np.tril(fac.lower), ref.lower)
        assert np.isnan(fac.lower[np.triu_indices_from(R, 1)]).all()

    @pytest.mark.parametrize(
        "A, max_jitter",
        [(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-4), (near_duplicate_gram(5e-10), 1e-10)],
    )
    def test_same_error_past_max_jitter(self, monkeypatch, A, max_jitter):
        monkeypatch.setattr(kernels, "_JITTER_MAX", max_jitter)
        with pytest.raises(FactorizationError) as ref:
            chol_factor(A)
        with pytest.raises(FactorizationError) as got:
            chol_factor(np.array(A, order="F"), refill=lambda: np.array(A, order="F"))
        assert got.value.jitter == ref.value.jitter
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "A", [np.ascontiguousarray(np.eye(3)), np.asfortranarray(np.eye(3, dtype=int))]
    )
    def test_rejects_non_fortran_float64(self, A):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            chol_factor(A, refill=lambda: A)


def scipy_chol_factor(A, jitter0):
    """Oracle: chol_factor's jitter escalation on top of scipy.linalg.cholesky."""
    base, extra = max(jitter0, 1e-12), 0.0
    while True:
        try:
            M = A if extra == 0.0 else A + extra * np.eye(len(A))
            return scipy.linalg.cholesky(M, lower=True, check_finite=False), extra
        except np.linalg.LinAlgError:
            extra = base * 10.0 if extra == 0.0 else extra * 10.0


class TestLapackSolves:
    # The factor solves call LAPACK dtrtrs directly; they must be the very
    # solves scipy.linalg.solve_triangular makes, for every layout of b.
    @pytest.mark.parametrize(
        "shape, order", [((7,), "C"), ((7, 3), "C"), ((7, 3), "F"), ((7, 1), "C"), ((7, 0), "C")]
    )
    def test_bitwise_equal_to_solve_triangular(self, shape, order):
        M = np.random.default_rng(21).normal(size=(7, 7))
        fac = chol_factor(M @ M.T + 7.0 * np.eye(7))
        b = np.asarray(np.random.default_rng(22).normal(size=shape), order=order)
        L = fac.lower
        half = scipy.linalg.solve_triangular(L, b, lower=True, check_finite=False)
        full = scipy.linalg.solve_triangular(L, half, lower=True, trans="T", check_finite=False)
        assert np.array_equal(fac.solve_lower(b), half)
        assert np.array_equal(fac.solve(b), full)
        assert fac.solve(b).shape == b.shape

    def test_singular_factor_raises(self):
        fac = CholeskyFactor(np.asfortranarray([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fac.solve_lower(np.ones(2))
        with pytest.raises(np.linalg.LinAlgError, match="singular"):
            fac.solve(np.ones(2))

    @pytest.mark.parametrize(
        "A, jitter0",
        [(np.ones((3, 3)), 1e-8), (near_duplicate_gram(0.0), 1e-14), (near_duplicate_gram(5e-10), 1e-14)],
    )
    def test_jitter_path_matches_scipy_cholesky(self, A, jitter0):
        ref, jitter = scipy_chol_factor(A, jitter0)
        fac = chol_factor(A, jitter0=jitter0)
        assert jitter > 0.0
        assert fac.jitter == jitter
        assert np.array_equal(fac.lower, ref)

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_stacked_profile_matches_per_slice(self, nu):
        # gp's bordered lattice stack against one _profile (dpotrf) per lam.
        rng = np.random.default_rng(23)
        X = rng.uniform(0.0, 1.0, size=(9, 2))
        y = rng.normal(size=9)
        dist = np.linalg.norm(X[:, None] - X[None], axis=-1)
        lams = np.exp(np.linspace(np.log(0.05), np.log(0.8), 12))
        q, logdet = _bordered_profile(dist, y, nu, lams, 1e-8)
        assert q.shape == logdet.shape == lams.shape
        for k, lam in enumerate(lams):
            fac, q1, logdet1 = _profile(dist, y, nu, lam, 1e-8)
            assert fac.jitter == 0.0
            assert q[k] == pytest.approx(q1, rel=1e-12)
            assert logdet[k] == pytest.approx(logdet1, rel=1e-12)


class TestHigherDimensions:
    def test_cov_matrix_d3_matches_elementwise(self):
        rng = np.random.default_rng(15)
        X = rng.uniform(0.0, 1.0, size=(6, 3))
        spec = KernelSpec(nu=1.5, lam=0.5, sigma2=1.2, nugget=1e-8)
        K = cov_matrix(X, spec)
        for i in range(6):
            for j in range(6):
                if i == j:
                    continue
                r = np.linalg.norm(X[i] - X[j])
                assert K[i, j] == pytest.approx(float(matern(r, spec)), rel=1e-13)


def pool_counts():
    return [get() for get, _ in kernels._openblas_pools()]


needs_openblas = pytest.mark.skipif(
    not kernels._openblas_pools(), reason="no OpenBLAS mapped into this process"
)


@pytest.fixture
def uneven_pools():
    """Pools at counts 2, 1, 2, ... (so a restore cannot pass by accident),
    put back as they were after the test."""
    pools = kernels._openblas_pools()
    saved = pool_counts()
    for i, (_, put) in enumerate(pools):
        put(2 - i % 2)
    yield pool_counts()
    for (_, put), k in zip(pools, saved):
        put(k)


@needs_openblas
class TestBlasThreads:
    def test_sets_every_pool_and_restores_after_return(self, uneven_pools):
        assert uneven_pools == [2 - i % 2 for i in range(len(uneven_pools))]
        for n in (1, 2):
            with kernels._blas_threads(n):
                assert pool_counts() == [n] * len(uneven_pools)
            assert pool_counts() == uneven_pools

    def test_restores_after_an_exception(self, uneven_pools):
        with pytest.raises(KeyError):
            with kernels._blas_threads(1):
                raise KeyError("inside")
        assert pool_counts() == uneven_pools

    def test_nested(self, uneven_pools):
        k = len(uneven_pools)
        with kernels._blas_threads(1):
            with kernels._blas_threads(2):
                assert pool_counts() == [2] * k
            assert pool_counts() == [1] * k
        assert pool_counts() == uneven_pools

    def test_as_a_decorator(self, uneven_pools):
        @kernels._blas_threads(1)
        def counts(fail):
            if fail:
                raise ValueError("inside")
            return pool_counts()

        assert counts(False) == [1] * len(uneven_pools)
        assert pool_counts() == uneven_pools
        with pytest.raises(ValueError):
            counts(True)
        assert pool_counts() == uneven_pools

    def test_no_op_without_pools(self, uneven_pools, monkeypatch):
        # As on a platform without OpenBLAS: nothing is read or set.
        pools = kernels._openblas_pools()
        monkeypatch.setattr(kernels, "_openblas_pools", lambda: ())
        with kernels._blas_threads(1):
            assert [get() for get, _ in pools] == uneven_pools
        assert [get() for get, _ in pools] == uneven_pools

    def test_overlapping_blocks_in_threads_restore_the_counts(self, uneven_pools):
        # More threads than cores, switching often: blocks open and close
        # out of order across threads, and after every round the counts
        # must be back where they were.
        def work(start):
            start.wait(timeout=60)
            for i in range(100):
                with kernels._blas_threads(1 + i % 2):
                    with kernels._blas_threads(2 - i % 2):
                        pass

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                start = threading.Barrier(3)
                threads = [threading.Thread(target=work, args=(start,)) for _ in range(3)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                assert not any(t.is_alive() for t in threads)
                assert pool_counts() == uneven_pools
        finally:
            sys.setswitchinterval(interval)


class TestCheckNu:
    """check_nu is the one smoothness rule, with one message everywhere."""

    MESSAGE = "nu=3.0 unsupported; choose one of (0.5, 1.5, 2.5, 3.5, inf)"

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_supported_values_pass(self, nu):
        assert kernels.check_nu(nu) is None
        assert kernels.check_nu(np.float64(nu)) is None

    @pytest.mark.parametrize("nu", [3.0, 0.0, -2.5, math.nan, "2.5", None])
    def test_other_values_rejected(self, nu):
        with pytest.raises(ValueError, match="unsupported; choose one of"):
            kernels.check_nu(nu)

    def test_every_caller_gives_the_same_message(self):
        from mlasce.bench import TOY3, ladder_for
        from mlasce.design import mice_run
        from mlasce.emulator import mlasce_run

        calls = [
            lambda: kernels.check_nu(3.0),
            lambda: KernelSpec(nu=3.0, lam=1.0, sigma2=1.0),
            lambda: matern_corr(np.ones(3), 3.0, 1.0),
            lambda: mice_run(lambda x: 0.0, (0.0, math.pi), 5, nu=3.0),
            lambda: mlasce_run(ladder_for(TOY3), 240.0, nu=[2.5, 3.0, 2.5], n_grid=21),
        ]
        for call in calls:
            with pytest.raises(ValueError) as err:
                call()
            assert str(err.value) == self.MESSAGE
