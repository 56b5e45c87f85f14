"""Kernel-module tests.

Closed-form values are checked against direct evaluation of the published
formulas written out independently inside the tests; matrices are checked
against element-wise kernel calls.
"""

import math

import numpy as np
import pytest

from mlasce.errors import FactorizationError
from mlasce.kernels import (
    SUPPORTED_NU,
    CholeskyFactor,
    KernelSpec,
    chol_factor,
    chol_stack,
    corr_matrix,
    cov_matrix,
    matern,
)


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

    def test_negative_distance_rejected(self):
        spec = KernelSpec(nu=1.5, lam=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            matern(-0.1, spec)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(nu=2.0, lam=1.0, sigma2=1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=1.0, sigma2=-1.0)
        with pytest.raises(ValueError):
            KernelSpec(nu=2.5, lam=1.0, sigma2=1.0, nugget=-1e-9)


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
        R = near_duplicate_gram(shift)
        ref = chol_factor(R, jitter0=1e-14)
        A = np.asfortranarray(R)
        fac = chol_factor(A, jitter0=1e-14, overwrite_a=True)
        assert (ref.jitter > 0.0) == (shift >= 0.0)
        assert fac.jitter == ref.jitter
        assert np.shares_memory(fac.lower, A)
        assert np.array_equal(fac.lower, ref.lower)

    @pytest.mark.parametrize(
        "A, max_jitter",
        [(np.array([[1.0, 2.0], [2.0, 1.0]]), 1e-4), (near_duplicate_gram(5e-10), 1e-10)],
    )
    def test_same_error_past_max_jitter(self, A, max_jitter):
        with pytest.raises(FactorizationError) as ref:
            chol_factor(A, max_jitter=max_jitter)
        with pytest.raises(FactorizationError) as got:
            chol_factor(np.asfortranarray(A), max_jitter=max_jitter, overwrite_a=True)
        assert got.value.jitter == ref.value.jitter
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize(
        "A", [np.ascontiguousarray(np.eye(3)), np.asfortranarray(np.eye(3, dtype=int))]
    )
    def test_rejects_non_fortran_float64(self, A):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            chol_factor(A, overwrite_a=True)


class TestCholStack:
    def test_matches_per_matrix_factor(self):
        rng = np.random.default_rng(11)
        M = rng.normal(size=(4, 6, 6))
        A = M @ M.transpose(0, 2, 1) + 6.0 * np.eye(6)
        b = rng.normal(size=(6, 1))
        stack = chol_stack(A)
        for k in range(4):
            fac = chol_factor(A[k])
            np.testing.assert_allclose(stack.lower[k], fac.lower, atol=1e-12)
            assert stack.logdet[k] == pytest.approx(fac.logdet, rel=1e-12)
            np.testing.assert_allclose(stack.solve_lower(b)[k], fac.solve_lower(b), atol=1e-12)

    def test_one_indefinite_matrix_fails_the_stack(self):
        A = np.stack([np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])])
        with pytest.raises(np.linalg.LinAlgError):
            chol_stack(A)


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
