"""GP-module tests.

Posterior quantities are verified against dense linear algebra written with
plain numpy (explicit inverse / determinant), fits against self-consistency
checks on data generated from a known kernel.
"""

import math

import numpy as np
import pytest

from mlasce import gp, kernels
from mlasce.errors import FactorizationError
from mlasce.gp import (
    GPModel,
    fit,
    lambda_bounds,
    log_marginal_likelihood,
    posterior_batch,
    power_batch,
    rkhs_norm_sq,
)
from mlasce.kernels import SUPPORTED_NU, KernelSpec, corr_matrix, cov_matrix, matern


def dense_posterior(X, y, spec, xq):
    """Oracle: explicit-inverse posterior mean and variance."""
    K = cov_matrix(X, spec)
    Kinv = np.linalg.inv(K)
    k = matern(np.abs(np.asarray(xq) - np.asarray(X).ravel()), spec)
    mean = k @ Kinv @ y
    var = spec.sigma2 - k @ Kinv @ k
    return mean, var


def kernel_combination(spec, Z, a):
    """delta(x) = sum_j a_j K(x, z_j) plus its exact squared RKHS norm."""
    Z = np.asarray(Z, dtype=float)
    a = np.asarray(a, dtype=float)
    Kzz = np.array([[matern(abs(zi - zj), spec) for zj in Z] for zi in Z])

    def delta(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.array([matern(np.abs(x - z), spec) for z in Z])
        return a @ vals

    norm_sq = float(a @ Kzz @ a)
    return delta, norm_sq


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=1.0)
        want = -0.5 * math.log(2.0 * math.pi)
        assert log_marginal_likelihood([[0.0]], [0.0], spec) == pytest.approx(want)

    def test_single_scalar_gaussian(self):
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=1.0)
        want = -2.0 - 0.5 * math.log(2.0 * math.pi)
        assert log_marginal_likelihood([[0.0]], [2.0], spec) == pytest.approx(want)

    def test_dense_algebra_oracle(self):
        rng = np.random.default_rng(21)
        X = rng.uniform(0.0, 2.0, size=(3, 1))
        y = rng.normal(size=3)
        spec = KernelSpec(nu=1.5, lam=0.7, sigma2=1.4, nugget=1e-8)
        K = cov_matrix(X, spec)
        want = (
            -0.5 * y @ np.linalg.inv(K) @ y
            - 0.5 * np.linalg.slogdet(K)[1]
            - 1.5 * math.log(2.0 * math.pi)
        )
        got = log_marginal_likelihood(X, y, spec)
        assert got == pytest.approx(want, rel=1e-10)


class TestFit:
    def test_single_point_degenerate_rule(self):
        model = fit([[0.5]], [3.0], nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        lo, hi = lambda_bounds(math.pi)
        assert model.spec.sigma2 == pytest.approx(9.0)
        assert model.spec.lam == pytest.approx(math.sqrt(lo * hi))

    def test_recovers_lengthscale_bracket(self):
        # Noise-free kernel data weakly identifies lam near interpolation;
        # a moderate nugget regularizes the likelihood enough to bracket it.
        true = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0)
        X = np.linspace(0.0, math.pi, 30)
        y = 2.0 * matern(np.abs(X - 1.1), true)
        model = fit(X, y, nu=2.5, nugget=1e-4, domain=(0.0, math.pi))
        assert 0.2 <= model.spec.lam <= 1.0

    def test_scale_equivariance(self):
        rng = np.random.default_rng(17)
        X = rng.uniform(0.0, math.pi, size=12)
        y = np.sin(X) + 0.1 * rng.normal(size=12)
        m1 = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        m2 = fit(X, 2.0 * y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        assert m2.spec.lam == pytest.approx(m1.spec.lam, rel=1e-12)
        assert m2.spec.sigma2 == pytest.approx(4.0 * m1.spec.sigma2, rel=1e-12)

    def test_hyperparameters_within_declared_box(self):
        rng = np.random.default_rng(30)
        X = rng.uniform(0.0, 1.0, size=9)
        y = rng.normal(size=9)
        model = fit(X, y, nu=1.5, nugget=1e-8, domain=(0.0, 1.0))
        lo, hi = lambda_bounds(1.0)
        assert lo <= model.spec.lam <= hi
        v = float(np.var(y))
        assert 1e-8 * v <= model.spec.sigma2 <= 1e4 * v

    def test_cached_factorization_consistent(self):
        rng = np.random.default_rng(8)
        X = rng.uniform(0.0, 2.0, size=7)
        y = rng.normal(size=7)
        model = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, 2.0))
        rebuilt = GPModel.from_spec(model.X, model.y, model.spec)
        np.testing.assert_allclose(rebuilt.alpha, model.alpha, atol=1e-10)


class TestPosterior:
    def test_interpolates_training_data(self):
        rng = np.random.default_rng(2)
        X = np.sort(rng.uniform(0.0, math.pi, size=8))
        y = np.sin(X)
        spec = KernelSpec(nu=2.5, lam=0.8, sigma2=1.0, nugget=1e-8)
        model = GPModel.from_spec(X, y, spec)
        mean, var = posterior_batch(model, X)
        assert np.all(np.abs(mean - y) <= 1e-6 * (1.0 + np.abs(y)))
        assert np.all(var >= 0.0)

    def test_prior_recovery_far_away(self):
        spec = KernelSpec(nu=1.5, lam=0.1, sigma2=2.5, nugget=0.0)
        model = GPModel.from_spec([[0.0]], [1.0], spec)
        mean, var = posterior_batch(model, [50.0])
        assert abs(mean[0]) < 1e-12
        assert var[0] == pytest.approx(2.5, rel=1e-12)

    def test_dense_algebra_oracle_many_queries(self):
        rng = np.random.default_rng(5)
        X = np.sort(rng.uniform(0.0, math.pi, size=5))
        y = rng.normal(size=5)
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.3, nugget=1e-10)
        model = GPModel.from_spec(X, y, spec)
        xq = np.linspace(0.0, math.pi, 100)
        mean, var = posterior_batch(model, xq)
        for q, m, v in zip(xq, mean, var):
            om, ov = dense_posterior(X, y, spec, q)
            assert m == pytest.approx(om, abs=1e-10)
            assert v == pytest.approx(max(ov, 0.0), abs=1e-10)

    def test_variance_bounds(self):
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, 1.0, size=10)
        y = rng.normal(size=10)
        spec = KernelSpec(nu=3.5, lam=0.3, sigma2=1.8, nugget=1e-8)
        model = GPModel.from_spec(X, y, spec)
        _, var = posterior_batch(model, np.linspace(-0.2, 1.2, 300))
        assert np.all(var >= 0.0)
        assert np.all(var <= spec.sigma2 * (1.0 + spec.nugget) + 1e-12)


class TestPowerFunction:
    def test_zero_at_training_points(self):
        X = np.array([0.1, 0.7, 1.9])
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=3.0, nugget=0.0)
        model = GPModel.from_spec(X, np.ones(3), spec)
        np.testing.assert_allclose(power_batch(model, X), 0.0, atol=1e-9)

    def test_near_one_far_from_single_point(self):
        spec = KernelSpec(nu=0.5, lam=0.05, sigma2=1.0)
        model = GPModel.from_spec([[0.0]], [0.3], spec)
        assert power_batch(model, [10.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_variance_ratio_oracle(self):
        rng = np.random.default_rng(23)
        X = rng.uniform(0.0, 2.0, size=6)
        spec = KernelSpec(nu=1.5, lam=0.4, sigma2=2.2, nugget=0.0)
        model = GPModel.from_spec(X, rng.normal(size=6), spec)
        xq = rng.uniform(0.0, 2.0, size=40)
        _, var = posterior_batch(model, xq)
        np.testing.assert_allclose(power_batch(model, xq), var / spec.sigma2, atol=1e-10)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(29)
        X = rng.uniform(0.0, 1.0, size=12)
        spec = KernelSpec(nu=math.inf, lam=0.3, sigma2=1.0, nugget=1e-8)
        model = GPModel.from_spec(X, rng.normal(size=12), spec)
        p = power_batch(model, np.linspace(-0.5, 1.5, 500))
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestSupPower:
    """The supremum of the power function over a finite probe set."""

    def test_zero_on_training_subset(self):
        X = np.array([0.2, 0.9, 1.4])
        model = GPModel.from_spec(X, np.zeros(3), KernelSpec(2.5, 0.7, 1.0))
        assert power_batch(model, X).max() == pytest.approx(0.0, abs=1e-9)

    def test_attained_at_farthest_point(self):
        model = GPModel.from_spec([[0.0]], [1.0], KernelSpec(2.5, 1.0, 1.0))
        probes = np.linspace(0.0, math.pi, 64)
        assert int(np.argmax(power_batch(model, probes))) == probes.size - 1

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0.0, 1.0, size=5)
        model = GPModel.from_spec(X, rng.normal(size=5), KernelSpec(1.5, 0.3, 1.0))
        probes = np.linspace(0.0, 1.0, 200)
        brute = max(float(power_batch(model, [p])[0]) for p in probes)
        assert power_batch(model, probes).max() == pytest.approx(brute, abs=1e-14)


class TestRkhsNorm:
    def test_zero_observations(self):
        model = GPModel.from_spec([[0.0], [1.0]], [0.0, 0.0], KernelSpec(2.5, 1.0, 1.0))
        assert rkhs_norm_sq(model) == 0.0

    def test_single_point_scalar(self):
        model = GPModel.from_spec([[0.0]], [3.0], KernelSpec(2.5, 1.0, 2.0, nugget=0.0))
        assert rkhs_norm_sq(model) == pytest.approx(9.0 / 2.0, rel=1e-12)

    def test_nondecreasing_under_nested_designs(self):
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.5, nugget=1e-10)
        rng = np.random.default_rng(40)
        Z = rng.uniform(0.0, math.pi, size=5)
        a = rng.normal(size=5)
        delta, norm_sq = kernel_combination(spec, Z, a)
        X5 = np.sort(rng.uniform(0.0, math.pi, size=5))
        X10 = np.sort(np.concatenate([X5, rng.uniform(0.0, math.pi, size=5)]))
        X20 = np.sort(np.concatenate([X10, rng.uniform(0.0, math.pi, size=10)]))
        norms = [
            rkhs_norm_sq(GPModel.from_spec(X, delta(X), spec)) for X in (X5, X10, X20)
        ]
        assert norms[0] <= norms[1] + 1e-9 <= norms[2] + 2e-9
        assert all(nv <= norm_sq + 1e-8 for nv in norms)


class TestErrorBoundAndConvergence:
    def test_pointwise_error_bound(self):
        # |m_N(x) - delta(x)| <= ||delta||_H * sqrt(var(x)) for an RKHS member.
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.2, nugget=0.0)
        rng = np.random.default_rng(50)
        Z = rng.uniform(0.0, math.pi, size=4)
        a = rng.normal(size=4)
        delta, norm_sq = kernel_combination(spec, Z, a)
        X = np.sort(rng.uniform(0.0, math.pi, size=9))
        model = GPModel.from_spec(X, delta(X), spec)
        probes = np.linspace(0.0, math.pi, 400)
        mean, var = posterior_batch(model, probes)
        err = np.abs(mean - delta(probes))
        bound = math.sqrt(norm_sq) * np.sqrt(var)
        assert np.all(err <= bound + 1e-12)

    def test_monotone_convergence_on_nested_grids(self):
        spec = KernelSpec(nu=2.5, lam=0.7, sigma2=1.0, nugget=0.0)
        rng = np.random.default_rng(51)
        Z = rng.uniform(0.3, math.pi - 0.3, size=4)
        a = rng.normal(size=4)
        delta, _ = kernel_combination(spec, Z, a)
        probes = np.linspace(0.0, math.pi, 600)
        sup_errs, sup_pows = [], []
        for n in (5, 9, 17, 33):  # dyadic refinement keeps the designs nested
            X = np.linspace(0.0, math.pi, n)
            model = GPModel.from_spec(X, delta(X), spec)
            mean, _ = posterior_batch(model, probes)
            sup_errs.append(float(np.abs(mean - delta(probes)).max()))
            sup_pows.append(float(power_batch(model, probes).max()))
        assert all(b <= a + 1e-9 for a, b in zip(sup_errs, sup_errs[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(sup_pows, sup_pows[1:]))


class TestFitEdges:
    def test_duplicate_points_survive_via_jitter(self):
        X = np.array([0.3, 0.3, 0.9, 1.4])
        y = np.array([1.0, 1.0, 0.5, -0.2])
        model = fit(X, y, nu=1.5, nugget=1e-8, domain=(0.0, 2.0))
        assert np.isfinite(rkhs_norm_sq(model))

    def test_constant_observations(self):
        X = np.linspace(0.0, 1.0, 6)
        y = np.full(6, 2.5)
        model = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, 1.0))
        mean, _ = posterior_batch(model, [0.5])
        assert mean[0] == pytest.approx(2.5, rel=1e-4)


class TestFitDeterminism:
    def test_repeated_fits_bitwise_identical(self):
        rng = np.random.default_rng(77)
        X = rng.uniform(0.0, math.pi, size=14)
        y = np.sin(X) + 0.05 * rng.normal(size=14)
        a = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        b = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.alpha, b.alpha)


def profiled_nll(X, y, nu, lam, nugget):
    """Oracle: negative log likelihood at lam with sigma2 at its clamped optimum."""
    R = corr_matrix(X, KernelSpec(nu, lam, 1.0, nugget))
    v = float(np.var(y)) or 1.0
    sigma2 = min(max(float(y @ np.linalg.solve(R, y)) / len(y), 1e-8 * v), 1e4 * v)
    return -log_marginal_likelihood(X, y, KernelSpec(nu, lam, sigma2, nugget))


class TestFitSearch:
    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    @pytest.mark.parametrize("n", [2, 5, 15, 30])
    def test_no_worse_than_dense_scan(self, nu, n):
        rng = np.random.default_rng(100 + n)
        X = rng.uniform(0.0, math.pi, size=n)
        y = np.sin(2.0 * X) + 0.1 * rng.normal(size=n)
        model = fit(X, y, nu=nu, nugget=1e-8, domain=(0.0, math.pi))
        lo, hi = lambda_bounds(math.pi)
        scan = []
        for lam in np.exp(np.linspace(math.log(lo), math.log(hi), 400)):
            try:
                scan.append(profiled_nll(X, y, nu, lam, 1e-8))
            except FactorizationError:  # not factorizable here even with jitter
                continue
        got = -log_marginal_likelihood(X, y, model.spec)
        assert got <= min(scan) + 1e-6

    def test_stacked_cholesky_fallback(self, monkeypatch):
        failures, chol_stack = [], gp.chol_stack

        def spy(A):
            try:
                return chol_stack(A)
            except np.linalg.LinAlgError:
                failures.append(A.shape)
                raise

        monkeypatch.setattr(gp, "chol_stack", spy)
        X = np.linspace(0.0, 1.0, 12)
        y = np.cos(3.0 * X)
        a = fit(X, y, nu=math.inf, nugget=0.0, domain=(0.0, 1.0))
        b = fit(X, y, nu=math.inf, nugget=0.0, domain=(0.0, 1.0))
        assert failures
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert np.all(np.isfinite(a.alpha))

    def test_without_batched_triangular_solve(self, monkeypatch):
        # Older scipy releases reject a stacked matrix in solve_triangular.
        solve_triangular = kernels.solve_triangular

        def two_d_only(a, b, **kwargs):
            if np.ndim(a) != 2:
                raise ValueError("expected square matrix")
            return solve_triangular(a, b, **kwargs)

        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, math.pi, size=8)
        y = np.sin(X) + 0.1 * rng.normal(size=8)
        batched = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        monkeypatch.setattr(kernels, "solve_triangular", two_d_only)
        sliced = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        assert sliced.spec == batched.spec
        np.testing.assert_array_equal(sliced.alpha, batched.alpha)

    def test_flat_likelihood_takes_first_lattice_point(self):
        model = fit([0.0, math.pi], [1.0, -1.0], nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        lo, hi = lambda_bounds(math.pi)
        first = math.exp(math.log(lo) + (math.log(hi) - math.log(lo)) / 9.0)
        assert model.spec.lam == pytest.approx(first, rel=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 2.5])
    def test_white_noise_lands_on_lower_bound(self, nu):
        # The likelihood of iid noise keeps falling as lam shrinks, so the
        # optimum is the box bound itself, not a Brent point just inside it.
        X = np.linspace(0.0, math.pi, 25)
        y = np.random.default_rng(3).normal(size=25)
        model = fit(X, y, nu=nu, nugget=1e-8, domain=(0.0, math.pi))
        assert model.spec.lam == pytest.approx(lambda_bounds(math.pi)[0], rel=1e-12)

    def test_chunked_lattice_matches_single_stack(self, monkeypatch):
        rng = np.random.default_rng(12)
        X = rng.uniform(0.0, math.pi, size=10)
        y = np.sin(X) + 0.1 * rng.normal(size=10)
        whole = fit(X, y, nu=1.5, nugget=1e-8, domain=(0.0, math.pi))
        monkeypatch.setattr(gp, "_STACK_ENTRIES", 1)
        chunked = fit(X, y, nu=1.5, nugget=1e-8, domain=(0.0, math.pi))
        assert chunked.spec == whole.spec


class TestNonFiniteObservations:
    def test_fit_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit([0.0, 1.0, 2.0], [0.5, math.nan, 1.0], nu=2.5, nugget=1e-8)

    def test_from_spec_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            GPModel.from_spec([0.0, 1.0], [math.nan, 1.0], KernelSpec(2.5, 1.0, 1.0))
