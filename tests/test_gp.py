"""GP-module tests.

Posterior quantities are verified against dense linear algebra written with
plain numpy (explicit inverse / determinant), fits against self-consistency
checks on data generated from a known kernel.
"""

import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from mlasce import gp, kernels
from mlasce.errors import FactorizationError
from mlasce.gp import GPModel, fit, lambda_bounds, posterior_batch, rkhs_norm_sq
from mlasce.kernels import SUPPORTED_NU, KernelSpec
from oracles import corr_matrix, cov_matrix, kernel_combination, log_likelihood, matern, power


def dense_posterior(X, y, spec, xq):
    """Oracle: explicit-inverse posterior mean and variance."""
    K = cov_matrix(X, spec)
    Kinv = np.linalg.inv(K)
    k = matern(np.abs(np.asarray(xq) - np.asarray(X).ravel()), spec)
    mean = k @ Kinv @ y
    var = spec.sigma2 - k @ Kinv @ k
    return mean, var


class TestLogMarginalLikelihood:
    def test_single_zero_observation(self):
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=1.0)
        want = -0.5 * math.log(2.0 * math.pi)
        assert log_likelihood([[0.0]], [0.0], spec) == pytest.approx(want)

    def test_single_scalar_gaussian(self):
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=1.0)
        want = -2.0 - 0.5 * math.log(2.0 * math.pi)
        assert log_likelihood([[0.0]], [2.0], spec) == pytest.approx(want)

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
        got = log_likelihood(X, y, spec)
        assert got == pytest.approx(want, rel=1e-10)

    def test_zero_variance_rejected_like_from_spec(self):
        # Rejected up front, not after a divide-by-zero warning.
        spec = KernelSpec(nu=2.5, lam=1.0, sigma2=0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="requires sigma2 > 0"):
                GPModel.from_spec([[0.0], [1.0]], [0.5, 1.0], spec)


class TestFit:
    @pytest.mark.parametrize("n", [1, 5])
    @pytest.mark.parametrize("nugget", [math.nan, math.inf, -1.0])
    def test_bad_nugget_rejected_before_the_search(self, monkeypatch, nugget, n):
        calls = []
        profile = gp._profile
        monkeypatch.setattr(gp, "_profile", lambda *a: calls.append(a) or profile(*a))
        X = np.linspace(0.0, 1.0, n)
        with pytest.raises(ValueError, match="nugget must be finite and >= 0"):
            fit(X, np.sin(X), nu=2.5, nugget=nugget)
        assert calls == []

    @pytest.mark.parametrize("nugget", [1.0, 1e6])
    def test_nugget_of_one_or_more_rejected_before_the_search(self, monkeypatch, nugget):
        calls = []
        profile = gp._profile
        monkeypatch.setattr(gp, "_profile", lambda *a: calls.append(a) or profile(*a))
        X = np.linspace(0.0, 1.0, 5)
        with pytest.raises(ValueError, match="nugget must be < 1"):
            fit(X, np.sin(X), nu=2.5, nugget=nugget)
        assert calls == []

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

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_mean_only_is_bitwise_the_full_mean(self, nu):
        rng = np.random.default_rng(17)
        X = rng.uniform(0.0, math.pi, size=(12, 1))
        model = fit(X, np.sin(3.0 * X[:, 0]), nu=nu, nugget=1e-8)
        xq = np.linspace(0.0, math.pi, 2001)
        mean, var = posterior_batch(model, xq)
        mean_only, none = posterior_batch(model, xq, var=False)
        assert none is None and var is not None
        assert np.array_equal(mean_only.view(np.int64), mean.view(np.int64))

    def test_mean_only_peak_memory_is_one_cross_matrix(self):
        # The L2 error's 10,001 x 74 cross-correlation is filled in
        # cache-sized row blocks, so numpy's peak stays near that one matrix.
        N, n = 10001, 74
        X = np.sort(np.random.default_rng(23).uniform(0.0, math.pi, size=n))
        spec = KernelSpec(nu=2.5, lam=0.3, sigma2=1.0, nugget=1e-8)
        model = GPModel.from_spec(X, np.sin(X), spec)
        xq = np.linspace(0.0, math.pi, N)
        posterior_batch(model, xq, var=False)
        tracemalloc.start()
        try:
            posterior_batch(model, xq, var=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * N * n * 8

    @pytest.mark.parametrize("n", [50, 55, 65, 74])
    def test_l2_means_do_not_depend_on_the_blas_thread_count(self, n):
        # At these sizes the full-matrix r @ alpha at the L2 error's 10,001
        # points rounds differently on 1 and 2 OpenBLAS threads, so
        # posterior_batch runs on one thread whatever the caller's count.
        X = np.linspace(0.0, math.pi, n)
        y = np.sin(3.0 * X) + 0.3 * np.cos(7.0 * X)
        model = fit(X, y, nu=2.5, nugget=1e-8, domain=(0.0, math.pi))
        xq = np.linspace(0.0, math.pi, 10001)
        means = []
        for threads in (1, 2):
            with kernels._blas_threads(threads):
                means.append(posterior_batch(model, xq, var=False)[0])
        assert means[0].tobytes() == means[1].tobytes()


class TestPowerFunction:
    def test_zero_at_training_points(self):
        X = np.array([0.1, 0.7, 1.9])
        spec = KernelSpec(nu=2.5, lam=0.5, sigma2=3.0, nugget=0.0)
        model = GPModel.from_spec(X, np.ones(3), spec)
        np.testing.assert_allclose(power(model, X), 0.0, atol=1e-9)

    def test_near_one_far_from_single_point(self):
        spec = KernelSpec(nu=0.5, lam=0.05, sigma2=1.0)
        model = GPModel.from_spec([[0.0]], [0.3], spec)
        assert power(model, [10.0])[0] == pytest.approx(1.0, abs=1e-12)

    def test_in_unit_interval(self):
        rng = np.random.default_rng(29)
        X = rng.uniform(0.0, 1.0, size=12)
        spec = KernelSpec(nu=math.inf, lam=0.3, sigma2=1.0, nugget=1e-8)
        model = GPModel.from_spec(X, rng.normal(size=12), spec)
        p = power(model, np.linspace(-0.5, 1.5, 500))
        assert np.all(p >= 0.0) and np.all(p <= 1.0)


class TestSupPower:
    """The supremum of the power function over a finite probe set."""

    def test_zero_on_training_subset(self):
        X = np.array([0.2, 0.9, 1.4])
        model = GPModel.from_spec(X, np.zeros(3), KernelSpec(2.5, 0.7, 1.0))
        assert power(model, X).max() == pytest.approx(0.0, abs=1e-9)

    def test_attained_at_farthest_point(self):
        model = GPModel.from_spec([[0.0]], [1.0], KernelSpec(2.5, 1.0, 1.0))
        probes = np.linspace(0.0, math.pi, 64)
        assert int(np.argmax(power(model, probes))) == probes.size - 1

    def test_matches_brute_force_loop(self):
        rng = np.random.default_rng(31)
        X = rng.uniform(0.0, 1.0, size=5)
        model = GPModel.from_spec(X, rng.normal(size=5), KernelSpec(1.5, 0.3, 1.0))
        probes = np.linspace(0.0, 1.0, 200)
        brute = max(float(power(model, [p])[0]) for p in probes)
        assert power(model, probes).max() == pytest.approx(brute, abs=1e-14)


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
            sup_pows.append(float(power(model, probes).max()))
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


def _pinned_design(n, d):
    """|n| uniform points in [0, pi]^d and noisy sines; n < 0 puts the
    second point 1e-9 from the first."""
    rng = np.random.default_rng(2500 + 10 * n + d)
    X = rng.uniform(0.0, math.pi, size=(abs(n), d))
    if n < 0:
        X[1] = X[0] + 1e-9
    y = np.sin(2.0 * X).sum(axis=1) + 0.1 * rng.normal(size=abs(n))
    return X, y


# (n, d, nu, nugget, lam, sigma2, sha256(alpha bytes)[:16], jitter) of fits
# recorded from the plain search (a copied R per lattice point and a fresh
# lattice per fit). It covers the one-point fit, the bordered stack (n <= 32)
# and 36 per-point lattice evaluations (n > 32); at nu = inf and nugget 0
# the jitter retries, and with a near-duplicate point a jittered final factor.
_PINNED_FITS = [
    (1, 1, 0.5, 1e-08, 0.9934588265796102, 0.5490252093041481, 'ea338e60a538f7d4', 0.0),
    (1, 1, 1.5, 1e-08, 0.9934588265796102, 0.5490252093041481, 'ea338e60a538f7d4', 0.0),
    (1, 1, 2.5, 1e-08, 0.9934588265796102, 0.5490252093041481, 'ea338e60a538f7d4', 0.0),
    (1, 1, 3.5, 1e-08, 0.9934588265796102, 0.5490252093041481, 'ea338e60a538f7d4', 0.0),
    (1, 1, math.inf, 1e-08, 0.9934588265796102, 0.5490252093041481, 'ea338e60a538f7d4', 0.0),
    (1, 1, math.inf, 0.0, 0.9934588265796102, 0.5490252093041481, '1b56c836b99395eb', 0.0),
    (2, 1, 0.5, 1e-08, 0.06768356194843171, 0.43372633101711955, 'd65f0922a279b912', 0.0),
    (2, 1, 1.5, 1e-08, 0.06768356194843171, 0.433726331017084, '4516135e51b29995', 0.0),
    (2, 1, 2.5, 1e-08, 0.06768356194843171, 0.433726331017084, '4516135e51b29995', 0.0),
    (2, 1, 3.5, 1e-08, 0.06768356194843171, 0.433726331017084, '4516135e51b29995', 0.0),
    (2, 1, math.inf, 1e-08, 0.06768356194843171, 0.433726331017084, '4516135e51b29995', 0.0),
    (2, 1, math.inf, 0.0, 0.06768356194843171, 0.43372633535434735, 'df7ac7019b027ad1', 0.0),
    (5, 1, 0.5, 1e-08, 0.6854785120474175, 0.35199759239247996, '5c59cfa88a92c945', 0.0),
    (5, 1, 1.5, 1e-08, 0.14813132029734072, 0.44695405953673156, '43f0381ad1502b3e', 0.0),
    (5, 1, 2.5, 1e-08, 0.10240168017917728, 0.4315017491966766, '8ccbc7ed441f6d15', 0.0),
    (5, 1, 3.5, 1e-08, 0.09234863189499053, 0.42849173387086487, 'c87b59a13d6057fd', 0.0),
    (5, 1, math.inf, 1e-08, 0.10945086560719892, 0.4265390755977168, 'dab8b34a8c695866', 0.0),
    (5, 1, math.inf, 0.0, 0.10945085091764671, 0.426539079849678, '009fbe475e67d7b9', 0.0),
    (8, 1, 0.5, 1e-08, 0.6734284624853321, 0.40506360924778356, '2c444ae38486a039', 0.0),
    (8, 1, 1.5, 1e-08, 0.057917510236248575, 0.4940799535947316, '2ca239520be62bab', 0.0),
    (8, 1, 2.5, 1e-08, 0.03909046756451799, 0.5223468674379473, '1269932f7b1af8b7', 0.0),
    (8, 1, 3.5, 1e-08, 0.03373490735253856, 0.5307539811545192, 'd69f072a6651ba2f', 0.0),
    (8, 1, math.inf, 1e-08, 0.03430900168963502, 0.5286950554724555, '03173d0aa4dccd8e', 0.0),
    (8, 1, math.inf, 0.0, 0.03430897872105201, 0.5286949289351427, 'c593eb02ada8f0bb', 0.0),
    (20, 1, 0.5, 1e-08, 0.9389091581459568, 0.4027346530588387, '89c1b4e848143214', 0.0),
    (20, 1, 1.5, 1e-08, 0.0861018350232317, 0.40546300716373, '91955752a74db5d1', 0.0),
    (20, 1, 2.5, 1e-08, 0.051217078732084746, 0.4245570536260118, '40c953dc8550e042', 0.0),
    (20, 1, 3.5, 1e-08, 0.042239536965802287, 0.43516122323328926, '8801d944124f7664', 0.0),
    (20, 1, math.inf, 1e-08, 0.041377482664623454, 0.4587425956241292, '329f27ceece82574', 0.0),
    (20, 1, math.inf, 0.0, 0.04137743449849176, 0.45874247738723495, '8afab4d1f0c0c488', 0.0),
    (33, 1, 0.5, 1e-08, 1.314050048495834, 0.3739145623365133, 'c7c5df5d27576071', 0.0),
    (33, 1, 1.5, 1e-08, 0.14907114135183194, 0.3854394999043298, 'd4429f45a92ff20b', 0.0),
    (33, 1, 2.5, 1e-08, 0.09132897928220901, 0.37732209323929755, '92491ea608d91459', 0.0),
    (33, 1, 3.5, 1e-08, 0.07325869387837229, 0.3737993892462996, '33f9d23cdbc59c12', 0.0),
    (33, 1, math.inf, 1e-08, 0.06649625845694064, 0.37773165528115443, '0eb7941a0befc38d', 0.0),
    (33, 1, math.inf, 0.0, 0.06649563903430636, 0.37772997163799227, 'a2a6143d6fe0df00', 0.0),
    (40, 1, 0.5, 1e-08, 0.531752075000682, 0.5737652672221112, '48ca1b6337705aeb', 0.0),
    (40, 1, 1.5, 1e-08, 0.03141592653589794, 1.1852029437156437, 'a5cbc53202e91dda', 0.0),
    (40, 1, 2.5, 1e-08, 0.03141592653589794, 3.0607941601163757, 'fc01df45aea6057c', 0.0),
    (40, 1, 3.5, 1e-08, 0.03141592653589794, 5.536050806275307, 'd5a4b8e79be0e277', 0.0),
    (40, 1, math.inf, 1e-08, 0.03141592653589794, 5.814778135325222, '5279004b4c246651', 0.0),
    (40, 1, math.inf, 0.0, 0.03141592653589794, 5.815666280215652, '6dd5155c3c1c4c27', 0.0),
    (8, 2, 2.5, 1e-08, 1.7717326237873172, 2.5791281300279145, 'ed7498c8af6b1b10', 0.0),
    (40, 2, 2.5, 1e-08, 0.7142982762431376, 0.8399962282847635, '2fbb09d4ff688496', 0.0),
    (-8, 1, math.inf, 0.0, 1.0886250268358053, 2826.5668898641734, '36d2ac41794c2264', 1e-11),
    (-40, 1, math.inf, 0.0, 0.08003229371576806, 4699.658867834871, '81535bb4c530feae', 1e-11),
]


class TestFitBits:
    @pytest.mark.parametrize(
        "n, d, nu, nugget, lam, sigma2, digest, jitter", _PINNED_FITS,
        ids=[f"n{c[0]}-d{c[1]}-nu{c[2]}-nugget{c[3]}" for c in _PINNED_FITS],
    )
    def test_fit_is_bitwise_pinned(self, n, d, nu, nugget, lam, sigma2, digest, jitter):
        X, y = _pinned_design(n, d)
        model = fit(X, y, nu=nu, nugget=nugget, domain=([0.0] * d, [math.pi] * d))
        assert repr(model.spec.lam) == repr(lam)
        assert repr(model.spec.sigma2) == repr(sigma2)
        assert hashlib.sha256(model.alpha.tobytes()).hexdigest()[:16] == digest
        assert model.chol.jitter == jitter


def _copying_profile(dist, y, nu, lam, nugget):
    """Reference for _profile: a C-ordered R, factorised by chol_factor's
    copying route (a fresh copy plus jitter per retry)."""
    R = kernels.matern_corr(dist, nu, lam)
    R.flat[::R.shape[0] + 1] += nugget
    fac = kernels.chol_factor(R, jitter0=nugget)
    z = fac.solve_lower(y)
    return fac, np.einsum("i,i->", z, z), fac.logdet


class TestSearchRoutes:
    @pytest.mark.parametrize("nu, nugget", [(nu, 1e-8) for nu in SUPPORTED_NU] + [(math.inf, 0.0)])
    @pytest.mark.parametrize("n, d, near", [(1, 1, False), (7, 1, False), (12, 2, False),
                                            (9, 1, True), (30, 2, True)])
    def test_in_place_profile_matches_copying_route(self, n, d, near, nu, nugget):
        rng = np.random.default_rng(31 * n + d)
        X = rng.uniform(0.0, 2.0, size=(n, d))
        if near:
            X[1] = X[0] + 1e-9
        dist, y = kernels.distances(X, X), rng.normal(size=n)
        jitters = []
        for lam in (0.03, 0.4, 5.0, 60.0):
            want = _copying_profile(dist, y, nu, lam, nugget)
            fac, q, logdet = gp._profile(dist, y, nu, lam, nugget)
            assert fac.jitter == want[0].jitter
            assert np.tril(fac.lower).tobytes() == want[0].lower.tobytes()
            assert repr(q) == repr(want[1]) and repr(logdet) == repr(want[2])
            jitters.append(fac.jitter)
        if near and nugget == 0.0:  # a point 1e-9 from another: the retries run
            assert any(jitters)

    def test_lattice_is_read_only_and_cached_per_box(self):
        grid, lams = gp._lattice(-3.0, 2.0)
        assert not grid.flags.writeable and not lams.flags.writeable
        with pytest.raises(ValueError):
            lams[0] = 1.0
        assert gp._lattice(-3.0, 2.0)[1] is lams
        np.testing.assert_array_equal(lams, np.exp(grid))

    def test_two_domains_get_two_lattices(self, monkeypatch):
        seen = []
        stack = gp._bordered_profile
        monkeypatch.setattr(
            gp, "_bordered_profile", lambda *a: seen.append(a[3]) or stack(*a)
        )
        X = np.linspace(0.0, 1.0, 6)
        for hi in (1.0, 2.0, 1.0):
            fit(X, np.sin(3.0 * X), nu=2.5, nugget=1e-8, domain=(0.0, hi))
        short, wide, again = seen
        assert again is short
        assert not np.array_equal(short, wide)
        np.testing.assert_allclose(wide, 2.0 * short, rtol=1e-13)
        lo, hi = lambda_bounds(2.0)
        assert lo < wide[0] < wide[-1] < hi

def profiled_nll(X, y, nu, lam, nugget):
    """Oracle: negative log likelihood at lam with sigma2 at its clamped optimum."""
    R = corr_matrix(X, KernelSpec(nu, lam, 1.0, nugget))
    v = float(np.var(y)) or 1.0
    sigma2 = min(max(float(y @ np.linalg.solve(R, y)) / len(y), 1e-8 * v), 1e4 * v)
    return -log_likelihood(X, y, KernelSpec(nu, lam, sigma2, nugget))


def _search_events(monkeypatch):
    """A list that records, in order, gp.fit's bordered lattice calls
    ("stack", lams, result), its _profile calls ("profile", lam) and the
    start of Brent ("brent",)."""
    events = []
    stack, profile, brent = gp._bordered_profile, gp._profile, gp._brent_bounded

    def stack_spy(dist, y, nu, lams, nugget):
        out = stack(dist, y, nu, lams, nugget)
        events.append(("stack", lams, out))
        return out

    def profile_spy(dist, y, nu, lam, nugget):
        events.append(("profile", lam))
        return profile(dist, y, nu, lam, nugget)

    monkeypatch.setattr(gp, "_bordered_profile", stack_spy)
    monkeypatch.setattr(gp, "_profile", profile_spy)
    monkeypatch.setattr(gp, "_brent_bounded", lambda *a: events.append(("brent",)) or brent(*a))
    return events


def _kinds_before_brent(events):
    """The kinds of the events before Brent's start; a failed stack is "stack failed"."""
    head = events[:events.index(("brent",))]
    return [e[0] + (" failed" if e[0] == "stack" and e[2] is None else "") for e in head]


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
        got = -log_likelihood(X, y, model.spec)
        assert got <= min(scan) + 1e-6

    def test_stacked_cholesky_fallback(self, monkeypatch):
        # At nu = inf and nugget 0 some bordered matrix of this design is not
        # positive definite, so all 36 lattice points go through _profile,
        # then the winner once more, and the fit still reruns bitwise.
        events = _search_events(monkeypatch)
        X = np.linspace(0.0, 1.0, 12)
        y = np.cos(3.0 * X)
        a = fit(X, y, nu=math.inf, nugget=0.0, domain=(0.0, 1.0))
        assert _kinds_before_brent(events) == ["stack failed"] + ["profile"] * 37
        b = fit(X, y, nu=math.inf, nugget=0.0, domain=(0.0, 1.0))
        assert a.spec == b.spec
        np.testing.assert_array_equal(a.alpha, b.alpha)
        assert np.all(np.isfinite(a.alpha))

    def test_stacked_lattice_matches_per_slice(self, monkeypatch):
        # Inside fit, each bordered factor's last row is the triangular
        # solve of ys with its leading block, and scoring every lattice
        # point through _profile instead gives the same fitted spec and
        # alpha. (The slices are held fixed because at nugget 1e-8 the
        # lattice ends reach condition numbers near 1e9, where numpy's and
        # the scalar Cholesky round apart by up to ~1e-9 relative in q.)
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, math.pi, size=8)
        y = np.sin(X) + 0.1 * rng.normal(size=8)
        cholesky, stacks = np.linalg.cholesky, []
        monkeypatch.setattr(
            np.linalg, "cholesky", lambda B: stacks.append((B.copy(), cholesky(B))) or stacks[-1][1]
        )
        for nu in SUPPORTED_NU:
            stacks.clear()
            bordered = fit(X, y, nu=nu, nugget=1e-8, domain=(0.0, math.pi))
            (B, L), = stacks
            ys = B[0, -1, :-1]
            for Lk in L:
                z = kernels.CholeskyFactor(np.asfortranarray(Lk[:-1, :-1])).solve_lower(ys)
                assert Lk[-1, :-1] @ Lk[-1, :-1] == pytest.approx(z @ z, rel=1e-12)
            with monkeypatch.context() as m:
                m.setattr(gp, "_BORDERED_N", 0)
                per_point = fit(X, y, nu=nu, nugget=1e-8, domain=(0.0, math.pi))
            assert per_point.spec == bordered.spec
            np.testing.assert_array_equal(per_point.alpha, bordered.alpha)

    def test_lattice_winner_rescored_before_brent(self, monkeypatch):
        # The bordered stack picks the winner; _profile rescores it before
        # Brent runs, so _FTOL compares values of one rounding route.
        events = _search_events(monkeypatch)
        rng = np.random.default_rng(13)
        X = rng.uniform(0.0, math.pi, size=8)
        fit(X, np.sin(X) + 0.1 * rng.normal(size=8), nu=2.5, nugget=1e-8,
            domain=(0.0, math.pi))
        (_, lams, out), (_, lam), brent = events[:3]
        assert brent == ("brent",)
        k = int(np.argmin(gp._nll(*out, 8)))
        assert lam == pytest.approx(lams[k], rel=1e-15)

    @pytest.mark.parametrize("n", [32, 33])
    def test_bordered_route_up_to_32_points(self, monkeypatch, n):
        events = _search_events(monkeypatch)
        X = np.linspace(0.0, math.pi, n)
        fit(X, np.sin(2.0 * X), nu=2.5, nugget=1e-4, domain=(0.0, math.pi))
        assert gp._BORDERED_N == 32
        if n <= 32:
            assert _kinds_before_brent(events) == ["stack", "profile"]
        else:
            assert _kinds_before_brent(events) == ["profile"] * 37

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


def _brent_pair(f, lo, hi, xatol=gp._XATOL, brent=gp._brent_bounded):
    """(scipy's bounded minimize_scalar, gp._brent_bounded) on f: each side's
    evaluation points and its (x, f(x))."""
    sides = []
    for run in (
        lambda g: minimize_scalar(g, bounds=(lo, hi), method="bounded",
                                  options={"xatol": xatol}),
        lambda g: brent(g, lo, hi, xatol),
    ):
        xs = []
        out = run(lambda x: (xs.append(float(x)), f(x))[1])
        x, fx = (out.x, out.fun) if hasattr(out, "x") else out
        sides.append((xs, float(x), float(fx)))
    return sides


def _assert_same_bits(sides):
    (xs_a, x_a, f_a), (xs_b, x_b, f_b) = sides
    as_bits = lambda v: np.array(v, dtype=float).view(np.int64).tolist()  # noqa: E731
    assert as_bits(xs_a) == as_bits(xs_b)
    assert as_bits([x_a, f_a]) == as_bits([x_b, f_b])


def _noise(x):
    """A deterministic white-noise function of x's bits."""
    return np.random.default_rng(int(np.float64(x).view(np.int64)) & 0xFFFFFFFF).normal()


class TestBrentBounded:
    """gp._brent_bounded is scipy's bounded Brent, evaluation for evaluation."""

    def test_random_smooth_functions(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = rng.normal(size=4)
            lo, hi = sorted(rng.normal(scale=3.0, size=2))
            _assert_same_bits(_brent_pair(
                lambda x, c=c: c[0] * np.sin(c[1] * x) + c[2] * x * x + c[3] * x, lo, hi
            ))

    @pytest.mark.parametrize("f", [
        lambda x: 1.0,
        _noise,
        lambda x: math.inf if x > 0.5 else (x - 0.2) ** 2,
        lambda x: np.floor(8.0 * x) / 8.0,
    ], ids=["flat", "noisy", "inf-right", "steps"])
    def test_flat_noisy_and_infinite(self, f):
        with np.errstate(invalid="ignore"):
            _assert_same_bits(_brent_pair(f, 0.0, 1.0))

    def test_reaches_maxfun(self):
        # At x near 0 the tolerance is xatol / 3, so a tiny xatol keeps the
        # interval shrinking until the evaluation cap.
        sides = _brent_pair(abs, -1.0, 1.3, xatol=1e-300)
        _assert_same_bits(sides)
        assert len(sides[1][0]) == gp._MAXFUN == 500

    @pytest.mark.parametrize("nu", SUPPORTED_NU)
    def test_fit_objective(self, monkeypatch, nu):
        calls, brent = [], gp._brent_bounded

        def spy(f, lo, hi, xatol):
            calls.append(_brent_pair(f, lo, hi, xatol))
            return brent(f, lo, hi, xatol)

        monkeypatch.setattr(gp, "_brent_bounded", spy)
        rng = np.random.default_rng(17)
        for n in (3, 8, 20):
            X = rng.uniform(0.0, math.pi, size=n)
            fit(X, np.sin(2.0 * X) + 0.05 * rng.normal(size=n), nu=nu, nugget=1e-8,
                domain=(0.0, math.pi))
        assert len(calls) == 3
        for sides in calls:
            _assert_same_bits(sides)


class TestNonFiniteObservations:
    def test_fit_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            fit([0.0, 1.0, 2.0], [0.5, math.nan, 1.0], nu=2.5, nugget=1e-8)

    def test_from_spec_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            GPModel.from_spec([0.0, 1.0], [math.nan, 1.0], KernelSpec(2.5, 1.0, 1.0))
