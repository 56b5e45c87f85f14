"""Dense oracles for the tests, built from matern_corr, cdist and numpy.

The library evaluates only cross-correlations and the profiled
likelihood; the dense matrices, power function, log likelihood and
known-norm targets the tests compare against are written out here.
"""

import math

import numpy as np
from scipy.spatial.distance import cdist

from mlasce import gp
from mlasce.emulator import LevelState, MultilevelEmulator
from mlasce.kernels import as_design, matern_corr


def matern(r, spec):
    """Matern covariance sigma2 * corr(r) at distance(s) r >= 0."""
    return spec.sigma2 * matern_corr(r, spec.nu, spec.lam)


def corr_matrix(X, spec):
    """Correlation matrix over the rows of X with 1 + nugget on the diagonal."""
    X = as_design(X)
    R = matern_corr(cdist(X, X), spec.nu, spec.lam)
    R[np.diag_indices_from(R)] += spec.nugget
    return R


def cov_matrix(X, spec):
    """Covariance matrix over the rows of X; diagonal is sigma2 * (1 + nugget)."""
    return spec.sigma2 * corr_matrix(X, spec)


def power(model, X):
    """Unit-variance predictive variance (the power function) at many points."""
    return gp.posterior_batch(model, X)[1] / model.spec.sigma2


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


def log_likelihood(X, y, spec):
    """Zero-mean Gaussian log likelihood of y under cov_matrix(X, spec),
    from the quadratic form and log determinant of gp._profile."""
    X, y = as_design(X), np.asarray(y, dtype=float)
    _, quad, logdet = gp._profile(cdist(X, X), y, spec.nu, spec.lam, spec.nugget)
    s2 = spec.sigma2
    return -0.5 * float(quad / s2 + logdet + y.size * math.log(2.0 * math.pi * s2))


def emulator_of(models, domain):
    """A multilevel emulator over fitted per-level models, with no run behind it."""
    levels = [LevelState(i + 1, m, cost_per_eval=1.0, weight=1.0) for i, m in enumerate(models)]
    return MultilevelEmulator(levels=levels, domain=domain, budget=0.0, spent=0.0)
