"""Matern covariance kernels, covariance matrices and guarded Cholesky solves.

Only the half-integer smoothness values with closed forms (1/2, 3/2, 5/2,
7/2) plus the Gaussian limit are supported; these avoid Bessel evaluation
entirely and cover every configuration used elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, solve_triangular
from scipy.spatial.distance import cdist

from .errors import FactorizationError

SUPPORTED_NU = (0.5, 1.5, 2.5, 3.5, math.inf)

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT7 = math.sqrt(7.0)

# Jitter escalation: floor for specs with zero nugget, absolute cap.
_JITTER_FLOOR = 1e-12
_JITTER_MAX = 1e-4


@dataclass(frozen=True)
class KernelSpec:
    """Matern kernel parameters.

    nu      smoothness, one of SUPPORTED_NU
    lam     correlation length, > 0 (input units)
    sigma2  marginal variance, >= 0 (output units squared)
    nugget  relative diagonal jitter, >= 0 (the covariance matrix
            diagonal becomes sigma2 * (1 + nugget))
    """

    nu: float
    lam: float
    sigma2: float
    nugget: float = 0.0

    def __post_init__(self):
        if self.nu not in SUPPORTED_NU:
            raise ValueError(
                f"nu={self.nu!r} unsupported; choose one of {SUPPORTED_NU}"
            )
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"correlation length must be positive, got {self.lam!r}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"variance must be nonnegative, got {self.sigma2!r}")
        if not (np.isfinite(self.nugget) and self.nugget >= 0.0):
            raise ValueError(f"nugget must be nonnegative, got {self.nugget!r}")


def as_design(X):
    """Coerce inputs to an (n, d) float array. 1-D input means n points in d=1."""
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X.reshape(-1, 1)
    elif X.ndim != 2:
        raise ValueError(f"design must be at most 2-D, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("design contains non-finite entries")
    return X


def matern_corr(r, nu, lam):
    """Unit-variance Matern correlation at distance(s) r >= 0."""
    u = np.asarray(r, dtype=float) / lam
    if nu == 0.5:
        return np.exp(-u)
    if nu == 1.5:
        s = _SQRT3 * u
        return (1.0 + s) * np.exp(-s)
    if nu == 2.5:
        s = _SQRT5 * u
        return (1.0 + s + s * s / 3.0) * np.exp(-s)
    if nu == 3.5:
        s = _SQRT7 * u
        return (1.0 + s + 0.4 * s * s + s ** 3 / 15.0) * np.exp(-s)
    if nu == math.inf:
        return np.exp(-u * u)
    raise ValueError(f"nu={nu!r} unsupported; choose one of {SUPPORTED_NU}")


def matern(r, spec):
    """Matern covariance sigma2 * corr(r) at distance(s) r >= 0."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0.0):
        raise ValueError("distances must be nonnegative")
    return spec.sigma2 * matern_corr(r, spec.nu, spec.lam)


def corr_matrix(X, spec):
    """Correlation matrix over the rows of X with 1 + nugget on the diagonal."""
    X = as_design(X)
    R = matern_corr(cdist(X, X), spec.nu, spec.lam)
    if spec.nugget:
        R[np.diag_indices_from(R)] += spec.nugget
    return R


def cov_matrix(X, spec):
    """Covariance matrix over the rows of X; diagonal is sigma2 * (1 + nugget)."""
    return spec.sigma2 * corr_matrix(X, spec)


def corr_vector(Xq, X, spec):
    """Cross-correlation matrix between query rows Xq and design rows X."""
    Xq, X = as_design(Xq), as_design(X)
    if Xq.shape[1] != X.shape[1]:
        raise ValueError(
            f"query dimension {Xq.shape[1]} != design dimension {X.shape[1]}"
        )
    return matern_corr(cdist(Xq, X), spec.nu, spec.lam)


class CholeskyFactor:
    """Lower Cholesky factor of an SPD matrix plus the extra jitter used.

    ``lower`` may also hold a (K, n, n) stack of factors (see chol_stack);
    ``solve_lower`` then solves against each factor in turn and ``logdet``
    has shape (K,).
    """

    __slots__ = ("lower", "jitter")

    def __init__(self, lower, jitter=0.0):
        self.lower = lower
        self.jitter = jitter

    def solve(self, b):
        """Solve A x = b with A = L L^T."""
        z = self.solve_lower(b)
        return solve_triangular(self.lower, z, lower=True, trans="T", check_finite=False)

    def solve_lower(self, b):
        """Solve L z = b (half solve; useful for quadratic forms)."""
        if self.lower.ndim == 3:
            return np.stack([_half_solve(L, b) for L in self.lower])
        return _half_solve(self.lower, b)

    @property
    def logdet(self):
        return 2.0 * np.log(np.diagonal(self.lower, axis1=-2, axis2=-1)).sum(axis=-1)


def _half_solve(L, b):
    # One 2-D triangular solve; older scipy releases reject a stacked matrix.
    return solve_triangular(L, b, lower=True, check_finite=False)


def chol_factor(A, jitter0=0.0, max_jitter=_JITTER_MAX):
    """Cholesky-factorize A, escalating diagonal jitter on failure.

    The first attempt adds nothing; subsequent attempts add
    max(jitter0, 1e-12) * 10^k to the diagonal until max_jitter is exceeded.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    base = max(jitter0, _JITTER_FLOOR)
    extra = 0.0
    while True:
        try:
            M = A if extra == 0.0 else A + extra * np.eye(n)
            L = cholesky(M, lower=True, check_finite=False)
            return CholeskyFactor(L, extra)
        except LinAlgError:
            extra = base * 10.0 if extra == 0.0 else extra * 10.0
            if extra > max_jitter:
                raise FactorizationError(
                    f"matrix not positive definite after jitter up to {extra:.3e}",
                    jitter=extra,
                ) from None


def chol_stack(A):
    """Cholesky-factorize a (K, n, n) stack of matrices in one call, no jitter.

    Raises LinAlgError if any matrix in the stack is not positive definite;
    callers fall back to chol_factor per matrix.
    """
    return CholeskyFactor(np.linalg.cholesky(A))


def chol_solve(A, B, jitter0=0.0):
    """Solve A X = B for symmetric positive definite A via chol_factor."""
    B = np.asarray(B, dtype=float)
    if not np.all(np.isfinite(B)):
        raise ValueError("right-hand side contains non-finite entries")
    return chol_factor(A, jitter0=jitter0).solve(B)
