"""Matern covariance kernels, covariance matrices and guarded Cholesky solves.

Only the half-integer smoothness values with closed forms (1/2, 3/2, 5/2,
7/2) plus the Gaussian limit are supported; these avoid Bessel evaluation
entirely and cover every configuration used elsewhere in the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cholesky, lapack, solve_triangular
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


def chol_factor(A, jitter0=0.0, max_jitter=_JITTER_MAX, overwrite_a=False):
    """Cholesky-factorize A, escalating diagonal jitter on failure.

    The first attempt adds nothing; subsequent attempts add
    max(jitter0, 1e-12) * 10^k to the diagonal until max_jitter is exceeded.

    With ``overwrite_a`` (the same name and meaning as in scipy.linalg) A
    must be a symmetric, Fortran-ordered float64 array: it is factorised
    in its own storage, which on return holds the factor with the strict
    upper triangle zeroed. After a FactorizationError its contents are
    unspecified.
    """
    if overwrite_a:
        if not (
            isinstance(A, np.ndarray) and A.dtype == np.float64 and A.flags.f_contiguous
        ):
            raise ValueError("overwrite_a needs a Fortran-ordered float64 array")
    else:
        A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    n = A.shape[0]
    diag = np.diagonal(A).copy() if overwrite_a else None
    base = max(jitter0, _JITTER_FLOOR)
    extra = 0.0
    while True:
        if overwrite_a:
            L = _potrf_in_place(A, diag, extra)
        else:
            L = _potrf_copy(A, extra)
        if L is not None:
            return CholeskyFactor(L, extra)
        extra = base * 10.0 if extra == 0.0 else extra * 10.0
        if extra > max_jitter:
            raise FactorizationError(
                f"matrix not positive definite after jitter up to {extra:.3e}",
                jitter=extra,
            )


def _potrf_copy(A, extra):
    """Lower factor of A + extra I in new storage, or None if not positive definite."""
    M = A if extra == 0.0 else A + extra * np.eye(A.shape[0])
    try:
        return cholesky(M, lower=True, check_finite=False)
    except LinAlgError:
        return None


def _potrf_in_place(A, diag, extra):
    """Lower factor of A + extra I written over A, or None if not positive definite."""
    n = A.shape[0]
    if extra != 0.0:
        # A failed potrf wrote only the lower triangle; the strict upper
        # one still holds the matrix, so mirror it back.
        for j in range(n):
            A[j + 1:, j] = A[j, j + 1:]
        np.fill_diagonal(A, diag + extra)
    L, info = lapack.dpotrf(A, lower=1, overwrite_a=1, clean=0)
    if info != 0:
        return None
    # Column by column: no index or mask arrays the size of A.
    for j in range(1, n):
        A[:j, j] = 0.0
    return L


def chol_stack(A):
    """Cholesky-factorize a (K, n, n) stack of matrices in one call, no jitter.

    Raises LinAlgError if any matrix in the stack is not positive definite;
    callers fall back to chol_factor per matrix.
    """
    return CholeskyFactor(np.linalg.cholesky(A))
