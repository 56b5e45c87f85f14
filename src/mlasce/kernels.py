"""Matern correlation kernels, cross-correlations and guarded Cholesky solves.

Only the half-integer smoothness values with closed forms (1/2, 3/2, 5/2,
7/2) plus the Gaussian limit are supported; these avoid Bessel evaluation
entirely and cover every configuration used elsewhere in the package.
Cross-correlations are filled in row blocks of about _CROSS_ENTRIES
entries, so the kernel's temporaries stay cache-sized; each entry is
elementwise, so the result is bitwise matern_corr(cdist(Xq, X)).

Single factorizations and triangular solves call LAPACK dpotrf and dtrtrs
directly: the GP matrices are tiny (a few to a few dozen rows), so scipy's
per-call argument checks in cholesky and solve_triangular would cost more
than the arithmetic. They are the routines those wrappers call, so the
results are bitwise the same.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, lapack
from scipy.spatial.distance import cdist

from .errors import FactorizationError

SUPPORTED_NU = (0.5, 1.5, 2.5, 3.5, math.inf)

_SQRT3 = math.sqrt(3.0)
_SQRT5 = math.sqrt(5.0)
_SQRT7 = math.sqrt(7.0)

# Jitter escalation: floor for specs with zero nugget, absolute cap.
_JITTER_FLOOR = 1e-12
_JITTER_MAX = 1e-4
# Entries per row block of corr_vector: 256 KB of float64.
_CROSS_ENTRIES = 1 << 15


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
        check_nuggets(self.nugget)


def check_nuggets(nugget, tau2_s=0.0):
    """ValueError unless the nugget and the MICE stabilizer tau2_s are finite and >= 0."""
    for name, value in (("nugget", nugget), ("stabilizer tau2_s", tau2_s)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")


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


def corr_vector(Xq, X, spec):
    """Cross-correlation matrix between query rows Xq and design rows X."""
    Xq, X = as_design(Xq), as_design(X)
    if Xq.shape[1] != X.shape[1]:
        raise ValueError(
            f"query dimension {Xq.shape[1]} != design dimension {X.shape[1]}"
        )
    step = max(1, _CROSS_ENTRIES // max(1, len(X)))
    out = np.empty((len(Xq), len(X)))
    for i in range(0, len(Xq), step):
        out[i:i + step] = matern_corr(cdist(Xq[i:i + step], X), spec.nu, spec.lam)
    return out


class CholeskyFactor:
    """Lower Cholesky factor of an SPD matrix plus the extra jitter used.

    ``lower`` may also hold a (K, n, n) stack of factors (see chol_stack);
    ``solve_lower`` then takes an (n, m) right-hand side, solves against
    every factor in one batched call and returns (K, n, m), and ``logdet``
    has shape (K,).
    """

    __slots__ = ("lower", "jitter")

    def __init__(self, lower, jitter=0.0):
        self.lower = lower
        self.jitter = jitter

    def solve(self, b):
        """Solve A x = b with A = L L^T."""
        return _trtrs(self.lower, self.solve_lower(b), trans=1)

    def solve_lower(self, b):
        """Solve L z = b (half solve; useful for quadratic forms)."""
        L = self.lower
        if L.ndim == 3:
            return np.linalg.solve(L, np.broadcast_to(b, L.shape[:1] + np.shape(b)))
        return _trtrs(L, b, trans=0)

    @property
    def logdet(self):
        return 2.0 * np.log(np.diagonal(self.lower, axis1=-2, axis2=-1)).sum(axis=-1)


def _trtrs(L, b, trans):
    """LAPACK dtrtrs with the lower factor L (trans=1 solves L^T x = b)."""
    x, info = lapack.dtrtrs(L, b, lower=1, trans=trans)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def chol_factor(A, jitter0=0.0, refill=None):
    """Cholesky-factorize A, escalating diagonal jitter on failure.

    The first attempt adds nothing; subsequent attempts add
    max(jitter0, 1e-12) * 10^k to the diagonal until _JITTER_MAX is exceeded.

    With ``refill`` A must be a Fortran-ordered float64 array, of which
    only the lower triangle is read: it is factorised in its own storage,
    which on return holds the lower factor, the strict upper triangle left
    as it was. A failed attempt has overwritten the lower triangle, so
    each retry drops that buffer and factorises a fresh one from
    ``refill()``. After a FactorizationError its contents are unspecified.
    """
    A = _square(A, refill is not None)
    base = max(jitter0, _JITTER_FLOOR)
    extra = 0.0
    while True:
        if refill is None:
            M = A if extra == 0.0 else A + extra * np.eye(A.shape[0])
            L, info = lapack.dpotrf(M, lower=1, clean=1)
        else:
            L, info = lapack.dpotrf(A, lower=1, overwrite_a=1, clean=0)
        if info == 0:
            return CholeskyFactor(L, extra)
        extra = base * 10.0 if extra == 0.0 else extra * 10.0
        if extra > _JITTER_MAX:
            raise FactorizationError(
                f"matrix not positive definite after jitter up to {extra:.3e}",
                jitter=extra,
            )
        if refill is not None:
            L = A = None  # one matrix-sized buffer alive at a time
            A = _square(refill(), True)
            np.fill_diagonal(A, A.diagonal() + extra)


def _square(A, in_place):
    """A as a square float64 matrix; in place, it must already be one in Fortran order."""
    if in_place:
        if not (
            isinstance(A, np.ndarray) and A.dtype == np.float64 and A.flags.f_contiguous
        ):
            raise ValueError("in-place factorisation needs a Fortran-ordered float64 array")
    else:
        A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    return A


def chol_stack(A):
    """Cholesky-factorize a (K, n, n) stack of matrices in one call, no jitter.

    Raises LinAlgError if any matrix in the stack is not positive definite;
    callers fall back to chol_factor per matrix.
    """
    return CholeskyFactor(np.linalg.cholesky(A))
