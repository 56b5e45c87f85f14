"""Matern correlation kernels, cross-correlations and guarded Cholesky solves.

Only the half-integer smoothness values with closed forms (1/2, 3/2, 5/2,
7/2) plus the Gaussian limit are supported; these avoid Bessel evaluation
entirely and cover every configuration used elsewhere in the package.
Distances are computed with numpy as scipy's cdist computes them (see
distances), the same bits without importing scipy.spatial. Cross-
correlations are filled in place in row blocks of about _CROSS_ENTRIES
entries, so the kernel's temporaries stay cache-sized; each entry is
elementwise, so the result is bitwise matern_corr(distances(Xq, X)).

Single factorizations and triangular solves call LAPACK dpotrf and dtrtrs
directly: the GP matrices are tiny (a few to a few dozen rows), so scipy's
per-call argument checks in cholesky and solve_triangular would cost more
than the arithmetic. They are the routines those wrappers call, so the
results are bitwise the same. The one stacked factorisation, gp's bordered
likelihood lattice, calls np.linalg.cholesky itself (see gp).

This module is the package's one source of LAPACK: ``lapack`` is scipy's
f2py extension scipy.linalg._flapack, the module whose dpotrf, dtrtrs and
dtrtri scipy.linalg.lapack re-exports (the very same objects). It is
loaded from scipy's linalg directory without running scipy.linalg's
package __init__, which would also import scipy's array-API shim and,
through its ``from numpy import *``, numpy.f2py and numpy.testing: about
0.3 s of every start-up for three routines. Either import order shares
one module: a scipy.linalg imported first has put its _flapack in
sys.modules, which is reused, and one imported later finds this one there.

Threads: the package's small-matrix BLAS and LAPACK calls run on one
thread. OpenBLAS splits even small calls (a few dozen rows, or a
matrix-vector product over 10,001 rows) across its threads, and the idle
helpers then spin against the Python thread. _blas_threads(1) sets the
count of every OpenBLAS loaded in the process, numpy's and scipy's copies
alike, while a call runs and restores it after. The count is process-wide,
so other threads see it meanwhile; overlapping calls from several threads
restore it when the last of them returns. The one call that gains from
threads, the MICE candidate Gram's factorisation at design._THREADED_M
candidates or more, runs at the caller's count. Without OpenBLAS (MKL,
Accelerate, or no /proc/self/maps) the helper does nothing.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError

from .errors import FactorizationError

SUPPORTED_NU = (0.5, 1.5, 2.5, 3.5, math.inf)

_SQRT_2NU = {1.5: math.sqrt(3.0), 2.5: math.sqrt(5.0), 3.5: math.sqrt(7.0)}

# Jitter escalation: floor for specs with zero nugget, absolute cap.
_JITTER_FLOOR = 1e-12
_JITTER_MAX = 1e-4
# Entries per row block of corr_vector: 256 KB of float64.
_CROSS_ENTRIES = 1 << 15


def _load_flapack():
    """scipy.linalg._flapack, without running scipy.linalg's package import."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        name, [os.path.join(p, "linalg") for p in scipy.__path__]
    )
    if spec is None:
        raise ImportError(f"no {name} under {list(scipy.__path__)}", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


@dataclass(frozen=True)
class KernelSpec:
    """Matern kernel parameters.

    nu      smoothness, one of SUPPORTED_NU
    lam     correlation length, > 0 (input units)
    sigma2  marginal variance, >= 0 (output units squared)
    nugget  relative diagonal jitter, in [0, 1) (the covariance matrix
            diagonal becomes sigma2 * (1 + nugget))
    """

    nu: float
    lam: float
    sigma2: float
    nugget: float = 0.0

    def __post_init__(self):
        check_nu(self.nu)
        if not (np.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"correlation length must be positive, got {self.lam!r}")
        if not (np.isfinite(self.sigma2) and self.sigma2 >= 0.0):
            raise ValueError(f"variance must be nonnegative, got {self.sigma2!r}")
        check_nuggets(self.nugget)


def check_nu(nu):
    """ValueError unless the smoothness nu is one of SUPPORTED_NU."""
    if nu not in SUPPORTED_NU:
        raise ValueError(f"nu={nu!r} unsupported; choose one of {SUPPORTED_NU}")


def check_nuggets(nugget, tau2_s=0.0):
    """ValueError unless 0 <= nugget < 1 and the MICE stabilizer tau2_s is finite and >= 0."""
    for name, value in (("nugget", nugget), ("stabilizer tau2_s", tau2_s)):
        if not (np.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    if nugget >= 1.0:
        raise ValueError(f"nugget must be < 1 (noise below the signal variance), got {nugget!r}")


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


def distances(A, B, out=None):
    """Euclidean distances between the rows of A (m, d) and B (n, d), in
    ``out`` (m, n) when given.

    The squared coordinate differences are summed in coordinate order and
    then square-rooted, as scipy's cdist does, so the result is the same
    bits; d(a, b) == d(b, a) bitwise, since a - b == -(b - a) exactly.
    """
    if out is None:
        out = np.empty((A.shape[0], B.shape[0]))
    for k in range(A.shape[1]):
        # A's column copied across, then B's row subtracted in place: a
        # third faster than numpy's column-minus-row broadcast into out.
        diff = out if k == 0 else np.empty_like(out)
        np.copyto(diff, A[:, k:k + 1])
        diff -= B[:, k]
        diff *= diff
        if k:
            out += diff
    return np.sqrt(out, out)


def matern_corr(r, nu, lam, out=None):
    """Unit-variance Matern correlation at distance(s) r >= 0, in ``out``
    (shaped like r / lam; it may be r itself) when given.

    Each closed form keeps its operation order, evaluated in place with at
    most two temporaries, so ``out`` changes no bit of the result.
    """
    check_nu(nu)
    s = np.divide(r, lam, out=out)  # u = r / lam
    scalar = s.ndim == 0
    if scalar:
        s = np.reshape(s, 1)  # an array, so that the steps below stay in place
    p = None
    if nu == math.inf:
        s *= s  # exp(-u * u)
    elif nu != 0.5:
        # (1 + s + s * s / 3 + ...) exp(-s) with s = sqrt(2 nu) u: the
        # polynomial p first, while s is still there.
        s *= _SQRT_2NU[nu]
        p = s + 1.0
        if nu == 2.5:
            t = s * s
            t /= 3.0
            p += t
        elif nu == 3.5:
            t = 0.4 * s
            t *= s
            p += t
            np.power(s, 3, t)
            t /= 15.0
            p += t
    np.negative(s, s)
    np.exp(s, s)
    if p is not None:
        s *= p
    return s[0] if scalar else s


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
        block = out[i:i + step]
        matern_corr(distances(Xq[i:i + step], X, out=block), spec.nu, spec.lam, out=block)
    return out


class CholeskyFactor:
    """Lower Cholesky factor of an SPD matrix plus the extra jitter used."""

    __slots__ = ("lower", "jitter")

    def __init__(self, lower, jitter=0.0):
        self.lower = lower
        self.jitter = jitter

    def solve(self, b):
        """Solve A x = b with A = L L^T."""
        return _trtrs(self.lower, self.solve_lower(b), trans=1)

    def solve_lower(self, b):
        """Solve L z = b (half solve; useful for quadratic forms)."""
        return _trtrs(self.lower, b, trans=0)

    @property
    def logdet(self):
        return 2.0 * np.log(self.lower.diagonal()).sum()


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


@functools.cache
def _openblas_pools():
    """(get, set) thread-count functions of every OpenBLAS mapped into the process."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
    except OSError:
        return ()
    pools = []
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in (
            "scipy_openblas_{}_num_threads64_",
            "scipy_openblas_{}_num_threads",
            "openblas_{}_num_threads64_",
            "openblas_{}_num_threads",
        ):
            get, put = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get is not None and put is not None:
                get.argtypes, get.restype = (), ctypes.c_int
                put.argtypes, put.restype = (ctypes.c_int,), None
                pools.append((get, put))
                break
    return tuple(pools)


# The pools are process-wide, so the blocks open in every thread share one
# record: the counts from before the first of them opened, and each open
# block's n in opening order. A closing block sets the latest open block's
# n, or those counts once none is open, so blocks that overlap in several
# threads cannot leave a pool at another block's count.
_pools_lock = threading.Lock()
_open_blocks = {}
_counts_before = []


@contextlib.contextmanager
def _blas_threads(n):
    """Run the block (or, as a decorator, each call) with n threads in every
    OpenBLAS pool, restoring each pool's previous count afterwards."""
    pools = _openblas_pools()
    token = object()
    with _pools_lock:
        if not _open_blocks:
            _counts_before[:] = [get() for get, _ in pools]
        _open_blocks[token] = n
        for _, put in pools:
            put(n)
    try:
        yield
    finally:
        with _pools_lock:
            del _open_blocks[token]
            if _open_blocks:
                counts = [next(reversed(_open_blocks.values()))] * len(pools)
            else:
                counts = _counts_before
            for (_, put), k in zip(pools, counts):
                put(k)
