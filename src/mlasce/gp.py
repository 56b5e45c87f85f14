"""Single-level Gaussian process regression with a fixed Matern smoothness.

The smoothness nu and the nugget are held fixed; the correlation length and
the marginal variance are estimated by maximum likelihood. The variance is
profiled out in closed form, leaving a search over log correlation length:
a log-uniform lattice, then a bounded Brent refine around its winner
(scipy's fminbound ported bit for bit), compared on _profile's rounding.
The lattice is built once per search box (_lattice, cached, read-only).
Up to _BORDERED_N points it is scored as one stacked Cholesky of bordered
matrices, the kernel evaluated into one contiguous stack; each per-point
profile builds R in Fortran order and factorises it in place through
chol_factor(..., refill=...), which rebuilds R for a jitter retry.
Posterior quantities use a cached Cholesky factor of the correlation
matrix; fit and posterior_batch run their BLAS on one thread (kernels).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import FactorizationError
from .kernels import (
    CholeskyFactor,
    KernelSpec,
    _blas_threads,
    as_design,
    check_nuggets,
    chol_factor,
    corr_vector,
    distances,
    matern_corr,
)

# Search-box constants: lam in [LAM_LO, LAM_HI] * diameter, sigma2 in
# [SIG_LO, SIG_HI] * sample variance of y (or * 1 if that is zero).
_LAM_LO, _LAM_HI = 1e-2, 10.0
_SIG_LO, _SIG_HI = 1e-8, 1e4

# Log-lam search: _LATTICE points over the interior of a 10-point log-uniform
# split of the box, scored as one bordered stack up to _BORDERED_N points
# (above it, one dpotrf per point is faster); the Brent refine stops at
# _XATOL (in log lam) or after _MAXFUN evaluations and must beat the
# lattice winner by over _FTOL.
_LATTICE = 36
_BORDERED_N = 32
_XATOL = 1e-5
_MAXFUN = 500
_FTOL = 1e-9


def _checked(X, y):
    """Validated (n, d) design and length-n finite observations, n >= 1."""
    X = as_design(X)
    y = np.asarray(y, dtype=float).ravel()
    if X.shape[0] != y.shape[0]:
        raise ValueError(f"{X.shape[0]} inputs but {y.shape[0]} outputs")
    if X.shape[0] < 1:
        raise ValueError("need at least one training point")
    if not np.all(np.isfinite(y)):
        raise ValueError("observations contain non-finite entries")
    return X, y


def _sign(v):
    """np.sign(v) + (v == 0): 1.0 for v >= 0 (-0.0 included), -1.0 below, nan for nan."""
    return 1.0 if v >= 0.0 else -1.0 if v < 0.0 else v


def _brent_bounded(f, lo, hi, xatol):
    """Minimise f on [lo, hi] by Brent's bounded method; returns (x, f(x)).

    Brent, Algorithms for Minimization without Derivatives (1973), ch. 5:
    golden-section steps, parabolic ones where they are safe. A port of
    scipy.optimize.fminbound's core (scipy's _minimize_scalar_bounded,
    BSD-3-Clause, copyright the SciPy Developers) with the same arithmetic,
    comparisons and stop after _MAXFUN evaluations, so it evaluates f at
    the same points and returns the same bits; printing and the result
    object are left out. np.maximum's nan rule needs no copy: a nan there
    makes x nan through the sign or xf either way.
    """
    sqrt_eps = math.sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - math.sqrt(5.0))
    a, b = float(lo), float(hi)
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    fx = f(xf)
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:  # try a parabola through the three best points
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and p > q * (a - xf) and p < q * (b - xf):
                rat = (p + 0.0) / q
                x = xf + rat
                if (x - a) < tol2 or (b - x) < tol2:
                    rat = tol1 * _sign(xm - xf)
            else:
                golden = True
        if golden:
            e = a - xf if xf >= xm else b - xf
            rat = golden_mean * e
        x = xf + _sign(rat) * max(abs(rat), tol1)
        fu = f(x)
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _MAXFUN:
            break
    return xf, fx


def _profile(dist, y, nu, lam, nugget):
    """Factor of R = corr(dist; nu, lam) + nugget*I, y^T R^{-1} y, log det R.

    R is built in Fortran order from dist.T (dist is bitwise symmetric) and
    factorised in its own buffer; a jitter retry rebuilds it (chol_factor's
    refill), so the factor is bitwise the copying route's lower triangle.
    """
    def corr():
        R = matern_corr(dist.T, nu, lam)
        R.T.reshape(-1)[::R.shape[0] + 1] += nugget  # the diagonal, as a strided view
        return R

    fac = chol_factor(corr(), jitter0=nugget, refill=corr)
    z = fac.solve_lower(y)
    return fac, np.einsum("i,i->", z, z), fac.logdet


def _bordered_profile(dist, y, nu, lams, nugget):
    """(y^T R^{-1} y, log det R) per lam, from one np.linalg.cholesky of the
    stack [[R, y], [y^T, inf]], whose factors' last rows are (L^{-1} y)^T;
    None if any R is not positive definite.

    The kernel runs over a zero-bordered distance matrix into one contiguous
    stack; the diagonal, the borders and the corner are written after it.
    """
    n = y.size
    D = np.zeros((n + 1, n + 1))
    D[:n, :n] = dist
    B = matern_corr(D, nu, lams[:, None, None])
    B.reshape(lams.size, -1)[:, :-1:n + 2] += nugget  # each R's diagonal
    B[:, n, :n] = B[:, :n, n] = y
    B[:, n, n] = math.inf
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        return None
    z = L[:, n, :n]
    logdet = 2.0 * np.log(np.diagonal(L, axis1=1, axis2=2)[:, :n]).sum(axis=1)
    return np.einsum("ki,ki->k", z, z), logdet


@functools.lru_cache(maxsize=8)
def _lattice(log_lo, log_hi):
    """The search box's lattice of log lam and its lams, both read-only."""
    grid = np.linspace(*np.linspace(log_lo, log_hi, 10)[[1, 8]], _LATTICE)
    lams = np.exp(grid)
    grid.flags.writeable = lams.flags.writeable = False
    return grid, lams


def _nll(q, logdet, n):
    """2x negative profile log likelihood less 2*pi terms, sigma2 = q/n clipped."""
    if isinstance(q, float):  # a scalar q (np.float64 is a float): no ufunc call
        sigma2 = min(max(q / n, _SIG_LO), _SIG_HI)
    else:
        sigma2 = np.clip(q / n, _SIG_LO, _SIG_HI)
    return q / sigma2 + n * np.log(sigma2) + logdet


@dataclass(frozen=True)
class GPModel:
    """A fitted GP: design, observations, kernel and cached factorization.

    ``chol`` factorizes the correlation matrix (unit variance, nugget on
    the diagonal); ``alpha`` is K^{-1} y for the sigma2-scaled kernel.
    """

    X: np.ndarray
    y: np.ndarray
    spec: KernelSpec
    chol: CholeskyFactor
    alpha: np.ndarray

    @classmethod
    def from_spec(cls, X, y, spec):
        """Build a model with fixed hyperparameters (no estimation)."""
        X, y = _checked(X, y)
        if spec.sigma2 <= 0.0:
            raise ValueError("model construction requires sigma2 > 0")
        fac, _, _ = _profile(distances(X, X), y, spec.nu, spec.lam, spec.nugget)
        return cls(X=X, y=y, spec=spec, chol=fac, alpha=fac.solve(y) / spec.sigma2)

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def dim(self):
        return self.X.shape[1]


def lambda_bounds(diameter):
    """Correlation-length search bounds derived from the domain diameter."""
    D = float(diameter)
    if not (np.isfinite(D) and D > 0.0):
        D = 1.0
    return _LAM_LO * D, _LAM_HI * D


def _diameter(domain, dist):
    if domain is not None:
        lo, hi = np.asarray(domain[0], float).ravel(), np.asarray(domain[1], float).ravel()
        return float(np.linalg.norm(hi - lo))
    return float(dist.max())


@_blas_threads(1)
def fit(X, y, nu, nugget=0.0, domain=None):
    """Maximum-likelihood GP fit with fixed nu and nugget.

    ``domain`` (a (lo, hi) pair) sets the correlation-length search box via
    its diameter; when omitted the design's own diameter is used. The
    lattice (ties to the first point) scores the profiled likelihood of
    y / sd(y); Brent then refines between the best point's neighbours (at
    an end, out to the box bound, itself also tried), winning on a gain
    above _FTOL over the best point rescored through _profile.
    """
    check_nuggets(nugget)
    X, y = _checked(X, y)
    n = X.shape[0]
    dist = distances(X, X)
    lam_lo, lam_hi = lambda_bounds(_diameter(domain, dist))
    if n == 1:
        # One point pins only the scale; the likelihood is flat in lam.
        lam = math.sqrt(lam_lo * lam_hi)
        sigma2 = max(float(y[0]) ** 2, _SIG_LO)
        return GPModel.from_spec(X, y, KernelSpec(nu, lam, sigma2, nugget))

    v = float(np.var(y))
    v = v if np.isfinite(v) and v > 0.0 else 1.0
    ys = y / math.sqrt(v)

    def objective(loglam):
        # _nll of ys through _profile (dpotrf), inf if no jitter helps; a
        # Python float, on which Brent's arithmetic is faster, same bits.
        try:
            _, q, logdet = _profile(dist, ys, nu, np.exp(loglam), nugget)
        except FactorizationError:
            return math.inf
        return float(_nll(q, logdet, n))

    log_lo, log_hi = math.log(lam_lo), math.log(lam_hi)
    grid, lams = _lattice(log_lo, log_hi)
    stack = _bordered_profile(dist, ys, nu, lams, nugget) if n <= _BORDERED_N else None
    vals = [objective(t) for t in grid] if stack is None else _nll(*stack, n)
    k = int(np.argmin(vals))
    # The winner rescored on Brent's route: every comparison is on one rounding.
    best_val, best_loglam = objective(grid[k]), float(grid[k])
    if not np.isfinite(best_val):
        raise FactorizationError("every lattice point failed to factorize")
    # Brent's bracket: the best point's neighbours, or the box bound at an end.
    lo = grid[k - 1] if k > 0 else log_lo
    hi = grid[k + 1] if k + 1 < _LATTICE else log_hi
    refined = _brent_bounded(objective, lo, hi, _XATOL)
    ends = [(t, objective(t)) for t in (lo, hi) if t in (log_lo, log_hi)]
    for loglam, val in [refined] + ends:
        if val < best_val - _FTOL:
            best_val, best_loglam = val, loglam

    lam = min(max(math.exp(best_loglam), lam_lo), lam_hi)
    fac, q, _ = _profile(dist, y, nu, lam, nugget)
    sigma2 = float(min(max(q / n, _SIG_LO * v), _SIG_HI * v))
    spec = KernelSpec(nu, lam, sigma2, nugget)
    return GPModel(X=X, y=y, spec=spec, chol=fac, alpha=fac.solve(y) / sigma2)


def _as_queries(x, dim):
    x = np.asarray(x, dtype=float)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        x = x.reshape(-1, 1) if dim == 1 else x.reshape(1, -1)
    if x.shape[1] != dim:
        raise ValueError(f"query dimension {x.shape[1]} != model dimension {dim}")
    if not np.all(np.isfinite(x)):
        raise ValueError("query contains non-finite entries")
    return x


def _unit_residual_var(model, r):
    """1 - r^T R^{-1} r per query (>= 0), r the cross-correlation matrix."""
    w = model.chol.solve_lower(r.T)
    resid = 1.0 - np.einsum("ij,ij->j", w, w)
    return np.maximum(resid, 0.0)


@_blas_threads(1)
def posterior_batch(model, X, var=True):
    """Posterior means and variances at many query points; var=False skips
    the variance's triangular solve and returns (means, None)."""
    r = corr_vector(_as_queries(X, model.dim), model.X, model.spec)
    mean = model.spec.sigma2 * (r @ model.alpha)
    return mean, (model.spec.sigma2 * _unit_residual_var(model, r) if var else None)


def rkhs_norm_sq(model):
    """Squared native-space norm of the posterior mean, y^T K^{-1} y."""
    return max(float(model.y @ model.alpha), 0.0)
