"""Single-level Gaussian process regression with a fixed Matern smoothness.

The smoothness nu and the nugget are held fixed; the correlation length and
the marginal variance are estimated by maximum likelihood. The variance is
profiled out in closed form, leaving a search over log correlation length:
a fixed log-uniform lattice, its correlation matrices factorized as one
stack (or one by one with jitter escalation if any is not positive
definite), then a bounded Brent refine around the best point. Posterior
quantities use a cached Cholesky factor of the correlation matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.spatial.distance import cdist

from .errors import FactorizationError
from .kernels import (
    CholeskyFactor,
    KernelSpec,
    as_design,
    chol_factor,
    chol_stack,
    corr_vector,
    matern_corr,
)

# Search-box constants: lam in [LAM_LO, LAM_HI] * diameter, sigma2 in
# [SIG_LO, SIG_HI] * sample variance of y (or * 1 if that is zero).
_LAM_LO, _LAM_HI = 1e-2, 10.0
_SIG_LO, _SIG_HI = 1e-8, 1e4

# Log-lam search: _LATTICE points over the interior of a 10-point log-uniform
# split of the box, in stacks of at most _STACK_ENTRIES floats; the Brent
# refine stops at _XATOL (in log lam) and must beat the lattice by over _FTOL.
_LATTICE = 36
_STACK_ENTRIES = 1 << 20
_XATOL = 1e-5
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


def _profile(dist, y, nu, lam, nugget):
    """Factor of R = corr(dist; nu, lam) + nugget*I, y^T R^{-1} y, log det R.

    An array of lam gives one stack (LinAlgError if any R is not positive definite).
    """
    lam = np.asarray(lam, dtype=float)
    R = matern_corr(dist, nu, lam[..., None, None])
    idx = np.arange(dist.shape[0])
    R[..., idx, idx] += nugget
    fac = chol_factor(R, jitter0=nugget) if lam.ndim == 0 else chol_stack(R)
    z = fac.solve_lower(y[:, None])[..., 0]
    return fac, np.einsum("...i,...i->...", z, z), fac.logdet


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
        fac, _, _ = _profile(cdist(X, X), y, spec.nu, spec.lam, spec.nugget)
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


def log_marginal_likelihood(X, y, spec):
    """Zero-mean Gaussian log likelihood of y under cov_matrix(X, spec)."""
    X, y = _checked(X, y)
    _, quad, logdet = _profile(cdist(X, X), y, spec.nu, spec.lam, spec.nugget)
    s2 = spec.sigma2
    return -0.5 * float(quad / s2 + logdet + y.size * math.log(2.0 * math.pi * s2))


def fit(X, y, nu, nugget=0.0, domain=None):
    """Maximum-likelihood GP fit with fixed nu and nugget.

    ``domain`` (a (lo, hi) pair) sets the correlation-length search box via
    its diameter; when omitted the design's own diameter is used. The
    lattice (ties to the first point) scores the profiled likelihood of
    y / sd(y); Brent then refines between the best point's neighbours (at
    an end, out to the box bound, itself also tried), winning on a gain
    above _FTOL.
    """
    X, y = _checked(X, y)
    n = X.shape[0]
    dist = cdist(X, X)
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
        # 2x negative profile log likelihood of ys less 2*pi terms, per loglam.
        try:
            _, q, logdet = _profile(dist, ys, nu, np.exp(loglam), nugget)
        except FactorizationError:
            return math.inf
        except np.linalg.LinAlgError:
            return np.array([objective(t) for t in loglam])
        sigma2 = np.clip(q / n, _SIG_LO, _SIG_HI)
        return q / sigma2 + n * np.log(sigma2) + logdet

    log_lo, log_hi = math.log(lam_lo), math.log(lam_hi)
    grid = np.linspace(*np.linspace(log_lo, log_hi, 10)[[1, 8]], _LATTICE)
    per = max(1, _STACK_ENTRIES // (n * n))  # lattice points per stack
    vals = np.concatenate([objective(grid[i:i + per]) for i in range(0, grid.size, per)])
    k = int(np.argmin(vals))
    best_val, best_loglam = float(vals[k]), float(grid[k])
    if not np.isfinite(best_val):
        raise FactorizationError("every lattice point failed to factorize")
    # Brent's bracket: the best point's neighbours, or the box bound at an end.
    lo, hi = np.r_[log_lo, grid, log_hi][[k, k + 2]]
    res = minimize_scalar(
        objective, bounds=(lo, hi), method="bounded", options={"xatol": _XATOL}
    )
    ends = [(t, objective(t)) for t in (lo, hi) if t in (log_lo, log_hi)]
    for loglam, val in [(float(res.x), float(res.fun))] + ends:
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


def _unit_residual_var(model, Xq):
    """Return (cross-correlation matrix, 1 - r^T R^{-1} r per query, >= 0)."""
    r = corr_vector(Xq, model.X, model.spec)
    w = model.chol.solve_lower(r.T)
    resid = 1.0 - np.einsum("ij,ij->j", w, w)
    return r, np.maximum(resid, 0.0)


def posterior_batch(model, X):
    """Posterior means and variances at many query points."""
    Xq = _as_queries(X, model.dim)
    r, resid = _unit_residual_var(model, Xq)
    mean = model.spec.sigma2 * (r @ model.alpha)
    var = model.spec.sigma2 * resid
    return mean, var


def power_batch(model, X):
    """Unit-variance predictive variance (power function) at many points."""
    Xq = _as_queries(X, model.dim)
    _, resid = _unit_residual_var(model, Xq)
    return resid


def rkhs_norm_sq(model):
    """Squared native-space norm of the posterior mean, y^T K^{-1} y."""
    return max(float(model.y @ model.alpha), 0.0)
