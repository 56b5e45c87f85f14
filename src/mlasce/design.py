"""Sequential experimental design: candidate grids and the MICE loop.

The selection criterion is the ratio of the current model's predictive
variance at a candidate to its predictive variance under a GP conditioned
on the remaining candidates with a stabilized nugget. The denominator for
every candidate at once comes from the diagonal of the inverse candidate
correlation matrix A = R + tau_bar I (the conditional variance of one
Gaussian coordinate given the rest). Each pick sorts the candidates by
the numerator, fills the lower triangle of one Fortran-ordered Gram in
that order (kernel column blocks, once per pair; nothing reads the upper
triangle) and factorises it in that same buffer. The conditional
variance is at least tau_bar, so num / (tau_bar sigma2) bounds a
candidate's score from above and only a suffix of the sorted candidates
can still win: the triangular inverse runs on L's trailing block alone
(its column norms are the exact diagonal of A^-1 there), grown once if
the best exact score leaves candidates outside it unpruned. This is lazy
evaluation in the sense of Krause, Singh and Guestrin (JMLR 2008). The
Gram has a unit diagonal plus the stabilizer, so chol_factor's jitter
escalation (up to 1e-4, each retry on a rebuilt Gram) factorises it; if
it ever cannot, the FactorizationError propagates.
mice_scores is the unpruned score vector and mice_criterion the
per-candidate form of the same score, kept as references.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import CandidatesExhausted, FactorizationError, SimulatorError
from .gp import GPModel, fit, posterior_batch
from .kernels import (
    _blas_threads,
    as_design,
    check_nu,
    check_nuggets,
    chol_factor,
    corr_vector,
    distances,
    lapack,
    matern_corr,
)

DEFAULT_TAU2 = 1e-8
DEFAULT_TAU2_S = 1.0

# Columns of the candidate Gram evaluated per kernel call: keeps the
# kernel's temporaries at m x 32 floats instead of m^2 / 2.
_GRAM_BLOCK = 32
# Trailing block of the sorted candidates whose exact scores _select
# computes first, and the relative margin that keeps a candidate whose
# upper bound is within rounding of the best exact score.
_SUFFIX0 = 64
_PRUNE_MARGIN = 1e-9
# Candidate count from which the Gram's Cholesky keeps the caller's BLAS
# threads. Best of 21 on 2 cores, 1 vs 2 threads: 2.1 vs 2.0 ms at 512,
# 6.0 vs 5.0 ms at 768, 11.0 vs 8.5 ms at 1,024, 36.5 vs 24.3 ms at 1,499.
# Below it a second thread saves at most about 1 ms at twice the CPU time.
_THREADED_M = 1024


def domain_arrays(domain):
    """Normalize a (lo, hi) domain to a pair of (d,) arrays."""
    lo = np.atleast_1d(np.asarray(domain[0], dtype=float))
    hi = np.atleast_1d(np.asarray(domain[1], dtype=float))
    if lo.shape != hi.shape or lo.ndim != 1:
        raise ValueError("domain must be a (lo, hi) pair of equal-length bounds")
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
        raise ValueError("domain bounds must be finite")
    if not np.all(hi > lo):
        raise ValueError("domain is empty: every upper bound must exceed its lower bound")
    if not np.isfinite(np.sum(np.square(hi - lo))):
        raise ValueError("domain bounds are too far apart: squared distances overflow")
    return lo, hi


@dataclass(frozen=True)
class CandidateSet:
    """A discretized domain plus the indices still available for selection."""

    grid: np.ndarray
    cand: np.ndarray

    def without(self, grid_index):
        return replace(self, cand=self.cand[self.cand != grid_index])


def generate_grid(domain, n_grid, seed):
    """Discretize the domain into n_grid points.

    d = 1 gives the uniform grid on [lo, hi]; d >= 2 a Latin-hypercube
    style sample with one point per axis stratum, deterministic given the
    seed.
    """
    lo, hi = domain_arrays(domain)
    d = lo.size
    if n_grid < 2:
        raise ValueError("need at least two grid points")
    if d == 1:
        pts = np.linspace(lo[0], hi[0], n_grid).reshape(-1, 1)
    else:
        rng = np.random.default_rng(seed)
        pts = np.empty((n_grid, d))
        for j in range(d):
            perm = rng.permutation(n_grid)
            offs = rng.uniform(size=n_grid)
            pts[:, j] = lo[j] + (perm + offs) / n_grid * (hi[j] - lo[j])
    return CandidateSet(grid=pts, cand=np.arange(len(pts)))


def _int_arg(name, value):
    """value as a plain int; a bool or a non-integer (even 3.0) is a
    ValueError naming the argument. numpy integers are accepted."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _design_stream(domain, n_grid, seq):
    """The candidate grid and the opening-point generator of one sequential
    design, from two children spawned off the SeedSequence seq."""
    grid_seed, init_seed = (int(c.generate_state(1)[0]) for c in seq.spawn(2))
    return generate_grid(domain, n_grid, grid_seed), np.random.default_rng(init_seed)


def _corr_gram(pts, spec, diag_add):
    # The lower triangle (diagonal included) of one Fortran-ordered buffer
    # that chol_factor and dtrtri then overwrite in place. Each column block
    # is one distances and one in-place kernel call on the pairs from the
    # block down (once per pair), in a scratch buffer allocated once per
    # Gram; its C-ordered transpose is the block's Fortran slab, and
    # distances is symmetric bitwise. No caller reads the strict upper
    # triangle, so only the diagonal blocks write into it. Fortran-ordered
    # points give distances contiguous coordinate columns.
    m = len(pts)
    pts = np.asfortranarray(pts)
    R = np.empty((m, m), order="F")
    scratch = np.empty(min(_GRAM_BLOCK, m) * m)
    for j0 in range(0, m, _GRAM_BLOCK):
        j1 = min(j0 + _GRAM_BLOCK, m)
        block = scratch[:(j1 - j0) * (m - j0)].reshape(j1 - j0, m - j0)
        distances(pts[j0:j1], pts[j0:], out=block)
        R[j0:, j0:j1] = matern_corr(block, spec.nu, spec.lam, out=block).T
    np.fill_diagonal(R, 1.0 + diag_add)
    return R


def _chol_gram(pts, spec, tau_bar):
    """chol_factor of _corr_gram in its own buffer, rebuilt on a jitter retry;
    on one BLAS thread below _THREADED_M candidates."""
    gram = partial(_corr_gram, pts, spec, tau_bar)
    with _blas_threads(1) if len(pts) < _THREADED_M else nullcontext():
        return chol_factor(gram(), jitter0=tau_bar, refill=gram)


def mice_criterion(model, x, cand_rest, tau_bar):
    """MICE score of candidate x against the remaining candidates.

    Numerator: the model's predictive variance at x. Denominator: the
    predictive variance of the observation at x for a GP conditioned on
    cand_rest with the stabilized nugget tau_bar = max(tau2, tau2_s); with
    no remaining candidates that is the unconditioned sigma2 * (1 + tau_bar).
    """
    spec = model.spec
    xq = as_design(np.reshape(x, (1, -1)))
    _, num = posterior_batch(model, xq)
    num = float(num[0])
    if len(cand_rest) == 0:
        den = spec.sigma2 * (1.0 + tau_bar)
    else:
        rest = as_design(cand_rest)
        fac = _chol_gram(rest, spec, tau_bar)
        r = corr_vector(xq, rest, spec)[0]
        w = fac.solve_lower(r)
        den = spec.sigma2 * ((1.0 + tau_bar) - float(w @ w))
    return num / den


def mice_scores(model, points, tau_bar):
    """Criterion values for every candidate point in one Cholesky plus one
    triangular inverse, both in the candidate Gram's own buffer.

    The denominator for candidate i is sigma2 / [(R + tau I)^{-1}]_{ii},
    the conditional variance of coordinate i given all other candidates;
    this equals the per-candidate conditioning of mice_criterion exactly.
    It is _suffix_scores over the whole factor, unsorted and unpruned.
    """
    spec = model.spec
    pts = as_design(points)
    _, num = posterior_batch(model, pts)
    if len(pts) == 1:
        return num / (spec.sigma2 * (1.0 + tau_bar))
    fac = _chol_gram(pts, spec, tau_bar)
    return _suffix_scores(fac.lower, num, len(pts), spec.sigma2)


@_blas_threads(1)
def _suffix_scores(L, num, k, sigma2):
    """Exact scores of the last k candidates from the lower factor L of A.

    With A = L L^T the diagonal of A^{-1} is the squared column norms of
    L^{-1}. For a lower-triangular L the trailing k x k block of L^{-1} is
    the inverse of L's trailing block and holds every nonzero of its
    columns, so LAPACK trtri on that block alone gives the exact diagonal
    there (in place when k is the whole factor).
    """
    Linv, info = lapack.dtrtri(L[-k:, -k:], lower=1, overwrite_c=1)
    if info != 0:
        raise FactorizationError(f"triangular inverse failed (info={info})")
    # trtri leaves the strict upper triangle as it was: zero it for the norms.
    for j in range(1, k):
        Linv[:j, j] = 0.0
    inv_diag = np.einsum("ij,ij->j", Linv, Linv)
    return num[-k:] / (sigma2 / inv_diag)


def _select(model, cands, tau_bar):
    """Criterion argmax over active candidates; returns (point, grid index).

    The pick is that of _first_max over the full mice_scores vector, but
    only the candidates whose upper bound num / (tau_bar sigma2) can reach
    the best exact score get their exact score; the rest score -inf.
    """
    active = cands.cand
    if active.size == 0:
        raise CandidatesExhausted("no candidate points left to select")
    spec = model.spec
    pts = cands.grid[active]
    m = len(pts)
    _, num = posterior_batch(model, pts)
    order = np.argsort(num, kind="stable")
    num = num[order]
    fac = _chol_gram(pts[order], spec, tau_bar)
    # tau_bar = 0 gives no bound: every candidate survives.
    k = min(m, _SUFFIX0) if tau_bar > 0.0 else m
    suffix = _suffix_scores(fac.lower, num, k, spec.sigma2)
    if k < m:
        # The best exact score can only rise as the block grows, so one
        # growth covers every candidate whose bound can still reach it.
        floor = float(np.max(suffix)) * (1.0 - _PRUNE_MARGIN) * tau_bar * spec.sigma2
        first = int(np.searchsorted(num, floor, side="left"))
        if first < m - k:
            k = m - first
            suffix = _suffix_scores(fac.lower, num, k, spec.sigma2)
    scores = np.full(m, -np.inf)
    scores[order[m - k:]] = suffix
    chosen = int(active[_first_max(scores)])
    return cands.grid[chosen].copy(), chosen


def _first_max(scores):
    """First index within 4e-12 relative of the top score: ties go to the lowest."""
    scores = np.asarray(scores, dtype=float)
    top = float(np.max(scores))
    return int(np.flatnonzero(scores >= top - 4e-12 * abs(top))[0])


def mice_step(model, cands, tau_bar):
    """Pick the criterion argmax among active candidates.

    Returns the chosen point and the candidate set with it removed. Ties
    break to the lowest candidate index.
    """
    x, chosen = _select(model, cands, tau_bar)
    return x, cands.without(chosen)


def _evaluate(simulator, x):
    """Call a simulator on a (d,) input and coerce the output to a float;
    a value whose square overflows (above about 1.3e154 in magnitude) is
    rejected too, as the fits square the observations."""
    try:
        val = float(np.asarray(simulator(x)).reshape(()))
    except SimulatorError:
        raise
    except Exception as exc:
        raise SimulatorError(f"simulator failed at x={x!r}: {exc}", x=x) from exc
    if not np.isfinite(val):
        raise SimulatorError(f"simulator returned non-finite value at x={x!r}", x=x)
    if not np.isfinite(val * val):
        raise SimulatorError(f"simulator returned {val!r} at x={x!r}, whose square overflows", x=x)
    return val


def mice_run(
    simulator,
    domain,
    n_target,
    nu,
    seed=0,
    nugget=DEFAULT_TAU2,
    tau2_s=DEFAULT_TAU2_S,
    n_grid=101,
    n_initial=3,
    spec=None,
):
    """Run the full select-evaluate-refit loop up to n_target points.

    After n_initial random grid points, each point is the ``mice_step``
    pick among the unused candidates, scored with the stabilized nugget
    max(nugget, tau2_s). With ``spec`` given the hyperparameters stay
    fixed (no refitting); otherwise the correlation length and variance
    are re-estimated after every evaluation. Returns the final GPModel,
    whose X and y are the evaluated design. An n_target above n_grid
    raises CandidatesExhausted before any simulator call; so does every
    other invalid input, as a ValueError (seed, n_target, n_grid and
    n_initial must be integers).
    """
    n_target = _int_arg("n_target", n_target)
    n_initial = min(_int_arg("n_initial", n_initial), n_target)
    if n_initial < 1:
        raise ValueError("need at least one initial point")
    check_nu(nu)
    check_nuggets(nugget, tau2_s)
    n_grid = _int_arg("n_grid", n_grid)
    if n_target > n_grid:
        raise CandidatesExhausted(f"n_target={n_target} exceeds n_grid={n_grid}")
    tau_bar = max(nugget, tau2_s)
    cands, rng = _design_stream(domain, n_grid, np.random.SeedSequence(_int_arg("seed", seed)))

    init_idx = np.sort(rng.choice(len(cands.grid), size=n_initial, replace=False))
    X = cands.grid[init_idx].copy()
    y = np.array([_evaluate(simulator, x) for x in X])
    cands = replace(cands, cand=np.setdiff1d(cands.cand, init_idx))

    def refit(X, y):
        if spec is not None:
            return GPModel.from_spec(X, y, spec)
        return fit(X, y, nu, nugget=nugget, domain=domain)

    model = refit(X, y)
    while model.n < n_target:
        x, cands = mice_step(model, cands, tau_bar)
        y_new = _evaluate(simulator, x)
        model = refit(np.vstack([model.X, x]), np.append(model.y, y_new))
    return model
