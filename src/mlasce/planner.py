"""A-priori budget allocation: evaluate the per-level error-bound terms,
solve the constrained minimization exactly, and compute the common-
smoothness closed form.

The bound term g_l(N) = |h_l - h_{l-1}|^{2a} N^{-nu/d} log^{1/2} N
vanishes at N = 1 and peaks at N = exp(d / 2 nu), so the raw minimization
is degenerate; lower bounds N_l >= max(1, exp(d / 2 nu_l)) keep every
count at or past the peak. Above that floor, in u = log N, the marginal
gain phi_l = -g_l'(N) has a strictly concave logarithm: it rises from 0 to
one peak at u*_l and falls after it. solve_allocation enumerates the KKT
points this structure allows and keeps the best.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleError

_BUDGET_RTOL = 1e-9
# Rounded counts are int64: their floors must lie below 2**63.
_COUNT_LIMIT = 2.0**63
_GRID_POINTS = 64
_MAX_ITERS = 100
# log of the float64 maximum, less a hair: a rising-branch iterate v keeps
# a / e^v at most e^_LOG_MAX, a finite number.
_LOG_MAX = math.log(np.finfo(float).max) - 1e-6
# Gap weights |h_l - h_(l-1)|^(2 alpha) must stay above e^-_LOG_WEIGHT_MIN,
# well inside the normal float64 range.
_LOG_WEIGHT_MIN = 700.0
# The enumeration's time and memory grow as L 2^L: about 3 s and 160 MB
# at 12 levels, 14 s and 450 MB at 14.
MAX_PLAN_LEVELS = 12


def check_ladder(h, t):
    """ValueError unless the costs t are positive and strictly increasing and
    the accuracies h strictly decreasing, with h_1 in (0, 1] and h_L > 0."""
    if not all(v > 0 for v in t) or not all(b > a for a, b in zip(t, t[1:])):
        raise ValueError("costs must be positive and strictly increasing")
    if not all(b < a for a, b in zip(h, h[1:])):
        raise ValueError("accuracies must be strictly decreasing")
    if not 0.0 < h[0] <= 1.0:
        raise ValueError("first-level accuracy must lie in (0, 1]")
    if h[-1] <= 0.0:
        raise ValueError("accuracies must stay positive")


@dataclass(frozen=True)
class PlanParams:
    """Inputs of the allocation problem.

    h: per-level accuracies, strictly decreasing with h_1 <= 1 (h_0 = 0
    by convention); t: per-level costs, strictly increasing; nu: one
    smoothness per level (or a scalar); d: input dimension; alpha: scale
    exponent; budget: total budget T.
    """

    h: tuple
    t: tuple
    nu: tuple
    d: int
    alpha: float
    budget: float

    def __post_init__(self):
        h = tuple(float(v) for v in self.h)
        t = tuple(float(v) for v in self.t)
        L = len(h)
        nu = np.broadcast_to(self.nu, (L,)).astype(float)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "nu", tuple(nu))
        if L < 1 or len(t) != L:
            raise ValueError("h and t must list one value per level")
        check_ladder(h, t)
        if any(v <= 0 for v in nu):
            raise ValueError("smoothness values must be positive")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        # Each level's log weight 2 alpha log|h_l - h_(l-1)| must be a number
        # (2 alpha overflows to inf past about 9e307, and inf * log 1 is nan)
        # whose weight neither closed_form_allocation nor the KKT search
        # (see _branch_roots) pushes out of the float64 range.
        if not (
            self.alpha > 0
            and all(2.0 * self.alpha * math.log(g) >= -_LOG_WEIGHT_MIN for g in self.gaps())
        ):
            raise ValueError(
                "scale exponent alpha must be positive and keep every level's "
                f"|h_l - h_(l-1)|^(2 alpha) at least e^-{_LOG_WEIGHT_MIN:g}, "
                f"got {self.alpha!r}"
            )
        if not math.isfinite(self.budget):
            raise ValueError(f"budget must be finite, got {self.budget!r}")
        if self.budget < sum(t):
            raise InfeasibleError("budget must cover at least one run per level")

    @property
    def L(self):
        return len(self.h)

    def gaps(self):
        """|h_l - h_{l-1}| with h_0 = 0."""
        prev = (0.0,) + self.h[:-1]
        return tuple(abs(a - b) for a, b in zip(self.h, prev))


@dataclass(frozen=True)
class AllocationPlan:
    """Real-valued and rounded per-level run counts plus the bound value."""

    n_runs: np.ndarray
    n_rounded: np.ndarray
    objective: float


def bound_term(h_l, h_prev, alpha, nu, d, n):
    """One level's bound contribution |h_l - h_prev|^{2a} n^{-nu/d} sqrt(log n)."""
    if n < 1:
        raise ValueError("run counts must be at least 1")
    gap = abs(float(h_l) - float(h_prev)) ** (2.0 * alpha)
    return gap * float(n) ** (-nu / d) * math.sqrt(math.log(float(n)))


def allocation_objective(params, counts):
    """Sum of the per-level bound terms at the given run counts."""
    counts = np.asarray(counts, dtype=float)
    prev = (0.0,) + params.h[:-1]
    return float(
        sum(
            bound_term(params.h[l], prev[l], params.alpha, params.nu[l], params.d, counts[l])
            for l in range(params.L)
        )
    )


def lower_bounds(params):
    """Per-level floors max(1, exp(d / 2 nu_l)), where each bound term peaks."""
    return np.array([max(1.0, math.exp(params.d / (2.0 * nu))) for nu in params.nu])


def _check_feasible(params, lb):
    t = np.asarray(params.t)
    min_cost = float(lb @ t)
    if min_cost > params.budget * (1.0 + _BUDGET_RTOL):
        raise InfeasibleError(
            f"budget {params.budget} below the minimum feasible cost {min_cost:.6g}"
        )


def _peak_u(a):
    """Where a level's marginal gain peaks, in u = log N (a = nu / d)."""
    b = 2.0 * a + 1.0
    return (b + np.sqrt(b * b + 4.0 * a * (a + 1.0))) / (4.0 * a * (a + 1.0))


def _log_gain(a, logc, u, s=None):
    """log phi(u) for the marginal gain phi = -g'(N) at u = log N > 1/(2a),
    and its u-derivative; s = a u - 1/2 if the caller has it more exactly."""
    if s is None:
        s = a * u - 0.5
    return logc + np.log(s) - (a + 1.0) * u - 0.5 * np.log(u), a / s - (a + 1.0) - 0.5 / u


def _branch_roots(a, logc, y, x, rising, active):
    """Solve log phi(u) = y by Newton on one branch per element, from x.

    Falling-branch elements iterate in u, rising-branch ones in
    v = log(a u - 1/2), which maps the rising branch onto the whole line.
    log phi is concave in both, so after the first step every iterate sits
    on the far side of the root from the peak and moves to it
    monotonically. That first step can overshoot far down the rising
    branch, so rising iterates stop where a / s would overflow; below
    there u = (s + 1/2) / a is 1 / (2a) to the last bit anyway. Returns
    the final x, u and dlog phi/du; inactive elements keep their x.
    """
    v_min = np.log(a) - _LOG_MAX
    for _ in range(_MAX_ITERS):
        s = np.where(rising, np.exp(np.where(rising, x, 0.0)), a * x - 0.5)
        u = np.where(rising, (s + 0.5) / a, x)
        psi, dpsi = _log_gain(a, logc, u, s)
        slope = np.where(rising, dpsi * s / a, dpsi)
        step = np.where(active, (psi - y) / np.where(active, slope, 1.0), 0.0)
        # Near the peak Newton only converges linearly; a 1e-13 residual in
        # log phi is near the precision psi is evaluated to.
        if np.all((np.abs(psi - y) <= 1e-13) | (np.abs(step) <= 1e-15 * (1.0 + np.abs(x)))):
            break
        x = np.where(rising, np.maximum(x - step, v_min), x - step)
    return x, u, dpsi


def _configurations(L):
    """(fall, rise) masks of every KKT configuration with two or more free
    levels: a free level is on its falling branch, or, for at most one
    level, on its rising branch."""
    subsets = (np.arange(2**L)[:, None] >> np.arange(L)) & 1 == 1
    subsets = subsets[subsets.sum(axis=1) >= 2]
    rows, k = np.nonzero(subsets)
    rise = np.zeros((len(rows), L), dtype=bool)
    rise[np.arange(len(rows)), k] = True
    fall = np.vstack([subsets, subsets[rows] & ~rise])
    return fall, np.vstack([np.zeros_like(subsets), rise])


def _kkt_points(a, logc, t, lb, T):
    """Run counts at every KKT point with two or more free levels.

    All configurations share one multiplier grid in log mu: _GRID_POINTS
    plus every level's cap log phi_l(u*_l) - log t_l. The spend of each
    configuration on that grid brackets its roots of spend = T, and all
    brackets are refined together by Newton in log mu, bisecting when a
    step leaves its bracket.
    """
    log_t = np.log(t)
    u_star = _peak_u(a)
    x_star = np.stack([u_star, np.log(a * u_star - 0.5)])
    psi_star = _log_gain(a, logc, u_star)[0]
    cap = psi_star - log_t
    # Below lo every falling level alone spends more than T.
    u_big = np.maximum(np.log(T / t), u_star)
    lo = float(np.min(_log_gain(a, logc, u_big)[0] - log_t)) - 1.0
    grid = np.unique(np.concatenate([np.linspace(lo, cap.max(), _GRID_POINTS), cap]))

    # Both branches of every level at every grid point: shape (2, L, G).
    rising = np.array([False, True])[:, None, None]
    below = (grid < cap[:, None])[None]
    y = np.minimum(grid + log_t[:, None], psi_star[:, None])
    start = np.where(below, x_star[..., None] + np.where(rising, -1.0, 1.0), x_star[..., None])
    ax, cx = a[:, None], logc[:, None]
    X, U, _ = _branch_roots(ax, cx, y, start, rising, below)
    tn = t[:, None] * np.exp(U)

    fall, rise = _configurations(len(t))
    free = fall | rise
    floor_cost = (~free) @ (t * lb)
    spend = fall @ tn[0] + rise @ tn[1] + floor_cost[:, None]
    valid = grid <= np.where(free, cap, np.inf).min(axis=1)[:, None]
    # Signs, not g itself: a product of two large spends can overflow.
    g = np.sign(spend - T)
    ci, gi = np.nonzero(valid[:, :-1] & valid[:, 1:] & (g[:, :-1] * g[:, 1:] <= 0.0))

    free, rising = free[ci], rise[ci]
    xa, xb, fa = grid[gi], grid[gi + 1], g[ci, gi]
    x_lo = np.where(rising, X[1][:, gi].T, X[0][:, gi].T)
    floor_cost = floor_cost[ci]
    x = 0.5 * (xa + xb)
    for _ in range(_MAX_ITERS):
        y = np.minimum(x[:, None] + log_t, psi_star)
        xs, u, dpsi = _branch_roots(a, logc, y, x_lo, rising, free)
        tn = np.where(free, t * np.exp(u), 0.0)
        f = tn.sum(axis=1) + floor_cost - T
        low = np.sign(f) == np.sign(fa)
        xa, xb = np.where(low, x, xa), np.where(low, xb, x)
        x_lo = np.where(low[:, None], xs, x_lo)
        done = (np.abs(f) <= 1e-14 * T) | (xb - xa <= 1e-15 * (1.0 + np.abs(x)))
        if np.all(done):
            break
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - f / np.where(free, tn / dpsi, 0.0).sum(axis=1)
        step = np.where((newton > xa) & (newton < xb), newton, 0.5 * (xa + xb))
        x = np.where(done, x, step)
    n = np.where(free, np.exp(u), lb)
    return n[np.abs(f) <= _BUDGET_RTOL * T]


def solve_allocation(params):
    """Minimize the bound subject to sum(N_l t_l) = budget, N_l >= floor.

    The minimizer is a KKT point: each level sits at its floor or is free
    with phi_l(N_l) = mu t_l for one shared multiplier mu, on the falling
    branch of phi_l or, for at most one level, on the rising branch (two
    levels on concave stretches of their terms would leave a descent
    direction along the budget). With one free level the point is closed
    form; _kkt_points finds the rest. A level with nu = inf has a zero
    bound term at every N >= 1, so it only ever sits at its floor. The
    feasible point with the lowest objective wins.
    """
    if params.L > MAX_PLAN_LEVELS:
        raise ValueError(
            f"the planner handles at most {MAX_PLAN_LEVELS} levels, got {params.L}"
        )
    lb = lower_bounds(params)
    _check_feasible(params, lb)
    t = np.asarray(params.t)
    T = params.budget
    a = np.asarray(params.nu) / params.d
    logc = 2.0 * params.alpha * np.log(params.gaps())
    floor_cost = t * lb
    points = np.tile(lb, (params.L, 1))
    np.fill_diagonal(points, np.maximum(lb, (T - floor_cost.sum() + floor_cost) / t))
    fin = np.isfinite(a)
    if np.count_nonzero(fin) >= 2:
        found = _kkt_points(a[fin], logc[fin], t[fin], lb[fin], T - floor_cost[~fin].sum())
        kkt = np.tile(lb, (len(found), 1))
        kkt[:, fin] = found
        points = np.vstack([points, kkt])
    u = np.log(points[:, fin])
    n = points[np.argmin(np.sum(np.exp(logc[fin] - a[fin] * u) * np.sqrt(u), axis=1))]
    return AllocationPlan(
        n_runs=n,
        n_rounded=_round_counts(n, t, T),
        objective=allocation_objective(params, n),
    )


def closed_form_allocation(params):
    """Lagrange solution of the relaxed problem with a common smoothness.

    Replacing sqrt(log N) by N^{1/(2e)} gives terms gap^{2a} N^r with
    r = -nu/d + 1/(2e) < 0, whose budget-constrained minimizer is
    available in closed form and satisfies the budget identity exactly.
    """
    nus = set(params.nu)
    if len(nus) != 1:
        raise ValueError("closed form requires a common smoothness across levels")
    nu = params.nu[0]
    r = -nu / params.d + 1.0 / (2.0 * math.e)
    if r >= 0:
        raise ValueError(
            f"closed form needs nu > d/(2e); got nu={nu}, d={params.d} (r={r:.4f})"
        )
    t = np.asarray(params.t)
    gaps = np.asarray(params.gaps())
    w = (t / (-r * gaps ** (2.0 * params.alpha))) ** (1.0 / (r - 1.0))
    n = w * params.budget / float(t @ w)
    return AllocationPlan(
        n_runs=n,
        n_rounded=_round_counts(n, t, params.budget),
        objective=allocation_objective(params, np.maximum(n, 1.0)),
    )


def _round_counts(n, t, budget):
    """Largest-remainder rounding, keeping counts >= 1 and spend <= budget.

    ValueError if a count is not finite or its floor does not fit in int64.
    """
    n = np.asarray(n, dtype=float)
    t = np.asarray(t, dtype=float)
    bad = np.flatnonzero(~(np.isfinite(n) & (np.floor(n) < _COUNT_LIMIT)))
    if bad.size:
        i = bad[0]
        raise ValueError(
            f"level {i + 1}: run count {float(n[i])!r} cannot be rounded to a 64-bit integer"
        )
    limit = budget * (1.0 + _BUDGET_RTOL)
    floors = np.maximum(np.floor(n), 1.0)
    # Repair any overspend introduced by the >= 1 floor, one unit at a time
    # off the dearest count above 1. The spend is monotone in each count,
    # so bisection finds where those unit steps stop, in at most 64 spends.
    while floors @ t > limit:
        adjustable = np.nonzero(floors > 1.0)[0]
        if adjustable.size == 0:
            break
        j = adjustable[np.argmax(t[adjustable])]
        fits, over = 1, int(floors[j])
        floors[j] = 1.0
        if floors @ t > limit:
            continue  # even 1 overspends: the next dearest count goes down too
        while over - fits > 1:
            floors[j] = mid = (fits + over) // 2
            if floors @ t > limit:
                over = mid
            else:
                fits = mid
        floors[j] = fits
    remainders = n - floors
    for j in np.argsort(-remainders):
        if floors @ t + t[j] <= limit:
            floors[j] += 1.0
    return floors.astype(int)
