"""A-priori budget allocation: evaluate the per-level error-bound terms,
solve the constrained minimization numerically, and compute the common-
smoothness closed form.

The bound term |h_l - h_{l-1}|^{2a} N^{-nu/d} log^{1/2} N vanishes at
N = 1 and peaks at N = exp(d / 2 nu), so the raw minimization is
degenerate; lower bounds N_l >= max(1, exp(d / 2 nu_l)) keep the search
on the decreasing branch. Budget equality is enforced by eliminating the
last level's count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .errors import InfeasibleError

_BUDGET_RTOL = 1e-9


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
        if not all(b < a for a, b in zip(h, h[1:])):
            raise ValueError("accuracies must be strictly decreasing")
        if not 0.0 < h[0] <= 1.0:
            raise ValueError("first-level accuracy must lie in (0, 1]")
        if h[-1] <= 0.0:
            raise ValueError("accuracies must stay positive")
        if not all(v > 0 for v in t) or not all(b > a for a, b in zip(t, t[1:])):
            raise ValueError("costs must be positive and strictly increasing")
        if any(v <= 0 for v in nu):
            raise ValueError("smoothness values must be positive")
        if self.d < 1:
            raise ValueError("dimension must be at least 1")
        if self.alpha <= 0:
            raise ValueError("scale exponent must be positive")
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
    method: str


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
    """Per-level floors max(1, exp(d / 2 nu_l)): the monotone-branch start."""
    return np.array([max(1.0, math.exp(params.d / (2.0 * nu))) for nu in params.nu])


def _check_feasible(params, lb):
    t = np.asarray(params.t)
    min_cost = float(lb @ t)
    if min_cost > params.budget * (1.0 + _BUDGET_RTOL):
        raise InfeasibleError(
            f"budget {params.budget} below the minimum feasible cost {min_cost:.6g}"
        )


def solve_allocation(params, n_starts=16, seed=0):
    """Minimize the bound subject to sum(N_l t_l) = budget, N_l >= floor.

    The last count is eliminated through the budget constraint; a
    multi-start Nelder-Mead search over the remaining log-counts (random
    starts plus the closed form and an equal-cost-share point) returns the
    best feasible solution found.
    """
    lb = lower_bounds(params)
    _check_feasible(params, lb)
    t = np.asarray(params.t)
    T = params.budget
    L = params.L
    if L == 1:
        n = np.array([T / t[0]])
        return AllocationPlan(
            n_runs=n,
            n_rounded=_round_counts(n, t, T),
            objective=allocation_objective(params, n),
            method="numerical",
        )

    free_t, last_t = t[:-1], t[-1]
    lb_free, lb_last = lb[:-1], lb[-1]
    ub_free = np.array(
        [(T - (lb @ t - lb[j] * t[j])) / t[j] for j in range(L - 1)]
    )

    def expand(z):
        n_free = np.exp(np.clip(z, np.log(lb_free), np.log(ub_free)))
        n_last = (T - n_free @ free_t) / last_t
        return n_free, n_last

    def penalized(z):
        n_free, n_last = expand(z)
        if n_last < lb_last:
            gap = lb_last - n_last
            counts = np.append(n_free, lb_last)
            return allocation_objective(params, counts) + 1e3 * gap * gap + gap
        return allocation_objective(params, np.append(n_free, n_last))

    starts = []
    try:
        common = float(np.mean(params.nu))
        cf = closed_form_allocation(
            PlanParams(params.h, params.t, common, params.d, params.alpha, T)
        ).n_runs
        starts.append(np.log(np.clip(cf[:-1], lb_free, ub_free)))
    except (ValueError, InfeasibleError):
        pass
    share = np.clip(T / (L * t[:-1]), lb_free, ub_free)
    starts.append(np.log(share))
    rng = np.random.default_rng(seed)
    while len(starts) < n_starts:
        u = rng.uniform(size=L - 1)
        starts.append(np.log(lb_free) + u * (np.log(ub_free) - np.log(lb_free)))

    best_val, best_z = np.inf, None
    for z0 in starts:
        res = minimize(
            penalized,
            z0,
            method="Nelder-Mead",
            options={"maxfev": 400 * L, "xatol": 1e-8, "fatol": 1e-12},
        )
        if res.fun < best_val:
            best_val, best_z = float(res.fun), res.x
    n_free, n_last = expand(best_z)
    n = np.append(n_free, max(n_last, lb_last))
    return AllocationPlan(
        n_runs=n,
        n_rounded=_round_counts(n, t, T),
        objective=allocation_objective(params, n),
        method="numerical",
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
        method="closed_form",
    )


def _round_counts(n, t, budget):
    """Largest-remainder rounding, keeping counts >= 1 and spend <= budget."""
    n = np.asarray(n, dtype=float)
    t = np.asarray(t, dtype=float)
    floors = np.maximum(np.floor(n), 1.0)
    # repair any overspend introduced by the >= 1 floor
    while floors @ t > budget * (1.0 + _BUDGET_RTOL):
        adjustable = np.nonzero(floors > 1.0)[0]
        if adjustable.size == 0:
            break
        j = adjustable[np.argmax(t[adjustable])]
        floors[j] -= 1.0
    remainders = n - floors
    for j in np.argsort(-remainders):
        if floors @ t + t[j] <= budget * (1.0 + _BUDGET_RTOL):
            floors[j] += 1.0
    return floors.astype(int)
