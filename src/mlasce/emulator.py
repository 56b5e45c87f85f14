"""Multilevel emulation: the greedy budget loop over fidelity increments,
prediction and error-bound reporting.

Each fidelity increment gets its own GP. ``mlasce_run`` builds the
``MultilevelEmulator`` first and grows it as the run state: ``_pick``
chooses the level whose latest extension score (see ``score``) is largest
among the levels still affordable, with a breadth-first exploration floor
early in the budget, and ``_extend`` refits that level on the new point,
rescores it and charges the ledger. Only the extended level's score
changes between iterations, so the others stay cached.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .design import (
    DEFAULT_TAU2,
    DEFAULT_TAU2_S,
    CandidateSet,
    _design_stream,
    _evaluate,
    _first_max,
    _int_arg,
    _select,
)
from .errors import BudgetError, SimulatorError
from .gp import GPModel, _unit_residual_var, fit, posterior_batch, rkhs_norm_sq
from .kernels import check_nu, check_nuggets, corr_vector
from .planner import check_ladder


class SurrogateNormWarning(UserWarning):
    """Error bound computed from fitted-mean norms, a lower-biased stand-in."""


@dataclass(frozen=True)
class Level:
    """One rung of a fidelity ladder: simulator y_l, cost t_l, accuracy h_l."""

    simulator: object
    cost: float
    accuracy: float


@dataclass(frozen=True)
class FidelityLadder:
    """Ordered simulators with strictly increasing cost, decreasing accuracy."""

    levels: tuple
    domain: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("ladder needs at least one level")
        check_ladder([lv.accuracy for lv in self.levels], [lv.cost for lv in self.levels])

    @property
    def L(self):
        return len(self.levels)


def _difference(hi, lo):
    def delta(x):
        return float(np.asarray(hi(x)).reshape(())) - float(
            np.asarray(lo(x)).reshape(())
        )

    return delta


@dataclass
class LevelState:
    """Per-level bookkeeping inside a multilevel emulator."""

    level: int
    model: GPModel
    cost_per_eval: float
    weight: float
    gamma: float = 0.0
    cands: CandidateSet | None = None


@dataclass(frozen=True)
class LedgerEntry:
    """One budget decision: which level ran where, at what cost."""

    iteration: int
    level: int
    x: tuple
    delta: float
    cost: float


@dataclass
class MultilevelEmulator:
    """Independent per-increment GPs plus the budget ledger that built them."""

    levels: list
    domain: tuple
    budget: float
    spent: float
    ledger: list = field(default_factory=list)
    seed: int | None = None

    @property
    def L(self):
        return len(self.levels)

    @property
    def counts(self):
        return [lv.model.n for lv in self.levels]


def score(model_before, model_after, a_l, t_eff):
    """Acquisition score of a level's latest extension, times a_l / t_eff.

    For the first point the score is the squared native-space norm of the
    one-point posterior mean (close to one whenever the increment is
    non-negligible there, making the opening pass luck-free). Afterwards
    it is the norm gain contributed by the newest point expressed in
    output units and damped by the predictive sd: the gain of y^T K^{-1} y
    under a fixed kernel equals resid^2 / s2_unit at the new point, which
    never decays (both factors shrink together near interpolation), while
    the bare squared residual ignores how much of the domain is left to
    explain; their geometric compromise resid^2 / sqrt(power) tracks the
    per-run reduction of the norm-times-sd error bound and vanishes as
    the level converges, letting stalled levels win again later.
    """
    if t_eff <= 0:
        raise ValueError("effective cost must be positive")
    if model_before is None:
        return rkhs_norm_sq(model_after) * a_l / t_eff
    r = corr_vector(model_after.X[-1:], model_before.X, model_before.spec)
    var = _unit_residual_var(model_before, r)
    mean = model_before.spec.sigma2 * (r @ model_before.alpha)
    resid = float(model_after.y[-1]) - float(mean[0])
    p = max(float(var[0]), 1e-12)
    return (resid * resid / math.sqrt(p)) * a_l / t_eff


# Exploration policy: while a level holds fewer than EXPLORE_POINTS points
# and less than EXPLORE_BUDGET_FRACTION of the budget is committed, its
# effective score is floored at (a_l / t_eff) / n_l, mimicking the
# luck-free opening value. One random glimpse per level otherwise decides
# each level's fate, which makes small-seed medians erratic.
EXPLORE_POINTS = 3
EXPLORE_BUDGET_FRACTION = 0.5


def _pick(em):
    """The level to extend next, or None when the run is over.

    The effective-score argmax (ties to the lowest level) among levels
    that are affordable within 1e-9 and still have candidates.
    """
    remaining = em.budget - em.spent
    open_levels = [
        lv
        for lv in em.levels
        if lv.cost_per_eval <= remaining + 1e-9 and lv.cands.cand.size > 0
    ]
    if not open_levels:
        return None
    exploring = em.spent < EXPLORE_BUDGET_FRACTION * em.budget
    effective = [
        max(lv.gamma, (lv.weight / lv.cost_per_eval) / lv.model.n)
        if exploring and lv.model.n < EXPLORE_POINTS
        else lv.gamma
        for lv in open_levels
    ]
    return open_levels[_first_max(effective)]


def _extend(em, lv, x, chosen, value, nu, nugget, iteration):
    """The one run step, for opening points and MICE picks alike.

    Refits level lv on its design plus (x, value), rescores it (before is
    None for the opening point), drops candidate ``chosen`` and charges the
    budget and the ledger of em.
    """
    before = lv.model
    X = x.reshape(1, -1) if before is None else np.vstack([before.X, x])
    y = np.append([] if before is None else before.y, value)
    lv.model = fit(X, y, nu, nugget=nugget, domain=em.domain)
    lv.gamma = score(before, lv.model, lv.weight, lv.cost_per_eval)
    lv.cands = lv.cands.without(chosen)
    em.spent += lv.cost_per_eval
    em.ledger.append(
        LedgerEntry(iteration, lv.level, tuple(x.tolist()), value, lv.cost_per_eval)
    )


def mlasce_run(
    ladder,
    budget,
    nu,
    a=None,
    seed=0,
    nugget=DEFAULT_TAU2,
    tau2_s=DEFAULT_TAU2_S,
    n_grid=101,
):
    """Greedy budget-constrained construction of the multilevel emulator.

    nu may be a single smoothness or one per level; a defaults to each
    increment's cost (so the default score is the undamped extension
    score). The returned emulator is the run state: each level's random
    opening point, then each ``_pick``ed level's MICE point, is evaluated
    and handed to ``_extend``, which refits, rescores and charges the
    ledger. The run is deterministic given the seed (an integer, or one
    integer per level).
    """
    L = ladder.L
    # Level l evaluates delta_l = y_l - y_{l-1} (delta_1 = y_1) at t_l + t_{l-1}.
    sims = [lv.simulator for lv in ladder.levels]
    deltas = sims[:1] + [_difference(hi, lo) for hi, lo in zip(sims[1:], sims)]
    t = [0.0] + [lv.cost for lv in ladder.levels]
    costs = [t[l + 1] + t[l] for l in range(L)]
    nus = np.broadcast_to(nu, (L,)).astype(float).tolist()
    for v in nus:
        check_nu(v)
    weights = list(costs) if a is None else [float(w) for w in np.broadcast_to(a, (L,))]
    # Each score and exploration floor is scaled by weight / cost.
    if not all(math.isfinite(w / c) and w > 0.0 for w, c in zip(weights, costs)):
        raise ValueError(
            f"weights must be positive, with finite weight / cost ratios, got {weights}"
        )
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget!r}")
    check_nuggets(nugget, tau2_s)
    n_grid = _int_arg("n_grid", n_grid)
    tau_bar = max(nugget, tau2_s)
    init_cost = sum(costs)
    if budget < init_cost - 1e-9:
        raise BudgetError(
            f"budget {budget} cannot cover one run of every increment ({init_cost})"
        )

    # seed may be a single integer (per-level streams are spawned from it)
    # or one integer per level; it is kept as plain ints for the artifact.
    if np.ndim(seed) == 0:
        seed = _int_arg("seed", seed)
        children = np.random.SeedSequence(seed).spawn(L)
    else:
        seed = [_int_arg("seed", s) for s in seed]
        children = [np.random.SeedSequence(s) for s in seed]
        if len(children) != L:
            raise ValueError(f"expected {L} per-level seeds, got {len(children)}")
    em = MultilevelEmulator(
        levels=[], domain=ladder.domain, budget=float(budget), spent=0.0, seed=seed
    )
    try:
        for i in range(L):
            cands, rng = _design_stream(ladder.domain, n_grid, children[i])
            start = int(rng.integers(len(cands.grid)))
            lv = LevelState(i + 1, None, costs[i], weights[i], cands=cands)
            em.levels.append(lv)
            x = cands.grid[start].copy()
            _extend(em, lv, x, start, _evaluate(deltas[i], x), nus[i], nugget, 0)
        iteration = 0
        while (lv := _pick(em)) is not None:
            iteration += 1
            x, chosen = _select(lv.model, lv.cands, tau_bar)
            value = _evaluate(deltas[lv.level - 1], x)
            _extend(em, lv, x, chosen, value, nus[lv.level - 1], nugget, iteration)
    except SimulatorError as exc:
        # Only _evaluate raises it, for the level lv being extended.
        exc.level = lv.level
        raise
    return em


def predict_batch(emulator, X, var=True):
    """Sum of the independent per-level posteriors at many points;
    var=False returns (means, None), as posterior_batch does."""
    means, variances = posterior_batch(emulator.levels[0].model, X, var=var)
    for lv in emulator.levels[1:]:
        m, v = posterior_batch(lv.model, X, var=var)
        means, variances = means + m, (variances + v if var else None)
    return means, variances


def error_bound(emulator, X, norm_estimates=None):
    """One bound per query row of X: sum over levels of posterior sd times norm.

    Without norm estimates the fitted means' own norms are substituted,
    which underestimates the truth; a SurrogateNormWarning flags that.
    """
    if norm_estimates is None:
        norm_estimates = [
            np.sqrt(rkhs_norm_sq(lv.model)) for lv in emulator.levels
        ]
        warnings.warn(
            "using fitted-mean norms as increment-norm estimates; the bound "
            "is a lower-biased surrogate",
            SurrogateNormWarning,
            stacklevel=2,
        )
    norms = [float(v) for v in norm_estimates]
    if len(norms) != emulator.L:
        raise ValueError(f"expected {emulator.L} norm estimates, got {len(norms)}")
    if not all(math.isfinite(v) and v >= 0.0 for v in norms):
        raise ValueError(f"norm estimates must be finite and nonnegative, got {norms}")
    total = 0.0
    for lv, nrm in zip(emulator.levels, norms):
        _, var = posterior_batch(lv.model, X)
        total = total + np.sqrt(var) * nrm
    return total
