"""Multilevel emulation: increment simulators, the greedy budget loop,
prediction and error-bound reporting.

Each fidelity increment gets its own GP; the loop repeatedly extends the
level whose latest extension score (see ``score``) is largest among the
levels still affordable, with a breadth-first exploration floor early in
the budget. Only the extended level's score changes between iterations,
so the others stay cached.
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
    DesignState,
    _evaluate,
    _first_max,
    _select,
    generate_grid,
)
from .errors import BudgetError, SimulatorError
from .gp import GPModel, _unit_residual_var, fit, posterior_batch, rkhs_norm_sq
from .kernels import SUPPORTED_NU


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
        costs = [lv.cost for lv in self.levels]
        accs = [lv.accuracy for lv in self.levels]
        if any(c <= 0 for c in costs):
            raise ValueError("costs must be positive")
        if any(b <= a for a, b in zip(costs, costs[1:])):
            raise ValueError("costs must be strictly increasing across levels")
        if any(b >= a for a, b in zip(accs, accs[1:])):
            raise ValueError("accuracies must be strictly decreasing across levels")
        if not 0.0 < accs[0] <= 1.0:
            raise ValueError("first-level accuracy must lie in (0, 1]")
        if accs[-1] <= 0.0:
            raise ValueError("accuracies must stay positive")

    @property
    def L(self):
        return len(self.levels)


@dataclass(frozen=True)
class IncrementSimulator:
    """Evaluates delta_l = y_l - y_{l-1} (delta_1 = y_1) at t_l + t_{l-1} cost."""

    level: int
    eval: object
    cost_per_eval: float


def increments(ladder):
    """Increment simulators for every level of the ladder."""
    out = []
    prev_cost = 0.0
    prev_sim = None
    for i, lv in enumerate(ladder.levels):
        if prev_sim is None:
            delta = lv.simulator
        else:
            delta = _difference(lv.simulator, prev_sim)
        out.append(
            IncrementSimulator(
                level=i + 1, eval=delta, cost_per_eval=lv.cost + prev_cost
            )
        )
        prev_cost = lv.cost
        prev_sim = lv.simulator
    return out


def _difference(hi, lo):
    def delta(x, _hi=hi, _lo=lo):
        return float(np.asarray(_hi(x)).reshape(())) - float(
            np.asarray(_lo(x)).reshape(())
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

    @classmethod
    def from_models(cls, models, domain, costs=None, weights=None, budget=0.0):
        """Assemble an emulator directly from fitted per-level models."""
        levels = []
        for i, m in enumerate(models):
            c = 1.0 if costs is None else costs[i]
            w = c if weights is None else weights[i]
            levels.append(
                LevelState(level=i + 1, model=m, cost_per_eval=c, weight=w)
            )
        return cls(levels=levels, domain=domain, budget=budget, spent=0.0)


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
    r, var = _unit_residual_var(model_before, model_after.X[-1:])
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
    score). Levels are extended by the effective-score argmax among those
    still affordable (ties to the lowest level), where the effective score
    adds the breadth-first exploration floor described above. A level's
    random opening point and each later MICE pick take the same step:
    evaluate, refit, rescore, charge the ledger. The run is deterministic
    given the seed (an integer, or one integer per level).
    """
    incs = increments(ladder)
    L = ladder.L
    nus = list(np.broadcast_to(nu, (L,)).astype(float))
    for v in nus:
        if v not in SUPPORTED_NU:
            raise ValueError(f"unsupported smoothness {v!r}")
    costs = [inc.cost_per_eval for inc in incs]
    weights = list(costs) if a is None else [float(w) for w in np.broadcast_to(a, (L,))]
    if not all(math.isfinite(w) and w > 0.0 for w in weights):
        raise ValueError(f"weights must be finite and positive, got {weights}")
    if not math.isfinite(budget):
        raise ValueError(f"budget must be finite, got {budget!r}")
    if not (math.isfinite(tau2_s) and tau2_s >= 0.0):
        raise ValueError(f"stabilizer tau2_s must be finite and >= 0, got {tau2_s!r}")
    init_cost = sum(costs)
    if budget < init_cost - 1e-9:
        raise BudgetError(
            f"budget {budget} cannot cover one run of every increment ({init_cost})"
        )

    # seed may be a single integer (per-level streams are spawned from it)
    # or one integer per level.
    if np.ndim(seed) == 0:
        children = np.random.SeedSequence(int(seed)).spawn(L)
    else:
        children = [np.random.SeedSequence(int(s)) for s in seed]
        if len(children) != L:
            raise ValueError(f"expected {L} per-level seeds, got {len(children)}")
    levels = []
    ledger = []
    spent = 0.0

    def extend(lv, x, chosen, iteration):
        # The one step for opening points and MICE picks; before is None on the first.
        nonlocal spent
        try:
            d_val = _evaluate(incs[lv.level - 1].eval, x)
        except SimulatorError as exc:
            exc.level = lv.level
            raise
        before = lv.model
        X = x.reshape(1, -1) if before is None else np.vstack([before.X, x])
        y = np.append([] if before is None else before.y, d_val)
        lv.model = fit(X, y, nus[lv.level - 1], nugget=nugget, domain=ladder.domain)
        lv.gamma = score(before, lv.model, lv.weight, lv.cost_per_eval)
        lv.cands = lv.cands.without(chosen)
        spent += lv.cost_per_eval
        ledger.append(
            LedgerEntry(
                iteration=iteration,
                level=lv.level,
                x=tuple(x.tolist()),
                delta=d_val,
                cost=lv.cost_per_eval,
            )
        )

    for i, inc in enumerate(incs):
        grid_seed, init_seed = (int(c.generate_state(1)[0]) for c in children[i].spawn(2))
        cands = generate_grid(ladder.domain, n_grid, grid_seed)
        start = int(np.random.default_rng(init_seed).integers(len(cands.grid)))
        lv = LevelState(
            level=inc.level,
            model=None,
            cost_per_eval=costs[i],
            weight=weights[i],
            cands=cands,
        )
        levels.append(lv)
        extend(lv, cands.grid[start].copy(), start, iteration=0)

    def effective(lv):
        if lv.model.n < EXPLORE_POINTS and spent < EXPLORE_BUDGET_FRACTION * budget:
            floor = (lv.weight / lv.cost_per_eval) / lv.model.n
            return max(lv.gamma, floor)
        return lv.gamma

    iteration = 0
    while True:
        remaining = budget - spent
        affordable = [
            i
            for i, lv in enumerate(levels)
            if lv.cost_per_eval <= remaining + 1e-9 and lv.cands.cand.size > 0
        ]
        if not affordable:
            break
        pick = affordable[_first_max([effective(levels[i]) for i in affordable])]
        iteration += 1
        lv = levels[pick]
        state = DesignState(
            X=lv.model.X, y=lv.model.y, model=lv.model, tau2=nugget, tau2_s=tau2_s
        )
        x, chosen = _select(state, lv.cands)
        extend(lv, x, chosen, iteration)

    return MultilevelEmulator(
        levels=levels,
        domain=ladder.domain,
        budget=float(budget),
        spent=spent,
        ledger=ledger,
        seed=seed,
    )


def predict_batch(emulator, X):
    """Sum of the independent per-level posteriors at many points."""
    means, variances = posterior_batch(emulator.levels[0].model, X)
    for lv in emulator.levels[1:]:
        m, v = posterior_batch(lv.model, X)
        means, variances = means + m, variances + v
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
    if any(v < 0 for v in norms):
        raise ValueError("norm estimates must be nonnegative")
    total = 0.0
    for lv, nrm in zip(emulator.levels, norms):
        _, var = posterior_batch(lv.model, X)
        total = total + np.sqrt(var) * nrm
    return total
