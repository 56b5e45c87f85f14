"""Planner tests.

The closed form is validated against an independent constrained optimizer
run on the relaxed objective (the closed form is its exact Lagrange
solution). The numerical solver is checked against local perturbations
along the budget line, a dense brute-force scan of the budget simplex at
L = 2 and 3, and a multi-start Nelder-Mead search at L <= 5.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import minimize

from mlasce.emulator import FidelityLadder, Level
from mlasce.errors import InfeasibleError
from mlasce.planner import (
    _BUDGET_RTOL,
    MAX_PLAN_LEVELS,
    PlanParams,
    allocation_objective,
    bound_term,
    closed_form_allocation,
    _round_counts,
    lower_bounds,
    solve_allocation,
)

TABLE = dict(
    h=(1.0, 0.5, 0.25, 0.125, 0.0625),
    t=(0.5, 2.0, 8.0, 32.0, 128.0),
    nu=2.5,
    d=1,
    alpha=1.0,
    budget=800.0,
)


def random_params(rng, common_nu=True):
    L = int(rng.integers(2, 6))
    d = int(rng.integers(1, 4))
    ratios = rng.uniform(0.3, 0.8, size=L - 1)
    h = [rng.uniform(0.5, 1.0)]
    for q in ratios:
        h.append(h[-1] * q)
    t = [rng.uniform(0.2, 2.0)]
    for _ in range(L - 1):
        t.append(t[-1] * rng.uniform(2.0, 6.0))
    lo = d / (2.0 * math.e) + 0.2
    nu = rng.uniform(lo, 4.0) if common_nu else tuple(rng.uniform(lo, 4.0, size=L))
    alpha = rng.choice([0.5, 1.0, 2.0])
    budget = sum(t) * rng.uniform(3.0, 20.0)
    return PlanParams(h=tuple(h), t=tuple(t), nu=nu, d=d, alpha=alpha, budget=budget)


# (h, t) pairs that break one ladder rule each.
BAD_LADDERS = {
    "equal-costs": ((1.0, 0.5), (4.0, 4.0)),
    "falling-costs": ((1.0, 0.5), (4.0, 2.0)),
    "zero-cost": ((1.0, 0.5), (0.0, 4.0)),
    "negative-cost": ((1.0,), (-1.0,)),
    "nan-cost": ((1.0, 0.5), (math.nan, 4.0)),
    "equal-accuracies": ((1.0, 1.0), (1.0, 4.0)),
    "rising-accuracies": ((0.5, 1.0), (1.0, 4.0)),
    "nan-accuracy": ((1.0, math.nan), (1.0, 4.0)),
    "h1-above-one": ((1.5, 0.5), (1.0, 4.0)),
    "h1-zero": ((0.0,), (1.0,)),
    "hL-zero": ((0.5, 0.0), (1.0, 4.0)),
    "hL-negative": ((0.5, -0.25), (1.0, 4.0)),
}


@pytest.mark.parametrize("h, t", BAD_LADDERS.values(), ids=BAD_LADDERS.keys())
def test_bad_ladder_rejected_alike_by_ladder_and_plan(h, t):
    with pytest.raises(ValueError) as ladder:
        FidelityLadder(
            levels=tuple(Level(simulator=None, cost=c, accuracy=a) for a, c in zip(h, t)),
            domain=(0.0, 1.0),
        )
    with pytest.raises(ValueError) as plan:
        PlanParams(h=h, t=t, nu=2.5, d=1, alpha=1.0, budget=1e3)
    assert str(ladder.value) == str(plan.value)


class TestBoundTerm:
    def test_zero_at_one_run(self):
        assert bound_term(1.0, 0.0, 1.0, 2.5, 1, 1) == 0.0

    def test_direct_evaluation_at_e(self):
        # unit gap, nu = d: e^{-1} * sqrt(log e) = e^{-1}
        got = bound_term(1.0, 0.0, 0.7, 2.0, 2, math.e)
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_doubling_ratio_oracle(self):
        n = 7.0
        a = bound_term(0.5, 1.0, 1.0, 2.5, 1, n)
        b = bound_term(0.5, 1.0, 1.0, 2.5, 1, 2 * n)
        want = 2.0 ** (-2.5) * math.sqrt(math.log(2 * n) / math.log(n))
        assert b / a == pytest.approx(want, rel=1e-12)

    def test_rejects_counts_below_one(self):
        with pytest.raises(ValueError):
            bound_term(1.0, 0.0, 1.0, 2.5, 1, 0.5)


class TestSolveAllocation:
    def test_single_level_takes_all_budget(self):
        params = PlanParams(h=(1.0,), t=(2.0,), nu=2.5, d=1, alpha=1.0, budget=50.0)
        plan = solve_allocation(params)
        assert plan.n_runs[0] == pytest.approx(25.0)

    def test_table_counts_decrease_with_level(self):
        plan = solve_allocation(PlanParams(**TABLE))
        n = plan.n_runs
        assert np.all(np.diff(n) < 0)
        assert n[0] == max(n)
        assert n @ np.array(TABLE["t"]) == pytest.approx(800.0, rel=1e-9)

    def test_local_optimality_along_budget_line(self):
        params = PlanParams(**TABLE)
        plan = solve_allocation(params)
        base = plan.objective
        t = np.array(params.t)
        lb = lower_bounds(params)
        rng = np.random.default_rng(123)
        for _ in range(100):
            i, j = rng.choice(params.L, size=2, replace=False)
            eps = rng.uniform(-0.2, 0.2)
            n = plan.n_runs.copy()
            n[i] += eps
            n[j] -= eps * t[i] / t[j]  # stays on the budget line
            if np.any(n < lb):
                continue
            assert allocation_objective(params, n) >= base - 1e-9

    def test_infeasible_budget(self):
        with pytest.raises(InfeasibleError):
            PlanParams(h=(1.0, 0.5), t=(1.0, 10.0), nu=2.5, d=1, alpha=1.0, budget=5.0)
        tight = PlanParams(
            h=(1.0, 0.5), t=(1.0, 10.0), nu=0.25, d=1, alpha=1.0, budget=11.5
        )
        # nu = 0.25, d = 1: floor exp(2) = 7.39 per level; cost >> budget
        with pytest.raises(InfeasibleError):
            solve_allocation(tight)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="finite"):
            PlanParams(h=(1.0, 0.5), t=(1.0, 10.0), nu=2.5, d=1, alpha=1.0, budget=budget)

    @pytest.mark.parametrize("alpha", [1e308, math.inf, math.nan, 0.0, -1.0])
    def test_alpha_not_positive_or_overflowing(self, alpha):
        # 1e308 is finite, but 2 alpha is not, and level 1's 2 alpha log 1
        # would be inf * 0 = nan.
        with pytest.raises(ValueError, match="alpha"):
            PlanParams(h=(1.0, 0.5), t=(1.0, 10.0), nu=2.5, d=1, alpha=alpha, budget=50.0)

    def test_never_loses_to_rounded_closed_form(self):
        params = PlanParams(**TABLE)
        plan = solve_allocation(params)
        rounded = closed_form_allocation(params).n_rounded
        assert plan.objective <= allocation_objective(params, rounded) + 1e-12


# Level 3 ends on the rising branch of its marginal gain, below its peak N*.
RISING = PlanParams(
    h=(0.503088414392139, 0.37476697657045777, 0.16221939775652963),
    t=(1.4980984150103156, 7.050677125923071, 32.62775435975283),
    nu=(2.869673805924416, 2.503906447291809, 0.8007953638653996),
    d=1,
    alpha=2.0,
    budget=128.14856300192054,
)


def objective_rows(params, n):
    """allocation_objective of every row of n."""
    a = np.asarray(params.nu) / params.d
    c = np.asarray(params.gaps()) ** (2.0 * params.alpha)
    return np.sum(c * n ** (-a) * np.sqrt(np.log(n)), axis=-1)


def peak_count(nu, d):
    """N* where -g'(N) = c (a log N - 1/2) N^(-a-1) / sqrt(log N) peaks, a = nu/d."""
    a = nu / d
    b = 2.0 * a + 1.0
    return math.exp((b + math.sqrt(b * b + 4.0 * a * (a + 1.0))) / (4.0 * a * (a + 1.0)))


def brute_force_minimum(params, m):
    """Lowest objective on an m-per-axis grid of the budget simplex above the floors."""
    t = np.asarray(params.t)
    lb = lower_bounds(params)
    axes = np.meshgrid(*[np.linspace(0.0, 1.0, m)] * (params.L - 1), indexing="ij")
    share = np.stack([ax.ravel() for ax in axes], axis=1)
    share = share[share.sum(axis=1) <= 1.0]
    share = np.column_stack([share, 1.0 - share.sum(axis=1)])
    return objective_rows(params, lb + share * (params.budget - t @ lb) / t).min()


def nelder_mead_minimum(params):
    """Best feasible objective of 8 penalised Nelder-Mead runs over the
    first L - 1 log-counts, the last count fixed by the budget."""
    t = np.asarray(params.t)
    T = params.budget
    lb = lower_bounds(params)
    ub = (T - (lb @ t - lb * t)) / t
    lo, hi = np.log(lb[:-1]), np.log(ub[:-1])

    def counts(z):
        n = np.exp(np.clip(z, lo, hi))
        return np.append(n, (T - n @ t[:-1]) / t[-1])

    def penalised(z):
        n = counts(z)
        gap = max(lb[-1] - n[-1], 0.0)
        n[-1] = max(n[-1], lb[-1])
        return objective_rows(params, n) + 1e3 * gap * gap + gap

    rng = np.random.default_rng(0)
    starts = [np.log(np.clip(T / (params.L * t[:-1]), lb[:-1], ub[:-1]))]
    starts += [lo + rng.uniform(size=params.L - 1) * (hi - lo) for _ in range(7)]
    best = np.inf
    for z0 in starts:
        res = minimize(penalised, z0, method="Nelder-Mead",
                       options={"maxfev": 400 * params.L, "xatol": 1e-8, "fatol": 1e-12})
        n = counts(res.x)
        if n[-1] >= lb[-1]:
            best = min(best, allocation_objective(params, n))
    return best


def feasible_draws(seed, count, max_levels=5):
    """The first count per-level-nu draws of random_params with at most
    max_levels levels whose budget covers every floor."""
    rng = np.random.default_rng(seed)
    draws = []
    while len(draws) < count:
        params = random_params(rng, common_nu=False)
        floor_cost = np.asarray(params.t) @ lower_bounds(params)
        if params.L <= max_levels and floor_cost <= params.budget:
            draws.append(params)
    return draws


class TestExactAllocation:
    def test_rising_branch_optimum(self):
        # A search over falling branches only ends 1.3% higher on this draw.
        plan = solve_allocation(RISING)
        assert plan.objective <= 0.0009853 * (1.0 + 1e-9)
        assert plan.n_runs[2] < peak_count(RISING.nu[2], RISING.d)
        assert plan.n_runs @ np.array(RISING.t) == pytest.approx(RISING.budget, rel=1e-9)

    @pytest.mark.parametrize(
        "params,m",
        [(p, 20001) for p in feasible_draws(21, 8, max_levels=2)]
        + [(p, 801) for p in feasible_draws(31, 8, max_levels=3) if p.L == 3]
        + [(RISING, 801)],
    )
    def test_never_above_brute_force_grid(self, params, m):
        plan = solve_allocation(params)
        assert plan.objective <= brute_force_minimum(params, m) * (1.0 + 1e-9)

    @pytest.mark.parametrize("params", feasible_draws(0, 12))
    def test_never_above_nelder_mead(self, params):
        plan = solve_allocation(params)
        assert plan.objective <= nelder_mead_minimum(params) * (1.0 + 1e-10)
        assert plan.n_runs @ np.array(params.t) == pytest.approx(params.budget, rel=1e-9)
        assert np.all(plan.n_runs >= lower_bounds(params))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_gaussian_level_stays_at_floor(self, k):
        # nu = inf zeroes a level's bound term at every N >= 1.
        nu = list(RISING.nu)
        nu[k] = math.inf
        params = replace(RISING, nu=tuple(nu))
        plan = solve_allocation(params)
        assert plan.n_runs[k] == 1.0
        assert plan.objective <= brute_force_minimum(params, 801) * (1.0 + 1e-9)
        assert plan.objective <= nelder_mead_minimum(params) * (1.0 + 1e-10)
        assert plan.n_runs @ np.array(params.t) == pytest.approx(params.budget, rel=1e-9)

    def test_rejects_too_many_levels(self):
        L = MAX_PLAN_LEVELS + 1
        params = PlanParams(
            h=tuple(0.5**l for l in range(L)),
            t=tuple(2.0**l for l in range(L)),
            nu=2.5,
            d=1,
            alpha=1.0,
            budget=2.0 ** (L + 2),
        )
        with pytest.raises(ValueError, match=f"at most {MAX_PLAN_LEVELS} levels"):
            solve_allocation(params)


class TestClosedForm:
    def test_single_level(self):
        params = PlanParams(h=(1.0,), t=(4.0,), nu=2.5, d=1, alpha=1.0, budget=100.0)
        plan = closed_form_allocation(params)
        assert plan.n_runs[0] == pytest.approx(25.0)

    def test_budget_identity_table(self):
        plan = closed_form_allocation(PlanParams(**TABLE))
        spend = plan.n_runs @ np.array(TABLE["t"])
        assert spend == pytest.approx(800.0, rel=1e-9)

    def test_budget_identity_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            params = random_params(rng)
            plan = closed_form_allocation(params)
            spend = plan.n_runs @ np.array(params.t)
            assert spend == pytest.approx(params.budget, rel=1e-9)

    def test_matches_relaxed_problem_optimum(self):
        # Independent oracle: minimize the relaxed objective sum gap^2a N^r
        # under the budget equality with an equality-constrained solver.
        params = PlanParams(**TABLE)
        nu = params.nu[0]
        r = -nu / params.d + 1.0 / (2.0 * math.e)
        gaps = np.asarray(params.gaps())
        t = np.asarray(params.t)

        def relaxed(n):
            return float(np.sum(gaps ** (2 * params.alpha) * n ** r))

        cons = {"type": "eq", "fun": lambda n: n @ t - params.budget}
        res = minimize(
            relaxed,
            params.budget / (params.L * t),
            method="SLSQP",
            bounds=[(1e-6, None)] * params.L,
            constraints=[cons],
            options={"maxiter": 2000, "ftol": 1e-16},
        )
        plan = closed_form_allocation(params)
        np.testing.assert_allclose(plan.n_runs, res.x, rtol=1e-6)

    def test_condition_violation(self):
        params = PlanParams(h=(1.0, 0.5), t=(1.0, 4.0), nu=0.15, d=1, alpha=1.0,
                            budget=50.0)
        with pytest.raises(ValueError):
            closed_form_allocation(params)

    def test_linear_budget_response(self):
        rng = np.random.default_rng(11)
        params = random_params(rng)
        bigger = PlanParams(params.h, params.t, params.nu, params.d, params.alpha,
                            params.budget * 2.0)
        a = closed_form_allocation(params).n_runs
        b = closed_form_allocation(bigger).n_runs
        np.testing.assert_allclose(b, 2.0 * a, rtol=1e-12)

    def test_alpha_shifts_mass_to_lower_levels(self):
        base = PlanParams(**TABLE)
        alpha2 = PlanParams(TABLE["h"], TABLE["t"], TABLE["nu"], TABLE["d"], 2.0,
                            TABLE["budget"])
        n1 = closed_form_allocation(base).n_runs
        n2 = closed_form_allocation(alpha2).n_runs
        assert n2[0] / n1[0] > 1.0
        assert n2[-1] / n1[-1] < 1.0


class TestAgreement:
    def test_table_numerical_vs_closed_form_within_15_percent(self):
        params = PlanParams(**TABLE)
        num = solve_allocation(params).n_runs
        cf = closed_form_allocation(params).n_runs
        rel = np.abs(num - cf) / cf
        assert np.all(rel <= 0.15), rel


class TestRounding:
    def test_rounded_counts_within_budget_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            params = random_params(rng)
            plan = solve_allocation(params)
            assert np.all(plan.n_rounded >= 1)
            assert plan.n_rounded @ np.array(params.t) <= params.budget * (1 + 1e-9)


def unit_step_rounding(n, t, budget):
    """Reference rounding: the overspend repair one unit at a time."""
    floors = np.maximum(np.floor(n), 1.0)
    while floors @ t > budget * (1.0 + _BUDGET_RTOL):
        adjustable = np.nonzero(floors > 1.0)[0]
        if adjustable.size == 0:
            break
        floors[adjustable[np.argmax(t[adjustable])]] -= 1.0
    for j in np.argsort(-(n - floors)):
        if floors @ t + t[j] <= budget * (1.0 + _BUDGET_RTOL):
            floors[j] += 1.0
    return floors.astype(int)


class TestRoundCounts:
    def test_bisected_repair_matches_unit_steps(self):
        # Counts below 1 are lifted to 1, often overspending; the repair
        # cuts the dearest counts above 1, by bisection instead of unit steps.
        rng = np.random.default_rng(8)
        repaired = 0
        for _ in range(1000):
            L = int(rng.integers(1, 6))
            t = np.sort(rng.uniform(0.01, 10.0, L)) * 10.0 ** rng.uniform(-3, 3)
            n = 10.0 ** rng.uniform(-2, 3.0, L)
            if rng.random() < 0.5:
                n[rng.integers(L)] = rng.uniform(0.0, 1.0)
            budget = float(n @ t) * rng.uniform(0.3, 1.2)
            floors = np.maximum(np.floor(n), 1.0)
            repaired += bool(floors @ t > budget * (1.0 + _BUDGET_RTOL))
            got = _round_counts(n, t, budget)
            assert got.dtype == int
            np.testing.assert_array_equal(got, unit_step_rounding(n, t, budget))
        assert repaired > 300

    def test_large_repair_is_prompt(self):
        # Lifting level 2 to 1 run overspends by 0.5, which unit steps of
        # 1e-12 would repair in 5e11 iterations; bisection takes about 50.
        t = np.array([1e-12, 1.0])
        got = _round_counts(np.array([1e15, 0.5]), t, 1000.5)
        limit = 1000.5 * (1.0 + _BUDGET_RTOL)
        assert got[1] == 1 and 999_000_000_000_000 < got[0] < 10**15
        assert got @ t <= limit < (got + [1, 0]) @ t

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 2.0**63, 1e300])
    def test_count_that_int64_cannot_hold_is_rejected(self, bad):
        with pytest.raises(ValueError, match="level 2: run count .* 64-bit integer"):
            _round_counts(np.array([3.0, bad]), np.array([1.0, 2.0]), 1e308)

    def test_largest_int64_count_is_kept(self):
        top = np.nextafter(2.0**63, 0.0)
        assert _round_counts(np.array([top]), np.array([1.0]), 1e300).tolist() == [int(top)]


class TestPerLevelSmoothness:
    def test_varied_nu_solver_runs(self):
        params = PlanParams(
            h=(1.0, 0.5, 0.25),
            t=(1.0, 4.0, 16.0),
            nu=(3.5, 2.5, 1.5),
            d=1,
            alpha=1.0,
            budget=200.0,
        )
        plan = solve_allocation(params)
        assert plan.n_runs @ np.array(params.t) == pytest.approx(200.0, rel=1e-9)
        assert np.all(plan.n_runs >= lower_bounds(params) - 1e-9)

    def test_closed_form_requires_common_nu(self):
        params = PlanParams(
            h=(1.0, 0.5), t=(1.0, 4.0), nu=(2.5, 1.5), d=1, alpha=1.0, budget=50.0
        )
        with pytest.raises(ValueError):
            closed_form_allocation(params)


class TestLargeAlpha:
    """A large alpha gives a plan without overflow, or a ValueError naming alpha.

    On the run3 ladder each level's log weight is 2 alpha log|h_l - h_(l-1)|:
    down to -416 at alpha 150 and -555 at 200, past -700 from about 252.
    """

    RUN3 = dict(h=(1.0, 0.5, 0.25), t=(4.0, 16.0, 64.0), nu=2.5, d=1, budget=240.0)

    @pytest.mark.parametrize("alpha", [10, 100, 150, 200, 1e3, 1e10])
    def test_plan_or_value_error_without_overflow(self, alpha):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            if alpha >= 1e3:
                with pytest.raises(ValueError, match="alpha"):
                    PlanParams(alpha=alpha, **self.RUN3)
                return
            params = PlanParams(alpha=alpha, **self.RUN3)
            plans = [solve_allocation(params), closed_form_allocation(params)]
        for plan in plans:
            assert np.all(np.isfinite(plan.n_runs)) and math.isfinite(plan.objective)
            assert np.all(plan.n_rounded >= 1)
            assert plan.n_rounded @ params.t <= params.budget * (1.0 + _BUDGET_RTOL)

    @pytest.mark.parametrize(
        "alpha, n_runs, objective",
        [
            (10, [35.571944836796604, 1.2214027581601699, 1.2214027581601699],
             0.00025067336231324357),
            (100, [35.571944836796604, 1.2214027581601699, 1.2214027581601699],
             0.00025041467909353034),
        ],
    )
    def test_moderate_alpha_plans_unchanged(self, alpha, n_runs, objective):
        # The values the planner gave before large alphas were bounded.
        plan = solve_allocation(PlanParams(alpha=alpha, **self.RUN3))
        assert plan.n_runs.tolist() == n_runs and plan.objective == objective
        assert plan.n_rounded.tolist() == [36, 2, 1]
        closed = closed_form_allocation(PlanParams(alpha=100, **self.RUN3))
        assert closed.n_runs.tolist() == [60.0, 2.7587378403998143e-17, 1.2684390786756385e-35]
