"""Planner tests.

The closed form is validated against an independent constrained optimizer
run on the relaxed objective (the closed form is its exact Lagrange
solution), and the numerical solver against local perturbations along the
budget line.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize

from mlasce.errors import InfeasibleError
from mlasce.planner import (
    PlanParams,
    allocation_objective,
    bound_term,
    closed_form_allocation,
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

    def test_never_loses_to_rounded_closed_form(self):
        params = PlanParams(**TABLE)
        plan = solve_allocation(params)
        rounded = closed_form_allocation(params).n_rounded
        assert plan.objective <= allocation_objective(params, rounded) + 1e-12


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
            plan = solve_allocation(params, n_starts=6, seed=1)
            assert np.all(plan.n_rounded >= 1)
            assert plan.n_rounded @ np.array(params.t) <= params.budget * (1 + 1e-9)


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
        plan = solve_allocation(params, seed=3)
        assert plan.n_runs @ np.array(params.t) == pytest.approx(200.0, rel=1e-9)
        assert np.all(plan.n_runs >= lower_bounds(params) - 1e-9)

    def test_closed_form_requires_common_nu(self):
        params = PlanParams(
            h=(1.0, 0.5), t=(1.0, 4.0), nu=(2.5, 1.5), d=1, alpha=1.0, budget=50.0
        )
        with pytest.raises(ValueError):
            closed_form_allocation(params)
