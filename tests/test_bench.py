"""Benchmark-suite tests: toy closed forms, quadrature, the AR(1)
baseline and sweep bookkeeping."""

import math
import re
import warnings

import numpy as np
import pytest

from mlasce.bench import (
    TOY3,
    TOY5,
    _run_cell,
    ar1_cokriging_fit,
    get_suite,
    l2_error,
    ladder_for,
    nested_baseline_designs,
    results_to_csv,
    run_suite,
    toy3_f,
    toy5_f,
    xi,
    xi5,
)
from mlasce.emulator import mlasce_run
from mlasce.errors import InfeasibleError
from mlasce.gp import posterior_batch
from mlasce.kernels import KernelSpec
from oracles import matern

PI = math.pi


class TestToyFunctions:
    def test_level_one_is_sine(self):
        assert toy3_f(1, PI / 2) == pytest.approx(1.0)
        assert toy5_f(1, PI / 2) == pytest.approx(1.0)

    def test_first_increment_peaks_at_its_center(self):
        got = toy3_f(2, PI / 3) - toy3_f(1, PI / 3)
        assert got == pytest.approx(1.0, abs=1e-15)

    def test_bump_is_matern_correlation(self):
        spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.0)
        x = np.linspace(0.0, PI, 1000)
        np.testing.assert_allclose(
            xi(x, PI / 3, 0.4), matern(np.abs(x - PI / 3), spec), atol=1e-12, rtol=0
        )

    def test_compact_support_of_level2_bump(self):
        x = np.linspace(0.0, PI, 4001)
        outside = (np.abs(x - PI / 6) >= PI / 8) & (np.abs(x - 5 * PI / 6) >= PI / 8)
        np.testing.assert_array_equal(
            toy5_f(2, x[outside]), toy5_f(1, x[outside])
        )

    def test_xi5_pieces_meet_continuously(self):
        a = PI / 8
        for b in (a, a + 1.0):
            left = xi5(np.array([b - 1e-9]), a)[0]
            right = xi5(np.array([b + 1e-9]), a)[0]
            assert abs(left - right) < 1e-7

    def test_level_bounds_checked(self):
        with pytest.raises(ValueError):
            toy3_f(4, 1.0)
        with pytest.raises(ValueError):
            toy5_f(0, 1.0)

    def test_cost_tables(self):
        assert TOY3.f_costs == (4.0, 16.0, 64.0)
        assert TOY3.increment_costs == (4.0, 20.0, 80.0)
        assert TOY5.f_costs == (0.5, 2.0, 8.0, 32.0, 128.0)
        assert TOY5.increment_costs == (0.5, 2.5, 10.0, 40.0, 160.0)
        incs = [4.0] + [a + b for a, b in zip(TOY3.f_costs[1:], TOY3.f_costs[:-1])]
        assert tuple(incs) == TOY3.increment_costs

    def test_get_suite(self):
        assert get_suite("toy3") is TOY3
        with pytest.raises(ValueError):
            get_suite("toy7")


class TestL2Error:
    def test_zero_for_identical_functions(self):
        assert l2_error(np.sin, np.sin) == 0.0

    def test_constant_offset(self):
        got = l2_error(lambda x: np.sin(x) + 0.3, np.sin)
        assert got == pytest.approx(0.09 * PI, abs=1e-10)

    def test_sine_difference(self):
        got = l2_error(np.sin, lambda x: np.zeros_like(x))
        assert got == pytest.approx(PI / 2, abs=1e-8)


class TestAr1Baseline:
    def test_degenerate_hierarchy_rho_one(self):
        # y_2 identical to y_1: rho-hat 1, flat residual GP, predictions match.
        suite = TOY3
        designs = nested_baseline_designs(suite, 340.0, seed=0)

        class TwoLevel:
            name = "two"
            L = 2
            domain = suite.domain
            f_costs = (4.0, 16.0)

            @staticmethod
            def f(level, x):
                return np.sin(np.asarray(x, dtype=float))

        base = ar1_cokriging_fit(TwoLevel, [designs[0], designs[1]])
        assert base.rhos[0] == pytest.approx(1.0, abs=1e-12)
        xs = np.linspace(0, PI, 50)
        m2 = base.predict_batch(xs)
        m1, _ = __import__("mlasce.gp", fromlist=["posterior_batch"]).posterior_batch(
            base.models[0], xs
        )
        np.testing.assert_allclose(m2, m1, atol=1e-9)

    def test_mean_is_bitwise_the_recursion_of_full_posterior_means(self):
        base = ar1_cokriging_fit(TOY3, nested_baseline_designs(TOY3, 340.0, seed=2))
        xs = np.linspace(0, PI, 1001)
        expect = posterior_batch(base.models[0], xs)[0]
        for rho, model in zip(base.rhos, base.models[1:]):
            expect = rho * expect + posterior_batch(model, xs)[0]
        got = base.predict_batch(xs)
        assert np.array_equal(got.view(np.int64), expect.view(np.int64))

    def test_rho_least_squares_oracle(self):
        class Doubling:
            name = "double"
            L = 2
            domain = (0.0, PI)
            f_costs = (1.0, 4.0)

            @staticmethod
            def f(level, x):
                x = np.asarray(x, dtype=float)
                return np.sin(x) if level == 1 else 2.0 * np.sin(x)

        x1 = np.linspace(0.1, PI - 0.1, 12).reshape(-1, 1)
        x2 = x1[::3]
        base = ar1_cokriging_fit(Doubling, [x1, x2])
        assert base.rhos[0] == pytest.approx(2.0, abs=1e-10)

    def test_non_nested_rejected(self):
        x1 = np.linspace(0.0, PI, 8).reshape(-1, 1)
        x2 = np.array([[0.123]])
        with pytest.raises(ValueError):
            ar1_cokriging_fit(TOY3, [x1, x2, x2])

    def test_design_sizes_and_nesting(self):
        designs = nested_baseline_designs(TOY3, 340.0, seed=1)
        sizes = [len(d) for d in designs]
        assert sizes == [17, 8, 2]
        spend = sum(n * c for n, c in zip(sizes, TOY3.f_costs))
        assert spend <= 340.0
        for fine, coarse in zip(designs[1:], designs[:-1]):
            assert set(fine.ravel()) <= set(coarse.ravel())

    def test_infeasible_budget_raises(self):
        with pytest.raises(InfeasibleError):
            nested_baseline_designs(TOY3, 100.0, seed=0)

    @pytest.mark.parametrize("budget", [1e30, math.inf, -math.inf, math.nan])
    def test_sizes_beyond_int64_raise_naming_the_budget(self, budget):
        # Cast unchecked, 1e30 gave negative sizes (an invalid cast) and a
        # false "cannot place one point at the top level".
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            message = f"budget {budget} gives baseline design sizes"
            with pytest.raises(ValueError, match=re.escape(message)):
                nested_baseline_designs(TOY3, budget, seed=1)


class TestRunCell:
    # repr of each cell's L2 error as computed with the full posterior
    # (means and variances): the mean-only path must reproduce every bit.
    @pytest.mark.parametrize(
        "suite,method,budget,nu,l2",
        [
            ("toy3", "mlasce", 340.0, None, 0.5767696823242955),
            ("toy3", "ar1_baseline", 340.0, None, 0.1574765881886021),
            ("toy5", "mlasce", 1150.0, (3.5, 2.5, 2.5, 1.5, 1.5), 0.05322000946217493),
            ("toy5", "ar1_baseline", 1150.0, (3.5, 2.5, 2.5, 1.5, 1.5), 0.04447526419840915),
        ],
    )
    def test_l2_reproduces_full_posterior_value(self, suite, method, budget, nu, l2):
        result = _run_cell((suite, method, budget, 2, nu, 101))
        assert result.status == "ok"
        assert repr(result.l2) == repr(l2)


class TestRunSuite:
    def test_rows_and_ledger_bound(self):
        results = run_suite(TOY3, "mlasce", [340.0, 380.0], [0, 1], n_grid=41)
        assert len(results) == 4
        for r in results:
            assert r.status == "ok"
            spend = sum(n * c for n, c in zip(r.counts, TOY3.increment_costs))
            assert spend <= r.budget + 1e-9
            assert r.l2 >= 0.0

    def test_infeasible_cell_skipped_not_crashed(self):
        results = run_suite(TOY3, "ar1_baseline", [100.0], [0])
        assert results[0].status == "skipped"
        assert math.isnan(results[0].l2)

    def test_csv_shape(self):
        results = run_suite(TOY3, "ar1_baseline", [340.0], [0, 1])
        text = results_to_csv(results)
        lines = text.strip().split("\n")
        assert lines[0] == "suite,method,budget,seed,l2_error,n_1,n_2,n_3,wall_ms"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "toy3" and first[1] == "ar1_baseline"

    def test_ladder_for_matches_cost_table(self):
        budget = sum(TOY5.increment_costs)
        em = mlasce_run(ladder_for(TOY5), budget=budget, nu=2.5, seed=0, n_grid=11)
        assert tuple(lv.cost_per_eval for lv in em.levels) == TOY5.increment_costs

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            run_suite(TOY3, "kriging_of_doom", [340.0], [0])
