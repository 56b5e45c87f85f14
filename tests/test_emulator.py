"""Emulator-module tests.

The greedy loop is audited by replaying the ledger: every pick must be the
score argmax among levels still affordable at that moment, with scores
recomputed from scratch (dense algebra for the norms, fresh refits for the
hyperparameters).
"""

import math
import types

import numpy as np
import pytest

from mlasce import emulator
from mlasce.bench import TOY3, ladder_for
from mlasce.design import CandidateSet
from mlasce.emulator import (
    EXPLORE_BUDGET_FRACTION,
    EXPLORE_POINTS,
    FidelityLadder,
    Level,
    LevelState,
    MultilevelEmulator,
    SurrogateNormWarning,
    _pick,
    error_bound,
    mlasce_run,
    predict_batch,
    score,
)
from mlasce.errors import BudgetError, SimulatorError
from mlasce.gp import GPModel, fit, posterior_batch, rkhs_norm_sq
from mlasce.kernels import KernelSpec
from oracles import cov_matrix, emulator_of, kernel_combination, matern

DOMAIN = (0.0, math.pi)


def bump(x, a, lam):
    spec = KernelSpec(nu=2.5, lam=lam, sigma2=1.0)
    return float(matern(abs(float(x) - a), spec))


def f1(x):
    return math.sin(x[0])


def f2(x):
    return f1(x) + bump(x[0], math.pi / 3, 0.4)


def f3(x):
    return f2(x) - 0.5 * bump(x[0], math.pi / 4, 0.2) + 0.5 * bump(x[0], 3 * math.pi / 4, 0.2)


def toy_ladder():
    return FidelityLadder(
        levels=(
            Level(simulator=f1, cost=4.0, accuracy=1.0),
            Level(simulator=f2, cost=16.0, accuracy=0.5),
            Level(simulator=f3, cost=64.0, accuracy=0.25),
        ),
        domain=DOMAIN,
    )


def dense_score(model_before, x_new, y_new):
    """Oracle for the latest-extension score: resid^2 / sqrt(power), all
    quantities rebuilt with explicit dense solves."""
    spec = model_before.spec
    X = model_before.X.ravel()
    K = cov_matrix(model_before.X, spec)
    k = matern(np.abs(x_new - X), spec)
    mean = k @ np.linalg.solve(K, model_before.y)
    R = K / spec.sigma2
    r = k / spec.sigma2
    power = max(1.0 - r @ np.linalg.solve(R, r), 1e-12)
    resid = y_new - mean
    return resid * resid / math.sqrt(power)


class TestLadder:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            FidelityLadder(
                levels=(
                    Level(f1, cost=4.0, accuracy=1.0),
                    Level(f2, cost=4.0, accuracy=0.5),
                ),
                domain=DOMAIN,
            )
        with pytest.raises(ValueError):
            FidelityLadder(
                levels=(
                    Level(f1, cost=4.0, accuracy=0.5),
                    Level(f2, cost=16.0, accuracy=0.5),
                ),
                domain=DOMAIN,
            )
        with pytest.raises(ValueError):
            FidelityLadder(
                levels=(Level(f1, cost=4.0, accuracy=1.5),), domain=DOMAIN
            )

    def test_increment_costs_follow_sum_convention(self):
        em = mlasce_run(toy_ladder(), budget=104.0, nu=2.5, seed=0, n_grid=41)
        assert [lv.cost_per_eval for lv in em.levels] == [4.0, 20.0, 80.0]
        assert [e.cost for e in em.ledger] == [4.0, 20.0, 80.0]

    def test_increment_values(self):
        # The opening point of each level records delta_l = y_l - y_{l-1}.
        em = mlasce_run(toy_ladder(), budget=104.0, nu=2.5, seed=0, n_grid=41)
        e1, e2, e3 = em.ledger
        assert e1.delta == pytest.approx(f1(e1.x))
        assert e2.delta == pytest.approx(f2(e2.x) - f1(e2.x))
        assert e3.delta == pytest.approx(f3(e3.x) - f2(e3.x))


class TestScore:
    def test_zero_before_any_data_is_callers_convention(self):
        model = GPModel.from_spec([[0.2]], [0.7], KernelSpec(2.5, 1.0, 1.0, 1e-8))
        got = score(None, model, a_l=2.0, t_eff=4.0)
        want = rkhs_norm_sq(model) * 2.0 / 4.0
        assert got == pytest.approx(want, rel=1e-12)

    def test_one_point_norm_formula(self):
        model = fit([[0.4]], [0.9], nu=2.5, nugget=1e-8, domain=DOMAIN)
        sigma2 = model.spec.sigma2
        want = (0.9 ** 2 / ((1.0 + 1e-8) * sigma2)) * 1.0
        assert score(None, model, a_l=1.0, t_eff=1.0) == pytest.approx(want, rel=1e-9)

    def test_sequence_matches_dense_recomputation(self):
        rng = np.random.default_rng(3)
        X = np.sort(rng.uniform(0.0, math.pi, size=4))
        y = rng.normal(size=4)
        spec = KernelSpec(nu=2.5, lam=0.7, sigma2=1.4, nugget=1e-8)
        models = [GPModel.from_spec(X[: k + 1], y[: k + 1], spec) for k in range(4)]
        for before, after in zip(models, models[1:]):
            got = score(before, after, a_l=3.0, t_eff=5.0)
            want = dense_score(before, after.X[-1, 0], float(after.y[-1])) * 3.0 / 5.0
            assert got == pytest.approx(want, rel=1e-9)


class TestMlasceRun:
    def test_budget_error_below_initialization(self):
        with pytest.raises(BudgetError):
            mlasce_run(toy_ladder(), budget=50.0, nu=2.5, seed=0)

    @pytest.mark.parametrize("budget", [math.nan, math.inf])
    def test_rejects_non_finite_budget(self, budget):
        with pytest.raises(ValueError, match="budget"):
            mlasce_run(toy_ladder(), budget=budget, nu=2.5, seed=0, n_grid=41)

    @pytest.mark.parametrize("a", [math.nan, math.inf, 0.0, -1.0])
    def test_rejects_invalid_weights(self, a):
        with pytest.raises(ValueError, match="weights"):
            mlasce_run(toy_ladder(), budget=200.0, nu=2.5, a=[1.0, a, 1.0], seed=0, n_grid=41)

    @pytest.mark.parametrize(
        "seed,bad", [(3.7, "3.7"), (True, "True"), ([1, 2.5, 3], "2.5"), (np.float64(3.0), "3.0")]
    )
    def test_rejects_non_integer_seed(self, seed, bad):
        # Truncating would run 3.7 as 3 and True as 1; numpy integer seeds
        # are accepted (test_cli's TestPerLevelSeedArtifact).
        with pytest.raises(ValueError, match=f"seed must be an integer, got .*{bad}"):
            mlasce_run(toy_ladder(), budget=200.0, nu=2.5, seed=seed, n_grid=41)

    @pytest.mark.parametrize("n_grid", [41.0, True, "41"])
    def test_rejects_non_integer_grid_before_any_run(self, n_grid):
        calls = []
        ladder = FidelityLadder(
            levels=(Level(calls.append, cost=4.0, accuracy=1.0),
                    Level(calls.append, cost=16.0, accuracy=0.5)),
            domain=DOMAIN,
        )
        with pytest.raises(ValueError, match="n_grid must be an integer, got "):
            mlasce_run(ladder, budget=200.0, nu=2.5, seed=0, n_grid=n_grid)
        assert calls == []

    def test_numpy_integer_grid_accepted(self):
        a = mlasce_run(toy_ladder(), budget=200.0, nu=2.5, seed=0, n_grid=np.int64(21))
        b = mlasce_run(toy_ladder(), budget=200.0, nu=2.5, seed=0, n_grid=21)
        assert a.ledger == b.ledger

    def test_rejects_overflowing_weight_to_cost_ratio(self):
        # A cost of 5e-324 is positive and increasing, but weight / cost
        # overflows, and every score and exploration floor is scaled by it.
        calls = []
        ladder = FidelityLadder(
            levels=(Level(calls.append, cost=5e-324, accuracy=1.0),
                    Level(calls.append, cost=16.0, accuracy=0.5)),
            domain=DOMAIN,
        )
        with pytest.raises(ValueError, match="weight / cost"):
            mlasce_run(ladder, budget=200.0, nu=2.5, a=[4.0, 20.0], seed=0, n_grid=21)
        assert calls == []

    @pytest.mark.parametrize("tau2_s", [math.nan, math.inf, -1.0])
    def test_rejects_invalid_stabilizer(self, tau2_s):
        with pytest.raises(ValueError, match="stabilizer"):
            mlasce_run(toy_ladder(), budget=200.0, nu=2.5, tau2_s=tau2_s, seed=0, n_grid=41)

    @pytest.mark.parametrize("nugget", [math.nan, math.inf, -1.0])
    def test_rejects_invalid_nugget_before_any_run(self, nugget):
        calls = []

        def spy(x):
            calls.append(x)
            return 0.0

        ladder = FidelityLadder(
            levels=(Level(spy, cost=4.0, accuracy=1.0), Level(spy, cost=16.0, accuracy=0.5)),
            domain=DOMAIN,
        )
        with pytest.raises(ValueError, match="nugget must be finite and >= 0"):
            mlasce_run(ladder, budget=200.0, nu=2.5, nugget=nugget, seed=0, n_grid=41)
        assert calls == []

    @pytest.mark.parametrize("nugget", [1.0, 1e6])
    def test_rejects_nugget_of_one_or_more_before_any_run(self, nugget):
        # tau2_s keeps no upper bound (its default is 1); the nugget, a
        # fraction of each level's variance, must stay below 1.
        calls = []
        ladder = FidelityLadder(
            levels=(Level(calls.append, cost=4.0, accuracy=1.0),
                    Level(calls.append, cost=16.0, accuracy=0.5)),
            domain=DOMAIN,
        )
        with pytest.raises(ValueError, match="nugget must be < 1"):
            mlasce_run(ladder, budget=200.0, nu=2.5, nugget=nugget, seed=0, n_grid=41)
        assert calls == []

    def test_exact_initialization_budget(self):
        em = mlasce_run(toy_ladder(), budget=104.0, nu=2.5, seed=0, n_grid=41)
        assert em.counts == [1, 1, 1]
        assert em.spent == pytest.approx(104.0)
        assert len(em.ledger) == 3
        assert all(e.iteration == 0 for e in em.ledger)

    def test_budget_respected_and_exhausted(self):
        em = mlasce_run(toy_ladder(), budget=340.0, nu=2.5, seed=1, n_grid=41)
        assert em.spent <= 340.0 + 1e-9
        assert 340.0 - em.spent < 4.0  # nothing affordable left
        assert em.spent == pytest.approx(sum(e.cost for e in em.ledger))
        assert em.counts[0] >= em.counts[2]

    def test_deterministic_ledger(self):
        a = mlasce_run(toy_ladder(), budget=220.0, nu=2.5, seed=7, n_grid=41)
        b = mlasce_run(toy_ladder(), budget=220.0, nu=2.5, seed=7, n_grid=41)
        assert a.ledger == b.ledger
        assert a.counts == b.counts

    def test_ledger_replay_argmax_audit(self):
        # Replay: refit every prefix, recompute each pick's score with the
        # dense oracle, and check the greedy chose the affordable argmax
        # (ties to the lowest level) at every iteration.
        em = mlasce_run(toy_ladder(), budget=300.0, nu=2.5, seed=5, n_grid=41)
        costs = [4.0, 20.0, 80.0]  # t_l + t_{l-1}
        data = {lv: ([], []) for lv in (1, 2, 3)}
        models = {lv: None for lv in (1, 2, 3)}
        gammas = {lv: 0.0 for lv in (1, 2, 3)}
        spent = 0.0

        def effective(lv):
            n = len(data[lv][0])
            if n < 3 and spent < 0.5 * 300.0:
                return max(gammas[lv], 1.0 / n)
            return gammas[lv]

        for entry in em.ledger:
            if entry.iteration > 0:
                affordable = [
                    lv for lv in (1, 2, 3) if costs[lv - 1] <= 300.0 - spent + 1e-9
                ]
                top = max(effective(lv) for lv in affordable)
                best = next(
                    lv for lv in affordable if effective(lv) >= top - 4e-12 * abs(top)
                )
                assert entry.level == best
            xs, ys = data[entry.level]
            before = models[entry.level]
            if before is None:
                gamma = None  # filled from the one-point norm below
            else:
                gamma = dense_score(before, entry.x[0], entry.delta)
            xs.append(entry.x[0])
            ys.append(entry.delta)
            model = fit(np.array(xs), np.array(ys), nu=2.5, nugget=1e-8, domain=DOMAIN)
            if gamma is None:
                K = cov_matrix(model.X, model.spec)
                gamma = float(model.y @ np.linalg.solve(K, model.y))
            models[entry.level] = model
            gammas[entry.level] = gamma
            spent += entry.cost
        assert spent == pytest.approx(em.spent)

    def test_symmetric_levels_alternate_by_tie_rule(self):
        # delta_2 = 2*sin - sin = sin bitwise, identical per-level seed
        # streams: while the two levels' data (hence scores) are identical
        # the tie rule must alternate them, lowest level first.
        ladder = FidelityLadder(
            levels=(
                Level(lambda x: math.sin(x[0]), cost=100.0, accuracy=1.0),
                Level(lambda x: 2.0 * math.sin(x[0]), cost=100.02, accuracy=0.5),
            ),
            domain=DOMAIN,
        )
        em = mlasce_run(
            ladder, budget=300.02 + 100.0 + 200.02 + 99.0, nu=2.5, seed=[13, 13],
            n_grid=31,
        )
        assert em.counts == [2, 2]
        assert [e.level for e in em.ledger] == [1, 2, 1, 2]
        # identical streams: both levels sampled the same inputs
        np.testing.assert_array_equal(em.levels[0].model.X, em.levels[1].model.X)

    def test_simulator_failure_carries_level_and_x(self):
        def broken(x):
            raise RuntimeError("boom")

        ladder = FidelityLadder(
            levels=(
                Level(lambda x: math.sin(x[0]), cost=1.0, accuracy=1.0),
                Level(broken, cost=2.0, accuracy=0.5),
            ),
            domain=DOMAIN,
        )
        with pytest.raises(SimulatorError) as err:
            mlasce_run(ladder, budget=10.0, nu=2.5, seed=0, n_grid=21)
        assert err.value.level == 2
        assert err.value.x is not None

    def test_value_whose_square_overflows_is_a_simulator_error(self):
        # 1e200 fits a float, its square does not: the one-point fit's
        # variance would overflow, so the value is refused naming x.
        ladder = FidelityLadder(
            levels=(
                Level(lambda x: 1e200 * math.sin(3.0 * x[0]), cost=1.0, accuracy=1.0),
                Level(lambda x: math.sin(x[0]), cost=2.0, accuracy=0.5),
            ),
            domain=DOMAIN,
        )
        with pytest.raises(SimulatorError, match="whose square overflows") as err:
            mlasce_run(ladder, budget=10.0, nu=2.5, seed=0, n_grid=21)
        assert err.value.level == 1
        assert f"x={err.value.x!r}" in str(err.value)

    def test_greedy_simulator_failure_carries_level_and_x(self):
        # The first call (the opening pass) succeeds; the second, a greedy
        # pick, fails and must still be tagged with its level and input.
        seen = []

        def flaky(x):
            seen.append(np.array(x, copy=True))
            if len(seen) > 1:
                raise RuntimeError("boom")
            return 2.0 * math.sin(x[0])

        ladder = FidelityLadder(
            levels=(
                Level(lambda x: math.sin(x[0]), cost=1.0, accuracy=1.0),
                Level(flaky, cost=2.0, accuracy=0.5),
            ),
            domain=DOMAIN,
        )
        with pytest.raises(SimulatorError) as err:
            mlasce_run(ladder, budget=40.0, nu=2.5, seed=0, n_grid=21)
        assert len(seen) == 2
        assert err.value.level == 2
        np.testing.assert_array_equal(err.value.x, seen[-1])

    def test_one_extend_step_per_ledger_entry(self, monkeypatch):
        # Opening points and greedy picks share one step: each ledger entry
        # costs one fit and one score, and only greedy picks run _select.
        calls = {"_select": 0, "fit": 0, "score": 0}
        for name in calls:

            def spy(*args, _real=getattr(emulator, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(emulator, name, spy)
        em = mlasce_run(toy_ladder(), budget=300.0, nu=2.5, seed=5, n_grid=41)
        greedy = sum(e.iteration > 0 for e in em.ledger)
        assert greedy > 0
        assert calls["fit"] == calls["score"] == len(em.ledger)
        assert calls["_select"] == greedy

    @pytest.mark.parametrize("fixed", [False, True], ids=["fitted", "fixed-spec"])
    def test_mice_run_takes_the_same_step(self, monkeypatch, fixed):
        # mice_run is the one-level case of the loop: each of its n_target
        # points costs one refit (design.fit, or GPModel.from_spec for a
        # fixed spec) and one score, and only the points after the
        # n_initial openings run _select.
        from mlasce import design

        calls = {"refit": 0, "_select": 0, "score": 0}

        def spying(owner, name, key):
            real = getattr(owner, name)

            def spy(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, spy)

        if fixed:
            spying(GPModel, "from_spec", "refit")
        else:
            spying(design, "fit", "refit")
        spying(emulator, "_select", "_select")
        spying(emulator, "score", "score")
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=1e-8) if fixed else None
        model = design.mice_run(f1, DOMAIN, 9, nu=2.5, seed=3, n_grid=41, n_initial=4, spec=spec)
        assert model.n == 9
        assert calls == {"refit": 9, "_select": 9 - 4, "score": 9}


    def test_candidates_run_out(self):
        # Five candidates per level and a budget far above 5 * (4 + 20 + 80):
        # the run stops when every level has used its whole grid.
        em = mlasce_run(ladder_for(TOY3), 2000.0, nu=2.5, seed=1, n_grid=5)
        assert em.counts == [5, 5, 5]
        assert em.spent == 520.0
        assert sum(e.cost for e in em.ledger) == em.spent
        for lv in em.levels:
            assert len({tuple(x) for x in lv.model.X.tolist()}) == lv.model.n
            assert lv.cands.cand.size == 0
        assert _pick(em) is None


def hand_level(level, gamma, n, cost=1.0, weight=1.0, cands=3):
    """A LevelState with only what _pick reads: n, cost, weight, gamma, candidates."""
    grid = np.zeros((cands, 1))
    return LevelState(
        level=level,
        model=types.SimpleNamespace(n=n),
        cost_per_eval=cost,
        weight=weight,
        gamma=gamma,
        cands=CandidateSet(grid=grid, cand=np.arange(cands)),
    )


def hand_run(levels, budget=100.0, spent=0.0):
    return MultilevelEmulator(levels=levels, domain=DOMAIN, budget=budget, spent=spent)


class TestPick:
    # Level 1 has a raw score of 0.1 and no floor; level 2 a raw score of 0
    # and, while the floor applies, the effective score (1 / 1) / n_2.

    def test_floor_applies_below_explore_points_only(self):
        below = hand_run([hand_level(1, 0.1, n=5), hand_level(2, 0.0, n=EXPLORE_POINTS - 1)])
        assert _pick(below).level == 2
        at = hand_run([hand_level(1, 0.1, n=5), hand_level(2, 0.0, n=EXPLORE_POINTS)])
        assert _pick(at).level == 1

    def test_floor_applies_below_budget_fraction_only(self):
        cut = EXPLORE_BUDGET_FRACTION * 100.0
        for spent, expected in ((np.nextafter(cut, 0.0), 2), (cut, 1)):
            em = hand_run(
                [hand_level(1, 0.1, n=5), hand_level(2, 0.0, n=1)], spent=float(spent)
            )
            assert _pick(em).level == expected

    def test_affordable_within_1e9(self):
        remaining = 100.0 - 60.0
        em = hand_run([hand_level(1, 1.0, n=5, cost=remaining + 1e-9)], spent=60.0)
        assert _pick(em).level == 1
        em = hand_run([hand_level(1, 1.0, n=5, cost=remaining + 1e-8)], spent=60.0)
        assert _pick(em) is None

    def test_level_without_candidates_is_skipped(self):
        em = hand_run([hand_level(1, 5.0, n=5, cands=0), hand_level(2, 0.1, n=5)])
        assert _pick(em).level == 2

    def test_ties_go_to_the_lowest_level(self):
        em = hand_run([hand_level(l, 0.5, n=5) for l in (1, 2, 3)])
        assert _pick(em).level == 1
        em = hand_run([hand_level(1, 0.2, n=5), hand_level(2, 0.5, n=5), hand_level(3, 0.5, n=5)])
        assert _pick(em).level == 2

    def test_none_when_no_level_qualifies(self):
        em = hand_run(
            [hand_level(1, 1.0, n=5, cands=0), hand_level(2, 1.0, n=5, cost=50.0)],
            spent=60.0,
        )
        assert _pick(em) is None


class TestPredict:
    def test_single_level_reduces_to_gp_posterior(self):
        model = fit(
            np.linspace(0, math.pi, 6), np.sin(np.linspace(0, math.pi, 6)),
            nu=2.5, nugget=1e-8, domain=DOMAIN,
        )
        em = emulator_of([model], DOMAIN)
        xq = np.array([0.3, 1.2, 2.9])
        mean, var = predict_batch(em, xq)
        q_mean, q_var = posterior_batch(model, xq)
        np.testing.assert_allclose(mean, q_mean, rtol=1e-14)
        np.testing.assert_allclose(var, q_var, rtol=1e-14)

    def test_two_levels_sum_independently(self):
        rng = np.random.default_rng(11)
        X1, X2 = rng.uniform(0, math.pi, 5), rng.uniform(0, math.pi, 4)
        m1 = GPModel.from_spec(X1, np.sin(X1), KernelSpec(2.5, 0.8, 1.0, 1e-8))
        m2 = GPModel.from_spec(X2, 0.1 * np.cos(X2), KernelSpec(1.5, 0.5, 0.2, 1e-8))
        em = emulator_of([m1, m2], DOMAIN)
        xq = np.linspace(0, math.pi, 50)
        mean, var = predict_batch(em, xq)
        m1m, m1v = posterior_batch(m1, xq)
        m2m, m2v = posterior_batch(m2, xq)
        np.testing.assert_allclose(mean, m1m + m2m, rtol=1e-13)
        np.testing.assert_allclose(var, m1v + m2v, rtol=1e-13)

    def test_mean_only_is_bitwise_the_full_mean(self):
        rng = np.random.default_rng(12)
        models = [
            GPModel.from_spec(X, np.sin((l + 1) * X), KernelSpec(nu, 0.8 / (l + 1), 1.0, 1e-8))
            for l, (X, nu) in enumerate(
                (rng.uniform(0, math.pi, n), nu) for n, nu in ((9, 3.5), (5, 2.5), (3, 0.5))
            )
        ]
        em = emulator_of(models, DOMAIN)
        xq = np.linspace(0, math.pi, 1001)
        mean, var = predict_batch(em, xq)
        mean_only, none = predict_batch(em, xq, var=False)
        assert none is None and var is not None
        assert np.array_equal(mean_only.view(np.int64), mean.view(np.int64))

    def test_interpolation_at_common_training_point(self):
        x0 = 1.0
        y_vals = [f1(np.array([x0])), f2(np.array([x0])) - f1(np.array([x0]))]
        models = [
            GPModel.from_spec([[x0]], [y_vals[0]], KernelSpec(2.5, 0.7, 1.0, 1e-10)),
            GPModel.from_spec([[x0]], [y_vals[1]], KernelSpec(2.5, 0.7, 1.0, 1e-10)),
        ]
        em = emulator_of(models, DOMAIN)
        mean, var = predict_batch(em, [x0])
        assert mean[0] == pytest.approx(f2(np.array([x0])), rel=1e-8)
        assert var[0] < 1e-8


class TestErrorBound:
    def _known_norm_emulator(self):
        spec = KernelSpec(nu=2.5, lam=0.6, sigma2=1.0, nugget=0.0)
        rng = np.random.default_rng(6)
        Z = rng.uniform(0.3, math.pi - 0.3, size=4)
        delta, norm_sq = kernel_combination(spec, Z, rng.normal(size=4))
        X = np.sort(rng.uniform(0.0, math.pi, size=7))
        model = GPModel.from_spec(X, delta(X), spec)
        return emulator_of([model], DOMAIN), delta, math.sqrt(norm_sq)

    def test_dominates_true_error(self):
        em, delta, norm = self._known_norm_emulator()
        xq = np.linspace(0.0, math.pi, 250)
        err = np.abs(predict_batch(em, xq)[0] - delta(xq))
        bound = error_bound(em, xq, [norm])
        assert bound.shape == (250,)
        assert np.all(bound >= err - 1e-12)

    def test_near_zero_at_training_point(self):
        em, delta, norm = self._known_norm_emulator()
        x0 = float(em.levels[0].model.X[2, 0])
        assert error_bound(em, [x0], [norm])[0] < 1e-5

    def test_linear_in_norms(self):
        em, delta, norm = self._known_norm_emulator()
        xq = np.linspace(0.0, math.pi, 9)
        b1 = error_bound(em, xq, [norm])
        b2 = error_bound(em, xq, [2.0 * norm])
        np.testing.assert_allclose(b2, 2.0 * b1, rtol=1e-12)

    def test_surrogate_norms_flagged(self):
        em, _, _ = self._known_norm_emulator()
        with pytest.warns(SurrogateNormWarning):
            error_bound(em, 1.0)

    def test_negative_norm_rejected(self):
        em, _, _ = self._known_norm_emulator()
        with pytest.raises(ValueError):
            error_bound(em, 1.0, [-1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_norm_rejected(self, bad):
        em, _, _ = self._known_norm_emulator()
        em = emulator_of([em.levels[0].model] * 2, DOMAIN)
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            error_bound(em, 1.0, [bad, 1.0])


class TestPredictEdges:
    def test_far_point_recovers_prior(self):
        specs = [
            KernelSpec(nu=2.5, lam=0.1, sigma2=1.5, nugget=0.0),
            KernelSpec(nu=1.5, lam=0.1, sigma2=0.7, nugget=0.0),
        ]
        models = [
            GPModel.from_spec([[0.0]], [0.4], specs[0]),
            GPModel.from_spec([[0.1]], [0.2], specs[1]),
        ]
        em = emulator_of(models, (0.0, 60.0))
        mean, var = predict_batch(em, [50.0])
        assert abs(mean[0]) < 1e-12
        assert var[0] == pytest.approx(1.5 + 0.7, rel=1e-12)

    def test_two_dimensional_ladder_smoke(self):
        ladder = FidelityLadder(
            levels=(
                Level(lambda x: math.sin(x[0]) * math.cos(x[1]), cost=1.0, accuracy=1.0),
                Level(
                    lambda x: math.sin(x[0]) * math.cos(x[1]) + 0.1 * x[0] * x[1],
                    cost=4.0,
                    accuracy=0.5,
                ),
            ),
            domain=([0.0, 0.0], [1.0, 2.0]),
        )
        em = mlasce_run(ladder, budget=30.0, nu=2.5, seed=1, n_grid=64)
        assert em.spent <= 30.0 + 1e-9
        mean, var = predict_batch(em, np.array([[0.5, 1.0], [0.2, 0.3]]))
        assert mean.shape == (2,) and np.all(np.isfinite(mean))
        assert np.all(var >= 0.0)


class TestThreeDimensionalSmoke:
    def test_mlasce_runs_in_three_dimensions(self):
        ladder = FidelityLadder(
            levels=(
                Level(lambda x: float(np.sum(np.sin(x))), cost=1.0, accuracy=1.0),
                Level(
                    lambda x: float(np.sum(np.sin(x)) + 0.05 * np.prod(x)),
                    cost=3.0,
                    accuracy=0.5,
                ),
            ),
            domain=([0.0, 0.0, 0.0], [1.0, 1.0, 2.0]),
        )
        em = mlasce_run(ladder, budget=20.0, nu=1.5, seed=0, n_grid=50)
        assert em.spent <= 20.0 + 1e-9
        mean, var = predict_batch(em, np.array([[0.5, 0.5, 1.0]]))
        assert np.isfinite(mean[0]) and var[0] >= 0.0
