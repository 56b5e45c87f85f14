"""Acceptance suite: every criterion as one test, each printing a
pass/fail line (run with -s or -rA to see them) and enforcing its stated
runtime limit.

Seeds for the benchmark reproductions are the fixed list [2, 3, 4, 5, 6],
shared by both suites.
"""

import json
import math
import time

import numpy as np
import pytest

from mlasce.bench import (
    TOY3,
    TOY5,
    ladder_for,
    run_suite,
    xi,
)
from mlasce.design import CandidateSet, mice_run, mice_step
from mlasce.emulator import mlasce_run, predict_batch
from mlasce.gp import GPModel, posterior_batch
from mlasce.kernels import SUPPORTED_NU, KernelSpec, matern_corr
from mlasce.planner import PlanParams, closed_form_allocation, solve_allocation

PI = math.pi
BENCH_SEEDS = [2, 3, 4, 5, 6]
FINITE_NU = tuple(v for v in SUPPORTED_NU if math.isfinite(v))


@pytest.fixture(autouse=True)
def report_line(request):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    rep = getattr(request.node, "rep_call", None)
    verdict = "PASS" if rep is not None and rep.passed else "FAIL"
    name = request.node.name.replace("test_", "", 1)
    print(f"\nACCEPTANCE {name}: {verdict} ({elapsed:.1f}s)")


def kernel_combination(spec, Z, a):
    """delta = sum a_j K(., z_j) and its exact squared norm a^T K(Z,Z) a."""
    Z = np.asarray(Z, dtype=float)
    a = np.asarray(a, dtype=float)
    Kzz = np.array(
        [[spec.sigma2 * matern_corr(abs(zi - zj), spec.nu, spec.lam) for zj in Z] for zi in Z]
    )

    def delta(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return a @ np.array([spec.sigma2 * matern_corr(np.abs(x - z), spec.nu, spec.lam) for z in Z])

    return delta, float(a @ Kzz @ a)


def test_c1_kernel_identity():
    t0 = time.perf_counter()
    spec = KernelSpec(nu=2.5, lam=0.4, sigma2=1.0)
    x = np.linspace(0.0, PI, 1000)
    for center in (PI / 3, PI / 4, 3 * PI / 4):
        np.testing.assert_allclose(
            xi(x, center, 0.4),
            spec.sigma2 * matern_corr(np.abs(x - center), spec.nu, spec.lam),
            atol=1e-12,
            rtol=0,
        )
    assert time.perf_counter() - t0 < 1.0


def test_c2_gp_exactness():
    # Instances: grid-separated designs and native-space (kernel
    # combination) targets. Interpolation to 1e-6 with a 1e-8 nugget is
    # only attainable for targets of bounded native norm: any observation
    # component along nugget-scale eigendirections of the correlation
    # matrix biases the posterior mean by up to sqrt(nugget) = 1e-4.
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    grid = np.linspace(0.0, PI, 101)
    for _ in range(50):
        n = int(rng.integers(2, 31))
        X = np.sort(rng.choice(grid, size=n, replace=False))
        spec = KernelSpec(
            nu=float(rng.choice(FINITE_NU)),
            lam=float(rng.uniform(0.3, 1.0)),
            sigma2=float(rng.uniform(0.3, 4.0)),
            nugget=1e-8,
        )
        Z = rng.uniform(0.0, PI, size=int(rng.integers(2, 7)))
        a = rng.normal(size=Z.size)
        y = np.array(
            [float(a @ (spec.sigma2 * matern_corr(np.abs(x - Z), spec.nu, spec.lam))) for x in X]
        )
        model = GPModel.from_spec(X, y, spec)
        mean, var = posterior_batch(model, X)
        assert np.all(np.abs(mean - y) <= 1e-6 * (1.0 + np.abs(y)))
        probes = np.linspace(-0.3, PI + 0.3, 200)
        _, pv = posterior_batch(model, probes)
        assert np.all(pv >= 0.0)
        assert np.all(pv <= spec.sigma2 * (1.0 + spec.nugget) + 1e-12)
        pw = pv / spec.sigma2
        assert np.all(pw >= 0.0) and np.all(pw <= 1.0)
        assert np.all(var / spec.sigma2 <= 1e-6)
    assert time.perf_counter() - t0 < 10.0


def test_c3_error_bound_dominance():
    rng = np.random.default_rng(31)
    violations = 0
    for _ in range(20):
        spec = KernelSpec(
            nu=float(rng.choice(FINITE_NU)),
            lam=float(rng.uniform(0.3, 1.0)),
            sigma2=float(rng.uniform(0.5, 2.0)),
            nugget=0.0,
        )
        Z = rng.uniform(0.0, PI, size=int(rng.integers(3, 8)))
        a = rng.normal(size=Z.size)
        delta, norm_sq = kernel_combination(spec, Z, a)
        n = int(rng.integers(6, 15))
        X = np.sort(rng.uniform(0.0, PI, size=n))
        model = GPModel.from_spec(X, delta(X), spec)
        probes = rng.uniform(0.0, PI, size=500)
        mean, var = posterior_batch(model, probes)
        err = np.abs(mean - delta(probes))
        bound = math.sqrt(norm_sq) * np.sqrt(var)
        violations += int(np.sum(err > bound + 1e-12))
    assert violations == 0


def test_c4_mice_convergence():
    t0 = time.perf_counter()
    spec = KernelSpec(nu=2.5, lam=0.5, sigma2=1.0, nugget=1e-10)
    rng = np.random.default_rng(4)
    Z = rng.uniform(0.2, PI - 0.2, size=5)
    a = rng.normal(size=5)
    delta, _ = kernel_combination(spec, Z, a)

    def sup_err(n_points):
        model = mice_run(
            lambda x: float(delta(x[0])[0]),
            (0.0, PI),
            n_points,
            nu=2.5,
            seed=7,
            n_initial=1,
            spec=spec,
            n_grid=201,
        )
        probes = np.linspace(0.0, PI, 1000)
        mean, _ = posterior_batch(model, probes)
        return float(np.abs(mean - delta(probes)).max())

    e5, e40 = sup_err(5), sup_err(40)
    assert e5 / e40 >= 10.0
    assert time.perf_counter() - t0 < 30.0


def test_c5_mice_matches_brute_force():
    rng = np.random.default_rng(55)
    for _ in range(200):
        n_cand = int(np.exp(rng.uniform(np.log(5), np.log(200))))
        n_train = int(rng.integers(2, 7))
        spec = KernelSpec(
            nu=float(rng.choice(FINITE_NU)),
            lam=float(rng.uniform(0.2, 1.5)),
            sigma2=float(rng.uniform(0.3, 3.0)),
            nugget=1e-8,
        )
        X = rng.uniform(0.0, PI, size=(n_train, 1))
        y = rng.normal(size=n_train)
        model = GPModel.from_spec(X, y, spec)
        tau2_s = float(rng.choice([1.0, 0.5, 2.0]))
        grid = rng.uniform(0.0, PI, size=(n_cand, 1))
        cands = CandidateSet(grid=grid, cand=np.arange(n_cand))

        # brute force: dense per-candidate conditioning, same tie band
        tau_bar = max(1e-8, tau2_s)
        Ktr = spec.sigma2 * (
            matern_corr(np.abs(X - X.T), spec.nu, spec.lam)
            + spec.nugget * np.eye(n_train)
        )
        scores = np.empty(n_cand)
        for i in range(n_cand):
            x = grid[i]
            k = spec.sigma2 * matern_corr(
                np.abs(x[0] - X.ravel()), spec.nu, spec.lam
            )
            num = max(spec.sigma2 - k @ np.linalg.solve(Ktr, k), 0.0)
            rest = np.delete(grid, i, axis=0)
            Rr = matern_corr(
                np.abs(rest - rest.T), spec.nu, spec.lam
            ) + tau_bar * np.eye(n_cand - 1)
            r = matern_corr(np.abs(x[0] - rest.ravel()), spec.nu, spec.lam)
            den = spec.sigma2 * ((1.0 + tau_bar) - r @ np.linalg.solve(Rr, r))
            scores[i] = num / den
        top = scores.max()
        oracle = int(np.nonzero(scores >= top - 4e-12 * abs(top))[0][0])

        x, _ = mice_step(model, cands, tau_bar)
        assert np.array_equal(x, grid[oracle]), "argmax mismatch vs brute force"


def test_c6_planner():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(100):
        L = int(rng.integers(2, 6))
        d = int(rng.integers(1, 4))
        h = [rng.uniform(0.5, 1.0)]
        for q in rng.uniform(0.3, 0.8, size=L - 1):
            h.append(h[-1] * q)
        t = [rng.uniform(0.2, 2.0)]
        for _ in range(L - 1):
            t.append(t[-1] * rng.uniform(2.0, 6.0))
        nu = rng.uniform(d / (2 * math.e) + 0.2, 4.0)
        params = PlanParams(
            h=tuple(h),
            t=tuple(t),
            nu=nu,
            d=d,
            alpha=float(rng.choice([0.5, 1.0, 2.0])),
            budget=sum(t) * rng.uniform(3.0, 20.0),
        )
        plan = closed_form_allocation(params)
        assert plan.n_runs @ np.array(params.t) == pytest.approx(
            params.budget, rel=1e-9
        )

    table = PlanParams(
        h=(1.0, 0.5, 0.25, 0.125, 0.0625),
        t=(0.5, 2.0, 8.0, 32.0, 128.0),
        nu=2.5,
        d=1,
        alpha=1.0,
        budget=800.0,
    )
    num = solve_allocation(table).n_runs
    cf = closed_form_allocation(table).n_runs
    assert np.all(np.abs(num - cf) / cf <= 0.15)

    alpha2 = PlanParams(table.h, table.t, table.nu, table.d, 2.0, table.budget)
    n1, n2 = closed_form_allocation(table).n_runs, closed_form_allocation(alpha2).n_runs
    assert n2[0] / n1[0] > 1.0 and n2[-1] / n1[-1] < 1.0
    assert time.perf_counter() - t0 < 10.0


def test_c7_toy3_reproduction():
    t0 = time.perf_counter()
    budgets = [340.0, 380.0, 420.0, 460.0, 500.0]
    ml = run_suite(TOY3, "mlasce", budgets, BENCH_SEEDS, workers=2)
    base = run_suite(TOY3, "ar1_baseline", budgets, BENCH_SEEDS, workers=2)

    # (a) every run respects its budget; one cell audited against its ledger
    for r in ml:
        spend = sum(n * c for n, c in zip(r.counts, TOY3.increment_costs))
        assert spend <= r.budget + 1e-9
    em = mlasce_run(ladder_for(TOY3), 340.0, nu=2.5, seed=BENCH_SEEDS[0], n_grid=101)
    assert em.spent == pytest.approx(sum(e.cost for e in em.ledger))
    assert em.spent <= 340.0 + 1e-9
    tallies = [sum(1 for e in em.ledger if e.level == l) for l in (1, 2, 3)]
    assert tallies == em.counts

    def med(rows, b):
        return float(np.median([r.l2 for r in rows if r.budget == b]))

    # (b) decreasing budget trend
    assert med(ml, 500.0) <= med(ml, 340.0)
    # (c) beats the constant-rho baseline at every budget
    for b in budgets:
        assert med(ml, b) < med(base, b), f"budget {b}"
    # (d) level-1 count >= level-3 count, every run
    for r in ml:
        assert r.counts[0] >= r.counts[2]
    assert time.perf_counter() - t0 < 300.0


def test_c8_toy5_reproduction():
    t0 = time.perf_counter()
    varied = run_suite(
        TOY5, "mlasce", [1150.0], BENCH_SEEDS, nu=(3.5, 2.5, 2.5, 1.5, 1.5), workers=2
    )
    fixed = run_suite(TOY5, "mlasce", [1150.0], BENCH_SEEDS, nu=2.5, workers=2)
    base = run_suite(TOY5, "ar1_baseline", [1150.0], BENCH_SEEDS, workers=2)
    mv = float(np.median([r.l2 for r in varied]))
    mf = float(np.median([r.l2 for r in fixed]))
    mb = float(np.median([r.l2 for r in base]))
    assert mv <= mf
    assert mv < mb and mf < mb
    assert time.perf_counter() - t0 < 600.0


def test_c9_determinism_and_persistence(tmp_path):
    from mlasce.cli import main

    config = {
        "domain": [0.0, PI],
        "grid_size": 41,
        "seed": 11,
        "budget": 240.0,
        "levels": [
            {"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0, "nu": 2.5},
            {"simulator": "toy3:2", "cost": 16.0, "accuracy": 0.5, "nu": 2.5},
            {"simulator": "toy3:3", "cost": 64.0, "accuracy": 0.25, "nu": 2.5},
        ],
    }
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(config))
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    from mlasce.artifact import load_artifact

    em = load_artifact(str(a))
    rng = np.random.default_rng(99)
    xs = rng.uniform(0.0, PI, size=100)
    m0, v0 = predict_batch(em, xs)
    m1, v1 = predict_batch(load_artifact(str(a)), xs)
    np.testing.assert_allclose(m1, m0, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(v1, v0, rtol=1e-12, atol=1e-12)
