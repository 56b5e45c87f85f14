"""Benchmark suites: analytic toy simulators, cost tables, an AR(1)
constant-rho co-kriging baseline on nested designs, L2 error measurement
and budget-sweep experiment runs.

The two suites share the domain [0, pi]. "toy3" stacks three smooth-bump
corrections on a sine trend; "toy5" adds five bump families of decreasing
smoothness. Both are exact closed forms, written out literally here so the
kernel module can be cross-checked against them.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from .design import DEFAULT_TAU2
from .emulator import FidelityLadder, Level, mlasce_run, predict_batch
from .errors import BudgetError, InfeasibleError
from .gp import fit, posterior_batch
from .planner import _COUNT_LIMIT

log = logging.getLogger(__name__)

PI = math.pi
DOMAIN = (0.0, PI)

_SQRT5 = math.sqrt(5.0)


# ---------------------------------------------------------------------------
# Toy simulators
# ---------------------------------------------------------------------------


def xi(x, a, lam):
    """Smooth bump (1 + sqrt5 r/lam + 5 r^2/(3 lam^2)) exp(-sqrt5 r/lam)."""
    r = np.abs(np.asarray(x, dtype=float) - a)
    return (1.0 + _SQRT5 * r / lam + 5.0 * r * r / (3.0 * lam * lam)) * np.exp(
        -_SQRT5 * r / lam
    )


def xi2(x, a):
    """C-infinity bump with compact support |x - a| < pi/8."""
    x = np.asarray(x, dtype=float)
    u = x - a
    half = PI / 8.0
    inside = np.abs(u) < half
    out = np.zeros_like(u)
    denom = half * half - u[inside] ** 2
    out[inside] = np.exp(-1.0 / denom)
    return out


def xi3(x, a):
    u = np.abs(np.asarray(x, dtype=float) - a)
    return 0.3 * np.exp(-8.0 * u * u) * (1.0 - u ** 5)


def xi4(x, a):
    u = np.abs(np.asarray(x, dtype=float) - a)
    return 0.3 * np.exp(-8.0 * u * u) * (1.0 - u ** 3)


def xi5(x, a):
    """Three-piece C^1 bump, implemented exactly as written."""
    x = np.asarray(x, dtype=float)
    u = x - a
    g = np.exp(-12.0 * u * u)
    out = np.zeros_like(u)
    left = (u > -1.0) & (u <= 0.0)
    mid = (u > 0.0) & (u <= 1.0)
    right = u > 1.0
    out[left] = 0.15 * g[left] * (u[left] + 1.0) ** 2
    out[mid] = 0.3 * g[mid] * (1.0 - 0.5 * (u[mid] - 1.0) ** 2)
    out[right] = 0.3 * g[right]
    return out


def toy3_f(level, x):
    """Three-level suite: sine trend plus progressively finer bumps."""
    x = np.asarray(x, dtype=float)
    f = np.sin(x)
    if level >= 2:
        f = f + xi(x, PI / 3.0, 0.4)
    if level >= 3:
        f = f - 0.5 * xi(x, PI / 4.0, 0.2) + 0.5 * xi(x, 3.0 * PI / 4.0, 0.2)
    if not 1 <= level <= 3:
        raise ValueError(f"toy3 has levels 1..3, got {level}")
    return f


def toy5_f(level, x):
    """Five-level suite with bump families of decreasing smoothness."""
    x = np.asarray(x, dtype=float)
    f = np.sin(x)
    if level >= 2:
        f = f + xi2(x, PI / 6.0) + xi2(x, 5.0 * PI / 6.0)
    if level >= 3:
        f = f - xi3(x, PI / 4.0) - xi3(x, 3.0 * PI / 4.0)
    if level >= 4:
        f = f + xi4(x, PI / 3.0) + xi4(x, 2.0 * PI / 3.0)
    if level >= 5:
        f = f + xi5(x, PI / 8.0) - xi5(x, 4.0 * PI / 8.0) + xi5(x, 7.0 * PI / 8.0)
    if not 1 <= level <= 5:
        raise ValueError(f"toy5 has levels 1..5, got {level}")
    return f


@dataclass(frozen=True)
class ToySuite:
    """A named ladder of analytic simulators with its cost tables."""

    name: str
    L: int
    f: object
    f_costs: tuple
    increment_costs: tuple
    baseline_proportions: tuple
    domain: tuple = DOMAIN

    def simulator(self, level):
        def sim(x, _l=level):
            return float(self.f(_l, float(np.asarray(x).reshape(-1)[0])))

        return sim

    def truth(self, x):
        return self.f(self.L, x)


TOY3 = ToySuite(
    name="toy3",
    L=3,
    f=toy3_f,
    f_costs=(4.0, 16.0, 64.0),
    increment_costs=(4.0, 20.0, 80.0),
    baseline_proportions=(8, 4, 1),
)

TOY5 = ToySuite(
    name="toy5",
    L=5,
    f=toy5_f,
    f_costs=(0.5, 2.0, 8.0, 32.0, 128.0),
    increment_costs=(0.5, 2.5, 10.0, 40.0, 160.0),
    baseline_proportions=(16, 8, 4, 2, 1),
)

SUITES = {s.name: s for s in (TOY3, TOY5)}


def get_suite(name):
    try:
        return SUITES[name]
    except KeyError:
        raise ValueError(f"unknown suite {name!r}; available: {sorted(SUITES)}") from None


def ladder_for(suite):
    """Fidelity ladder over the suite's simulators with dyadic accuracies."""
    levels = tuple(
        Level(
            simulator=suite.simulator(l + 1),
            cost=suite.f_costs[l],
            accuracy=2.0 ** (-l),
        )
        for l in range(suite.L)
    )
    return FidelityLadder(levels=levels, domain=suite.domain)


# ---------------------------------------------------------------------------
# L2 error
# ---------------------------------------------------------------------------

L2_GRID_SIZE = 10001


def l2_error(predict_fn, truth_fn, domain=DOMAIN):
    """Trapezoid quadrature of (predict - truth)^2 on L2_GRID_SIZE uniform points."""
    xs = np.linspace(float(domain[0]), float(domain[1]), L2_GRID_SIZE)
    diff = np.asarray(predict_fn(xs), dtype=float) - np.asarray(
        truth_fn(xs), dtype=float
    )
    return float(np.trapezoid(diff * diff, xs))


# ---------------------------------------------------------------------------
# AR(1) constant-rho co-kriging baseline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ar1Baseline:
    """Recursive constant-rho co-kriging emulator on nested designs."""

    models: tuple  # per-level GPs: level 1 on y_1, levels >= 2 on residuals
    rhos: tuple  # rho_1 .. rho_{L-1}
    counts: tuple

    def predict_batch(self, X):
        """Recursive posterior means (the L2 error needs no variance)."""
        mean = posterior_batch(self.models[0], X, var=False)[0]
        for rho, model in zip(self.rhos, self.models[1:]):
            mean = rho * mean + posterior_batch(model, X, var=False)[0]
        return mean


def nested_baseline_designs(suite, budget, seed):
    """Nested designs sized 'proportionally' and priced at the f-costs.

    Level-1 points are a stratified sample of the domain; deeper levels
    subsample their parent by evenly spaced indices.
    """
    props = np.asarray(suite.baseline_proportions, dtype=float)
    unit = float(props @ np.asarray(suite.f_costs))
    sizes = np.floor(props * (budget / unit))
    if not np.all(np.isfinite(sizes) & (sizes < _COUNT_LIMIT)):
        raise ValueError(
            f"budget {budget} gives baseline design sizes {sizes.tolist()} "
            "that do not fit a 64-bit integer"
        )
    sizes = sizes.astype(int)
    if sizes[-1] < 1:
        raise InfeasibleError(
            f"budget {budget} cannot place one point at the top level"
        )
    rng = np.random.default_rng(seed)
    lo, hi = suite.domain
    n1 = int(sizes[0])
    x1 = np.sort(lo + (np.arange(n1) + rng.uniform(size=n1)) / n1 * (hi - lo))
    designs = [x1]
    for n in sizes[1:]:
        prev = designs[-1]
        idx = np.floor(np.arange(n) * len(prev) / n).astype(int)
        designs.append(prev[idx])
    return [d.reshape(-1, 1) for d in designs]


def ar1_cokriging_fit(suite, nested_designs):
    """Fit the constant-rho auto-regressive baseline on nested designs, with
    nu = 5/2 and the default nugget at every level."""
    designs = [np.asarray(d, dtype=float).reshape(-1, 1) for d in nested_designs]
    for fine, coarse in zip(designs[1:], designs[:-1]):
        fine_set = set(map(float, fine.ravel()))
        coarse_set = set(map(float, coarse.ravel()))
        if not fine_set <= coarse_set:
            raise ValueError("designs must be nested: X_l subset of X_{l-1}")
    domain = suite.domain
    ys = [suite.f(l + 1, designs[l].ravel()) for l in range(len(designs))]
    models = [fit(designs[0], ys[0], nu=2.5, nugget=DEFAULT_TAU2, domain=domain)]
    rhos = []
    for l in range(1, len(designs)):
        y_here = ys[l]
        y_prev = suite.f(l, designs[l].ravel())
        denom = float(y_prev @ y_prev)
        rho = float(y_prev @ y_here) / denom if denom > 0 else 0.0
        resid = y_here - rho * y_prev
        models.append(fit(designs[l], resid, nu=2.5, nugget=DEFAULT_TAU2, domain=domain))
        rhos.append(rho)
    return Ar1Baseline(
        models=tuple(models),
        rhos=tuple(rhos),
        counts=tuple(len(d) for d in designs),
    )


# ---------------------------------------------------------------------------
# Experiment sweeps
# ---------------------------------------------------------------------------

METHODS = ("mlasce", "ar1_baseline")


@dataclass(frozen=True)
class ExperimentResult:
    suite: str
    method: str
    budget: float
    seed: int
    l2: float
    counts: tuple
    wall_ms: float
    status: str = "ok"


def _run_cell(args):
    suite_name, method, budget, seed, nu, n_grid = args
    suite = get_suite(suite_name)
    t0 = time.perf_counter()
    try:
        if method == "mlasce":
            ladder = ladder_for(suite)
            nus = 2.5 if nu is None else nu
            em = mlasce_run(ladder, budget, nu=nus, seed=seed, n_grid=n_grid)
            mean_fn = lambda xs: predict_batch(em, xs, var=False)[0]
            counts = tuple(em.counts)
        elif method == "ar1_baseline":
            designs = nested_baseline_designs(suite, budget, seed)
            base = ar1_cokriging_fit(suite, designs)
            mean_fn = base.predict_batch
            counts = base.counts
        else:
            raise ValueError(f"unknown method {method!r}; available: {METHODS}")
        l2 = l2_error(mean_fn, suite.truth, suite.domain)
        status = "ok"
    except (BudgetError, InfeasibleError) as exc:
        log.warning("skipping %s/%s budget=%s seed=%s: %s",
                    suite_name, method, budget, seed, exc)
        l2, counts, status = math.nan, (0,) * suite.L, "skipped"
    wall_ms = (time.perf_counter() - t0) * 1e3
    return ExperimentResult(
        suite=suite_name,
        method=method,
        budget=float(budget),
        seed=int(seed),
        l2=l2,
        counts=counts,
        wall_ms=wall_ms,
        status=status,
    )


def run_suite(suite, method, budgets, seeds, nu=None, n_grid=101, workers=1):
    """One ExperimentResult per (budget, seed) cell, in deterministic order."""
    if isinstance(suite, str):
        suite = get_suite(suite)
    cells = [
        (suite.name, method, float(b), int(s), nu, n_grid)
        for b in budgets
        for s in seeds
    ]
    if workers and workers > 1:
        # Imported here: concurrent.futures.process costs every start-up
        # about 20 ms, and serial sweeps never use it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(_run_cell, cells))
    return [_run_cell(c) for c in cells]


def results_to_csv(results):
    """CSV with columns suite,method,budget,seed,l2_error,n_1..n_L,wall_ms."""
    if not results:
        return ""
    L = max(len(r.counts) for r in results)
    header = ["suite", "method", "budget", "seed", "l2_error"]
    header += [f"n_{i + 1}" for i in range(L)]
    header.append("wall_ms")
    lines = [",".join(header)]
    for r in results:
        counts = list(r.counts) + [0] * (L - len(r.counts))
        row = [r.suite, r.method, repr(r.budget), str(r.seed), repr(r.l2)]
        row += [str(c) for c in counts]
        row.append(f"{r.wall_ms:.1f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
