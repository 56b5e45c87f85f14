"""The benchmark's three workloads, each a fixed pass of operations.

A pass is the list of operations one closed-loop client issues back to
back. The workload seed draws the order of the pass and the prediction
points. Emulator builds and plan budgets are fixed: the acceptance seeds 2-6
for the toy sweep, fixed run seeds elsewhere. That keeps ``l2_median``, the
per-layer counts and the set of op latencies comparable across runs, and it
keeps the c7/c8 comparison against AR(1) meaningful:
mlasce beats the AR(1) median at toy3 B=340 on seeds 2-6, but not on every
window of five seeds (windows starting at 8-13 lose).

Each operation returns an output; ``check`` turns a pass of outputs into
a map from operation index to the reason it failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from mlasce import bench, cli, emulator

PI = math.pi
ACCEPTANCE_SEEDS = (2, 3, 4, 5, 6)
TOY5_NU = (3.5, 2.5, 2.5, 1.5, 1.5)
# Relative slack of the budget and ledger checks.
BUDGET_RTOL = 1e-9


@dataclass
class Op:
    """One operation of a pass: a label and the callable that performs it."""

    label: str
    call: object


class CaptureRuns:
    """Keeps the emulator returned by the last ``mlasce_run`` call.

    It wraps the name ``bench`` and ``cli`` look ``mlasce_run`` up by, so
    the checks see the in-memory emulator behind a sweep cell or a CLI
    run, whose public results do not carry it.
    """

    TARGETS = (bench, cli)

    def __init__(self):
        self.last = None
        self._saved = []

    def install(self):
        for mod in self.TARGETS:
            inner = mod.mlasce_run

            def capturing(*args, _inner=inner, **kwargs):
                self.last = _inner(*args, **kwargs)
                return self.last

            self._saved.append((mod, inner))
            mod.mlasce_run = capturing

    def uninstall(self):
        for mod, inner in reversed(self._saved):
            mod.mlasce_run = inner
        self._saved.clear()

    def take(self):
        em, self.last = self.last, None
        return em


def ledger_problems(em):
    """Budget and ledger checks shared by every workload that builds an emulator."""
    if em is None:
        return "no emulator was built"
    slack = BUDGET_RTOL * max(1.0, em.budget)
    if not em.spent <= em.budget + slack:
        return f"spent {em.spent} exceeds budget {em.budget}"
    ledger_sum = math.fsum(e.cost for e in em.ledger)
    if abs(ledger_sum - em.spent) > slack:
        return f"ledger sums to {ledger_sum}, spent is {em.spent}"
    tallies = [sum(1 for e in em.ledger if e.level == lv.level) for lv in em.levels]
    if tallies != em.counts:
        return f"ledger tallies {tallies} != level counts {em.counts}"
    return None


# ---------------------------------------------------------------------------
# toy_sweep
# ---------------------------------------------------------------------------


class ToySweep:
    """Serial ``bench.run_suite`` cells of the c7/c8 reproduction, one per op.

    gp.fit dominates; every candidate set has at most 101 points, so
    design._select is negligible here.
    """

    name = "toy_sweep"

    def __init__(self, seed, workdir, tiny=False, capture=None, wrap_sim=None):
        groups = [("toy3", 500.0, 2.5)] if tiny else [
            ("toy3", 340.0, 2.5),
            ("toy3", 500.0, 2.5),
            ("toy5", 1150.0, TOY5_NU),
        ]
        seeds = (3,) if tiny else ACCEPTANCE_SEEDS
        self.capture = capture
        self.cells = [
            (suite, method, budget, s, nu)
            for suite, budget, nu in groups
            for method in bench.METHODS
            for s in seeds
        ]
        order = np.random.default_rng(seed).permutation(len(self.cells))
        self.cells = [self.cells[i] for i in order]
        self.ops = [
            Op(f"{suite}/B{budget:g}/{method}/s{s}", self._cell_op(suite, method, budget, s, nu))
            for suite, method, budget, s, nu in self.cells
        ]

    def _cell_op(self, suite, method, budget, s, nu):
        def op():
            res = bench.run_suite(suite, method, [budget], [s], nu=nu, workers=1)[0]
            em = self.capture.take() if method == "mlasce" else None
            return res, em

        return op

    def warm_up(self):
        bench.run_suite("toy3", "ar1_baseline", [340.0], [2], workers=1)

    def check(self, outputs):
        failed = {}
        for i, ((suite, method, budget, s, nu), out) in enumerate(zip(self.cells, outputs)):
            if out is None:
                continue
            res, em = out
            if res.status != "ok" or not math.isfinite(res.l2):
                failed[i] = f"cell status {res.status}, l2 {res.l2}"
                continue
            if method != "mlasce":
                continue
            costs = bench.get_suite(suite).increment_costs
            spend = sum(n * c for n, c in zip(res.counts, costs))
            problem = ledger_problems(em)
            if spend > budget * (1.0 + BUDGET_RTOL):
                failed[i] = f"counts cost {spend} over budget {budget}"
            elif problem:
                failed[i] = problem
            elif tuple(em.counts) != tuple(res.counts):
                failed[i] = f"reported counts {res.counts} != emulator {em.counts}"
        # c7/c8: per (suite, budget), mlasce's median L2 beats AR(1)'s.
        for key in {(c[0], c[2]) for c in self.cells}:
            idx = {m: [i for i, c in enumerate(self.cells) if (c[0], c[2]) == key and c[1] == m]
                   for m in bench.METHODS}
            if any(outputs[i] is None for ix in idx.values() for i in ix):
                continue  # a cell of the group failed or was not reached
            med = {m: float(np.median([outputs[i][0].l2 for i in ix])) for m, ix in idx.items()}
            if not med["mlasce"] < med["ar1_baseline"]:
                for i in idx["mlasce"]:
                    failed.setdefault(
                        i, f"{key}: mlasce median L2 {med['mlasce']} does not beat "
                           f"AR(1) {med['ar1_baseline']}")
        return failed

    def l2_values(self, outputs):
        return [out[0].l2 for cell, out in zip(self.cells, outputs)
                if cell[1] == "mlasce" and out is not None]


# ---------------------------------------------------------------------------
# design_2d
# ---------------------------------------------------------------------------


def _bump(X, center, lam):
    """Matern-5/2 shaped radial bump."""
    s = math.sqrt(5.0) * np.linalg.norm(X - np.asarray(center), axis=1) / lam
    return (1.0 + s + s * s / 3.0) * np.exp(-s)


def ladder_2d_f(level, X):
    """Three-level analytic ladder on [0, pi]^2: trend, one wide bump, two narrow."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    f = np.sin(X[:, 0]) * np.cos(0.5 * X[:, 1])
    if level >= 2:
        f = f + 0.6 * _bump(X, (PI / 3, 2 * PI / 3), 0.6)
    if level >= 3:
        f = f - 0.3 * _bump(X, (2 * PI / 3, PI / 4), 0.3) + 0.3 * _bump(X, (PI / 4, PI / 3), 0.3)
    return f


def _simulator_2d(level):
    def sim(x):
        return float(ladder_2d_f(level, np.reshape(x, (1, -1)))[0])

    return sim


class Design2D:
    """``mlasce_run`` on a 2-D three-level ladder with ~1,500 candidates per level.

    A small budget keeps every level to a handful of points, so each pick's
    O(m^3) design._select over the dense candidate Gram matrix outweighs
    the refit.
    """

    name = "design_2d"
    DOMAIN = (np.array([0.0, 0.0]), np.array([PI, PI]))
    COSTS = (4.0, 16.0, 64.0)

    def __init__(self, seed, workdir, tiny=False, capture=None, wrap_sim=None):
        self.n_grid = 200 if tiny else 1500
        self.budget = 128.0
        run_seeds = range(2 if tiny else 30)
        self.run_seeds = [run_seeds[i] for i in np.random.default_rng(seed).permutation(len(run_seeds))]
        wrap_sim = wrap_sim or (lambda fn: fn)
        self.ladder = emulator.FidelityLadder(
            levels=tuple(
                emulator.Level(wrap_sim(_simulator_2d(l + 1)), cost, 2.0 ** (-l))
                for l, cost in enumerate(self.COSTS)
            ),
            domain=self.DOMAIN,
        )
        axis = np.linspace(0.0, PI, 101)
        self.l2_grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), -1).reshape(-1, 2)
        self.l2_truth = ladder_2d_f(3, self.l2_grid)
        self.ops = [Op(f"run/s{s}", self._run_op(s)) for s in self.run_seeds]

    def _run_op(self, run_seed):
        def op():
            em = emulator.mlasce_run(
                self.ladder, self.budget, nu=2.5, seed=run_seed, n_grid=self.n_grid
            )
            mean = emulator.predict_batch(em, self.l2_grid)[0]
            # Mean squared error on the uniform grid times the domain area.
            return em, float(np.mean((mean - self.l2_truth) ** 2)) * PI * PI

        return op

    def warm_up(self):
        emulator.mlasce_run(self.ladder, 110.0, nu=2.5, seed=0, n_grid=50)

    def check(self, outputs):
        failed = {}
        for i, out in enumerate(outputs):
            if out is None:
                continue
            em, l2 = out
            problem = ledger_problems(em)
            if problem is None and not math.isfinite(l2):
                problem = f"L2 error {l2}"
            if problem is None:
                for lv in em.levels:
                    X = lv.model.X
                    if len(np.unique(X, axis=0)) != len(X):
                        problem = f"level {lv.level} holds duplicate points"
                        break
            if problem:
                failed[i] = problem
        return failed

    def l2_values(self, outputs):
        return [out[1] for out in outputs if out is not None]


# ---------------------------------------------------------------------------
# cli_session
# ---------------------------------------------------------------------------

TOY3_RUN_CONFIG = {
    "domain": [0.0, PI],
    "grid_size": 41,
    "budget": 240.0,
    "truth": "toy3:3",
    "levels": [
        {"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0, "nu": 2.5},
        {"simulator": "toy3:2", "cost": 16.0, "accuracy": 0.5, "nu": 2.5},
        {"simulator": "toy3:3", "cost": 64.0, "accuracy": 0.25, "nu": 2.5},
    ],
}

TOY5_PLAN_CONFIG = {
    "domain": [0.0, 1.0],
    "levels": [
        {"simulator": f"toy5:{l + 1}", "cost": c, "accuracy": 2.0 ** (-l), "nu": 2.5}
        for l, c in enumerate((0.5, 2.0, 8.0, 32.0, 128.0))
    ],
}


class CliSession:
    """In-process ``mlasce.cli.main`` calls: plan, run --out, predict.

    The only workload that reads artifacts back, evaluates cross-covariances
    for prediction and calls the planner.
    """

    name = "cli_session"
    PREDICT_POINTS = 2000

    def __init__(self, seed, workdir, tiny=False, capture=None, wrap_sim=None):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.capture = capture
        n_runs, n_predict, n_plan3, n_plan5 = (1, 1, 1, 1) if tiny else (4, 5, 10, 6)
        self.configs = {}
        docs = {"toy3": TOY3_RUN_CONFIG, "toy5": TOY5_PLAN_CONFIG}
        for name, doc in docs.items():
            path = os.path.join(workdir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            self.configs[name] = path
        blocks = []
        for k in range(n_runs):
            art = os.path.join(workdir, f"model{k}.json")
            block = [("run", dict(seed=11 + k, artifact=art))]
            for j in range(n_predict):
                pts = rng.uniform(0.0, PI, size=self.PREDICT_POINTS)
                path = os.path.join(workdir, f"points{k}_{j}.txt")
                np.savetxt(path, pts, fmt="%.17g")
                block.append(("predict", dict(artifact=art, points=path, run=k,
                                              x=np.loadtxt(path).reshape(-1, 1))))
            blocks.append(block)
        for name, n, lo, hi in (("toy3", n_plan3, 200.0, 2000.0), ("toy5", n_plan5, 400.0, 4000.0)):
            costs = [lv["cost"] for lv in docs[name]["levels"]]
            for b in np.linspace(lo, hi, n):
                blocks.append([("plan", dict(config=name, budget=float(b), costs=costs))])
        order = rng.permutation(len(blocks))
        self.steps = [step for i in order for step in blocks[i]]
        self.ops = [self._op(i, kind, spec) for i, (kind, spec) in enumerate(self.steps)]

    def _main(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def _op(self, i, kind, spec):
        out = os.path.join(self.workdir, f"out{i}")
        if kind == "run":
            argv = ["run", "--config", self.configs["toy3"], "--seed", str(spec["seed"]),
                    "--out", spec["artifact"]]
            label = f"run/s{spec['seed']}"
        elif kind == "predict":
            argv = ["predict", "--artifact", spec["artifact"], "--points", spec["points"],
                    "--out", out]
            label = f"predict/run{spec['run']}"
        else:
            argv = ["plan", "--config", self.configs[spec["config"]], "--budget",
                    repr(spec["budget"]), "--format", "json", "--out", out]
            label = f"plan/{spec['config']}/B{spec['budget']:.0f}"

        def op():
            code, stdout = self._main(argv)
            em = self.capture.take() if kind == "run" else None
            if kind == "run":
                return code, stdout, em
            with open(out) as fh:
                return code, fh.read(), None

        return Op(label, op)

    def warm_up(self):
        self._main(["plan", "--config", self.configs["toy3"], "--budget", "300",
                    "--format", "json", "--out", os.path.join(self.workdir, "warm.json")])

    def check(self, outputs):
        failed = {}
        runs = {}
        for i, ((kind, spec), out) in enumerate(zip(self.steps, outputs)):
            if out is None:
                continue
            code, text, em = out
            if code != 0:
                failed[i] = f"{kind} exited with {code}"
                continue
            if kind == "run":
                problem = ledger_problems(em)
                if problem is None and "l2_error" not in text:
                    problem = "run printed no l2_error"
                if problem:
                    failed[i] = problem
                else:
                    runs[spec["artifact"]] = em
            elif kind == "plan":
                doc = json.loads(text)
                counts = [lv["n_rounded"] for lv in doc["levels"]]
                spend = sum(n * c for n, c in zip(counts, spec["costs"]))
                if min(counts) < 1 or spend > spec["budget"] * (1.0 + BUDGET_RTOL):
                    failed[i] = f"plan counts {counts} cost {spend} over {spec['budget']}"
            else:
                em = runs.get(spec["artifact"])
                if em is None:
                    failed[i] = "its run failed"
                    continue
                rows = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
                mean, var = emulator.predict_batch(em, spec["x"])
                ref = np.column_stack([spec["x"][:, 0], mean, np.sqrt(np.maximum(var, 0.0))])
                # c9: the saved-then-loaded artifact predicts as the in-memory emulator.
                if rows.shape != ref.shape or not np.allclose(rows, ref, rtol=1e-12, atol=1e-12):
                    failed[i] = "artifact predictions differ from the in-memory emulator"
        return failed

    def l2_values(self, outputs):
        return [float(out[1].rsplit("l2_error", 1)[1].split()[0])
                for (kind, _), out in zip(self.steps, outputs)
                if kind == "run" and out is not None and out[0] == 0 and "l2_error" in out[1]]


WORKLOADS = {w.name: w for w in (ToySweep, Design2D, CliSession)}
