"""Command-line entry points: plan, run, predict and bench.

Configurations are JSON documents (see load_config); model artifacts are
the versioned documents of the artifact module. External simulators are
spawned once per evaluation: the input coordinates go to stdin as one
space-separated line and the first token of stdout is parsed as the
value.

Exit codes: 0 success, 2 configuration error, 3 infeasible budget,
4 simulator failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np

from . import bench
from .artifact import load_artifact, save_artifact
from .emulator import FidelityLadder, Level, mlasce_run, predict_batch
from .errors import (
    BudgetError,
    ConfigError,
    InfeasibleError,
    MlasceError,
    SimulatorError,
)
from .kernels import SUPPORTED_NU
from .planner import PlanParams, closed_form_allocation, solve_allocation

DEFAULT_TIMEOUT = 300.0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SIMULATOR = 4


# ---------------------------------------------------------------------------
# Simulators
# ---------------------------------------------------------------------------


class ExternalSimulator:
    """Callable spawning the configured command once per evaluation."""

    def __init__(self, command, timeout=DEFAULT_TIMEOUT):
        self.command = list(command)
        self.timeout = float(timeout)

    def __call__(self, x):
        """Run one external evaluation; returns the parsed float output."""
        coords = " ".join(repr(float(v)) for v in np.atleast_1d(x))
        try:
            proc = subprocess.run(
                self.command,
                input=coords + "\n",
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except subprocess.TimeoutExpired as exc:
            raise SimulatorError(
                f"simulator {self.command!r} timed out after {self.timeout}s",
                x=x,
                detail=exc.stdout,
            ) from exc
        except OSError as exc:
            raise SimulatorError(f"cannot spawn {self.command!r}: {exc}", x=x) from exc
        if proc.returncode != 0:
            raise SimulatorError(
                f"simulator {self.command!r} exited with {proc.returncode}",
                x=x,
                detail=proc.stderr or proc.stdout,
            )
        tokens = proc.stdout.split()
        if not tokens:
            raise SimulatorError(
                f"simulator {self.command!r} produced no output", x=x, detail=proc.stdout
            )
        try:
            value = float(tokens[0])
        except ValueError:
            raise SimulatorError(
                f"cannot parse simulator output {tokens[0]!r}", x=x, detail=proc.stdout
            ) from None
        if not math.isfinite(value):
            raise SimulatorError(f"simulator returned {value}", x=x)
        return value


def builtin_simulators():
    table = {}
    for suite in bench.SUITES.values():
        for level in range(1, suite.L + 1):
            table[f"{suite.name}:{level}"] = suite.simulator(level)
    return table


def resolve_simulator(entry):
    if isinstance(entry, str):
        table = builtin_simulators()
        if entry not in table:
            raise ConfigError(
                f"unknown builtin simulator {entry!r}; available: {sorted(table)}"
            )
        return table[entry]
    if isinstance(entry, dict) and "command" in entry:
        command = entry["command"]
        if isinstance(command, str):
            command = [command]
        if not isinstance(command, list) or not command:
            raise ConfigError("external simulator command must be a non-empty list")
        return ExternalSimulator(command, timeout=entry.get("timeout", DEFAULT_TIMEOUT))
    raise ConfigError(
        "each level's simulator must be a builtin name or {'command': [...]}"
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _number(doc, key, default, kind):
    """doc[key] (or default) converted by kind; ConfigError naming key if it fails."""
    try:
        return kind(doc.get(key, default))
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {doc.get(key)!r}") from None


class RunConfig:
    """Validated run configuration; see load_config for the schema."""

    def __init__(self, doc):
        if not isinstance(doc, dict):
            raise ConfigError("configuration must be a JSON object")
        try:
            domain = doc["domain"]
            levels = doc["levels"]
        except KeyError as exc:
            raise ConfigError(f"missing configuration key {exc}") from None
        if not isinstance(levels, list) or not levels:
            raise ConfigError("levels must be a non-empty list")
        try:
            lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in domain)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"domain must be a [lo, hi] pair: {exc}") from None
        self.domain = (lo, hi)
        self.budget = _number(doc, "budget", 0.0, float)
        self.seed = _number(doc, "seed", 0, int)
        self.grid_size = _number(doc, "grid_size", 101, int)
        self.nugget = _number(doc, "nugget", 1e-8, float)
        self.stabilizer = _number(doc, "stabilizer", 1.0, float)
        self.alpha = _number(doc, "alpha", 1.0, float)
        self.truth = doc.get("truth")
        if self.truth is not None:
            # Checked before any run is paid for; every builtin truth is a 1-D toy.
            names = builtin_simulators()
            if not isinstance(self.truth, str) or self.truth not in names:
                raise ConfigError(
                    f"unknown truth function {self.truth!r}; available: {sorted(names)}"
                )
            if lo.size != 1:
                raise ConfigError(
                    f"truth {self.truth!r} needs a 1-D domain, got d={lo.size}"
                )
        self.weights = doc.get("weights", "cost")
        self.levels = []
        for i, entry in enumerate(levels):
            try:
                level = {
                    "simulator": entry["simulator"],
                    "cost": float(entry["cost"]),
                    "accuracy": float(entry["accuracy"]),
                    "nu": float(entry.get("nu", 2.5)),
                }
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"level {i + 1}: {exc}") from None
            if level["nu"] not in SUPPORTED_NU:
                raise ConfigError(
                    f"level {i + 1}: nu must be one of {SUPPORTED_NU}"
                )
            self.levels.append(level)
        try:
            self.ladder = FidelityLadder(
                levels=tuple(
                    Level(
                        simulator=resolve_simulator(lv["simulator"]),
                        cost=lv["cost"],
                        accuracy=lv["accuracy"],
                    )
                    for lv in self.levels
                ),
                domain=self.domain,
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        self.nus = [lv["nu"] for lv in self.levels]
        if self.weights != "cost":
            try:
                self.weights = [float(w) for w in self.weights]
            except (TypeError, ValueError):
                raise ConfigError("weights must be 'cost' or a list of numbers") from None
            if len(self.weights) != len(self.levels):
                raise ConfigError("need one weight per level")

    @property
    def weight_vector(self):
        return None if self.weights == "cost" else self.weights

    def truth_fn(self):
        """The truth's vectorised suite function of xs, or None without a truth."""
        if self.truth is None:
            return None
        suite, level = self.truth.split(":")
        return functools.partial(bench.SUITES[suite].f, int(level))


def load_config(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed configuration {path}: {exc}") from exc
    return RunConfig(doc)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_plan(args):
    config = load_config(args.config)
    budget = args.budget if args.budget is not None else config.budget
    params = PlanParams(
        h=tuple(lv["accuracy"] for lv in config.levels),
        t=tuple(lv["cost"] for lv in config.levels),
        nu=tuple(lv["nu"] for lv in config.levels),
        d=config.domain[0].size,
        alpha=config.alpha,
        budget=budget,
    )
    numerical = solve_allocation(params, seed=config.seed)
    closed = None
    if len(set(params.nu)) == 1:
        try:
            closed = closed_form_allocation(params)
        except ValueError:
            closed = None
    rows = []
    for i in range(params.L):
        rows.append(
            {
                "level": i + 1,
                "h": float(params.h[i]),
                "t": float(params.t[i]),
                "nu": float(params.nu[i]),
                "n_numerical": float(numerical.n_runs[i]),
                "n_closed_form": None if closed is None else float(closed.n_runs[i]),
                "n_rounded": int(numerical.n_rounded[i]),
            }
        )
    if args.format == "json":
        text = json.dumps(
            {"budget": budget, "objective": numerical.objective, "levels": rows},
            indent=1,
            sort_keys=True,
        ) + "\n"
    else:
        header = "level,h,t,nu,n_numerical,n_closed_form,n_rounded\n"
        lines = [
            f"{r['level']},{r['h']!r},{r['t']!r},{r['nu']!r},{r['n_numerical']!r},"
            + ("" if r["n_closed_form"] is None else repr(r["n_closed_form"]))
            + f",{r['n_rounded']}"
            for r in rows
        ]
        text = header + "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_run(args):
    config = load_config(args.config)
    budget = args.budget if args.budget is not None else config.budget
    seed = args.seed if args.seed is not None else config.seed
    emulator = mlasce_run(
        config.ladder,
        budget,
        nu=config.nus,
        a=config.weight_vector,
        seed=seed,
        nugget=config.nugget,
        tau2_s=config.stabilizer,
        n_grid=config.grid_size,
    )
    if args.out:
        save_artifact(emulator, args.out)
    lines = [f"budget {budget} spent {emulator.spent}"]
    for lv in emulator.levels:
        lines.append(
            f"level {lv.level}: n={lv.model.n} lam={lv.model.spec.lam:.6g} "
            f"sigma2={lv.model.spec.sigma2:.6g} gamma={lv.gamma:.6g}"
        )
    truth = config.truth_fn()
    if truth is not None:
        l2 = bench.l2_error(
            lambda xs: predict_batch(emulator, xs)[0],
            truth,
            (float(config.domain[0][0]), float(config.domain[1][0])),
        )
        lines.append(f"l2_error {l2!r}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_predict(args):
    emulator = load_artifact(args.artifact)
    d = emulator.levels[0].model.dim
    points = []
    line_nos = []
    with open(args.points) as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            coords = line.split()
            if len(coords) != d:
                raise ConfigError(
                    f"{args.points}:{ln}: expected {d} coordinates, got {len(coords)}"
                )
            try:
                points.append([float(v) for v in coords])
            except ValueError:
                raise ConfigError(
                    f"{args.points}:{ln}: coordinates must be numbers, got {line!r}"
                ) from None
            line_nos.append(ln)
    X = np.asarray(points, dtype=float)
    bad = np.flatnonzero(~np.isfinite(X).all(axis=-1))
    if bad.size:
        raise ConfigError(f"{args.points}:{line_nos[bad[0]]}: coordinates must be finite")
    mean, var = predict_batch(emulator, X)
    sd = np.sqrt(np.maximum(var, 0.0))
    header = ",".join([f"x{i + 1}" for i in range(d)] + ["mean", "sd"])
    lines = [header]
    for row, m, s in zip(X, mean, sd):
        lines.append(",".join([repr(float(v)) for v in row] + [repr(float(m)), repr(float(s))]))
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_bench(args):
    suite = bench.get_suite(args.suite)
    budgets = [float(b) for b in args.budgets.split(",")]
    seeds = [int(s) for s in args.seeds.split(",")]
    methods = args.methods.split(",")
    nu = None
    if args.nu:
        parts = [float(v) for v in args.nu.split(",")]
        nu = parts[0] if len(parts) == 1 else tuple(parts)
    results = []
    for method in methods:
        results.extend(
            bench.run_suite(
                suite, method, budgets, seeds, nu=nu, workers=args.workers
            )
        )
    _emit(bench.results_to_csv(results), args.out)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mlasce",
        description="Multilevel adaptive sequential GP emulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="a-priori budget allocation")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("run", help="build an emulator under a budget")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="artifact path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("predict", help="evaluate a saved emulator")
    p.add_argument("--artifact", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--format", choices=("csv",), default="csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--suite", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--methods", default="mlasce,ar1_baseline")
    p.add_argument("--nu", help="comma-separated per-level smoothness")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BudgetError, InfeasibleError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SimulatorError as exc:
        detail = f" [level {exc.level}]" if exc.level is not None else ""
        at = f" at x={exc.x}" if exc.x is not None else ""
        print(f"simulator failure{detail}{at}: {exc}", file=sys.stderr)
        if exc.detail:
            print(f"captured output: {exc.detail}", file=sys.stderr)
        return EXIT_SIMULATOR
    except (ValueError, OSError, MlasceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
