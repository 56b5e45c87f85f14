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
from itertools import chain

import numpy as np

from . import bench
from .artifact import load_artifact, save_artifact
from .design import domain_arrays
from .emulator import FidelityLadder, Level, mlasce_run, predict_batch
from .errors import (
    BudgetError,
    ConfigError,
    InfeasibleError,
    MlasceError,
    SimulatorError,
)
from .kernels import check_nu
from .planner import PlanParams, closed_form_allocation, solve_allocation

DEFAULT_TIMEOUT = 300.0

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_SIMULATOR = 4

# Rows of `mlasce predict` output formatted per block.
_PREDICT_BLOCK = 4096


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
        if not all(isinstance(c, str) for c in command):
            raise ConfigError(
                f"external simulator command items must be strings, got {command!r}"
            )
        timeout = _number(entry, "timeout", DEFAULT_TIMEOUT, float)
        if not (math.isfinite(timeout) and timeout > 0.0):
            raise ConfigError(f"timeout must be a positive finite number, got {timeout!r}")
        return ExternalSimulator(command, timeout=timeout)
    raise ConfigError(
        "each level's simulator must be a builtin name or {'command': [...]}"
    )


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


def _number(doc, key, default, kind):
    """doc[key] (or default) converted by kind; ConfigError naming key unless
    it is an int or a float (a boolean or a numeric string is not), if it
    overflows, or if an int key holds a non-integral number."""
    value = doc.get(key, default)
    try:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            kind is int and isinstance(value, float) and not value.is_integer()
        ):
            raise ValueError
        return kind(value)
    except (ValueError, OverflowError):
        what = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key} must be {what}, got {value!r}") from None


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
            lo, hi = domain
            lo, hi = domain_arrays((lo, hi))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad domain bounds {domain!r}: {exc}") from None
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
        built = []
        self.nus = []
        for i, entry in enumerate(levels):
            try:
                built.append(
                    Level(
                        simulator=resolve_simulator(entry["simulator"]),
                        cost=_number(entry, "cost", None, float),
                        accuracy=_number(entry, "accuracy", None, float),
                    )
                )
                # "inf" (as artifacts write it) names the Gaussian limit.
                nu = entry.get("nu")
                self.nus.append(
                    math.inf if nu == "inf" else _number(entry, "nu", 2.5, float)
                )
                check_nu(self.nus[-1])
            except (KeyError, TypeError, ValueError, ConfigError) as exc:
                raise ConfigError(f"level {i + 1}: {exc}") from None
        try:
            self.ladder = FidelityLadder(levels=tuple(built), domain=self.domain)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        # None weighs each level by its increment cost.
        weights = doc.get("weights", "cost")
        self.weights = None
        if weights != "cost":
            if not isinstance(weights, list):
                raise ConfigError(
                    f"weights must be 'cost' or a list of numbers, got {weights!r}"
                )
            self.weights = [
                _number({"weights": w}, "weights", None, float) for w in weights
            ]
            if len(self.weights) != len(built):
                raise ConfigError("need one weight per level")

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


def _emit(chunks, out):
    """Write the strings of chunks, one after another, to out or stdout."""
    if out:
        with open(out, "w") as fh:
            fh.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def cmd_plan(args):
    config = load_config(args.config)
    budget = args.budget if args.budget is not None else config.budget
    params = PlanParams(
        h=tuple(lv.accuracy for lv in config.ladder.levels),
        t=tuple(lv.cost for lv in config.ladder.levels),
        nu=tuple(config.nus),
        d=config.domain[0].size,
        alpha=config.alpha,
        budget=budget,
    )
    numerical = solve_allocation(params)
    closed = [None] * params.L
    if len(set(params.nu)) == 1:
        try:
            runs = closed_form_allocation(params).n_runs
            # A count below one run is no plan: null, as with per-level nu.
            closed = [float(c) if c >= 1.0 else None for c in runs]
        except ValueError:
            pass
    rows = []
    for i in range(params.L):
        rows.append(
            {
                "level": i + 1,
                "h": float(params.h[i]),
                "t": float(params.t[i]),
                "nu": "inf" if params.nu[i] == math.inf else float(params.nu[i]),
                "n_numerical": float(numerical.n_runs[i]),
                "n_closed_form": closed[i],
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
        lines = [",".join(rows[0])] + [
            ",".join("" if v is None else str(v) for v in r.values()) for r in rows
        ]
        text = "\n".join(lines) + "\n"
    _emit([text], args.out)
    return EXIT_OK


def cmd_run(args):
    config = load_config(args.config)
    budget = args.budget if args.budget is not None else config.budget
    seed = args.seed if args.seed is not None else config.seed
    # Checked before the run, which spends the budget.
    if args.out and (
        os.path.isdir(args.out)
        or not os.access(os.path.dirname(os.path.abspath(args.out)), os.W_OK)
    ):
        raise ConfigError(f"cannot write artifact {args.out}: not a writable file path")
    emulator = mlasce_run(
        config.ladder,
        budget,
        nu=config.nus,
        a=config.weights,
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
            lambda xs: predict_batch(emulator, xs, var=False)[0],
            truth,
            (float(config.domain[0][0]), float(config.domain[1][0])),
        )
        lines.append(f"l2_error {l2!r}")
    print("\n".join(lines))
    return EXIT_OK


def _read_points(path, d):
    """The (n, d) points of a points file: one point per line, d numbers.

    Blank lines and lines starting with ``#`` are skipped. The file is
    split, filtered and converted in a few C-level passes; only when that
    fails is it walked line by line, for the first error's ``path:line``.
    """
    with open(path) as fh:
        # Text mode has already turned \r\n and \r into \n.
        lines = fh.read().split("\n")
    # str.split and str.strip share one whitespace set, so a line's first
    # token starts with "#" exactly when its stripped text does.
    rows = [t for t in map(str.split, lines) if t and t[0][0] != "#"]
    if set(map(len, rows)) <= {d}:
        try:
            X = np.fromiter(map(float, chain.from_iterable(rows)), float, len(rows) * d)
        except ValueError:
            pass
        else:
            if np.isfinite(X).all():
                return X.reshape(-1, d)
    raise ConfigError(_points_error(path, lines, d))


def _points_error(path, lines, d):
    """The first bad line's message: a count or number error in file order,
    else the first non-finite point."""
    not_finite = None
    for ln, line in enumerate(lines, 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        coords = line.split()
        if len(coords) != d:
            return f"{path}:{ln}: expected {d} coordinates, got {len(coords)}"
        try:
            values = [float(v) for v in coords]
        except ValueError:
            return f"{path}:{ln}: coordinates must be numbers, got {line!r}"
        if not_finite is None and not all(map(math.isfinite, values)):
            not_finite = f"{path}:{ln}: coordinates must be finite"
    return not_finite


def _prediction_csv(X, mean, sd):
    """CSV chunks: the header ``x1..xd,mean,sd``, then one block of
    shortest-repr rows per _PREDICT_BLOCK points, so only one block's
    Python floats are alive at a time."""
    yield ",".join([f"x{i + 1}" for i in range(X.shape[1])] + ["mean", "sd"]) + "\n"
    for i in range(0, len(X), _PREDICT_BLOCK):
        block = slice(i, i + _PREDICT_BLOCK)
        cols = [map(repr, c.tolist()) for c in (*X[block].T, mean[block], sd[block])]
        yield "\n".join(map(",".join, zip(*cols))) + "\n"


def cmd_predict(args):
    emulator = load_artifact(args.artifact)
    X = _read_points(args.points, emulator.levels[0].model.dim)
    mean, var = predict_batch(emulator, X)
    sd = np.sqrt(np.maximum(var, 0.0))
    # A far point (a kernel distance past about 1e154) or an artifact with
    # extreme hyperparameters can overflow; no nan or inf is printed.
    bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(sd)))
    if bad.size:
        raise ConfigError(
            f"{args.points}: the prediction at point {bad[0] + 1}, "
            f"x={X[bad[0]].tolist()}, is not finite"
        )
    _emit(_prediction_csv(X, mean, sd), args.out)
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
    _emit([bench.results_to_csv(results)], args.out)
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process; main dispatches
    args.command to the module's cmd_* function by name at call time."""
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

    p = sub.add_parser("run", help="build an emulator under a budget")
    p.add_argument("--config", required=True)
    p.add_argument("--budget", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="artifact path")

    p = sub.add_parser("predict", help="evaluate a saved emulator")
    p.add_argument("--artifact", required=True)
    p.add_argument("--points", required=True)
    p.add_argument("--out")

    p = sub.add_parser("bench", help="run a benchmark sweep")
    p.add_argument("--suite", required=True)
    p.add_argument("--budgets", required=True, help="comma-separated budgets")
    p.add_argument("--seeds", required=True, help="comma-separated seeds")
    p.add_argument("--methods", default="mlasce,ar1_baseline")
    p.add_argument("--nu", help="comma-separated per-level smoothness")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p.add_argument("--out")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code else EXIT_OK
    try:
        return globals()[f"cmd_{args.command}"](args)
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
