"""In-memory span tracer for the traced benchmark run.

The tracer wraps module attributes under the names their callers look
them up by (``emulator.fit``, ``design.chol_factor``, ``cli.cmd_run``...),
so the library runs unchanged. Each call records a span
``[name, start, end, parent, op, attr]``; ``op`` is the index of the
operation in the pass and ``attr`` a size the derived metrics need.
Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import Counter
from dataclasses import replace

import numpy as np

from mlasce import bench, cli, design, emulator, gp, planner


def _chol_attr(args, out):
    """Matrix order, and whether jitter was added or the factorization failed."""
    return (np.shape(args[0])[0], isinstance(out, BaseException) or out.jitter > 0.0)


def _points_attr(args, out):
    return 0 if isinstance(out, BaseException) else int(np.size(out[0]))


def _cands_attr(args, out):
    return int(args[1].cand.size)


def _bytes_attr(args, out):
    return 0 if isinstance(out, BaseException) else os.path.getsize(args[1])


# (module, attribute, span name, attr function)
SPANS = [
    (gp, "chol_factor", "kernels.chol", _chol_attr),
    (design, "chol_factor", "kernels.chol", _chol_attr),
    (gp, "matern_corr", "kernels.gram", None),
    (design, "_corr_gram", "kernels.gram", None),
    (emulator, "fit", "gp.fit", None),
    (bench, "fit", "gp.fit", None),
    (gp, "posterior_batch", "gp.posterior", _points_attr),
    (emulator, "posterior_batch", "gp.posterior", _points_attr),
    (bench, "posterior_batch", "gp.posterior", _points_attr),
    (design, "posterior_batch", "gp.posterior", _points_attr),
    (emulator, "_select", "design.select", _cands_attr),
    (emulator, "score", "emulator.score", None),
    (emulator, "mlasce_run", "emulator.run", None),
    (bench, "mlasce_run", "emulator.run", None),
    (cli, "mlasce_run", "emulator.run", None),
    (emulator, "predict_batch", "emulator.predict", None),
    (bench, "predict_batch", "emulator.predict", None),
    (cli, "predict_batch", "emulator.predict", None),
    (bench, "l2_error", "bench.l2", None),
    (bench, "ar1_cokriging_fit", "bench.ar1", None),
    (cli, "solve_allocation", "planner.solve", None),
    (cli, "save_artifact", "artifact.save", _bytes_attr),
    (cli, "load_artifact", "artifact.load", None),
    (cli, "cmd_run", "cli.run", None),
    (cli, "cmd_plan", "cli.plan", None),
    (cli, "cmd_predict", "cli.predict", None),
]

# Called too often, or too cheaply, for a span each: counted only.
COUNTERS = [
    (design, "mice_criterion", "design.select.fallbacks"),
    (planner, "allocation_objective", "planner.objective_evals"),
]


class Tracer:
    """Records spans and counts while ``active``; see the module docstring."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.op = -1
        self._stack = []
        self._saved = []

    def span(self, name, fn, attr=None):
        """Wrap ``fn`` so that each call made while active records a span."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            out = None
            rec[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                return out
            except BaseException as exc:
                out = exc
                raise
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                if attr is not None:
                    rec[5] = attr(args, out)

        return traced

    def counter(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def sim(self, fn):
        """Span ``sim`` around one of the benchmark's simulator callables."""
        return self.span("sim", fn)

    def _patch(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        for mod, attr, name, attr_fn in SPANS:
            self._patch(mod, attr, self.span(name, getattr(mod, attr), attr_fn))
        for mod, attr, name in COUNTERS:
            self._patch(mod, attr, self.counter(name, getattr(mod, attr)))

        ladder_for = bench.ladder_for

        def traced_ladder(suite):
            ladder = ladder_for(suite)
            levels = tuple(replace(lv, simulator=self.sim(lv.simulator)) for lv in ladder.levels)
            return replace(ladder, levels=levels)

        self._patch(bench, "ladder_for", traced_ladder)
        resolve = cli.resolve_simulator
        self._patch(cli, "resolve_simulator", lambda entry: self.sim(resolve(entry)))
        truth_fn = cli.RunConfig.truth_fn

        def traced_truth_fn(config):
            fn = truth_fn(config)
            return None if fn is None else self.span("cli.truth", fn)

        self._patch(cli.RunConfig, "truth_fn", traced_truth_fn)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def begin_pass(self):
        """Clear the in-memory spans of the previous pass and start recording."""
        self.spans.clear()
        self.counts.clear()
        self.active = True

    def end_pass(self):
        self.active = False
        return list(self.spans), dict(self.counts)


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_s", "s"), ("ms", "ms"), ("ms_p50", "ms"), ("mflop", "Mflop"),
                         ("_frac", "frac"), ("_share", "frac"), ("_mb", "MB"),
                         ("bytes", "B"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "count"


def _has_ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False


def layer_metrics(spans, counts, wall_s):
    """Per-layer metrics of one traced pass, keyed ``<module>.<what>``."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s[0], []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def ms(name):
        return 1e3 * sum(dur[i] for i in idx(name))

    def self_ms(name):
        return 1e3 * sum(dur[i] - child[i] for i in idx(name))

    chol, fits, sel = idx("kernels.chol"), idx("gp.fit"), idx("design.select")
    cands = [spans[i][5] for i in sel]
    wall_ms = 1e3 * wall_s
    m = {
        "kernels.chol.calls": len(chol),
        "kernels.chol.ms": ms("kernels.chol"),
        "kernels.chol.mflop": sum(spans[i][5][0] ** 3 for i in chol) / 3e6,
        "kernels.chol.jitter_frac": (
            sum(1 for i in chol if spans[i][5][1]) / len(chol) if chol else 0.0),
        "kernels.gram.calls": len(idx("kernels.gram")),
        "kernels.gram.ms": ms("kernels.gram"),
        "gp.fit.calls": len(fits),
        "gp.fit.ms": ms("gp.fit"),
        "gp.fit.self_ms": self_ms("gp.fit"),
        "gp.fit.ms_p50": 1e3 * statistics.median(dur[i] for i in fits) if fits else 0.0,
        "gp.fit.chol_per_fit": (
            sum(1 for i in chol if _has_ancestor(spans, i, "gp.fit")) / len(fits) if fits else 0.0),
        "gp.fit.wall_share": ms("gp.fit") / wall_ms,
        "gp.posterior.calls": len(idx("gp.posterior")),
        "gp.posterior.ms": ms("gp.posterior"),
        "gp.posterior.points": sum(spans[i][5] for i in idx("gp.posterior")),
        "design.select.calls": len(sel),
        "design.select.ms": ms("design.select"),
        "design.select.cands_mean": float(np.mean(cands)) if cands else 0.0,
        "design.select.gram_mb": sum(c * c * 8 for c in cands) / 1e6,
        "design.select.fallbacks": counts.get("design.select.fallbacks", 0),
        "design.select.wall_share": ms("design.select") / wall_ms,
        "emulator.run.calls": len(idx("emulator.run")),
        "emulator.run.ms": ms("emulator.run"),
        "emulator.run.self_ms": self_ms("emulator.run"),
        "emulator.iterations": sum(1 for i in sel if _has_ancestor(spans, i, "emulator.run")),
        "emulator.score.ms": ms("emulator.score"),
        "emulator.predict.ms": ms("emulator.predict"),
        "sim.calls": len(idx("sim")),
        "sim.ms": ms("sim"),
        "planner.solve.calls": len(idx("planner.solve")),
        "planner.solve.ms": ms("planner.solve"),
        "planner.objective_evals": counts.get("planner.objective_evals", 0),
        "bench.l2.ms": ms("bench.l2"),
        "bench.ar1.calls": len(idx("bench.ar1")),
        "bench.ar1.ms": ms("bench.ar1"),
        "artifact.save.ms": ms("artifact.save"),
        "artifact.load.ms": ms("artifact.load"),
        "artifact.bytes": sum(spans[i][5] for i in idx("artifact.save")),
        "cli.run.ms": ms("cli.run"),
        "cli.plan.ms": ms("cli.plan"),
        "cli.predict.ms": ms("cli.predict"),
        "cli.truth.ms": ms("cli.truth"),
        "trace.spans": n,
    }
    return m
