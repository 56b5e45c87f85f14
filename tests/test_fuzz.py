"""Fuzzing the files the CLI reads: run and plan configurations, saved
artifacts and points files, each with one leaf mutated.

Every call must end in a documented exit code (0, 2, 3 or 4) without an
uncaught exception. A call that exits 0 must also have produced sane
output: a plan's counts are finite, at least 1 and cost at most the
budget; a run spends at most its budget; predictions are finite.

Every base document is small (grids of at most 21 points per level), and
no mutation can enlarge a grid: grid_size draws only small or invalid
values. A drawn budget can be huge, but a run stops once its grids are
used up. Examples are drawn deterministically (``derandomize``).
"""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mlasce.artifact import save_artifact
from mlasce.bench import TOY3, ladder_for
from mlasce.cli import main
from mlasce.emulator import mlasce_run

FUZZ = settings(max_examples=200, deadline=None, derandomize=True)
EXIT_CODES = {0, 2, 3, 4}
PI = math.pi

RUN_CONFIG = {
    "domain": [0.0, PI],
    "grid_size": 21,
    "seed": 3,
    "budget": 150.0,
    "nugget": 1e-8,
    "stabilizer": 1.0,
    "truth": "toy3:3",
    "weights": [4.0, 20.0, 80.0],
    "levels": [
        {"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0, "nu": 2.5},
        {"simulator": "toy3:2", "cost": 16.0, "accuracy": 0.5, "nu": "inf"},
        {"simulator": "toy3:3", "cost": 64.0, "accuracy": 0.25, "nu": 1.5},
    ],
}

PLAN_CONFIG = {
    "domain": [[0.0, 0.0], [1.0, 1.0]],
    "budget": 800.0,
    "alpha": 1.0,
    "levels": [
        {"simulator": "toy5:1", "cost": 0.5, "accuracy": 1.0, "nu": 3.5},
        {"simulator": "toy5:2", "cost": 2.0, "accuracy": 0.5, "nu": 2.5},
        {"simulator": "toy5:3", "cost": 8.0, "accuracy": 0.25, "nu": 2.5},
        {"simulator": "toy5:4", "cost": 32.0, "accuracy": 0.125, "nu": 0.5},
    ],
}

# Replacement leaves: JSON's odd corners (NaN, Infinity, huge integers,
# wrong types) and values at or past the edge of each documented range.
VALUES = (
    None, True, False, 0, 1, -1, 2, 7, 2**63, 2**70, -(2**63), 10**400,
    0.0, -0.0, 0.5, 1.5, 2.0, 2.5, 3.5, 0.999, 1.0, 1e6,
    5e-324, 1e-300, 1e-12, 1e154, 1e300, 1e308, -1e308,
    math.nan, math.inf, -math.inf,
    "", "inf", "abc", "12", "toy3:1", "toy5:5", "toy9:1", "cost",
    [], [1.0], [0.0, 1.0], [[0.0], [1.0]], {}, {"command": []},
)
# grid_size alone is kept small: a large grid asks for gigabytes.
GRID_VALUES = (None, True, -1, 0, 1, 2, 3, 21.0, 21.5, 2.0**70, math.nan, "21", [21])


def _leaves(doc, path=()):
    """Paths of every scalar leaf and of every non-empty container."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        yield path
        return
    if path:
        yield path
    for key, value in items:
        yield from _leaves(value, path + (key,))


@st.composite
def mutated(draw, base):
    """base with one leaf replaced by a drawn value, or with one key removed."""
    doc = json.loads(json.dumps(base))
    path = draw(st.sampled_from(sorted(_leaves(base), key=repr)))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if isinstance(parent, dict) and draw(st.booleans()) and draw(st.booleans()):
        del parent[key]
    else:
        pool = GRID_VALUES if key == "grid_size" else VALUES
        parent[key] = draw(st.sampled_from(pool))
    return doc


def _cli(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in EXIT_CODES, (code, err.getvalue())
    return code, out.getvalue()


def _write(tmp, name, text):
    path = os.path.join(tmp, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _check_plan(text):
    doc = json.loads(text)
    spend = 0.0
    for row in doc["levels"]:
        assert math.isfinite(row["n_numerical"]) and row["n_numerical"] >= 1.0, row
        assert row["n_closed_form"] is None or (
            math.isfinite(row["n_closed_form"]) and row["n_closed_form"] >= 1.0
        ), row
        assert row["n_rounded"] >= 1, row
        spend += row["n_rounded"] * row["t"]
    assert spend <= doc["budget"] * (1.0 + 1e-9), doc


def _check_run(text):
    words = text.split("\n")[0].split()
    assert words[0] == "budget" and words[2] == "spent", text
    assert float(words[3]) <= float(words[1]) + 1e-9, text


def _check_predictions(text, n):
    rows = text.split("\n")[1:-1]
    assert len(rows) == n, text
    values = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert np.all(np.isfinite(values)), text


@FUZZ
@given(doc=st.one_of(mutated(RUN_CONFIG), mutated(PLAN_CONFIG)))
def test_mutated_config_runs_and_plans(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg = _write(tmp, "config.json", json.dumps(doc))
        code, text = _cli(["plan", "--config", cfg, "--format", "json"])
        if code == 0:
            _check_plan(text)
        code, text = _cli(["run", "--config", cfg])
        if code == 0:
            _check_run(text)


def _artifact_doc(ladder, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.json")
        save_artifact(mlasce_run(ladder, **kwargs), path)
        with open(path) as fh:
            return json.load(fh)


ARTIFACT = _artifact_doc(
    ladder_for(TOY3), budget=130.0, nu=[2.5, math.inf, 0.5], seed=1, n_grid=21
)
POINTS = "0.0\n# a comment\n1.2\n\n3.141592653589793\n"
N_POINTS = 3


@FUZZ
@given(doc=mutated(ARTIFACT))
def test_mutated_artifact_predicts(doc):
    with tempfile.TemporaryDirectory() as tmp:
        art = _write(tmp, "model.json", json.dumps(doc))
        pts = _write(tmp, "points.txt", POINTS)
        code, text = _cli(["predict", "--artifact", art, "--points", pts])
        if code == 0:
            _check_predictions(text, N_POINTS)


TOKENS = (
    "", "#", "nan", "inf", "-inf", "1e999", "-1e308", "1e200", "1e154", "5e-324",
    "abc", "0x10", "1_0", "+.5", "5.", "--1", "١", "0.5 0.5", "1e-320",
)


@st.composite
def mutated_points(draw):
    """POINTS with one token replaced, or one line dropped or repeated."""
    lines = POINTS.split("\n")
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(("replace", "drop", "repeat")))
    if action == "replace":
        lines[i] = draw(st.sampled_from(TOKENS))
    elif action == "drop":
        del lines[i]
    else:
        lines.insert(i, lines[i])
    return "\n".join(lines)


@FUZZ
@given(text=mutated_points())
def test_mutated_points_file_predicts(text):
    with tempfile.TemporaryDirectory() as tmp:
        art = _write(tmp, "model.json", json.dumps(ARTIFACT))
        pts = _write(tmp, "points.txt", text)
        code, out = _cli(["predict", "--artifact", art, "--points", pts])
        if code == 0:
            n = sum(1 for t in map(str.split, text.split("\n")) if t and t[0][0] != "#")
            _check_predictions(out, n)
