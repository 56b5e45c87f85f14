"""CLI, configuration, external-simulator protocol and artifact tests."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mlasce.artifact import load_artifact, save_artifact
from mlasce import cli
from mlasce.bench import TOY3, ladder_for
from mlasce.cli import (
    _PREDICT_BLOCK,
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_SIMULATOR,
    ExternalSimulator,
    builtin_simulators,
    load_config,
    main,
)
from mlasce.emulator import FidelityLadder, Level, mlasce_run, predict_batch, score
from mlasce.errors import ConfigError, SimulatorError

PI = math.pi

TOY3_CONFIG = {
    "domain": [0.0, PI],
    "grid_size": 41,
    "seed": 42,
    "budget": 240.0,
    "nugget": 1e-8,
    "truth": "toy3:3",
    "levels": [
        {"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0, "nu": 2.5},
        {"simulator": "toy3:2", "cost": 16.0, "accuracy": 0.5, "nu": 2.5},
        {"simulator": "toy3:3", "cost": 64.0, "accuracy": 0.25, "nu": 2.5},
    ],
}

TABLE_CONFIG = {
    "domain": [0.0, 1.0],
    "budget": 800.0,
    "alpha": 1.0,
    "levels": [
        {"simulator": "toy5:1", "cost": 0.5, "accuracy": 1.0, "nu": 2.5},
        {"simulator": "toy5:2", "cost": 2.0, "accuracy": 0.5, "nu": 2.5},
        {"simulator": "toy5:3", "cost": 8.0, "accuracy": 0.25, "nu": 2.5},
        {"simulator": "toy5:4", "cost": 32.0, "accuracy": 0.125, "nu": 2.5},
        {"simulator": "toy5:5", "cost": 128.0, "accuracy": 0.0625, "nu": 2.5},
    ],
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_loads_valid_config(self, tmp_path):
        cfg = load_config(write_config(tmp_path, TOY3_CONFIG))
        assert cfg.ladder.L == 3
        assert cfg.nus == [2.5, 2.5, 2.5]

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_rejects_nonincreasing_costs(self, tmp_path):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][1]["cost"] = 4.0
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_rejects_unknown_builtin(self, tmp_path):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][0]["simulator"] = "toy9:1"
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_rejects_unsupported_nu(self, tmp_path):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][0]["nu"] = 2.0
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, doc))

    def test_unsupported_nu_message_names_the_level(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][1]["nu"] = 2.0
        assert main(["run", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "error: level 2: nu=2.0 unsupported; choose one of (0.5, 1.5, 2.5, 3.5, inf)\n"
        )

    def test_truth_fn_matches_scalar_simulator(self, tmp_path):
        # Reference: one scalar simulator call per point. Scalar and array
        # powers round differently in toy5's bumps, hence an absolute 2 eps.
        xs = np.linspace(0.0, PI, 201)
        for name, sim in builtin_simulators().items():
            config = load_config(write_config(tmp_path, dict(TOY3_CONFIG, truth=name)))
            want = np.array([sim(np.array([v])) for v in xs])
            got = config.truth_fn()(xs)
            np.testing.assert_allclose(got, want, rtol=0, atol=2 * np.finfo(float).eps)

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize(
        "key,value",
        [
            ("domain", 5),
            ("domain", [0]),
            ("budget", None),
            ("grid_size", None),
            ("seed", None),
            ("truth", "toy9:1"),
            ("truth", ["toy3:3"]),
            ("seed", 1.5),
            ("grid_size", 21.9),
            ("seed", True),
            ("budget", True),
            # json.dumps writes it as a 401-digit integer literal.
            pytest.param("budget", 10**400, id="budget-int-too-large-for-float"),
        ],
    )
    def test_malformed_value_exits_2_naming_key(
        self, tmp_path, capsys, command, key, value
    ):
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, **{key: value}))
        out = tmp_path / "out"
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert key in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "plan"])
    def test_boolean_level_field_is_not_a_number(self, tmp_path, capsys, command):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][1]["accuracy"] = True
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert "level 2: accuracy must be a number" in capsys.readouterr().err

    # "inf" is how artifacts and plans write the Gaussian limit; json.dumps
    # writes math.inf as the literal Infinity, which json.load also reads.
    # The plan's JSON must be standard (no Infinity token); its CSV writes inf.
    @pytest.mark.parametrize("nu", ["inf", math.inf], ids=["string", "literal"])
    def test_infinite_nu_plans_and_runs(self, tmp_path, capsys, nu):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][0]["nu"] = nu
        cfg = write_config(tmp_path, doc)
        assert load_config(cfg).nus == [math.inf, 2.5, 2.5]

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        assert main(["plan", "--config", cfg, "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out, parse_constant=reject)["levels"][0]
        assert row["nu"] == "inf" and row["n_numerical"] == 1.0
        assert main(["plan", "--config", cfg]) == 0
        assert capsys.readouterr().out.split("\n")[1].split(",")[3] == "inf"
        out = tmp_path / "run.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert "l2_error" in capsys.readouterr().out
        assert load_artifact(str(out)).levels[0].model.spec.nu == math.inf

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize(
        "level,key,value,message",
        [
            (None, "budget", "240", "budget must be a number, got '240'"),
            (None, "seed", "11", "seed must be an integer, got '11'"),
            (1, "cost", "4", "level 1: cost must be a number, got '4'"),
        ],
        ids=["budget", "seed", "level-cost"],
    )
    def test_numeric_string_is_not_a_number(
        self, tmp_path, capsys, monkeypatch, command, level, key, value, message
    ):
        calls = []
        monkeypatch.setattr(
            "mlasce.cli.resolve_simulator", lambda entry: lambda x: calls.append(x) or 0.0
        )
        doc = json.loads(json.dumps(TOY3_CONFIG))
        (doc if level is None else doc["levels"][level - 1])[key] = value
        assert main([command, "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", ["run", "plan"])
    @pytest.mark.parametrize(
        "domain",
        [
            [[0.0, 0.0], [1.0]],
            [1.0, 0.0],
            [0.0, math.inf],
            # Too large for a float (an OverflowError), and squared
            # distances that overflow (a nan MICE score, then an IndexError).
            [0.0, 10**400],
            [[0.0, 0.0], [1.0, 1e300]],
            [-1e308, 1e308],
        ],
    )
    def test_bad_domain_bounds_exit_2(self, tmp_path, capsys, command, domain):
        cfg = write_config(tmp_path, dict(TABLE_CONFIG, domain=domain))
        assert main([command, "--config", cfg]) == EXIT_CONFIG
        assert "domain bounds" in capsys.readouterr().err


class TestPlanCommand:
    def test_table_budget_sums(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        assert main(["plan", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 6
        total = 0.0
        for line in lines[1:]:
            parts = line.split(",")
            total += float(parts[2]) * float(parts[4])
        assert total == pytest.approx(800.0, abs=1e-6)

    def test_single_level(self, tmp_path, capsys):
        doc = {
            "domain": [0.0, 1.0],
            "budget": 100.0,
            "levels": [{"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0}],
        }
        assert main(["plan", "--config", write_config(tmp_path, doc)]) == 0
        line = capsys.readouterr().out.strip().split("\n")[1]
        assert float(line.split(",")[4]) == pytest.approx(25.0)

    def test_infeasible_budget_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        assert main(["plan", "--config", cfg, "--budget", "10.0"]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize("budget", ["nan", "inf"])
    def test_non_finite_budget_flag_is_config_error(self, tmp_path, budget):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        assert main(["plan", "--config", cfg, "--budget", budget]) == EXIT_CONFIG

    def test_non_finite_config_budget_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, dict(TABLE_CONFIG, budget=math.nan))
        assert main(["plan", "--config", cfg]) == EXIT_CONFIG

    def test_json_format(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        assert main(["plan", "--config", cfg, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["levels"]) == 5

    @pytest.mark.parametrize("common_nu", [True, False])
    def test_csv_rows_match_json_rows(self, tmp_path, capsys, common_nu):
        # A common nu fills n_closed_form; per-level nu leaves it empty.
        doc = json.loads(json.dumps(TABLE_CONFIG))
        if not common_nu:
            doc["levels"][0]["nu"] = 3.5
        cfg = write_config(tmp_path, doc)
        assert main(["plan", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["levels"]
        assert main(["plan", "--config", cfg]) == 0
        lines = capsys.readouterr().out.split("\n")
        assert lines[0] == "level,h,t,nu,n_numerical,n_closed_form,n_rounded"
        assert lines[-1] == "" and len(lines) == len(rows) + 2
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert int(cells[0]) == row["level"] and int(cells[6]) == row["n_rounded"]
            for cell, key in zip(cells[1:6], ("h", "t", "nu", "n_numerical", "n_closed_form")):
                assert (None if cell == "" else float(cell)) == row[key]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "change, nulls", [({"budget": 105.0}, [False, False, True])], ids=["budget-105"]
    )
    def test_closed_form_below_one_run_is_null(self, tmp_path, capsys, change, nulls, fmt):
        # At budget 105 the closed form gives level 3 0.859 runs: no count,
        # so null in JSON and an empty CSV cell, as with per-level nu.
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, **change))
        assert main(["plan", "--config", cfg, "--format", fmt]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            closed = [row["n_closed_form"] for row in json.loads(out)["levels"]]
        else:
            closed = [line.split(",")[5] or None for line in out.split("\n")[1:-1]]
        assert [c is None for c in closed] == nulls
        assert all(float(c) >= 1.0 for c in closed if c is not None)


    @pytest.mark.parametrize(
        "alpha", [1e308, math.inf, 1e3, 1e10], ids=["1e308", "Infinity", "1e3", "1e10"]
    )
    def test_overflowing_alpha_exits_2_naming_alpha(self, tmp_path, capsys, alpha):
        # 2 alpha overflows to inf (json writes math.inf as Infinity), and
        # level 1's 2 alpha log 1 would be nan; from about 252 a gap weight
        # |h_l - h_(l-1)|^(2 alpha) falls below e^-700. Rejected before any
        # arithmetic, so no RuntimeWarning and nothing on stdout.
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, alpha=alpha))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["plan", "--config", cfg]) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "alpha" in err

    @pytest.mark.parametrize("alpha", [150.0, 200.0])
    def test_large_alpha_plans_without_overflow(self, tmp_path, capsys, alpha):
        # Gap weights down to e^-555 on the toy3 ladder: the KKT search
        # overflowed from alpha 150.
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, alpha=alpha))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["plan", "--config", cfg, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["levels"]
        assert [row["n_rounded"] for row in rows] == [36, 2, 1]

    @pytest.mark.parametrize(
        "change", [{"cost": 1e-320}, {"budget": 1e308}], ids=["tiny-cost", "huge-budget"]
    )
    def test_count_beyond_int64_exits_2_promptly(self, tmp_path, change):
        # A level cost of 1e-320 makes a count overflow to infinity (whose
        # rounding repair never ended); a budget of 1e308 makes one that
        # int64 cannot hold (printed as -9223372036854775808). The child
        # process gets a wall-clock limit.
        doc = json.loads(json.dumps(TABLE_CONFIG))
        doc["budget"] = change.get("budget", doc["budget"])
        doc["levels"][0]["cost"] = change.get("cost", doc["levels"][0]["cost"])
        proc = subprocess.run(
            [sys.executable, "-m", "mlasce.cli", "plan", "--config",
             write_config(tmp_path, doc), "--format", "json"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PATH": "/usr/bin:/bin"},
            timeout=60,
        )
        assert proc.returncode == EXIT_CONFIG, proc.stdout
        assert proc.stdout == ""
        assert "level 1: run count" in proc.stderr and "64-bit integer" in proc.stderr


class TestRunCommand:
    def test_run_writes_artifact_and_summary(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        out = tmp_path / "model.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "spent" in text and "l2_error" in text
        em = load_artifact(str(out))
        assert em.spent <= 240.0 + 1e-9

    def test_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["run", "--config", cfg, "--out", str(a)]) == 0
        assert main(["run", "--config", cfg, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_budget_below_initialization(self, tmp_path):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        assert main(["run", "--config", cfg, "--budget", "50"]) == EXIT_INFEASIBLE

    @pytest.mark.parametrize(
        "key, value",
        [
            ("budget", math.nan),
            ("budget", math.inf),
            ("weights", [1.0, math.nan, 1.0]),
            ("weights", [1.0, math.inf, 1.0]),
            ("weights", [1.0, 0.0, 1.0]),
            ("weights", [1.0, -1.0, 1.0]),
            ("weights", [1.0, True, 1.0]),
            ("weights", "123"),
        ],
    )
    def test_invalid_budget_or_weights_is_config_error(self, tmp_path, key, value):
        doc = dict(TOY3_CONFIG, **{key: value})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_non_finite_budget_flag_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        assert main(["run", "--config", cfg, "--budget", "nan"]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "key, value",
        [("stabilizer", v) for v in (math.nan, math.inf, -1.0)]
        + [("nugget", v) for v in (math.nan, math.inf, -1.0)],
        ids=["nan", "inf", "-1.0", "nugget-nan", "nugget-inf", "nugget--1.0"],
    )
    def test_invalid_stabilizer_is_config_error(self, tmp_path, monkeypatch, key, value):
        calls = []
        sim = builtin_simulators()["toy3:1"]
        monkeypatch.setattr(
            "mlasce.cli.resolve_simulator", lambda entry: lambda x: calls.append(x) or sim(x)
        )
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, **{key: value}))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert calls == []

    @pytest.mark.parametrize("nugget", [1.0, 1e6])
    def test_nugget_of_one_or_more_is_config_error(self, tmp_path, monkeypatch, capsys, nugget):
        calls = []
        monkeypatch.setattr("mlasce.cli.resolve_simulator", lambda entry: calls.append)
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, nugget=nugget))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert calls == []
        assert "nugget must be < 1" in capsys.readouterr().err

    def test_truth_on_2d_domain_fails_before_any_evaluation(self, tmp_path, monkeypatch):
        calls = []

        def spy(x):
            calls.append(x)
            return float(np.sum(x))

        monkeypatch.setattr("mlasce.cli.resolve_simulator", lambda entry: spy)
        doc = dict(TOY3_CONFIG, domain=[[0.0, 0.0], [1.0, 1.0]])
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        assert calls == []

    def test_missing_config_is_config_error(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "none.json")]) == EXIT_CONFIG


class TestArtifact:
    def test_round_trip_preserves_predictions(self, tmp_path):
        em = mlasce_run(ladder_for(TOY3), 240.0, nu=2.5, seed=9, n_grid=41)
        path = tmp_path / "artifact.json"
        save_artifact(em, str(path))
        loaded = load_artifact(str(path))
        rng = np.random.default_rng(0)
        xs = rng.uniform(0.0, PI, size=100)
        m0, v0 = predict_batch(em, xs)
        m1, v1 = predict_batch(loaded, xs)
        np.testing.assert_allclose(m1, m0, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(v1, v0, rtol=1e-12, atol=1e-12)
        assert loaded.ledger == em.ledger

    def test_rejects_foreign_document(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ConfigError):
            load_artifact(str(path))


class TestPredictCommand:
    def test_predict_matches_in_process(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        art = tmp_path / "model.json"
        assert main(["run", "--config", cfg, "--out", str(art)]) == 0
        capsys.readouterr()
        pts = tmp_path / "points.txt"
        xs = np.linspace(0.1, 3.0, 7)
        pts.write_text("\n".join(repr(float(v)) for v in xs) + "\n")
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "x1,mean,sd"
        em = load_artifact(str(art))
        mean, var = predict_batch(em, xs)
        for line, m, v in zip(lines[1:], mean, np.sqrt(np.maximum(var, 0))):
            _, got_m, got_s = (float(t) for t in line.split(","))
            assert got_m == pytest.approx(m, abs=1e-12)
            assert got_s == pytest.approx(v, abs=1e-12)

    def test_empty_points_file_on_2d_artifact(self, tmp_path, capsys):
        # No points gives a header-only CSV at any dimension, not a
        # dimension error.
        ladder = FidelityLadder(
            levels=(
                Level(lambda x: math.sin(3 * x[0]) + x[1], cost=4.0, accuracy=1.0),
                Level(lambda x: 0.1 * x[0] * x[1], cost=16.0, accuracy=0.5),
            ),
            domain=([0.0, 0.0], [1.0, 1.0]),
        )
        art = tmp_path / "model2d.json"
        save_artifact(mlasce_run(ladder, 60.0, nu=2.5, seed=1, n_grid=30), art)
        pts = tmp_path / "points.txt"
        pts.write_text("# no points\n\n")
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == 0
        assert capsys.readouterr().out == "x1,x2,mean,sd\n"
        pts.write_text("0.25 0.75\n")
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == 0
        mean, var = predict_batch(load_artifact(str(art)), np.array([[0.25, 0.75]]))
        sd = math.sqrt(max(float(var[0]), 0.0))
        row = capsys.readouterr().out.split("\n")[1]
        assert row == f"0.25,0.75,{float(mean[0])!r},{sd!r}"

    @pytest.mark.parametrize("bad", ["abc", "0.5 abc", "1e-3x", "nan", "-inf"])
    def test_bad_coordinate_exits_2_with_location(self, tmp_path, capsys, bad):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        art = tmp_path / "model.json"
        assert main(["run", "--config", cfg, "--out", str(art)]) == 0
        capsys.readouterr()
        pts = tmp_path / "points.txt"
        pts.write_text(f"0.5\n{bad}\n")
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == 2
        assert f"{pts}:2:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_artifact(tmp_path_factory):
    path = tmp_path_factory.mktemp("artifact") / "model.json"
    save_artifact(mlasce_run(ladder_for(TOY3), 160.0, nu=2.5, seed=1, n_grid=21), path)
    return path


@pytest.fixture(scope="module")
def artifact_2d(tmp_path_factory):
    ladder = FidelityLadder(
        levels=(
            Level(lambda x: math.sin(3 * x[0]) + x[1], cost=4.0, accuracy=1.0),
            Level(lambda x: 0.1 * x[0] * x[1], cost=16.0, accuracy=0.5),
        ),
        domain=([0.0, 0.0], [1.0, 1.0]),
    )
    path = tmp_path_factory.mktemp("artifact") / "model2d.json"
    save_artifact(mlasce_run(ladder, 60.0, nu=2.5, seed=1, n_grid=30), path)
    return path


def points_text(X, layout):
    """X as a points file; the layouts add what the reader must skip or undo."""
    rows = X.tolist()
    if layout == "tabs":
        lines = [" \t" + "\t".join(map(repr, x)) + "\t " for x in rows]
    else:
        lines = [" ".join(map(repr, x)) for x in rows]
    if layout == "comments":
        # A comment line, a whitespace-only line, an indented comment and a
        # blank line after every seventh point.
        noise = ["#points", "  \t", "   # note", ""]
        lines = [line for i, x in enumerate(lines) for line in [x] + noise * (i % 7 == 0)]
    nl = "\r\n" if layout == "crlf" else "\n"
    text = nl.join(lines)
    return text if layout == "no_final_newline" else text + nl


class TestPredictOutputBytes:
    """`mlasce predict` writes what the row-wise reference formatter writes."""

    @pytest.mark.parametrize("n", [0, 1, _PREDICT_BLOCK - 1, _PREDICT_BLOCK, _PREDICT_BLOCK + 1])
    @pytest.mark.parametrize("layout", ["plain", "comments", "tabs", "crlf", "no_final_newline"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_row_wise_reference(
        self, tmp_path, capsys, small_artifact, artifact_2d, dim, layout, n
    ):
        art = small_artifact if dim == 1 else artifact_2d
        hi = PI if dim == 1 else 1.0
        X = np.random.default_rng(n).uniform(0.0, hi, size=(n, dim))
        pts = tmp_path / "points.txt"
        pts.write_bytes(points_text(X, layout).encode())
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == 0
        mean, var = predict_batch(load_artifact(str(art)), X)
        table = np.column_stack([X, mean, np.sqrt(np.maximum(var, 0.0))])
        header = ",".join([f"x{i + 1}" for i in range(dim)] + ["mean", "sd"])
        want = "".join(
            [header + "\n"] + [",".join(map(repr, row)) + "\n" for row in table.tolist()]
        )
        assert capsys.readouterr().out == want

    def test_out_file_holds_the_stdout_bytes(self, tmp_path, capsys, small_artifact):
        X = np.linspace(0.0, PI, _PREDICT_BLOCK + 3).reshape(-1, 1)
        pts, out = tmp_path / "points.txt", tmp_path / "pred.csv"
        pts.write_text(points_text(X, "plain"))
        argv = ["predict", "--artifact", str(small_artifact), "--points", str(pts)]
        assert main(argv) == 0
        assert main(argv + ["--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestPredictErrors:
    """Bad points files exit 2 with the first bad line's `path:line` and
    message: count and number errors in file order, then non-finite ones."""

    @pytest.mark.parametrize(
        "dim,text,message",
        [
            (2, "0.1 0.2\n0.3 0.4\n# c\n\n0.5\n", "5: expected 2 coordinates, got 1"),
            (1, "0.5\n1.0\n0.25 0.75\n", "3: expected 1 coordinates, got 2"),
            (2, "0.1 0.2\n \t0.5\tabc \n", "2: coordinates must be numbers, got '0.5\\tabc'"),
            (1, "0.5\nnan\n0.25\nabc\n", "4: coordinates must be numbers, got 'abc'"),
            (1, "0.5\r\n\r\n1e-3x\r\n", "3: coordinates must be numbers, got '1e-3x'"),
            (1, "inf\n", "1: coordinates must be finite"),
            (2, "0.1 0.2\n0.3 -inf\n0.5 nan\n", "2: coordinates must be finite"),
        ],
    )
    def test_first_bad_line(
        self, tmp_path, capsys, small_artifact, artifact_2d, dim, text, message
    ):
        art = small_artifact if dim == 1 else artifact_2d
        pts = tmp_path / "points.txt"
        pts.write_bytes(text.encode())
        assert main(["predict", "--artifact", str(art), "--points", str(pts)]) == EXIT_CONFIG
        assert capsys.readouterr() == ("", f"error: {pts}:{message}\n")


class TestPredictNonFinite:
    @pytest.mark.parametrize("x", ["1e200", "-1e300"])
    def test_far_point_exits_2(self, tmp_path, capsys, small_artifact, x):
        # The squared distance overflows, and the Matern polynomial times
        # exp(-inf) is nan: no nan is printed, and no numpy RuntimeWarning
        # either, so stderr holds the one error line.
        pts = tmp_path / "points.txt"
        pts.write_text(f"1.0\n{x}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["predict", "--artifact", str(small_artifact), "--points", str(pts)])
        assert code == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {pts}: the prediction at point 2, x=[{float(x)!r}], is not finite\n"


class TestParser:
    def test_built_once_for_successive_commands(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        assert main(["plan", "--config", cfg, "--format", "json"]) == 0
        plan = json.loads(capsys.readouterr().out)
        assert main(["plan", "--config", cfg, "--budget", "400"]) == 0
        assert capsys.readouterr().out.startswith("level,")
        assert main(["run", "--config", write_config(tmp_path, TOY3_CONFIG, "run.json")]) == 0
        assert capsys.readouterr().out.startswith("budget 240.0 spent ")
        assert len(plan["levels"]) == 5
        assert cli.build_parser() is cli.build_parser()

    def test_dispatches_to_the_module_attribute(self, tmp_path, monkeypatch):
        # A wrapper installed on cli.cmd_plan after the parser exists (as the
        # benchmark's tracer does) is the function main calls.
        cli.build_parser()
        seen = []
        monkeypatch.setattr(cli, "cmd_plan", lambda args: seen.append(args.command) or 17)
        assert main(["plan", "--config", write_config(tmp_path, TABLE_CONFIG)]) == 17
        assert seen == ["plan"]


class TestFileErrors:
    """Unreadable inputs and unwritable outputs exit 2 and name the path."""

    def run_predict(self, capsys, artifact, points):
        code = main(["predict", "--artifact", str(artifact), "--points", str(points)])
        return code, capsys.readouterr().err

    def test_missing_artifact(self, tmp_path, capsys):
        pts = tmp_path / "points.txt"
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, tmp_path / "none.json", pts)
        assert code == EXIT_CONFIG and str(tmp_path / "none.json") in err

    def test_missing_points(self, tmp_path, capsys, small_artifact):
        code, err = self.run_predict(capsys, small_artifact, tmp_path / "none.txt")
        assert code == EXIT_CONFIG and str(tmp_path / "none.txt") in err

    def test_artifact_not_an_object(self, tmp_path, capsys):
        art, pts = tmp_path / "list.json", tmp_path / "points.txt"
        art.write_text("[1, 2]\n")
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, art, pts)
        assert code == EXIT_CONFIG and str(art) in err

    def test_artifact_missing_key(self, tmp_path, capsys, small_artifact):
        doc = json.loads(small_artifact.read_text())
        del doc["levels"][0]["lam"]
        art, pts = tmp_path / "nolam.json", tmp_path / "points.txt"
        art.write_text(json.dumps(doc))
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, art, pts)
        assert code == EXIT_CONFIG and str(art) in err and "lam" in err

    def test_infinite_ledger_iteration(self, tmp_path, capsys, small_artifact):
        # int(inf) raises OverflowError, which used to escape as a traceback.
        doc = json.loads(small_artifact.read_text())
        doc["ledger"][0]["iteration"] = math.inf
        art, pts = tmp_path / "inf.json", tmp_path / "points.txt"
        art.write_text(json.dumps(doc))
        assert "Infinity" in art.read_text()
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, art, pts)
        assert code == EXIT_CONFIG and str(art) in err and "invalid artifact entry" in err

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        out = tmp_path / "no-such-dir" / "model.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["no-such-dir/model.json", "."])
    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch, name):
        def no_run(*args, **kwargs):
            raise AssertionError("mlasce_run called before --out was checked")

        monkeypatch.setattr("mlasce.cli.mlasce_run", no_run)
        cfg = write_config(tmp_path, TOY3_CONFIG)
        out = tmp_path / name
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_artifact_without_levels(self, tmp_path, capsys, small_artifact):
        doc = json.loads(small_artifact.read_text())
        doc["levels"] = []
        art, pts = tmp_path / "empty.json", tmp_path / "points.txt"
        art.write_text(json.dumps(doc))
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, art, pts)
        assert code == EXIT_CONFIG and str(art) in err and "no levels" in err

    def test_level_dimension_differs_from_domain(self, tmp_path, capsys, small_artifact):
        doc = json.loads(small_artifact.read_text())
        doc["levels"][1]["X"] = [[x[0], 0.0] for x in doc["levels"][1]["X"]]
        art, pts = tmp_path / "mixed.json", tmp_path / "points.txt"
        art.write_text(json.dumps(doc))
        pts.write_text("0.5\n")
        code, err = self.run_predict(capsys, art, pts)
        assert code == EXIT_CONFIG and str(art) in err
        assert "level 2: design dimension 2 != domain dimension 1" in err


class TestExternalSimulator:
    def test_constant_stub(self):
        val = ExternalSimulator([sys.executable, "-c", "print(3.14)"], timeout=60)(
            np.array([0.5])
        )
        assert val == 3.14

    def test_failing_stub(self):
        with pytest.raises(SimulatorError):
            ExternalSimulator(
                [sys.executable, "-c", "import sys; sys.exit(1)"], timeout=60
            )(np.array([0.5]))

    def test_unparseable_output(self):
        with pytest.raises(SimulatorError):
            ExternalSimulator(
                [sys.executable, "-c", "print('not-a-number')"], timeout=60
            )(np.array([0.5]))

    def test_identity_echo_round_trip(self):
        sim = ExternalSimulator(
            [
                sys.executable,
                "-c",
                "import sys; print(float(sys.stdin.read().split()[0]))",
            ]
        )
        for v in (0.25, 1.75, 3.0):
            assert sim(np.array([v])) == pytest.approx(v, abs=0)

    def test_run_with_external_identity_level(self, tmp_path, capsys):
        doc = {
            "domain": [0.0, PI],
            "grid_size": 21,
            "seed": 3,
            "budget": 30.0,
            "levels": [
                {"simulator": "toy3:1", "cost": 1.0, "accuracy": 1.0, "nu": 2.5},
                {
                    "simulator": {
                        "command": [
                            sys.executable,
                            "-c",
                            "import sys; print(float(sys.stdin.read().split()[0]))",
                        ]
                    },
                    "cost": 2.0,
                    "accuracy": 0.5,
                    "nu": 2.5,
                },
            ],
        }
        cfg = write_config(tmp_path, doc)
        out = tmp_path / "ext.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        em = load_artifact(str(out))
        # level-2 increment is identity(x) - sin(x) at every ledger point
        for e in em.ledger:
            if e.level == 2:
                assert e.delta == pytest.approx(e.x[0] - math.sin(e.x[0]), abs=1e-12)

    @pytest.mark.parametrize("timeout", [-1, 0, math.nan, math.inf, "soon", None])
    def test_bad_timeout_fails_at_load_without_spawning(
        self, tmp_path, capsys, monkeypatch, timeout
    ):
        spawned = []
        monkeypatch.setattr("mlasce.cli.subprocess.run", lambda *a, **k: spawned.append(a))
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][2]["simulator"] = {"command": ["true"], "timeout": timeout}
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "level 3" in err and "timeout" in err
        assert spawned == []

    def test_non_string_command_item_fails_at_load_without_running(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []

        def spy(x):
            calls.append(x)
            return math.sin(x[0])

        monkeypatch.setattr(
            "mlasce.cli.builtin_simulators", lambda: {f"toy3:{l}": spy for l in (1, 2, 3)}
        )
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][2]["simulator"] = {"command": [1]}
        assert main(["run", "--config", write_config(tmp_path, doc)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "level 3" in err and "must be strings" in err
        assert calls == []

    def test_simulator_failure_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][2]["simulator"] = {
            "command": [sys.executable, "-c", "import sys; sys.exit(2)"]
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_SIMULATOR


    def test_value_whose_square_overflows_exits_4_naming_x(self, tmp_path, capsys):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][0]["simulator"] = {
            "command": [
                sys.executable,
                "-c",
                "import math, sys; print(1e200 * math.sin(3 * float(sys.stdin.read())))",
            ]
        }
        assert main(["run", "--config", write_config(tmp_path, doc)]) == EXIT_SIMULATOR
        err = capsys.readouterr().err
        assert "[level 1] at x=" in err and "whose square overflows" in err
        assert "Traceback" not in err

class TestBenchCommand:
    def test_bench_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(
            [
                "bench",
                "--suite",
                "toy3",
                "--budgets",
                "340",
                "--seeds",
                "0",
                "--methods",
                "ar1_baseline",
                "--workers",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2

    def test_budget_beyond_int64_baseline_exits_2(self, tmp_path, capsys):
        argv = ["bench", "--suite", "toy3", "--budgets", "1e30", "--seeds", "1",
                "--methods", "ar1_baseline", "--workers", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == EXIT_CONFIG
        out, err = capsys.readouterr()
        assert out == "" and "budget 1e+30 gives baseline design sizes" in err

    def test_module_entry_point(self, tmp_path):
        cfg = write_config(tmp_path, TABLE_CONFIG)
        proc = subprocess.run(
            [sys.executable, "-m", "mlasce.cli", "plan", "--config", cfg],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
                 "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("level,")

    def test_usage_error_exit_code(self, capsys):
        assert main(["plan"]) == EXIT_CONFIG
        capsys.readouterr()


class TestArtifactReplayAudit:
    @pytest.mark.parametrize(
        "weights, expected",
        [("cost", [4.0, 20.0, 80.0]), ([1.0, 3.0, 9.0], [1.0, 3.0, 9.0])],
        ids=["cost", "weights_1_3_9"],
    )
    def test_cli_artifact_ledger_passes_argmax_audit(
        self, tmp_path, capsys, weights, expected
    ):
        # End-to-end: run via the CLI, then replay the persisted ledger with
        # fresh refits and verify every loop pick was the effective-score
        # argmax among affordable levels (exploration floor included), both
        # for the default weights a_l = cost and for weights unlike the costs.
        from mlasce.gp import fit

        cfg = write_config(tmp_path, {**TOY3_CONFIG, "weights": weights})
        art = tmp_path / "model.json"
        assert main(["run", "--config", cfg, "--seed", "42", "--out", str(art)]) == 0
        capsys.readouterr()
        em = load_artifact(str(art))
        budget = em.budget
        domain = (float(em.domain[0][0]), float(em.domain[1][0]))
        nus = {lv.level: lv.model.spec.nu for lv in em.levels}
        nuggets = {lv.level: lv.model.spec.nugget for lv in em.levels}
        costs = {lv.level: lv.cost_per_eval for lv in em.levels}
        weights = {lv.level: lv.weight for lv in em.levels}
        levels = sorted(costs)
        assert [weights[lv] for lv in levels] == expected

        data = {lv: ([], []) for lv in levels}
        models = {lv: None for lv in levels}
        gammas = {lv: 0.0 for lv in levels}
        spent = 0.0

        def effective(lv):
            n = len(data[lv][0])
            if n < 3 and spent < 0.5 * budget:
                return max(gammas[lv], (weights[lv] / costs[lv]) / n)
            return gammas[lv]

        for entry in em.ledger:
            if entry.iteration > 0:
                affordable = [
                    lv for lv in levels if costs[lv] <= budget - spent + 1e-9
                ]
                top = max(effective(lv) for lv in affordable)
                best = next(
                    lv for lv in affordable if effective(lv) >= top - 4e-12 * abs(top)
                )
                assert entry.level == best
            xs, ys = data[entry.level]
            before = models[entry.level]
            xs.append(entry.x[0])
            ys.append(entry.delta)
            model = fit(
                np.array(xs),
                np.array(ys),
                nu=nus[entry.level],
                nugget=nuggets[entry.level],
                domain=domain,
            )
            models[entry.level] = model
            gammas[entry.level] = score(
                before, model, weights[entry.level], costs[entry.level]
            )
            spent += entry.cost
        assert spent == pytest.approx(em.spent)
        # persisted hyperparameters and scores equal the replayed final ones
        for lv in em.levels:
            assert models[lv.level].spec == lv.model.spec
            assert gammas[lv.level] == lv.gamma


class TestBenchToy5:
    def test_bench_toy5_writes_csv(self, tmp_path):
        out = tmp_path / "b5.csv"
        code = main(
            [
                "bench",
                "--suite",
                "toy5",
                "--budgets",
                "250",
                "--seeds",
                "0",
                "--methods",
                "ar1_baseline",
                "--workers",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].endswith("n_1,n_2,n_3,n_4,n_5,wall_ms")


class TestPerLevelSeedArtifact:
    def test_round_trip_with_seed_list(self, tmp_path):
        from mlasce.bench import TOY3, ladder_for

        em = mlasce_run(ladder_for(TOY3), 160.0, nu=2.5, seed=[5, 6, 7], n_grid=31)
        path = tmp_path / "seeded.json"
        save_artifact(em, str(path))
        loaded = load_artifact(str(path))
        assert loaded.seed == [5, 6, 7]
        xs = np.linspace(0.0, PI, 40)
        np.testing.assert_array_equal(
            predict_batch(loaded, xs)[0], predict_batch(em, xs)[0]
        )

    def test_numpy_integer_seeds_save(self, tmp_path):
        # A numpy integer seed, alone or in a per-level list, is stored as a
        # plain int: the artifact saves, and equals the one from the int seed.
        paths = {}
        for name, seed in (("int", 3), ("np", np.int64(3)), ("list", [np.int64(1), 2, 3])):
            em = mlasce_run(ladder_for(TOY3), 200.0, nu=2.5, seed=seed, n_grid=21)
            paths[name] = tmp_path / f"{name}.json"
            save_artifact(em, str(paths[name]))
        assert paths["np"].read_bytes() == paths["int"].read_bytes()
        assert load_artifact(str(paths["np"])).seed == 3
        assert load_artifact(str(paths["list"])).seed == [1, 2, 3]

    def test_unserialisable_artifact_leaves_no_file(self, tmp_path):
        em = mlasce_run(ladder_for(TOY3), 200.0, nu=2.5, seed=3, n_grid=21)
        em.seed = np.int64(3)
        path = tmp_path / "bad.json"
        with pytest.raises(TypeError):
            save_artifact(em, str(path))
        assert not path.exists()
