"""CLI, configuration, external-simulator protocol and artifact tests."""

import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mlasce.artifact import load_artifact, save_artifact
from mlasce.bench import TOY3, ladder_for
from mlasce.cli import (
    EXIT_CONFIG,
    EXIT_INFEASIBLE,
    EXIT_SIMULATOR,
    ExternalSimulator,
    builtin_simulators,
    load_config,
    main,
)
from mlasce.emulator import mlasce_run, predict_batch, score
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
        ],
    )
    def test_invalid_budget_or_weights_is_config_error(self, tmp_path, key, value):
        doc = dict(TOY3_CONFIG, **{key: value})
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

    def test_non_finite_budget_flag_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        assert main(["run", "--config", cfg, "--budget", "nan"]) == EXIT_CONFIG

    @pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
    def test_invalid_stabilizer_is_config_error(self, tmp_path, value):
        cfg = write_config(tmp_path, dict(TOY3_CONFIG, stabilizer=value))
        assert main(["run", "--config", cfg]) == EXIT_CONFIG

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

    def test_unwritable_out(self, tmp_path, capsys):
        cfg = write_config(tmp_path, TOY3_CONFIG)
        out = tmp_path / "no-such-dir" / "model.json"
        assert main(["run", "--config", cfg, "--out", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err


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

    def test_simulator_failure_exit_code(self, tmp_path):
        doc = json.loads(json.dumps(TOY3_CONFIG))
        doc["levels"][2]["simulator"] = {
            "command": [sys.executable, "-c", "import sys; sys.exit(2)"]
        }
        cfg = write_config(tmp_path, doc)
        assert main(["run", "--config", cfg]) == EXIT_SIMULATOR


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
    def test_cli_artifact_ledger_passes_argmax_audit(self, tmp_path, capsys):
        # End-to-end: run via the CLI, then replay the persisted ledger with
        # fresh refits and verify every loop pick was the effective-score
        # argmax among affordable levels (exploration floor included).
        from mlasce.gp import fit

        cfg = write_config(tmp_path, TOY3_CONFIG)
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
