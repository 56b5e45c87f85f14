"""Same configuration, same bytes: reruns of `mlasce run` and runs under
different BLAS thread counts write identical artifacts and stdout.

The run3 configuration is the toy3 ladder at budget 240 with seed 2 and a
truth, so stdout carries the l2_error line; its variants reach the pruned
MICE select (grid 201), the jitter retry (nu = inf with nugget and
stabilizer 0) and weights unlike the increment costs.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mlasce import design
from mlasce.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

LEVELS = [
    {"simulator": "toy3:1", "cost": 4.0, "accuracy": 1.0, "nu": 2.5},
    {"simulator": "toy3:2", "cost": 16.0, "accuracy": 0.5, "nu": 2.5},
    {"simulator": "toy3:3", "cost": 64.0, "accuracy": 0.25, "nu": 2.5},
]
RUN3 = {
    "domain": [0.0, math.pi],
    "grid_size": 41,
    "seed": 2,
    "budget": 240.0,
    "truth": "toy3:3",
    "levels": LEVELS,
}
# The configuration of test_c9_determinism_and_persistence.
C9 = {"domain": [0.0, math.pi], "grid_size": 41, "seed": 11, "budget": 240.0, "levels": LEVELS}

VARIANTS = {
    "grid41": {},
    "grid201": {"grid_size": 201},
    "inf_nugget0": {
        "nugget": 0.0,
        "stabilizer": 0.0,
        "levels": [dict(lv, nu="inf") for lv in LEVELS],
    },
    "weights_1_3_9": {"weights": [1.0, 3.0, 9.0]},
}


@pytest.mark.parametrize("variant", VARIANTS)
def test_rerun_writes_the_same_bytes(tmp_path, capsys, monkeypatch, variant):
    calls = []  # (factor, k): one or two calls per pick, on the pick's own factor

    def spy(L, num, k, sigma2, _inner=design._suffix_scores):
        calls.append((L, k))
        return _inner(L, num, k, sigma2)

    monkeypatch.setattr(design, "_suffix_scores", spy)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(dict(RUN3, **VARIANTS[variant])))
    outputs = []
    for name in ("a", "b"):
        art = tmp_path / f"{name}.json"
        assert main(["run", "--config", str(cfg), "--out", str(art)]) == 0
        outputs.append((art.read_bytes(), capsys.readouterr().out))
    assert outputs[0] == outputs[1]
    assert "\nl2_error " in outputs[0][1]
    # Below 64 candidates every pick scores them all; at 201 some pick
    # scores, even after growing its block, only the suffix that can win.
    final = {id(L): (k, L.shape[0]) for L, k in calls}
    assert any(k < m for k, m in final.values()) == (variant == "grid201")


# One fresh interpreter per thread count: the c9 and run3 artifacts, both
# runs' stdout and the toy5 bench CSV less its wall_ms column (its AR(1) row fits 74,
# 37, 18, 9 and 4 points: the likelihood lattice through the bordered
# stack up to 32 points and point by point above).
_FRESH_RUN = """
import contextlib, io, sys
from mlasce.cli import main
out = sys.argv[1]
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout):
    assert main(["run", "--config", out + "/c9.json", "--out", out + "/c9.art"]) == 0
    assert main(["run", "--config", out + "/run3.json", "--out", out + "/run3.art"]) == 0
    assert main(["bench", "--suite", "toy5", "--budgets", "1150", "--seeds", "2",
                 "--workers", "1", "--out", out + "/toy5.csv"]) == 0
with open(out + "/toy5.csv") as fh:
    csv = "".join(line.rsplit(",", 1)[0] + "\\n" for line in fh)
sys.stdout.write(stdout.getvalue() + csv)
"""


def test_blas_thread_count_changes_no_byte(tmp_path):
    results = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        out.mkdir()
        (out / "c9.json").write_text(json.dumps(C9))
        (out / "run3.json").write_text(json.dumps(RUN3))
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-c", _FRESH_RUN, str(out)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        artifacts = [(out / name).read_bytes() for name in ("c9.art", "run3.art")]
        results.append((*artifacts, proc.stdout))
    assert results[0] == results[1]
    assert "l2_error " in results[0][2]
    assert "suite,method,budget,seed,l2_error,n_1,n_2,n_3,n_4,n_5\n" in results[0][2]
