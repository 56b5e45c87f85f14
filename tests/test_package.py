"""The package's public names, and the library names the benchmark tracer wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import mlasce

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_all_names_resolve():
    assert [n for n in mlasce.__all__ if not hasattr(mlasce, n)] == []


def test_all_has_no_duplicates():
    assert len(set(mlasce.__all__)) == len(mlasce.__all__)


def test_traced_names_exist():
    # Read perfbench/tracing.py as it is; its SPANS and COUNTERS name the
    # (module, attribute) pairs the traced benchmark run patches.
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [(mod, attr) for mod, attr, *_ in tracing.SPANS + tracing.COUNTERS]
    assert targets
    assert [f"{m.__name__}.{a}" for m, a in targets if not hasattr(m, a)] == []


def test_import_loads_no_scipy_optimize_or_spatial():
    # A fresh interpreter: the package and its CLI need only scipy.linalg,
    # so every start-up skips scipy.optimize and scipy.spatial (and the
    # scipy.special and scipy.sparse they pull in).
    code = (
        "import sys, mlasce, mlasce.cli; "
        "print([m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.spatial'))])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
