"""The package's public names, and the library names the benchmark tracer wraps."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


def run_fresh(code):
    """stdout of ``code`` in a fresh interpreter that imports mlasce from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_loads_no_heavy_modules():
    # The package and its CLI need three LAPACK routines, which kernels
    # loads from scipy.linalg._flapack alone. So every start-up skips
    # scipy.linalg's package import (with the numpy.f2py and numpy.testing
    # that scipy's array-API shim pulls in), scipy.optimize and
    # scipy.spatial (with the scipy.special and scipy.sparse they pull in),
    # and the process pool that only parallel bench sweeps start.
    heavy = (
        "scipy.linalg", "scipy.optimize", "scipy.spatial",
        "numpy.f2py", "numpy.testing", "concurrent.futures.process",
    )
    code = (
        "import sys, mlasce, mlasce.cli; "
        f"print(sorted(m for m in sys.modules if m in {heavy!r} "
        "or m.startswith(('scipy.optimize.', 'scipy.spatial.'))))"
    )
    assert run_fresh(code) == "[]"


@pytest.mark.parametrize(
    "first, then",
    [("mlasce.kernels", "scipy.linalg.lapack"), ("scipy.linalg.lapack", "mlasce.kernels")],
    ids=["mlasce-first", "scipy-first"],
)
def test_lapack_routines_are_scipy_linalg_lapack(first, then):
    # In either import order the routines kernels and design call are the
    # very objects scipy.linalg.lapack exports, so every call is scipy's.
    code = (
        f"import {first}, {then}; "
        "from mlasce import kernels; import scipy.linalg.lapack as ref; "
        "print([getattr(kernels.lapack, f) is getattr(ref, f) "
        "for f in ('dpotrf', 'dtrtrs', 'dtrtri')])"
    )
    assert run_fresh(code) == "[True, True, True]"
