"""The package's public names, and the library names the benchmark tracer wraps."""

import importlib.util
from pathlib import Path

import mlasce

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
