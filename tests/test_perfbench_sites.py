"""The benchmark's tracer wraps package functions by name; a rename or
removal in the package would break `perfbench/run.py --trace 1` without
failing any other test."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_site_resolves_to_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr} ({name})"
        for name, places, _ in tracing.SITES
        for owner, attr in places
        if not callable(getattr(owner, attr, None))
    ]
    assert tracing.SITES and missing == []
