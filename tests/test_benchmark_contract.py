"""The benchmark's traced run patches library names; every one must still exist."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "varbench" / "tracing.py"


def test_traced_call_sites_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("varbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    for module, attr, span, _ in table:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"
