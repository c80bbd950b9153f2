"""The benchmark imports and patches library names; every one must still exist."""

import ast
import importlib
import importlib.util
from pathlib import Path

VARBENCH = Path(__file__).resolve().parent.parent / "varbench"
TRACING = VARBENCH / "tracing.py"


def test_traced_call_sites_resolve_to_callables():
    spec = importlib.util.spec_from_file_location("varbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    table = tracing._patch_table()
    assert table
    for module, attr, span, _ in table:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr} ({span})"


def varmdp_imports():
    """``(file:line, module, name)`` of every varmdp import in the benchmark, at any depth.

    ``import varmdp.x`` gives ``name`` None.  The files are parsed, not run.
    """
    found = []
    for path in sorted(VARBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 \
                    and node.module.split(".")[0] == "varmdp":
                found += [(f"{path.name}:{node.lineno}", node.module, alias.name)
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(f"{path.name}:{node.lineno}", alias.name, None)
                          for alias in node.names if alias.name.split(".")[0] == "varmdp"]
    return found


def test_benchmark_imports_resolve():
    found = varmdp_imports()
    assert found
    for where, module_name, name in found:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{where}: {module_name}.{name}"
