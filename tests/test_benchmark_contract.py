"""The benchmark imports and patches library names; every one must still exist."""

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from varmdp.cli import main

VARBENCH = Path(__file__).resolve().parent.parent / "varbench"


def load_by_path(name: str):
    """Import ``varbench/<name>.py`` as ``varbench_<name>`` (dataclasses need it in sys.modules)."""
    spec = importlib.util.spec_from_file_location(f"varbench_{name}", VARBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_call_sites_resolve_to_callables():
    table = load_by_path("tracing")._patch_table()
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


def test_exact_layer_goldens_replay_in_process(tmp_path):
    # every input variant of the exact-short workload, at the self-test sizes
    workloads, checks = load_by_path("workloads"), load_by_path("checks")
    goldens = json.loads((VARBENCH / "goldens.json").read_text(encoding="utf-8"))["tiny"]
    calls = 0
    for variant in range(workloads.POOL):
        workload = workloads.build("exact-short", variant, str(tmp_path / f"v{variant}"),
                                   workloads.TINY)
        for call in workload.calls:
            assert main([call.command, *call.argv]) == 0, call.golden
            text = Path(call.output).read_text(encoding="utf-8")
            assert checks.extract(call.command, text) == goldens[call.golden], call.golden
            calls += 1
    assert calls == 5 * workloads.POOL
