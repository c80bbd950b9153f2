"""The benchmark imports and patches library names; every one must still exist."""

import ast
import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

from varmdp import _kernels
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


def replay(name: str, tmp_path) -> int:
    """Run every variant of a workload at the self-test sizes through ``cli.main``.

    Each output passes ``checks.Checker``: it matches its golden and its
    witnesses re-evaluate.  A workload's KS pair stays within the limit.
    """
    workloads, checks = load_by_path("workloads"), load_by_path("checks")
    checker = checks.Checker(str(VARBENCH / "goldens.json"), "tiny")
    calls = 0
    for variant in range(workloads.POOL):
        workload = workloads.build(name, variant, str(tmp_path / f"{name}-v{variant}"),
                                   workloads.TINY)
        texts = {}
        for call in workload.calls:
            assert main([call.command, *call.argv]) == 0, call.golden
            texts[call.metric] = Path(call.output).read_text(encoding="utf-8")
            side = call.side_output and Path(call.side_output).read_text(encoding="utf-8")
            assert checker.check(call, texts[call.metric], side) == [], call.golden
            calls += 1
        if workload.ks_pair:
            estimate, simulated = (texts[metric] for metric in workload.ks_pair)
            assert checks.ks_from_outputs(estimate, simulated) <= checker.ks_limit
    return calls


def test_exact_layer_goldens_replay_in_process(tmp_path):
    assert replay("exact-short", tmp_path) == 5 * load_by_path("workloads").POOL


def test_estimate_and_simulation_goldens_replay_in_process(tmp_path):
    # the first in-process runs of pareto-long's success path and of the simulate goldens
    pool = load_by_path("workloads").POOL
    assert replay("estimate-long", tmp_path) == 3 * pool
    assert replay("mc-oracle", tmp_path) == 2 * pool


def test_full_simulate_goldens_replay_in_process(tmp_path, monkeypatch, thread_starts):
    # 50,000 samples span several kernel blocks; the self-test size fits in one.
    # Every variant runs on two workers and the first four on one, whatever the host's CPUs.
    workloads, checks = load_by_path("workloads"), load_by_path("checks")
    goldens = json.loads((VARBENCH / "goldens.json").read_text(encoding="utf-8"))["full"]
    for cpus, variants in ((2, range(workloads.POOL)), (1, range(4))):
        monkeypatch.setattr(_kernels, "_cpus", lambda: tuple(range(cpus)))
        for variant in variants:
            workload = workloads.build("mc-oracle", variant,
                                       str(tmp_path / f"cpus{cpus}-v{variant}"), workloads.FULL)
            call, = (call for call in workload.calls if call.command == "simulate")
            assert main([call.command, *call.argv]) == 0, call.golden
            text = Path(call.output).read_text(encoding="utf-8")
            assert checks.sha256(text) == goldens[call.golden]["sha256"], (cpus, call.golden)
    assert len(thread_starts) == workloads.POOL  # one worker thread per two-worker run


def test_compare_reads_simulate_output(tmp_path, capsys):
    workloads, checks = load_by_path("workloads"), load_by_path("checks")
    workload = workloads.build("mc-oracle", 0, str(tmp_path), workloads.TINY)
    for call in workload.calls:
        assert main([call.command, *call.argv]) == 0
    estimate, simulated = (call.output for call in workload.calls)
    capsys.readouterr()
    assert main(["compare", estimate, simulated]) == 0
    distance = float(capsys.readouterr().out.split("=")[1])
    assert 0 < distance <= checks.KS_LIMIT["tiny"]


def test_declared_estimate_spans_fire(tmp_path):
    # layer_metrics emits a self time only for a span that fired, so a declared
    # self.* metric vanishes when its call site stops running; run.py adds the other two
    tracing, workloads = load_by_path("tracing"), load_by_path("workloads")
    benchmark = json.loads((VARBENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {metric["name"] for metric in benchmark["per_layer"]}
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for name in ("exact-short", "estimate-long", "mc-oracle"):
            workload = workloads.build(name, 0, str(tmp_path / name), workloads.TINY)
            _, codes = tracing.replay(workload.calls, tracer)
            assert codes == [0] * len(workload.calls), name
    reported = set(tracing.layer_metrics(tracer)) | {"trace.overhead_s",
                                                     "montecarlo.ks_edgeworth_mc"}
    assert reported == declared


def test_lazy_cli_names_trace_and_restore(tmp_path):
    # cli binds its float-layer entry points on first use; tracing must still wrap
    # and restore them, so this runs in an interpreter where none is bound yet
    script = f"""
import importlib.util, sys
import varmdp.cli as cli
lazy = ("pareto_front_long", "estimate_cdf", "simulate")
assert not set(lazy) & set(vars(cli)), "bound before use"
def load(name):
    path = {str(VARBENCH)!r} + "/" + name + ".py"
    spec = importlib.util.spec_from_file_location("varbench_" + name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module
tracing, workloads = load("tracing"), load("workloads")
calls = {{}}
for name in ("estimate-long", "mc-oracle"):
    for call in workloads.build(name, 0, {str(tmp_path)!r} + "/" + name, workloads.TINY).calls:
        calls.setdefault(call.command, call)
tracer = tracing.Tracer()
with tracing.instrumented(tracer):
    _, codes = tracing.replay([calls[c] for c in ("pareto-long", "estimate-cdf", "simulate")],
                              tracer)
import varmdp.edgeworth as edgeworth, varmdp.montecarlo as montecarlo
print(codes, sorted({{span[0] for span in tracer.spans if span[4]}}))
print(cli.pareto_front_long is edgeworth.pareto_front_long,
      cli.estimate_cdf is edgeworth.estimate_cdf, cli.simulate is montecarlo.simulate)
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    codes_and_spans, restored = result.stdout.splitlines()
    assert codes_and_spans.startswith("[0, 0, 0] ")
    for span in ("edgeworth.front_long", "edgeworth.estimate_cdf", "montecarlo.simulate",
                 "kernels.simulate_totals"):
        assert f"'{span}'" in codes_and_spans
    assert restored == "True True True"
