"""Traced in-process replay: spans around each module's public functions.

The replay runs every workload's CLI calls through ``varmdp.cli.main`` in
this process, on the same generated documents, so every layer is
measured in every traced run.  Spans are recorded by temporarily
replacing module attributes with timing wrappers (the program itself is
not changed) and are kept in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import json
import logging
import math
import os
import time
from collections import defaultdict

import varmdp.augmented as augmented_mod
import varmdp.cli as cli
import varmdp.edgeworth as edgeworth_mod
import varmdp.montecarlo as montecarlo_mod
import varmdp.pareto as pareto_mod
from varmdp._kernels import numba_enabled


class Tracer:
    """In-memory spans ``(name, start, end, parent, ok)`` plus counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.backends: set[str] = set()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_result=None):
        def traced(*args, **kwargs):
            sid = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, False]
            self.spans.append(span)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
                span[4] = True
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if on_result is not None:
                on_result(self, result, args, kwargs)
            return result
        return traced

    def parent_name(self, span) -> str | None:
        return None if span[3] is None else self.spans[span[3]][0]

    def dump(self) -> list[dict]:
        roots = []
        for sid, (name, start, end, parent, ok) in enumerate(self.spans):
            roots.append(sid if parent is None else roots[parent])
        return [{"id": sid, "trace": roots[sid], "name": name, "start": start, "end": end,
                 "parent": parent, "ok": ok}
                for sid, (name, start, end, parent, ok) in enumerate(self.spans)]


def _count_policies(tracer, aug, args, kwargs):
    mdp = aug.base
    tracer.counts["pareto.policies"] = math.prod(
        len(mdp.actions[x]) for t in range(mdp.horizon) for x, _ in aug.layers[t])


def _count_pairs(tracer, aug, args, kwargs):
    tracer.counts["augmented.pairs"] = aug.n_augmented_states


def _count_grid(tracer, front, args, kwargs):
    tracer.counts["pareto.grid_points"] = len(front.grid)


def _count_pair_states(tracer, mrp, args, kwargs):
    tracer.counts["transform.pair_states"] += mrp.n_states


def _count_truncation(tracer, kappa, args, kwargs):
    key = "edgeworth.kappa_truncation"
    tracer.counts[key] = max(tracer.counts[key], kappa.truncation)


def _count_enumerated(tracer, policies, args, kwargs):
    tracer.counts["edgeworth.policies_enumerated"] += len(policies)


def _count_steps(tracer, totals, args, kwargs):
    n_steps, n_samples = args[2], args[3]
    tracer.counts["kernels.steps"] += n_steps * n_samples
    backend = kwargs.get("backend") or ("numba" if numba_enabled() else "numpy")
    tracer.backends.add(backend)


def _patch_table():
    """(module, attribute, span name, result hook) for every instrumented call site."""
    return [
        (cli, "load_document", "documents.load_document", None),
        (cli, "mdp_from_document", "documents.mdp_from_document", None),
        (cli, "mrp_from_document", "documents.mrp_from_document", None),
        (cli, "pareto_front_exact", "pareto.front_exact", _count_grid),
        (cli, "solve_threshold_var", "augmented.solve_threshold", None),
        (cli, "exact_total_reward_distribution", "mdp.dist_exact", None),
        (cli, "expected_backward_induction", "mdp.expected", None),
        (cli, "pareto_front_long", "edgeworth.front_long", None),
        (cli, "estimate_cdf", "edgeworth.estimate_cdf", None),
        (cli, "simulate", "montecarlo.simulate", None),
        (augmented_mod, "build_augmented", "augmented.build", _count_pairs),
        (pareto_mod, "build_augmented", "augmented.build", _count_policies),
        (edgeworth_mod, "enumerate_stationary_policies", "edgeworth.enumerate",
         _count_enumerated),
        (edgeworth_mod, "policy_chain", "edgeworth.policy_chain", None),
        (edgeworth_mod, "transform", "transform.transform", _count_pair_states),
        (edgeworth_mod, "estimate_cdf", "edgeworth.estimate_cdf", None),
        (edgeworth_mod, "spectral_data", "edgeworth.spectral_data", None),
        (edgeworth_mod, "third_moment_constant", "edgeworth.third_moment_constant",
         _count_truncation),
        (edgeworth_mod, "stationary_distribution", "edgeworth.stationary_distribution", None),
        (montecarlo_mod, "simulate_totals", "kernels.simulate_totals", _count_steps),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    table = _patch_table()
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in table]
    try:
        for (module, attr, name, hook), (_, _, original) in zip(table, saved):
            setattr(module, attr, tracer.wrap(name, original, hook))
        yield tracer
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


@contextlib.contextmanager
def quiet_library(log_path: str):
    """Send the library's skipped-policy warnings to a file, as the CLI runs do to stderr."""
    logger = logging.getLogger("varmdp")
    handler = logging.FileHandler(log_path, mode="w", encoding="utf-8")
    logger.addHandler(handler)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        handler.close()


def replay(calls, tracer: Tracer | None) -> tuple[float, list[int]]:
    """Run each call through ``cli.main`` in-process; return wall time and exit codes."""
    codes, wall = [], 0.0
    for call in calls:
        main = cli.main if tracer is None else tracer.wrap(f"cli.{call.command}", cli.main)
        start = time.perf_counter()
        codes.append(main([call.command, *call.argv]))
        wall += time.perf_counter() - start
    return wall, codes


def _estimate_ok(tracer: Tracer, span) -> bool:
    """Whether the estimate a span ran under succeeded (skipped policies do not count)."""
    while span[3] is not None:
        span = tracer.spans[span[3]]
        if span[0] == "edgeworth.estimate_cdf":
            return span[4]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer figures from one traced replay: inclusive times, self times, counts."""
    total: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    build_under_solve = 0.0
    estimates = used = stationary = 0
    for span in tracer.spans:
        name, start, end, parent, ok = span
        duration = end - start
        total[name] += duration
        self_time[name] += duration
        if parent is not None:
            self_time[tracer.spans[parent][0]] -= duration
        caller = tracer.parent_name(span)
        if name == "augmented.build" and caller == "augmented.solve_threshold":
            build_under_solve += duration
        if name == "edgeworth.estimate_cdf" and ok:
            estimates += 1
            used += caller == "edgeworth.front_long"
        if name == "edgeworth.stationary_distribution" and _estimate_ok(tracer, span):
            stationary += 1
    c = tracer.counts
    sim_s = total["kernels.simulate_totals"]
    out = {
        "documents.load_s": (total["documents.load_document"]
                             + total["documents.mdp_from_document"]
                             + total["documents.mrp_from_document"], "s"),
        "augmented.build_s": (build_under_solve, "s"),
        "augmented.pairs": (c["augmented.pairs"], "count"),
        "augmented.induction_s": (self_time["augmented.solve_threshold"], "s"),
        "pareto.front_exact_s": (total["pareto.front_exact"], "s"),
        "pareto.policies": (c["pareto.policies"], "count"),
        "pareto.grid_points": (c["pareto.grid_points"], "count"),
        "mdp.dist_exact_s": (total["mdp.dist_exact"], "s"),
        "mdp.expected_s": (total["mdp.expected"], "s"),
        "transform.s": (total["transform.transform"], "s"),
        "transform.pair_states": (c["transform.pair_states"], "count"),
        "edgeworth.policy_chain_s": (total["edgeworth.policy_chain"], "s"),
        "edgeworth.spectral_s": (total["edgeworth.spectral_data"], "s"),
        "edgeworth.stationary_solves": (stationary / max(estimates, 1), "1/estimate"),
        "edgeworth.kappa_s": (total["edgeworth.third_moment_constant"], "s"),
        "edgeworth.kappa_truncation": (c["edgeworth.kappa_truncation"], "count"),
        "edgeworth.front_long_s": (total["edgeworth.front_long"], "s"),
        "edgeworth.policy_yield": (used / max(c["edgeworth.policies_enumerated"], 1),
                                   "ratio"),
        "montecarlo.simulate_s": (total["montecarlo.simulate"], "s"),
        "kernels.simulate_totals_s": (sim_s, "s"),
        "kernels.msteps_per_s": (c["kernels.steps"] / sim_s / 1e6 if sim_s else 0.0,
                                 "Msteps/s"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for name in sorted(self_time):
        out[f"self.{name}_s"] = (self_time[name], "s")
    return out


def trace_file(path: str, tracer: Tracer) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.dump(), "counts": dict(tracer.counts),
                   "backends": sorted(tracer.backends)}, fh)
