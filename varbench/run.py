"""varmdp benchmark: answer times of ``varmdp`` CLI calls, and a traced per-layer run.

Usage (from the repository root):

    python3 varbench/run.py --workload exact-short --seed 1 --seconds 25 --trace 0

``--trace 0`` runs the workload as a closed loop of CLI processes with
one client: an untimed warm-up pass on the tiny inputs, five timed
imports of ``varmdp.cli``, then whole timed passes until ``--seconds``
of measured time.  It prints the end-to-end metrics, each a median:
``setup_s`` (a fresh interpreter importing ``varmdp.cli``),
``workload_s`` (one whole pass), ``target_answer_s`` and
``contrast_answer_s`` (one CLI process answering the workload's target
question and the one it is contrasted with, see ``workloads.py``), and
``peak_rss_mb`` (the largest peak RSS of a timed CLI process).  Times are
wall times rescaled to a reference machine speed (see ``calibrate``).  The
report lines above the result also give every call's answer time, the
error rate and, on ``mc-oracle``, ``ks_edgeworth_mc``.

``--trace 1`` replays the CLI calls of every workload in-process, once
untraced and once traced, and prints the per-layer metrics (see
``tracing.py``).  Every output is checked (see ``checks.py``); a failed
check or a non-zero exit counts in ``failed``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--workload all`` runs the three workloads
in turn.  ``--tiny`` selects the small inputs the self-test uses, and
``--goldens`` another goldens file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(ROOT, ".varbench")
DEADLINE_S = 170.0
SETUP_REPEATS = 5
# On a shared host the CPU's speed can swing by 20% for tens of seconds at a
# time, which moves whole runs.  A fixed pure-Python loop is timed after every
# timed call, and each run's times are rescaled by CALIBRATION_REF_S over the
# loop's median time in that run: they read as seconds on a machine that runs
# the loop in CALIBRATION_REF_S.  The record keeps the raw wall times.
CALIBRATION_LOOPS = 500_000
CALIBRATION_REF_S = 0.05
# One BLAS thread, in this process and in every CLI child.
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "workload_s": "s", "target_answer_s": "s",
                    "contrast_answer_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--goldens", default=os.path.join(HERE, "goldens.json"))
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def commit() -> str:
    """The checkout's commit when it is a git work tree, read without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown"


def environment(backend: str) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "backend": backend,
            "commit": commit()}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()


def run_process(argv, env, log_path: str, timeout: float):
    """Run one child to completion; return (wall seconds, peak RSS in MB, exit code)."""
    start = time.perf_counter()
    with open(log_path, "ab") as log:
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=log, env=env,
                                cwd=ROOT)
    timer = threading.Timer(max(timeout, 0.1), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, usage.ru_maxrss / 1024.0, proc.returncode


def calibrate() -> float:
    """Wall time of a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def _read(path: str | None) -> str | None:
    if path is None or not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        return fh.read()


class Tally:
    """Attempted and failed invocations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, errors: list[str], what: str) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{what}: {'; '.join(errors)}")


def check_pass(wl, outputs, codes, checker, tally: Tally) -> float | None:
    """Check one pass's outputs; return its Edgeworth-vs-MC distance when it has one."""
    from checks import ks_from_outputs
    passed: dict[str, str] = {}
    ks = None
    for call, (text, side), code in zip(wl.calls, outputs, codes):
        if code != 0:
            errors = [f"exit code {code}"]
        elif text is None:
            errors = ["no output written"]
        else:
            errors = checker.check(call, text, side)
        if not errors and wl.ks_pair and call.metric == wl.ks_pair[1]:
            estimate = passed.get(wl.ks_pair[0])
            ks = None if estimate is None else ks_from_outputs(estimate, text)
            if ks is None or ks > checker.ks_limit:
                errors = [f"ks_edgeworth_mc {ks} is not within {checker.ks_limit}"]
        if not errors:
            passed[call.metric] = text
        tally.add(errors, f"{call.command} {call.golden}")
    return ks


def run_workload(name: str, args, deadline: Deadline) -> tuple[Tally, dict, dict]:
    import workloads
    from checks import Checker
    sizes = workloads.TINY if args.tiny else workloads.FULL
    workdir = os.path.join(OUT, f"{name}-s{args.seed}")
    wl = workloads.build(name, args.seed, workdir, sizes)
    # The untimed warm-up makes every call once on the tiny inputs: each call is a
    # fresh process, so this compiles bytecode and fills the page cache as a full
    # pass would, in a fraction of its time.
    warm_up = workloads.build(name, args.seed, os.path.join(workdir, "warm-up"),
                              workloads.TINY)
    checkers = {size: Checker(args.goldens, size) for size in {sizes.name, "tiny"}}
    env = child_env()
    log = os.path.join(workdir, "stderr.log")
    tally = Tally()
    samples: dict[str, list[float]] = {}
    workload_s: list[float] = []
    ks_values: list[float] = []
    loops: list[float] = []
    peak_rss = 0.0

    setup: list[float] = []
    # Interpreter start-up swings with the machine's speed, so the imports are
    # spread over the timed passes instead of being made in one block.
    interval = args.seconds / SETUP_REPEATS
    next_import = 0.0

    def time_import() -> None:
        elapsed, _, code = run_process([sys.executable, "-c", "import varmdp.cli"], env, log,
                                       deadline.left())
        tally.add([] if code == 0 else [f"exit code {code}"], "import varmdp.cli")
        setup.append(elapsed)

    def one_pass(w, size: str, timed: bool) -> float:
        nonlocal peak_rss, next_import
        outputs, codes, total = [], [], 0.0
        for call in w.calls:
            for path in (call.output, call.side_output):
                if path and os.path.exists(path):
                    os.unlink(path)
            argv = [sys.executable, "-m", "varmdp.cli", call.command, *call.argv]
            elapsed, rss, code = run_process(argv, env, log, deadline.left())
            codes.append(code)
            outputs.append((_read(call.output), _read(call.side_output)))
            if timed:
                total += elapsed
                peak_rss = max(peak_rss, rss)
                samples.setdefault(call.metric, []).append(elapsed)
                loops.append(calibrate())
                if time.perf_counter() >= next_import:
                    time_import()
                    next_import = time.perf_counter() + interval
        ks = check_pass(w, outputs, codes, checkers[size], tally)
        if timed:
            workload_s.append(total)
            if ks is not None:
                ks_values.append(ks)
        return total

    one_pass(warm_up, "tiny", timed=False)
    measured = last = 0.0
    while not workload_s or (measured < args.seconds and deadline.left() > 1.5 * last + 5):
        last = one_pass(wl, sizes.name, timed=True)
        measured += last
    while len(setup) < SETUP_REPEATS:
        time_import()

    scale = CALIBRATION_REF_S / statistics.median(loops)
    median = {k: scale * statistics.median(v) for k, v in samples.items()}
    metrics = {
        "setup_s": scale * statistics.median(setup),
        "workload_s": scale * statistics.median(workload_s),
        "target_answer_s": median[wl.target],
        "contrast_answer_s": median[wl.contrast],
        "peak_rss_mb": peak_rss,
    }
    report = {k: (v, "s") for k, v in sorted(median.items())}
    report.update({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()})
    report["error_rate"] = (tally.failed / tally.attempted, "ratio")
    report["calibration_s"] = (statistics.median(loops), "s")
    if ks_values:
        report["ks_edgeworth_mc"] = (statistics.median(ks_values), "sup-distance")
    detail = {"workload": name, "variant": wl.variant, "sizes": sizes.name,
              "passes": len(workload_s), "wall_samples": samples, "wall_setup": setup,
              "calibration": loops, "scale": scale,
              "failures": tally.messages}
    return tally, {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, \
        {"report": report, "detail": detail}


def run_traced(args, deadline: Deadline) -> tuple[Tally, dict, dict]:
    import workloads
    import tracing
    from checks import Checker
    sizes = workloads.TINY if args.tiny else workloads.FULL
    base = os.path.join(OUT, f"trace-s{args.seed}")
    wls = [workloads.build(name, args.seed, os.path.join(base, name), sizes)
           for name in workloads.WORKLOADS]
    checker = Checker(args.goldens, sizes.name)
    calls = [call for wl in wls for call in wl.calls]
    tally = Tally()
    runs = []
    with tracing.quiet_library(os.path.join(base, "library.log")):
        while not runs or (sum(r[0] + r[1] for r in runs) < args.seconds
                           and deadline.left() > 1.5 * (runs[-1][0] + runs[-1][1]) + 5):
            plain, _ = tracing.replay(calls, None)
            tracer = tracing.Tracer()
            with tracing.instrumented(tracer):
                traced, codes = tracing.replay(calls, tracer)
            pos = 0
            ks = None
            for wl in wls:
                n = len(wl.calls)
                outputs = [(_read(c.output), _read(c.side_output)) for c in wl.calls]
                got = check_pass(wl, outputs, codes[pos:pos + n], checker, tally)
                ks = got if got is not None else ks
                pos += n
            runs.append((plain, traced, tracer, ks))
    per_run = [tracing.layer_metrics(tracer) for _, _, tracer, _ in runs]
    metrics = {name: (statistics.median(m[name][0] for m in per_run), unit)
               for name, (_, unit) in per_run[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(t - p for p, t, _, _ in runs), "s")
    ks_values = [ks for *_, ks in runs if ks is not None]
    metrics["montecarlo.ks_edgeworth_mc"] = (
        statistics.median(ks_values) if ks_values else 1.0, "sup-distance")
    tracer = runs[-1][2]
    tracing.trace_file(os.path.join(OUT, f"spans-{args.workload}-s{args.seed}.json"), tracer)
    detail = {"workload": args.workload, "variant": wls[0].variant, "sizes": sizes.name,
              "replays": len(runs), "untraced_s": [r[0] for r in runs],
              "traced_s": [r[1] for r in runs], "backends": sorted(tracer.backends),
              "failures": tally.messages}
    return tally, metrics, {"report": metrics, "detail": detail}


def print_report(title: str, report: dict) -> None:
    print(title)
    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "varmdp", "cli.py")):
        print(f"error: no varmdp sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(PINNED)
    sys.path.insert(0, SRC)
    import workloads
    from varmdp._kernels import numba_enabled
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not os.path.isfile(args.goldens):
        print(f"error: no goldens file {args.goldens}", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    env = environment("numba" if numba_enabled() else "numpy")
    deadline = Deadline(DEADLINE_S)
    totals = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        names = [args.workload]
    for name in names:
        if args.trace:
            tally, found, record = run_traced(args, deadline)
        else:
            tally, found, record = run_workload(name, args, deadline)
        print_report(f"varbench {name} seed={args.seed} trace={args.trace} "
                     f"backend={env['backend']}", record["report"])
        record.update(env, seed=args.seed, trace=args.trace)
        record["report"] = {k: list(v) for k, v in record["report"].items()}
        print("record " + json.dumps(record, sort_keys=True))
        with open(os.path.join(OUT, f"record-{name}-s{args.seed}-t{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(record, fh, indent=1, sort_keys=True)
        totals.attempted += tally.attempted
        totals.failed += tally.failed
        prefix = f"{name}/" if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    print(json.dumps({
        "correct": totals.failed == 0, "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
