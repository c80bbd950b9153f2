"""Self-test of the benchmark on tiny inputs.

Runs the three workloads and the traced run end to end, and asserts that
every metric named in ``BENCHMARK.json`` is printed with its unit, that
the report names each per-call answer time, that corrupted goldens are
counted as failures, and that a directory holding only the benchmark
exits non-zero without a result.

    python3 varbench/selftest.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

BENCH = os.path.join(run.ROOT, "BENCHMARK.json")
SCRATCH = os.path.join(run.OUT, "selftest")
REPORTED = {
    "exact-short": ("front_exact_s", "threshold_s", "dist_exact_s", "expected_s"),
    "estimate-long": ("front_long_s", "front_long_paper_s", "estimate_mixing_s"),
    "mc-oracle": ("estimate_s", "simulate_s", "ks_edgeworth_mc"),
}
ALWAYS = ("setup_s", "workload_s", "peak_rss_mb", "error_rate")


def bench(*args, cwd=run.ROOT, goldens=None):
    argv = [sys.executable, os.path.join(cwd, "varbench", "run.py"), *args,
            "--seconds", "1", "--tiny"]
    if goldens:
        argv += ["--goldens", goldens]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines


def result(lines) -> dict:
    return json.loads(lines[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def check_metrics(res: dict, declared: list[dict], what: str) -> None:
    expect(set(res["metrics"]) == {m["name"] for m in declared},
           f"{what}: metrics {sorted(res['metrics'])} differ from BENCHMARK.json")
    for m in declared:
        expect(res["metrics"][m["name"]]["unit"] == m["unit"],
               f"{what}: {m['name']} printed without unit {m['unit']}")


def main() -> int:
    with open(BENCH, encoding="utf-8") as fh:
        spec = json.load(fh)
    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)

    for name in REPORTED:
        code, lines = bench("--workload", name, "--seed", "5", "--trace", "0")
        expect(code == 0, f"{name} exited with {code}")
        res = result(lines)
        expect(res["correct"] and res["failed"] == 0, f"{name}: failed checks {lines[-3:]}")
        check_metrics(res, spec["end_to_end"], name)
        report = [line.split() for line in lines if line.startswith("  ")]
        for metric in REPORTED[name] + ALWAYS:
            expect(any(r[0] == metric and len(r) == 3 for r in report),
                   f"{name}: report lacks {metric} with a unit")

    code, lines = bench("--workload", "mc-oracle", "--seed", "5", "--trace", "1")
    expect(code == 0, f"traced run exited with {code}")
    res = result(lines)
    expect(res["correct"], f"traced run failed checks {lines[-3:]}")
    check_metrics(res, spec["per_layer"], "traced run")

    with open(os.path.join(run.HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    for golden in goldens["tiny"].values():
        for key, value in golden.items():
            golden[key] = value[::-1] if isinstance(value, (str, list)) else value
    corrupted = os.path.join(SCRATCH, "goldens.json")
    with open(corrupted, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh)
    for name in REPORTED:
        code, lines = bench("--workload", name, "--seed", "5", "--trace", "0",
                            goldens=corrupted)
        res = result(lines)
        expect(code == 0 and not res["correct"] and res["failed"] > 0,
               f"{name}: corrupted goldens gave error_rate {res['failed']}/{res['attempted']}")

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "varbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH, bare)
    code, lines = bench("--workload", "exact-short", "--seed", "1", "--trace", "0", cwd=bare)
    expect(code != 0 and not any(line.startswith("{") for line in lines),
           "a directory without the sources must exit non-zero without a result")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
