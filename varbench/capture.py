"""Capture the output goldens that the benchmark checks against.

Runs every distinct CLI call of every workload, for every input variant
and both input sizes, and writes ``goldens.json`` next to this file.
Run it from the repository root at the commit whose outputs are the
reference; a change that alters an output on purpose re-captures and
says why.

    python3 varbench/capture.py
"""

from __future__ import annotations

import json
import os
import sys

import run

sys.path.insert(0, run.SRC)
os.environ.update(run.PINNED)

import workloads  # noqa: E402
from checks import extract  # noqa: E402


def main() -> int:
    env = run.child_env()
    goldens: dict[str, dict] = {}
    for sizes in (workloads.FULL, workloads.TINY):
        found = goldens.setdefault(sizes.name, {})
        for variant in range(workloads.POOL):
            for name in workloads.WORKLOADS:
                workdir = os.path.join(run.OUT, "capture", f"{sizes.name}-{name}-v{variant}")
                wl = workloads.build(name, variant, workdir, sizes)
                for call in wl.calls:
                    if call.golden in found:
                        continue
                    argv = [sys.executable, "-m", "varmdp.cli", call.command, *call.argv]
                    _, _, code = run.run_process(argv, env, os.path.join(workdir, "stderr.log"),
                                                 600.0)
                    if code != 0:
                        print(f"error: {call.golden} exited with {code}", file=sys.stderr)
                        return 1
                    with open(call.output, encoding="utf-8") as fh:
                        found[call.golden] = extract(call.command, fh.read())
                    print(f"captured {sizes.name} {call.golden}", flush=True)
    with open(os.path.join(run.HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        fh.write(dumps(goldens))
    return 0


def dumps(goldens: dict) -> str:
    """JSON with one golden per line, so a re-capture diffs per call."""
    sizes = []
    for size, found in sorted(goldens.items()):
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(found.items()))
        sizes.append(f" {json.dumps(size)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(sizes) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
