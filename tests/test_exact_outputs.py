"""The exact subcommands' outputs, pinned byte for byte.

Every call of ``dist-exact``, ``solve-expected`` and ``var-threshold --tau 7/3``
on the paper presets and on the inventory of capacities 0-7 at horizons 1, 2
and 12, each SAS and SA, keeps its exit code and the sha256 of its stdout and
stderr in ``exact_outputs.json``.  ``PYTHONPATH=src python tests/test_exact_outputs.py``
writes that file again from the code in ``src``.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from varmdp import InventoryParams, build_inventory, simplify_reward
from varmdp.cli import main
from varmdp.documents import dump_document, mdp_to_document
from varmdp.inventory import PRESETS

PINNED_PATH = Path(__file__).with_name("exact_outputs.json")
PINNED = json.loads(PINNED_PATH.read_text(encoding="utf-8")) if PINNED_PATH.exists() else {}
COMMANDS = {"dist-exact": (), "solve-expected": (), "var-threshold": ("--tau", "7/3")}


def documents() -> dict:
    """Name -> ``mdp-v1`` text of every document of the corpus."""
    models = {name: make() for name, make in PRESETS.items()}
    models.update({f"cap{c}-h{h}": build_inventory(InventoryParams(horizon=h, capacity=c))
                   for c in range(8) for h in (1, 2, 12)})
    texts = {}
    for name, mdp in models.items():
        texts[name] = dump_document(mdp_to_document(mdp))
        texts[f"{name}-sa"] = dump_document(mdp_to_document(simplify_reward(mdp)))
    return texts


def run(command: str, path: str) -> list:
    """``[exit code, sha256 of stdout, sha256 of stderr]`` of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, path, *COMMANDS[command]])
    return [code] + [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]


def outputs(folder: Path) -> dict:
    """``"command document"`` -> ``run``'s result, for every call of the corpus."""
    found = {}
    for name, text in sorted(documents().items()):
        path = folder / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for command in COMMANDS:
            found[f"{command} {name}"] = run(command, str(path))
    return found


@pytest.fixture(scope="module")
def got(tmp_path_factory) -> dict:
    return outputs(tmp_path_factory.mktemp("exact-outputs"))


def test_every_call_is_pinned(got):
    assert len(got) == 3 * 2 * (len(PRESETS) + 8 * 3)
    assert sorted(got) == sorted(PINNED)


@pytest.mark.parametrize("call", sorted(PINNED))
def test_exact_output_bytes(got, call):
    assert got[call] == PINNED[call]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as folder:
        lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in outputs(Path(folder)).items()]
    PINNED_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
