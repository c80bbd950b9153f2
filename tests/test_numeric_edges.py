"""Numeric edges: exact values past the float range, below it, or too small for a float estimate.

A corpus of documents runs through every subcommand that reads one, in
process through ``main`` and once per subcommand as ``python -m
varmdp.cli``: each ends with its exit code and first stderr line, and none
with a traceback.  The exact commands answer every document; a float layer
refuses what it cannot hold, naming it.
"""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from varmdp import ErgodicityError, estimate_cdf, pareto_front_long
from varmdp.cli import main
from varmdp.documents import mdp_to_document, mrp_from_document
from varmdp.inventory import paper_short_printed

from conftest import scaled_rewards

F = Fraction
CHAIN = {"horizon": 20, "states": ["a", "b"], "reward_on": "state",
         "transitions": [{"x": "a", "y": "a", "p": "1/2"}, {"x": "a", "y": "b", "p": "1/2"},
                         {"x": "b", "y": "a", "p": "1/3"}, {"x": "b", "y": "b", "p": "2/3"}],
         "state_rewards": ["1e400", "3"], "mu0": ["1", "0"]}
PAIRS = {"horizon": 20, "states": ["a", "b"], "reward_on": "transition",
         "transitions": [{"x": "a", "y": "b", "p": "1", "r": "1"},
                         {"x": "b", "y": "a", "p": "1/2", "r": "2"},
                         {"x": "b", "y": "b", "p": "1/2", "r": "3"}],
         "mu0": ["1", "0"]}
# a chain whose only move from b back to a has probability 1e-400: still irreducible
ALMOST = f"{10 ** 400 - 1}/{10 ** 400}"
RARE_RETURN = {**CHAIN, "state_rewards": ["1", "3"],
               "transitions": [{"x": "a", "y": "b", "p": "1"}, {"x": "b", "y": "a", "p": "1e-400"},
                               {"x": "b", "y": "b", "p": ALMOST}]}
# a reward listed on a move that cannot happen: it is never paid
ZERO_MASS = {**PAIRS, "transitions": PAIRS["transitions"] + [
    {"x": "a", "y": "a", "p": "0", "r": "1e8"}]}


def _documents() -> dict:
    printed = paper_short_printed()
    salvage = mdp_to_document(printed)
    salvage["salvage"][0] = "1e400"
    return {
        "mdp-salvage-1e400": salvage,
        "mdp-r-1e400": mdp_to_document(scaled_rewards(printed, F(10) ** 400)),
        "mdp-r-1e-300": mdp_to_document(scaled_rewards(printed, F(10) ** -300)),
        "mdp-r-1e-400": {"horizon": 1, "states": ["s"], "actions": [[0]], "reward_kind": "sas",
                         "transitions": [{"x": "s", "a": 0, "y": "s", "p": "1", "r": "1e-400"}],
                         "mu0": ["1"], "salvage": ["0"]},
        "mrp-state-1e400": CHAIN,
        "mrp-state-1e-170": {**CHAIN, "state_rewards": ["1e-170", "3e-170"]},
        "mrp-state-1e-400": {**CHAIN, "state_rewards": ["1e-400", "3"]},
        "mrp-move-1e-400": {**PAIRS, "transitions": [{**PAIRS["transitions"][0], "r": "1e-400"},
                                                     *PAIRS["transitions"][1:]]},
        "mrp-salvage-1e400": {**PAIRS, "salvage": ["1e400", "0"]},
        "mrp-zero-mass-reward": ZERO_MASS,
        "mrp-p-1e-400": RARE_RETURN,
        "mrp-mu0-1e-400": {**CHAIN, "state_rewards": ["1", "3"], "mu0": ["1e-400", ALMOST]},
        "mdp-p-1e-400": {"horizon": 2, "states": ["s", "t"], "actions": [[0], [0]],
                         "reward_kind": "sas",
                         "transitions": [{"x": "s", "a": 0, "y": "s", "p": ALMOST, "r": "0"},
                                         {"x": "s", "a": 0, "y": "t", "p": "1e-400", "r": "1"},
                                         {"x": "t", "a": 0, "y": "s", "p": "1", "r": "0"}],
                         "mu0": ["1", "0"], "salvage": ["0", "0"]},
    }


MDP_RUNS = {"solve-expected": [], "dist-exact": [], "var-threshold": ["--tau", "0"],
            "pareto-short": [], "pareto-long": ["--horizon", "500", "--grid=-1:1:5"]}
MRP_RUNS = {"transform": [], "estimate-cdf": ["--n-steps", "100", "--grid=0:10:3"],
            "simulate": ["--samples", "100", "--seed", "1", "--quantiles", "3"]}
TOO_LARGE = "is too large for a float (beyond 1.79769e+308)"
TOO_SMALL = "is too small for a float (nonzero, read as 0.0)"
SKIPPED = ("policy 0 skipped: asymptotic variance 0.000e+00 is (numerically) zero; "
           "the normalized total reward is degenerate")
STATE_REWARDED = "error: transform: process is already state-rewarded"
# (document, subcommand, exit code, first stderr line); "" where stderr is empty
CORPUS = [
    *[("mdp-salvage-1e400", command, 0, "") for command in MDP_RUNS if command != "pareto-long"],
    ("mdp-salvage-1e400", "pareto-long", 0, SKIPPED),  # the estimate drops the salvage
    *[("mdp-r-1e400", command, 0, "") for command in MDP_RUNS if command != "pareto-long"],
    ("mdp-r-1e400", "pareto-long", 3, f"error: reward of move (0, 1, 0) {TOO_LARGE}"),
    *[("mdp-r-1e-300", command, 0, "") for command in MDP_RUNS if command != "pareto-long"],
    ("mdp-r-1e-300", "pareto-long", 5, SKIPPED),
    *[("mdp-r-1e-400", command, 0, "") for command in MDP_RUNS if command != "pareto-long"],
    ("mdp-r-1e-400", "pareto-long", 3, f"error: reward of move (s, 0, s) {TOO_SMALL}"),
    ("mrp-state-1e400", "transform", 3, STATE_REWARDED),
    ("mrp-state-1e400", "estimate-cdf", 3, f"error: reward of state a {TOO_LARGE}"),
    ("mrp-state-1e400", "simulate", 3, f"error: reward of state a {TOO_LARGE}"),
    ("mrp-state-1e-170", "transform", 3, STATE_REWARDED),
    ("mrp-state-1e-170", "estimate-cdf", 5,
     "error: sigma2 is 4.900e-01 times 2**-1128, 0.000e+00 as a float: "
     "the rewards are too small for a float estimate"),
    ("mrp-state-1e-170", "simulate", 0, ""),
    ("mrp-state-1e-400", "transform", 3, STATE_REWARDED),
    ("mrp-state-1e-400", "estimate-cdf", 3, f"error: reward of state a {TOO_SMALL}"),
    ("mrp-state-1e-400", "simulate", 3, f"error: reward of state a {TOO_SMALL}"),
    ("mrp-move-1e-400", "transform", 0, ""),
    ("mrp-move-1e-400", "estimate-cdf", 3, f"error: reward of move (a, b) {TOO_SMALL}"),
    ("mrp-move-1e-400", "simulate", 3, f"error: reward of move (a, b) {TOO_SMALL}"),
    ("mrp-salvage-1e400", "transform", 0, ""),
    ("mrp-salvage-1e400", "estimate-cdf", 3, f"error: salvage of state a {TOO_LARGE}"),
    ("mrp-salvage-1e400", "simulate", 3, f"error: salvage of state a {TOO_LARGE}"),
    *[("mrp-zero-mass-reward", command, 0, "") for command in MRP_RUNS],
    ("mrp-p-1e-400", "estimate-cdf", 3, f"error: probability of move (b, a) {TOO_SMALL}"),
    ("mrp-p-1e-400", "simulate", 3, f"error: probability of move (b, a) {TOO_SMALL}"),
    ("mrp-mu0-1e-400", "estimate-cdf", 3, f"error: mu0 of state a {TOO_SMALL}"),
    ("mrp-mu0-1e-400", "simulate", 3, f"error: mu0 of state a {TOO_SMALL}"),
    *[("mdp-p-1e-400", command, 0, "") for command in MDP_RUNS if command != "pareto-long"],
    ("mdp-p-1e-400", "pareto-long", 3, f"error: probability of move (s, 0, t) {TOO_SMALL}"),
    ("front-tau-1e400", "compare", 2, "error: {front-tau-1e400}: line 3: "
                                      "tau lies past the float range (beyond 1.79769e+308)"),
]


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict:
    folder = tmp_path_factory.mktemp("edges")
    paths = {}
    for name, doc in _documents().items():
        paths[name] = str(folder / f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    # a pareto-short front whose second tau is 10**400 / 3
    paths["front-tau-1e400"] = str(folder / "front.csv")
    with open(paths["front-tau-1e400"], "w", encoding="utf-8") as fh:
        fh.write("tau,tau_decimal,pareto_value,pareto_value_decimal,witness_policy_id\n"
                 f"0,0,0,0,1\n1{'0' * 400}/3,3.33333333333e+399,1,1,1\n")
    paths["out"] = str(folder / "out")
    return paths


def _argv(name: str, command: str, paths: dict) -> list[str]:
    if command == "compare":
        return [command, paths[name], paths[name], "-o", paths["out"]]
    return [command, paths[name], *{**MDP_RUNS, **MRP_RUNS}[command], "-o", paths["out"]]


def _first_line(text: str) -> str:
    return text.splitlines()[0] if text else ""


@pytest.mark.parametrize("name, command, code, first", CORPUS,
                         ids=[f"{name}-{command}" for name, command, *_ in CORPUS])
def test_corpus_in_process(paths, capsys, caplog, name, command, code, first):
    # the skip log goes to stderr in a process; here it is read off the log records
    assert main(_argv(name, command, paths)) == code
    err = "".join(f"{record.getMessage()}\n" for record in caplog.records) + \
        capsys.readouterr().err
    assert _first_line(err) == first.format(**paths)
    assert "Traceback" not in err


def test_corpus_once_per_subcommand_as_a_process(paths):
    firsts = {}
    for name, command, code, first in CORPUS:
        firsts.setdefault(command, (name, code, first))
    assert len(firsts) == 9  # every subcommand that reads a document
    for command, (name, code, first) in firsts.items():
        done = subprocess.run([sys.executable, "-m", "varmdp.cli", *_argv(name, command, paths)],
                              capture_output=True, text=True)
        assert (done.returncode, _first_line(done.stderr)) == (code, first.format(**paths))
        assert "Traceback" not in done.stderr


def test_exact_values_no_normal_float_holds_print_as_decimals(paths, capsys):
    assert main(["dist-exact", paths["mdp-salvage-1e400"]]) == 0
    assert ",1e+400," in capsys.readouterr().out
    assert main(["dist-exact", paths["mdp-r-1e-400"]]) == 0
    assert capsys.readouterr().out.splitlines()[1] == f"1/1{'0' * 400},1e-400,1,1"
    assert main(["solve-expected", paths["mdp-r-1e400"]]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first.startswith("optimal expected total reward = ") and first.endswith(" = 5e+400")


def test_rewards_too_small_for_a_float_estimate(paths, caplog):
    with open(paths["mrp-state-1e-170"], encoding="utf-8") as fh:
        mrp = mrp_from_document(json.load(fh))
    with pytest.raises(ErgodicityError, match="the rewards are too small for a float estimate$"):
        estimate_cdf(mrp, 100)
    tiny = scaled_rewards(paper_short_printed(), F(10) ** -300)
    with pytest.raises(ErgodicityError, match="no stationary policy induces an ergodic chain"):
        pareto_front_long(tiny, 500, [-1.0, 1.0])
    skips = caplog.records[-1].getMessage().splitlines()
    assert len(skips) == 6
    assert all(line.endswith("the rewards are too small for a float estimate")
               for line in skips[2:])


@pytest.mark.parametrize("command, extra", [
    ("estimate-cdf", ["--n-steps", "100", "--grid=0:60:13", "--sidecar"]),
    ("simulate", ["--samples", "2000", "--seed", "7", "--quantiles", "11", "-o"]),
])
def test_reward_on_a_zero_mass_move_changes_no_output(tmp_path, capsys, command, extra):
    outputs = []
    for doc in (PAIRS, ZERO_MASS):
        path, side = tmp_path / "doc.json", tmp_path / "side"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main([command, str(path), *extra, str(side)]) == 0
        outputs.append((capsys.readouterr(), side.read_text(encoding="utf-8")))
    assert outputs[0] == outputs[1]
