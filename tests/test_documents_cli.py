"""Document round-trips and the command-line surface (exit codes, CSV shapes)."""

import copy
import csv
import io
import json
import os
import pkgutil
import random
import stat
import subprocess
import sys
import threading
from dataclasses import replace
from fractions import Fraction

import pytest

import varmdp
from varmdp import (DeterministicPolicy, InventoryParams, ValidationError,
                    build_inventory, induced_mrp, parse_rational, simplify_reward, transform)
from varmdp.cli import main
from varmdp.documents import (dump_document, load_document, mdp_from_document,
                              mdp_to_document, mrp_from_document, mrp_to_document)

from conftest import random_mdp

F = Fraction


class TestRationals:
    def test_accepted_forms(self):
        assert parse_rational("0.25") == F(1, 4)
        assert parse_rational("1/4") == F(1, 4)
        assert parse_rational(3) == F(3)
        assert parse_rational(0.5) == F(1, 2)
        assert parse_rational("-7/2") == F(-7, 2)

    def test_decimal_strings_are_exact(self):
        assert parse_rational("0.1") == F(1, 10)   # not the binary float

    def test_rejects_junk(self):
        for bad in ("abc", "1/0", None, True):
            with pytest.raises(ValidationError):
                parse_rational(bad)


class TestDocuments:
    def test_mdp_round_trip(self, short_sas, short_sa):
        rng = random.Random(14)
        seeded = [random_mdp(rng, n_states=rng.randint(1, 4), horizon=rng.randint(1, 3),
                             reward_kind=kind, max_actions=3)
                  for kind in ("sas", "sa") for _ in range(12)]
        for mdp in (short_sas, short_sa, *seeded):
            doc = mdp_to_document(mdp)
            again = mdp_from_document(json.loads(json.dumps(doc)))
            assert again == mdp
            text = dump_document(doc)
            assert dump_document(mdp_to_document(mdp_from_document(load_document(text)))) == text

    def test_mrp_round_trip_including_transformed(self, short_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0, 3: 0})
        mrp = induced_mrp(short_sas, pol)
        doc = mrp_to_document(mrp)
        again = mrp_from_document(json.loads(json.dumps(doc)))
        assert again.kernel == mrp.kernel
        assert again.transition_reward == mrp.transition_reward
        t = transform(mrp)
        tdoc = mrp_to_document(t)
        tagain = mrp_from_document(tdoc)
        assert tagain.include_final_reward
        assert tagain.states == t.states
        assert tagain.state_reward == t.state_reward

    def test_sa_document_requires_consistent_rewards(self, short_sa):
        doc = mdp_to_document(short_sa)
        doc["transitions"][1]["r"] = "999"
        with pytest.raises(ValidationError, match="differs within group"):
            mdp_from_document(doc)

    def test_errors_name_fields(self):
        with pytest.raises(ValidationError, match="missing field 'states'"):
            mdp_from_document({"horizon": 1})
        with pytest.raises(ValidationError, match="unknown state"):
            mdp_from_document({
                "horizon": 1, "states": ["a"], "actions": [[0]],
                "reward_kind": "sa",
                "transitions": [{"x": "zzz", "a": 0, "y": "a", "p": "1", "r": "0"}],
                "mu0": ["1"], "salvage": ["0"]})

    def test_bad_json_rejected(self):
        with pytest.raises(ValidationError, match="invalid JSON"):
            load_document("{not json")


@pytest.fixture()
def short_doc(tmp_path, short_sas):
    path = tmp_path / "short.json"
    path.write_text(json.dumps(mdp_to_document(short_sas)))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


class TestCli:
    def test_gen_solve_pipeline(self, tmp_path, capsys):
        doc = tmp_path / "mdp.json"
        assert run_cli("gen-inventory", "--preset", "paper-short", "-o", str(doc)) == 0
        assert run_cli("solve-expected", str(doc)) == 0
        out = capsys.readouterr().out
        assert "105/16" in out and "6.5625" in out

    def test_shell_pipe(self):
        # the documented stdin route through the installed entry point
        result = subprocess.run(
            f"{sys.executable} -m varmdp.cli gen-inventory --preset paper-short"
            f" | {sys.executable} -m varmdp.cli solve-expected -",
            shell=True, capture_output=True, text=True)
        assert result.returncode == 0
        assert "6.5625" in result.stdout

    def test_var_threshold_output(self, short_doc, capsys):
        assert run_cli("var-threshold", "--tau", "9", short_doc) == 0
        out = capsys.readouterr().out
        assert "eta = 5/16 = 0.3125" in out
        assert "t=0 (0, 0) -> 2" in out

    def test_dist_exact_csv(self, short_doc, tmp_path, capsys):
        out = tmp_path / "dist.csv"
        assert run_cli("dist-exact", short_doc, "-o", str(out)) == 0
        rows = list(csv.DictReader(io.StringIO(out.read_text())))
        assert rows[0]["value"] == "-7"
        assert rows[0]["prob"] == "1/16"
        total = sum(F(r["prob"]) for r in rows)
        assert total == 1

    def test_pareto_short_deterministic_csv(self, short_doc, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        pol = tmp_path / "pol.csv"
        assert run_cli("pareto-short", short_doc, "-o", str(a),
                       "--policies-out", str(pol)) == 0
        assert run_cli("pareto-short", short_doc, "-o", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()
        rows = list(csv.DictReader(io.StringIO(a.read_text())))
        header = rows[0].keys()
        for col in ("tau", "pareto_value", "witness_policy_id"):
            assert col in header
        nine = [r for r in rows if r["tau"] == "9"]
        assert nine and nine[0]["pareto_value"] == "11/16"
        listings = list(csv.DictReader(io.StringIO(pol.read_text())))
        assert {r["policy_id"] for r in listings} >= {nine[0]["witness_policy_id"]}

    def test_transform_and_estimate_pipeline(self, tmp_path, capsys):
        mdp_doc = tmp_path / "long.json"
        mrp_doc = tmp_path / "mrp.json"
        tdoc = tmp_path / "transformed.json"
        csv_out = tmp_path / "cdf.csv"
        side = tmp_path / "side.json"
        assert run_cli("gen-inventory", "--preset", "paper-long", "-o", str(mdp_doc)) == 0
        # induce a chain to a document via the library, then drive the CLI
        from varmdp import paper_long
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0, 3: 0})
        mrp = replace(induced_mrp(paper_long(), pol), salvage=None)
        mrp_doc.write_text(json.dumps(mrp_to_document(mrp)))
        assert run_cli("transform", str(mrp_doc), "-o", str(tdoc)) == 0
        tparsed = json.loads(tdoc.read_text())
        assert tparsed["reward_on"] == "state"
        assert tparsed["include_final_reward"] is True
        assert "->" in tparsed["states"][0]
        assert run_cli("estimate-cdf", str(tdoc), "--n-steps", "500",
                       "--grid", "1500:2200:100", "-o", str(csv_out),
                       "--sidecar", str(side)) == 0
        rows = list(csv.DictReader(io.StringIO(csv_out.read_text())))
        assert len(rows) == 100
        values = [float(r["cdf"]) for r in rows]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        meta = json.loads(side.read_text())
        for key in ("zeta", "sigma2", "kappa", "rhat_start", "cond_h"):
            assert key in meta

    def test_simulate_and_compare(self, tmp_path, capsys):
        mrp_doc = tmp_path / "mrp.json"
        from varmdp import paper_short_printed
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        mrp = induced_mrp(paper_short_printed(), pol)
        mrp_doc.write_text(json.dumps(mrp_to_document(mrp)))
        qa, qb = tmp_path / "qa.csv", tmp_path / "qb.csv"
        assert run_cli("simulate", str(mrp_doc), "--samples", "20000", "--seed", "4",
                       "-o", str(qa)) == 0
        assert run_cli("simulate", str(mrp_doc), "--samples", "20000", "--seed", "4",
                       "-o", str(qb)) == 0
        assert qa.read_bytes() == qb.read_bytes()

        c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        c1.write_text("tau,cdf\n0,0.0\n1,0.5\n2,1.0\n")
        c2.write_text("tau,cdf\n0,0.1\n1,0.4\n2,1.0\n")
        assert run_cli("compare", str(c1), str(c2)) == 0
        assert "0.1" in capsys.readouterr().out

    def test_exit_codes(self, tmp_path, capsys, short_doc):
        bad = tmp_path / "bad.json"
        bad.write_text('{"horizon": 2, "states": ["a"], "actions": [[0]], '
                       '"reward_kind": "sa", "transitions": [], "mu0": ["1"], '
                       '"salvage": ["0"]}')
        assert run_cli("solve-expected", str(bad)) == 2            # empty transitions

        notjson = tmp_path / "notjson.json"
        notjson.write_text("{{{")
        assert run_cli("solve-expected", str(notjson)) == 2        # parse error

        state_doc = tmp_path / "state_mrp.json"
        state_doc.write_text(json.dumps({
            "horizon": 3, "states": ["a"], "reward_on": "state",
            "transitions": [{"x": "a", "y": "a", "p": "1"}],
            "state_rewards": ["1"], "mu0": ["1"]}))
        assert run_cli("transform", str(state_doc)) == 3           # precondition

        assert run_cli("dist-exact", short_doc, "--budget", "2") == 4  # budget refusal

        reducible = tmp_path / "reducible.json"
        reducible.write_text(json.dumps({
            "horizon": 3, "states": ["a", "b"], "reward_on": "state",
            "transitions": [{"x": "a", "y": "a", "p": "1"},
                            {"x": "b", "y": "b", "p": "1"}],
            "state_rewards": ["1", "2"], "mu0": ["1/2", "1/2"]}))
        assert run_cli("estimate-cdf", str(reducible), "--n-steps", "10",
                       "--grid", "0:1:5") == 5                     # ergodicity
        capsys.readouterr()

    def test_error_messages_name_offender(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        missing.write_text('{"horizon": 1}')
        assert run_cli("solve-expected", str(missing)) == 2
        assert "states" in capsys.readouterr().err


STATE_MRP = {"horizon": 3, "states": ["a"], "reward_on": "state",
             "transitions": [{"x": "a", "y": "a", "p": "1"}],
             "state_rewards": ["1"], "mu0": ["1"]}


@pytest.mark.parametrize("command, kind, patch, field", [
    ("solve-expected", "mdp", {"horizon": "two"}, "horizon"),
    ("solve-expected", "mdp", {"horizon": 2.5}, "horizon"),
    ("solve-expected", "mdp", {"states": 5}, "states"),
    ("transform", "mrp", {"horizon": "two"}, "horizon"),
    ("transform", "mrp", {"states": 5}, "states"),
    ("dist-exact", "policy", {"rules": [{"nowhere": 0}]}, "policy.rules[0]"),
    ("transform", "mrp", {"transitions": [1]}, "transitions[0]"),
    ("solve-expected", "mdp", {"actions": [[0, 1, 2, 3], 5, [0, 1], [0]]}, "actions[1]"),
    ("estimate-cdf", "grid", ("--n-steps", "10", "--grid=0:inf:3"), "grid"),
    ("estimate-cdf", "grid", ("--n-steps", "10", "--grid=-inf:0:3"), "grid"),
    ("pareto-long", "grid", ("--horizon", "10", "--grid=0:inf:3"), "grid"),
    ("pareto-long", "grid", ("--horizon", "10", "--grid=-inf:0:3"), "grid"),
    ("dist-exact", "policy", [1], "policy"),
    ("solve-expected", "mdp",
     {"states": ["a"], "actions": [[[0]]], "mu0": ["1"], "salvage": ["0"],
      "transitions": [{"x": "a", "a": [0], "y": "a", "p": "1", "r": "0"}]}, "actions[0]"),
    ("transform", "mrp", {"include_final_reward": "false"}, "include_final_reward"),
    ("dist-exact", "policy", {"rules": [{"0": 0}], "stationary": "false"},
     "policy.stationary"),
    ("dist-exact", "grid", ("--budget", "-5"), "budget"),
    ("dist-exact", "grid", ("--budget", "0"), "budget"),
    ("var-threshold", "grid", ("--tau", "9", "--max-aug-states", "0"), "max-aug-states"),
    ("pareto-short", "grid", ("--max-aug-states", "-1"), "max-aug-states"),
    ("pareto-long", "grid", ("--horizon", "10", "--grid=0:10:3", "--max-policies", "-1"),
     "max-policies"),
    ("dist-exact", "policy", {"rules": [{"0": 0}, {"0": 0}], "stationary": True},
     "policy: a stationary policy has exactly one rule"),
])
def test_malformed_input_exits_2_naming_field(tmp_path, capsys, short_sas,
                                              command, kind, patch, field):
    on_mrp = kind == "mrp" or command == "estimate-cdf"
    doc = dict(STATE_MRP) if on_mrp else mdp_to_document(short_sas)
    argv = [command]
    if kind == "policy":
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps(patch))
        argv += ["--policy", str(policy)]
    elif kind == "grid":
        argv += list(patch)
    else:
        doc.update(patch)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(*argv, str(path)) == 2
    assert field in capsys.readouterr().err


DELETE = object()
WRONG_TYPES = (None, "junk", {})  # JSON types that no field of any document takes here
TRANS_MRP = {"horizon": 3, "states": ["a", "b"], "reward_on": "transition",
             "transitions": [{"x": "a", "y": "b", "p": "1", "r": "1"},
                             {"x": "b", "y": "a", "p": "1/2", "r": "2"},
                             {"x": "b", "y": "b", "p": "1/2", "r": "3"}],
             "mu0": ["1", "0"], "salvage": ["0", "1"]}


def malformed_variants(doc, rows, optional=()):
    """``(field, document)``: each field deleted or set to a value of a wrong JSON type.

    The first entry of the ``rows`` list (an object) gets wrong types too,
    and so do the fields of the first transition row.  ``optional`` fields may
    be absent (``salvage`` may also be null).
    """
    def mutated(container, key, values):
        for value in values:
            bad = copy.deepcopy(doc)
            target = {"doc": bad, "entry": bad[rows], "row": bad[rows][0]}[container]
            if value is DELETE:
                del target[key]
            else:
                target[key] = value
            yield bad

    for key in doc:
        values = [v for v in (DELETE, *WRONG_TYPES) if key not in optional
                  or not (v is DELETE or (key == "salvage" and v is None))]
        yield from ((key, bad) for bad in mutated("doc", key, values))
    yield from ((f"{rows}[0]", bad) for bad in mutated("entry", 0, (None, "junk", [])))
    if rows == "transitions":
        for key in doc[rows][0]:
            yield from ((f"{rows}[0].{key}", bad)
                        for bad in mutated("row", key, (DELETE, *WRONG_TYPES)))


def assert_exit_2_naming(run, cases):
    """Every case exits 2 naming its field (a missing row field: the row and the key)."""
    failures = []
    for field, bad in cases:
        code, err = run(bad)
        row, _, key = field.rpartition(".")
        named = field in err or (row and f"{row}: missing field {key!r}" in err)
        if code != 2 or not named:
            failures.append(f"{field}: exit {code}, {err.strip()!r}")
    assert not failures, "\n".join(failures)


@pytest.mark.parametrize("kind", ["mdp", "state-mrp", "transition-mrp", "policy"])
def test_malformed_documents_fuzzed_exit_2_naming_field(tmp_path, capsys, short_sas, kind):
    mdp_path = tmp_path / "mdp.json"
    mdp_path.write_text(json.dumps(mdp_to_document(short_sas)))
    path = tmp_path / "doc.json"
    rows, optional = "transitions", ("schema",)
    if kind == "mdp":
        doc, argv = mdp_to_document(short_sas), ["solve-expected", str(path)]
    elif kind == "policy":
        rule = {name: acts[0] for name, acts in zip(short_sas.states, short_sas.actions)}
        doc, rows, optional = {"rules": [rule], "stationary": True}, "rules", ("stationary",)
        argv = ["dist-exact", str(mdp_path), "--policy", str(path)]
    else:
        doc = dict(STATE_MRP, salvage=["2"], include_final_reward=True) \
            if kind == "state-mrp" else TRANS_MRP
        doc = dict(doc, schema="mrp-v1")
        optional = ("schema", "salvage", "include_final_reward")
        argv = ["simulate", str(path), "--samples", "3", "--seed", "1"]
    path.write_text(json.dumps(doc))
    assert run_cli(*argv) == 0
    capsys.readouterr()

    def run(bad):
        path.write_text(json.dumps(bad))
        code = run_cli(*argv)
        return code, capsys.readouterr().err

    assert_exit_2_naming(run, malformed_variants(doc, rows, optional))


def _transitions(doc, rows):
    return dict(doc, transitions=rows)


@pytest.mark.parametrize("command, kind, doc, field", [
    ("solve-expected", "mdp", [], "document"),
    ("transform", "mrp", ["junk"], "document"),
    ("dist-exact", "policy", {"rules": [5]}, "policy.rules[0]"),
    ("dist-exact", "policy", {"rules": []}, "rules"),
    ("solve-expected", "mdp", "duplicate-row", "transitions[1]"),
    ("solve-expected", "mdp", "undeclared-action", "transitions[0].a"),
    ("transform", "mrp", _transitions(TRANS_MRP, [TRANS_MRP["transitions"][0]] * 2),
     "transitions[1]"),
    ("transform", "mrp", _transitions(TRANS_MRP, [
        {"x": "a", "y": "a", "p": "0", "r": "5"}, *TRANS_MRP["transitions"],
        {"x": "a", "y": "a", "p": "0", "r": "7"}]), "transitions[4]"),
    ("transform", "mrp", _transitions(TRANS_MRP, []), "transitions"),
    ("solve-expected", "mdp", "boolean-horizon", "horizon"),
], ids=["mdp-list", "mrp-list", "rule-number", "no-rules", "mdp-duplicate",
        "undeclared-action", "mrp-duplicate", "mrp-duplicate-after-zero", "mrp-no-rows",
        "boolean-horizon"])
def test_malformed_document_structure_exits_2(tmp_path, capsys, short_sas,
                                              command, kind, doc, field):
    mdp_doc = mdp_to_document(short_sas)
    if doc == "duplicate-row":
        doc = dict(mdp_doc, transitions=[mdp_doc["transitions"][0]] * 2)
    elif doc == "undeclared-action":
        doc = copy.deepcopy(mdp_doc)
        doc["transitions"][0]["a"] = 99
    elif doc == "boolean-horizon":
        doc = dict(mdp_doc, horizon=True)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = [command, str(path)]
    if kind == "policy":
        mdp_path = tmp_path / "mdp.json"
        mdp_path.write_text(json.dumps(mdp_doc))
        argv = [command, str(mdp_path), "--policy", str(path)]
    assert run_cli(*argv) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("kind, argv, schema", [
    ("mdp", ["solve-expected"], "mrp-v1"),
    ("mrp", ["simulate", "--samples", "3", "--seed", "1"], "mdp-v1")])
def test_foreign_schema_exits_2(tmp_path, capsys, short_sas, kind, argv, schema):
    doc = mdp_to_document(short_sas) if kind == "mdp" else dict(TRANS_MRP)
    doc.pop("schema", None)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(*argv, str(path)) == 0  # a document without a schema still loads
    path.write_text(json.dumps(dict(doc, schema=schema)))
    capsys.readouterr()
    assert run_cli(*argv, str(path)) == 2
    assert "schema: expected" in capsys.readouterr().err


@pytest.mark.parametrize("command, argv", [
    ("pareto-short", []), ("pareto-long", ["--horizon", "60", "--grid=-300:300:61"])])
def test_front_csv_precedes_listings_on_stdout(tmp_path, capsys, short_doc, command, argv):
    front, listings = tmp_path / "front.csv", tmp_path / "listings.csv"
    assert run_cli(command, short_doc, *argv, "-o", str(front),
                   "--policies-out", str(listings)) == 0
    assert run_cli(command, short_doc, *argv, "-o", "-", "--policies-out", "-") == 0
    assert front.read_text().startswith("tau,") and listings.read_text().startswith("policy_id,")
    assert capsys.readouterr().out == front.read_text() + listings.read_text()


@pytest.mark.parametrize("command, argv, side", [
    ("pareto-short", [], "--policies-out"),
    ("pareto-long", ["--horizon", "60", "--grid=-300:300:61"], "--policies-out"),
    ("estimate-cdf", ["--n-steps", "50", "--grid=-10:10:5"], "--sidecar")])
def test_failed_output_leaves_the_side_file_unwritten(tmp_path, capsys, short_doc, command,
                                                      argv, side):
    doc = short_doc
    if command == "estimate-cdf":  # a two-state chain whose total has positive variance
        doc = tmp_path / "chain.json"
        doc.write_text(json.dumps(dict(
            STATE_MRP, states=["a", "b"], state_rewards=["0", "1"], mu0=["1", "0"],
            transitions=[{"x": x, "y": y, "p": "1/2"} for x in "ab" for y in "ab"])))
    out, side_file = tmp_path / "missing" / "out.csv", tmp_path / "side"
    assert run_cli(command, str(doc), *argv, "-o", str(out), side, str(side_file)) == 2
    assert capsys.readouterr().err.startswith(f"error: output: cannot write {out}: ")
    assert not side_file.exists()


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_output_exits_2_naming_it(tmp_path, capsys, where):
    out = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    errors = []
    for _ in range(2):
        assert run_cli("gen-inventory", "-o", str(out)) == 2
        errors.append(capsys.readouterr().err)
    assert f"output: cannot write {out}: " in errors[0]
    # the temporary file's random name stays out of the message
    assert ".varmdp-" not in errors[0] and errors[0] == errors[1]


NOT_FINITE, OUTSIDE = "tau and value must be finite", "CDF value must lie in [0, 1]"


@pytest.mark.parametrize("row, message", [
    ("1,nan", NOT_FINITE), ("nan,0.5", NOT_FINITE), ("1,inf", NOT_FINITE),
    ("-inf,0.5", NOT_FINITE), ("1,7", OUTSIDE), ("1,-0.5", OUTSIDE),
], ids=["1,nan", "nan,0.5", "1,inf", "-inf,0.5", "1,7", "1,-0.5"])
def test_compare_refuses_non_finite_values(tmp_path, capsys, row, message):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("tau,cdf\n0,0.0\n1,0.5\n2,1.0\n")
    bad.write_text(f"tau,cdf\n0,0.0\n{row}\n2,1.0\n")
    assert run_cli("compare", str(good), str(bad)) == 2
    assert f"{bad}: line 3: {message}" in capsys.readouterr().err


def test_compare_reads_exact_fronts(tmp_path, capsys):
    fronts = []
    variants = ([], ["--simplify"], ["--preset", "paper-short-printed"])
    for i, extra in enumerate(variants):
        doc, front = tmp_path / f"doc{i}.json", tmp_path / f"front{i}.csv"
        assert run_cli("gen-inventory", *extra, "-o", str(doc)) == 0
        assert run_cli("pareto-short", str(doc), "-o", str(front)) == 0
        fronts.append(str(front))
    assert run_cli("compare", fronts[0], fronts[0]) == 0
    assert run_cli("compare", fronts[0], fronts[1]) == 0
    # read as steps, the fronts differ by 1/4 at tau = 14: 11/16 against 15/16
    assert run_cli("compare", fronts[0], fronts[2]) == 0
    # reward simplification moves the front, and with it the VaR
    assert capsys.readouterr().out == (
        "ks_distance = 0\nks_distance = 0.375\nks_distance = 0.25\n")
    bad = tmp_path / "bad.csv"
    bad.write_text("tau,cdf\n0,0\n1/0,1\n")
    assert run_cli("compare", fronts[0], str(bad)) == 2
    assert f"{bad}: cannot parse CDF columns" in capsys.readouterr().err


def test_compare_reads_exact_distributions(tmp_path, capsys):
    """Simplifying the reward keeps the mean 105/16 but changes the distribution."""
    dists = []
    for i, extra in enumerate(([], ["--simplify"])):
        doc, dist = tmp_path / f"doc{i}.json", tmp_path / f"dist{i}.csv"
        assert run_cli("gen-inventory", *extra, "-o", str(doc)) == 0
        assert run_cli("dist-exact", str(doc), "-o", str(dist)) == 0
        dists.append(str(dist))
    assert run_cli("compare", dists[0], dists[0]) == 0
    # totals {-7, 0, 7, 14} against {4, ..., 9}: P(total <= 9) = 11/16 against 1
    assert run_cli("compare", dists[0], dists[1]) == 0
    assert capsys.readouterr().out == "ks_distance = 0\nks_distance = 0.3125\n"
    bad = tmp_path / "bad.csv"
    bad.write_text("value,prob\n0,1/2\n1,x\n")
    assert run_cli("compare", dists[0], str(bad)) == 2
    assert f"{bad}: cannot parse CDF columns" in capsys.readouterr().err


DIST_HEADER = "value,value_decimal,prob,prob_decimal\n"
FRONT_HEADER = "tau,tau_decimal,pareto_value,pareto_value_decimal,witness_policy_id\n"


@pytest.mark.parametrize("text_a, text_b, out", [
    # distributions: 0 below the first value, 1 from the last one
    (DIST_HEADER + "0,0,9/10,0.9\n5,5,1/10,0.1\n", DIST_HEADER + "5,5,1/2,0.5\n6,6,1/2,0.5\n",
     "ks_distance = 0.9\n"),
    (DIST_HEADER + "5,5,1/2,0.5\n6,6,1/2,0.5\n", DIST_HEADER + "7,7,1,1\n",
     "ks_distance = 1\n"),
    # fronts: the first value up to the first tau, 1 above the last; (10, 20] gives 3/4
    (FRONT_HEADER + "0,0,0,0,0\n10,10,1/2,0.5,1\n",
     FRONT_HEADER + "10,10,0,0,0\n20,20,1/4,0.25,1\n", "ks_distance = 0.75\n"),
    (FRONT_HEADER + "5,5,0,0,0\n", FRONT_HEADER + "7,7,0,0,0\n", "ks_distance = 1\n"),
    # a linear table against a step table: the step table is known across the linear span
    ("tau,cdf\n0,0\n10,1\n", DIST_HEADER + "20,20,1,1\n", "ks_distance = 1\n"),
])
def test_compare_extends_step_tables_past_their_grids(tmp_path, capsys, text_a, text_b, out):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text(text_a)
    b.write_text(text_b)
    assert run_cli("compare", str(a), str(b)) == 0
    assert run_cli("compare", str(b), str(a)) == 0
    assert capsys.readouterr().out == out * 2


def test_compare_linear_tables_need_overlapping_grids(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_text("tau,cdf\n0,0\n10,1\n")
    b.write_text("tau,cdf\n11,0\n20,1\n")
    assert run_cli("compare", str(a), str(b)) == 3
    assert capsys.readouterr().err == "error: compare: the two CDF grids do not overlap\n"


def test_pareto_long_budget_boundary(short_doc, capsys):
    argv = ["pareto-long", short_doc, "--horizon", "50", "--grid=0:10:3", "--max-policies"]
    assert run_cli(*argv, "23") == 4
    assert capsys.readouterr().err == (
        "error: long-horizon front refused: 24 stationary policies exceed budget 23\n")
    assert run_cli(*argv, "24") == 0


@pytest.mark.parametrize("case, code, message", [
    ("row-mass", 2, "kernel row (1, 0): probabilities sum to 3/4, expected 1"),
    ("short-transform", 3, "transform: horizon must be at least 2"),
])
def test_model_refusals_exit_through_main(tmp_path, capsys, short_sas, case, code, message):
    if case == "row-mass":
        doc, command = mdp_to_document(short_sas), "solve-expected"
        row, = [r for r in doc["transitions"] if (r["x"], r["a"], r["y"]) == ("1", 0, "0")]
        row["p"] = "1/2"  # from 3/4: the rows of (1, 0) now sum to 3/4
    else:
        doc, command = dict(TRANS_MRP, horizon=1), "transform"
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert run_cli(command, str(path)) == code
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, code, message", [
    (["estimate-cdf", "{trans}", "--n-steps", "5", "--grid=1:2"], 2,
     "grid: expected lo:hi:steps, got '1:2'"),
    (["estimate-cdf", "{trans}", "--n-steps", "5", "--grid=2:1:5"], 2,
     "grid: need hi > lo and steps >= 2"),
    (["estimate-cdf", "{trans}", "--n-steps", "5", "--grid=0:1:1"], 2,
     "grid: need hi > lo and steps >= 2"),
    (["compare", "{header}", "{header}"], 2,
     "{header}: expected a CSV with a header and data rows"),
    (["estimate-cdf", "{trans}", "--n-steps", "5", "--grid=0:1:3"], 3,
     "float_chain: transition-rewarded process; apply the pair-state transformation first"),
    (["dist-exact", "{short}", "--policy", "{policy}"], 3, "policy: 1 rules for horizon 2"),
], ids=["grid-two-fields", "grid-decreasing", "grid-one-step", "compare-header-only",
        "estimate-transition-rewarded", "policy-too-few-rules"])
def test_argument_refusals_exit_through_main(tmp_path, capsys, short_doc, argv, code, message):
    paths = {"trans": tmp_path / "trans.json", "header": tmp_path / "header.csv",
             "policy": tmp_path / "policy.json", "short": short_doc}
    paths["trans"].write_text(json.dumps(TRANS_MRP))
    paths["header"].write_text("tau,cdf\n")
    paths["policy"].write_text(json.dumps({"rules": [{"0": 0}], "stationary": False}))
    assert run_cli(*(arg.format_map(paths) for arg in argv)) == code
    assert capsys.readouterr().err == f"error: {message.format_map(paths)}\n"


def test_failed_replace_exits_2_and_leaves_no_temporary(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(18, "Invalid cross-device link")
    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "short.json"
    assert run_cli("gen-inventory", "-o", str(out)) == 2
    assert capsys.readouterr().err == (
        f"error: output: cannot write {out}: Invalid cross-device link\n")
    assert list(tmp_path.iterdir()) == []


def test_pareto_long_front_ignores_document_horizon(tmp_path):
    # the witness re-check builds chains, which do not depend on the horizon
    mdp = random_mdp(random.Random(0), n_states=3, horizon=1, reward_kind="sas")
    outputs = []
    for horizon in (1, 2):
        doc, front, listing = (tmp_path / f"{name}{horizon}" for name in ("d", "f", "p"))
        doc.write_text(json.dumps(mdp_to_document(replace(mdp, horizon=horizon))))
        assert run_cli("pareto-long", str(doc), "--horizon", "60", "--grid=-300:300:61",
                       "-o", str(front), "--policies-out", str(listing)) == 0
        outputs.append((front.read_bytes(), listing.read_bytes()))
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == 3  # header and two witnesses


def test_dist_exact_beyond_trajectory_enumeration(tmp_path, capsys):
    # up to 3**12 trajectories, but fewer than 500 reachable (state, reward) pairs
    doc = tmp_path / "inventory.json"
    doc.write_text(json.dumps(mdp_to_document(
        build_inventory(InventoryParams(horizon=12, capacity=10)))))
    assert run_cli("solve-expected", str(doc)) == 0
    optimum = F(capsys.readouterr().out.split(" = ")[1])
    out = tmp_path / "dist.csv"
    assert run_cli("dist-exact", str(doc), "-o", str(out)) == 0
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert sum(F(r["prob"]) for r in rows) == 1
    assert sum(F(r["value"]) * F(r["prob"]) for r in rows) == optimum


@pytest.mark.parametrize("n", ["-3", "0"])
def test_simulate_refuses_nonpositive_steps(tmp_path, capsys, n):
    path = tmp_path / "mrp.json"
    path.write_text(json.dumps(STATE_MRP))
    assert run_cli("simulate", str(path), "--n", n, "--samples", "10", "--seed", "1") == 3
    assert "n_steps" in capsys.readouterr().err


@pytest.mark.parametrize("quantiles", ["-1", "0"])
def test_simulate_refuses_fewer_than_one_quantile(tmp_path, capsys, quantiles):
    path = tmp_path / "mrp.json"
    path.write_text(json.dumps(STATE_MRP))
    out = tmp_path / "q.csv"
    assert run_cli("simulate", str(path), "--samples", "10", "--seed", "1",
                   "--quantiles", quantiles, "-o", str(out)) == 2
    assert "quantiles" in capsys.readouterr().err
    assert not out.exists()


def test_pareto_long_refuses_nonpositive_horizon(tmp_path, capsys, short_sas):
    path = tmp_path / "mdp.json"
    path.write_text(json.dumps(mdp_to_document(short_sas)))
    assert run_cli("pareto-long", str(path), "--horizon", "0", "--grid=0:10:3") == 3
    assert "n_steps" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate-cdf", "pareto-long"])
def test_step_count_beyond_float_range_exits_3(tmp_path, capsys, short_sas, command):
    path = tmp_path / "doc.json"
    steps = "1" + "0" * 400
    if command == "estimate-cdf":
        halves = [{"x": x, "y": y, "p": "1/2"} for x in "ab" for y in "ab"]
        path.write_text(json.dumps({"horizon": 3, "states": ["a", "b"], "reward_on": "state",
                                    "transitions": halves, "state_rewards": ["0", "1"],
                                    "mu0": ["1", "0"]}))
        argv = ["--n-steps", steps]
    else:
        path.write_text(json.dumps(mdp_to_document(short_sas)))
        argv = ["--horizon", steps]
    assert run_cli(command, str(path), *argv, "--grid=0:10:3") == 3
    assert "n_steps must be at most" in capsys.readouterr().err


HUGE = "1000000000000000"  # a float64 array of this length is 7.11 PiB


@pytest.mark.parametrize("argv", [
    ("pareto-long", "--horizon", "10", f"--grid=0:1:{HUGE}"),
    ("estimate-cdf", "--n-steps", "10", f"--grid=0:1:{HUGE}"),
    ("simulate", "--samples", HUGE, "--seed", "1"),
    ("simulate", "--samples", "10", "--seed", "1", "--quantiles", HUGE),
], ids=["pareto-long-grid", "estimate-cdf-grid", "simulate-samples", "simulate-quantiles"])
def test_oversized_sizes_exit_4(tmp_path, capsys, short_sas, argv):
    # numpy refuses such an array before allocating any of it
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(mdp_to_document(short_sas) if argv[0] == "pareto-long"
                               else TRANS_MRP))
    assert run_cli(argv[0], str(path), *argv[1:]) == 4
    assert capsys.readouterr().err.startswith("error: out of memory: Unable to allocate")


PAST_INDEX = str(10 ** 20)  # past numpy's index range, not just past this host's memory


@pytest.mark.parametrize("argv, flag", [
    (("pareto-long", "--horizon", "10", f"--grid=0:1:{PAST_INDEX}"), "grid"),
    (("estimate-cdf", "--n-steps", "10", f"--grid=0:1:{PAST_INDEX}"), "grid"),
    (("simulate", "--samples", str(2 ** 63), "--seed", "1"), "samples"),
    (("simulate", "--samples", "10", "--seed", "1", "--quantiles", PAST_INDEX), "quantiles"),
], ids=["pareto-long-grid", "estimate-cdf-grid", "simulate-samples", "simulate-quantiles"])
def test_counts_past_numpy_index_range_exit_4_naming_flag(tmp_path, capsys, short_sas,
                                                         argv, flag):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(mdp_to_document(short_sas) if argv[0] == "pareto-long"
                               else TRANS_MRP))
    assert run_cli(argv[0], str(path), *argv[1:]) == 4
    assert capsys.readouterr().err.startswith(f"error: out of memory: {flag}: ")


@pytest.mark.parametrize("where", ["document", "policy", "compare", "stdin"])
def test_undecodable_input_exits_2_naming_it(tmp_path, capsys, monkeypatch, short_doc,
                                             where):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b'{"rules": "\xff\xfe"}')
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(bad.read_bytes()),
                                                      encoding="utf-8"))
    argv = {"document": ["solve-expected", str(bad)],
            "policy": ["dist-exact", short_doc, "--policy", str(bad)],
            "compare": ["compare", str(bad), str(bad)],
            "stdin": ["solve-expected", "-"]}[where]
    assert run_cli(*argv) == 2
    name = "-" if where == "stdin" else bad
    assert f"input: cannot read {name}: 'utf-8' codec can't decode" in capsys.readouterr().err


def test_partial_policy_names_the_missing_state(tmp_path, capsys):
    mdp = random_mdp(random.Random(3), n_states=3, horizon=2)  # states s0, s1, s2
    doc, policy = tmp_path / "mdp.json", tmp_path / "policy.json"
    doc.write_text(json.dumps(mdp_to_document(mdp)))
    policy.write_text(json.dumps({"rules": [{"s0": mdp.actions[0][0],
                                             "s2": mdp.actions[2][0]}]}))
    assert run_cli("dist-exact", str(doc), "--policy", str(policy)) == 3
    assert "policy: no action assigned at state s1\n" in capsys.readouterr().err


@pytest.fixture()
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_output_file_modes(tmp_path, short_doc, umask_022):
    new = tmp_path / "new.txt"
    assert run_cli("solve-expected", short_doc, "-o", str(new)) == 0
    assert stat.S_IMODE(new.stat().st_mode) == 0o644
    kept = tmp_path / "kept.txt"
    kept.write_text("old\n")
    kept.chmod(0o640)
    assert run_cli("solve-expected", short_doc, "-o", str(kept)) == 0
    assert stat.S_IMODE(kept.stat().st_mode) == 0o640
    assert kept.read_text() == new.read_text()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.txt", "new.txt", "short.json"]


def test_output_through_symlink(tmp_path, short_doc):
    target, link = tmp_path / "target.txt", tmp_path / "link.txt"
    target.write_text("old\n")
    link.symlink_to(target)
    assert run_cli("solve-expected", short_doc, "-o", str(link)) == 0
    assert link.is_symlink()
    assert target.read_text().startswith("optimal expected total reward")
    dangling = tmp_path / "dangling.txt"
    dangling.symlink_to(tmp_path / "created.txt")
    assert run_cli("solve-expected", short_doc, "-o", str(dangling)) == 0
    assert dangling.is_symlink() and (tmp_path / "created.txt").read_text() == target.read_text()


def test_output_to_fifo_is_written_in_place(tmp_path, short_doc):
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
    reader.start()
    assert run_cli("solve-expected", short_doc, "-o", str(fifo)) == 0
    reader.join(timeout=10)
    assert not reader.is_alive()
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert received[0].startswith("optimal expected total reward")


def test_cli_import_loads_no_scipy():
    # no command imports scipy, so loading the CLI must not either
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, varmdp.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"],
        capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_exact_subcommands_load_no_float_layer(tmp_path):
    # the exact path is pure Python: numpy and the float layers load only when asked for,
    # and loading the submodule varmdp.transformation leaves the name to the function
    doc, out = str(tmp_path / "short.json"), str(tmp_path / "out")
    runs = [["gen-inventory", "-o", doc], ["solve-expected", doc, "-o", out],
            ["dist-exact", doc, "-o", out], ["var-threshold", doc, "--tau", "9", "-o", out],
            ["pareto-short", doc, "-o", out, "--policies-out", out + "-pol"]]
    float_layers = ["numpy", "varmdp._kernels", "varmdp.edgeworth", "varmdp.montecarlo",
                    "varmdp.transformation"]
    script = (
        "import sys; from varmdp.cli import main\n"
        f"for argv in {runs!r}:\n"
        "    assert main(argv) == 0, argv\n"
        f"print(sorted(m for m in {float_layers!r} if m in sys.modules))\n"
        "import varmdp.transformation, varmdp.edgeworth\n"
        "from varmdp import transform, simulate, estimate_cdf, policy_chain\n"
        "print([callable(f) for f in (transform, simulate, estimate_cdf, policy_chain)],\n"
        "      transform is sys.modules['varmdp.transformation'].transform is varmdp.transform)\n")
    result = subprocess.run([sys.executable, "-c", script],
                            capture_output=True, text=True, check=True)
    assert result.stdout.splitlines() == ["[]", "[True, True, True, True] True"]


def test_no_submodule_is_named_like_an_export():
    # loading such a submodule would bind it in the package over the export
    assert {m.name for m in pkgutil.iter_modules(varmdp.__path__)} & set(varmdp.__all__) == set()
    with pytest.raises(AttributeError) as info:
        varmdp.nope
    assert str(info.value) == "module 'varmdp' has no attribute 'nope'"


def test_estimate_cdf_loads_no_scipy(tmp_path):
    # the normal CDF comes from math.erfc
    doc = tmp_path / "chain.json"
    doc.write_text(json.dumps({
        "horizon": 20, "states": ["a", "b"], "reward_on": "state",
        "transitions": [{"x": "a", "y": "a", "p": "1/3"}, {"x": "a", "y": "b", "p": "2/3"},
                        {"x": "b", "y": "a", "p": "1/2"}, {"x": "b", "y": "b", "p": "1/2"}],
        "state_rewards": ["1", "3"], "mu0": ["1", "0"]}))
    out = tmp_path / "cdf.csv"
    code = ("import sys; from varmdp.cli import main; "
            f"code = main(['estimate-cdf', {str(doc)!r}, '--n-steps', '20', "
            f"'--grid=20:60:9', '-o', {str(out)!r}]); "
            "print(code, sorted(m for m in sys.modules if m.startswith('scipy')))")
    result = subprocess.run([sys.executable, "-c", code],
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "0 []"
    assert len(out.read_text().splitlines()) == 10


def test_long_estimates_leave_numpy_ma_unloaded(tmp_path):
    # a reducible chain's classes are grouped in plain Python: np.unique imports numpy.ma
    front = tmp_path / "cap3.json"
    front.write_text(dump_document(mdp_to_document(
        build_inventory(InventoryParams(horizon=500, capacity=3)))))
    chain = tmp_path / "reducible.json"
    chain.write_text(json.dumps({
        "horizon": 20, "states": ["a", "b"], "reward_on": "state",
        "transitions": [{"x": "a", "y": "a", "p": "1"}, {"x": "b", "y": "b", "p": "1"}],
        "state_rewards": ["1", "3"], "mu0": ["1/2", "1/2"]}))
    for argv, code in ((["pareto-long", str(front), "--horizon", "500",
                         "--grid=1700:2600:901", "-o", str(tmp_path / "front.csv")], 0),
                       (["estimate-cdf", str(chain), "--n-steps", "20", "--grid=20:60:9",
                         "-o", str(tmp_path / "cdf.csv")], 5)):
        script = ("import sys; from varmdp.cli import main; "
                  f"print(main({argv!r}), 'numpy.ma' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", script],
                                capture_output=True, text=True, check=True)
        assert result.stdout.split() == [str(code), "False"], (argv[0], result.stderr)
