"""Output checks: goldens captured at a reference commit plus re-evaluated invariants.

Rational outputs (``tau``/``pareto_value`` of exact fronts, ``eta``, the
expected value, ``dist-exact`` rows) and the ``simulate`` quantile CSV
must be byte-identical to the goldens.  Float fronts and CDFs must match
them within ``ATOL``.  Witness policies are checked by re-evaluating the
listed policy, never by its id, so renumbered witnesses pass and a wrong
front fails.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction

import numpy as np

from varmdp import (DeterministicPolicy, augmented_policy_distribution, estimate_cdf,
                    evaluate_policy, policy_chain)
from varmdp.documents import load_document, mdp_from_document

ATOL = 1e-9                      # float64 outputs are printed with 12 significant digits
KS_LIMIT = {"full": 0.06, "tiny": 0.2}

_AUG_RULE = re.compile(r"t=(\d+) \((.+), (.+)\) -> (.+)")
_MARKOV_RULE = re.compile(r"t=(\d+) (.+) -> (.+)")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _rows(text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(text)))[1:]


def extract(command: str, text: str) -> dict:
    """The part of an output that must match its golden."""
    if command in ("dist-exact", "simulate"):
        return {"sha256": sha256(text)}
    if command in ("var-threshold", "solve-expected"):
        return {"line": text.splitlines()[0]}
    rows = _rows(text)
    if command == "pareto-short":
        return {"rows": [[r[0], r[2]] for r in rows]}
    return {"tau": [r[0] for r in rows], "value": [r[1] for r in rows]}


def _load_mdp(path: str):
    with open(path, encoding="utf-8") as fh:
        return mdp_from_document(load_document(fh.read()))


def _action(mdp, x: int, text: str):
    by_name = {str(a): a for a in mdp.actions[x]}
    return by_name[text.strip()]


def _augmented_rules(mdp, items) -> tuple[dict, ...]:
    rules = [{} for _ in range(mdp.horizon)]
    for item in items:
        t, state, cum, act = _AUG_RULE.fullmatch(item.strip()).groups()
        x = mdp.states.index(state)
        rules[int(t)][(x, Fraction(cum))] = _action(mdp, x, act)
    return tuple(rules)


def _policy_listings(text: str) -> dict[int, list[str]]:
    return {int(r[0]): r[1].split("; ") for r in _rows(text)}


def _check_exact_front(call, text: str, side: str) -> list[str]:
    mdp = _load_mdp(call.context["doc"])
    listings = _policy_listings(side)
    dists: dict[int, object] = {}
    errors = []
    for row in _rows(text):
        tau, value, wid = Fraction(row[0]), Fraction(row[2]), int(row[4])
        if wid not in listings:
            return [f"witness {wid} is not listed"]
        if wid not in dists:
            dists[wid] = augmented_policy_distribution(mdp, _augmented_rules(mdp, listings[wid]))
        if 1 - dists[wid].prob_geq(tau) != value:
            errors.append(f"witness {wid} gives P(total < {tau}) != {value}")
    return errors


def _check_threshold(call, text: str) -> list[str]:
    mdp = _load_mdp(call.context["doc"])
    lines = text.splitlines()
    eta = Fraction(lines[0].split("=")[1].strip())
    dist = augmented_policy_distribution(mdp, _augmented_rules(mdp, lines[1:]))
    got = dist.prob_geq(call.context["tau"])
    return [] if got == eta else [f"listed policy reaches {got}, not eta = {eta}"]


def _check_expected(call, text: str) -> list[str]:
    mdp = _load_mdp(call.context["doc"])
    lines = text.splitlines()
    value = Fraction(lines[0].split("=")[1].strip())
    rules = [{} for _ in range(mdp.horizon)]
    for line in lines[1:]:
        t, state, act = _MARKOV_RULE.fullmatch(line).groups()
        x = mdp.states.index(state)
        rules[int(t)][x] = _action(mdp, x, act)
    got = evaluate_policy(mdp, DeterministicPolicy(rules=tuple(rules)))
    return [] if got == value else [f"listed policy earns {got}, not {value}"]


def _check_long_front(call, text: str, side: str) -> list[str]:
    mdp = _load_mdp(call.context["doc"])
    listings = _policy_listings(side)
    rows = _rows(text)
    taus = np.array([float(r[0]) for r in rows])
    values = np.array([float(r[1]) for r in rows])
    wids = np.array([int(r[2]) for r in rows])
    raw = np.empty(len(rows))
    for wid in np.unique(wids):
        if wid not in listings:
            return [f"witness {wid} is not listed"]
        rule = {}
        for item in listings[wid]:
            state, act = item.split(" -> ")
            x = mdp.states.index(state)
            rule[x] = _action(mdp, x, act)
        cdf = estimate_cdf(policy_chain(mdp, DeterministicPolicy.from_stationary(rule)),
                           call.context["horizon"])
        mask = wids == wid
        raw[mask] = cdf.evaluate(taus[mask])
    worst = float(np.abs(np.maximum.accumulate(raw) - values).max())
    return [] if worst <= ATOL else [f"witness CDFs miss the front by {worst:.3e}"]


def _compare(command: str, got: dict, want: dict) -> list[str]:
    if command in ("pareto-long", "estimate-cdf"):
        if len(got["tau"]) != len(want["tau"]):
            return [f"{len(got['tau'])} grid points, golden has {len(want['tau'])}"]
        for col in ("tau", "value"):
            a = np.array(got[col], dtype=float)
            b = np.array(want[col], dtype=float)
            scale = np.maximum(1.0, np.abs(b)) if col == "tau" else 1.0
            worst = float((np.abs(a - b) / scale).max())
            if worst > ATOL:
                return [f"{col} differs from golden by {worst:.3e}"]
        return []
    return [] if got == want else ["differs from golden"]


def ks_from_outputs(estimate_text: str, simulate_text: str) -> float:
    """Sup distance between the estimated CDF and the simulated empirical CDF.

    The empirical CDF at ``tau`` is read off the ``quantile,value`` table
    as the largest quantile level whose (inverted-CDF) value is <= tau,
    which is exact to within one quantile step.
    """
    est = np.array([[float(v) for v in r] for r in _rows(estimate_text)])
    sim = np.array([[float(v) for v in r] for r in _rows(simulate_text)])
    levels, values = sim[:, 0], sim[:, 1]
    idx = np.searchsorted(values, est[:, 0], side="right") - 1
    empirical = np.where(idx >= 0, levels[np.clip(idx, 0, None)], 0.0)
    return float(np.abs(est[:, 1] - empirical).max())


class Checker:
    """Checks call outputs against one size's goldens; verdicts are cached by content."""

    def __init__(self, goldens_path: str, size: str):
        with open(goldens_path, encoding="utf-8") as fh:
            self.goldens = json.load(fh).get(size, {})
        self.ks_limit = KS_LIMIT[size]
        self._cache: dict[tuple, list[str]] = {}

    def check(self, call, text: str, side: str | None) -> list[str]:
        key = (call.golden, sha256(text), sha256(side or ""))
        if key not in self._cache:
            try:
                self._cache[key] = self._check(call, text, side)
            except Exception as exc:  # a malformed output is a failed check, not a crash
                self._cache[key] = [f"unreadable output ({type(exc).__name__}: {exc})"]
        return self._cache[key]

    def _check(self, call, text: str, side: str | None) -> list[str]:
        want = self.goldens.get(call.golden)
        if want is None:
            return [f"no golden for {call.golden}"]
        errors = _compare(call.command, extract(call.command, text), want)
        if call.command == "pareto-short":
            errors += _check_exact_front(call, text, side)
        elif call.command == "var-threshold":
            errors += _check_threshold(call, text)
        elif call.command == "solve-expected":
            errors += _check_expected(call, text)
        elif call.command == "pareto-long":
            errors += _check_long_front(call, text, side)
        return errors
