"""JSON document formats for MDP and Markov-reward-process instances.

Schema ``mdp-v1``: fields ``horizon``, ``states`` (names), ``actions``
(per-state lists, order defines the argmax tie-break), ``reward_kind``
("sas" or "sa"), ``transitions`` (list of ``{x, a, y, p, r}`` with state
names), ``mu0`` and ``salvage`` (aligned with ``states``).  All numerics
are decimal strings ("0.25"), ratio strings ("1/4") or integers and are
stored exactly.  Each transition becomes one ``(y, p, r)`` row of
``FiniteMdp.kernel[(x, a)]``.  For ``reward_kind = "sa"`` the ``r`` of
every row in one ``(x, a)`` group must agree: the group pays one
state-action reward.

Schema ``mrp-v1``: ``horizon``, ``states``, ``reward_on`` ("state" or
"transition"), ``transitions`` (``{x, y, p}`` plus ``r`` when
transition-rewarded), ``state_rewards`` (when state-rewarded), ``mu0``,
optional ``salvage`` and ``include_final_reward``.

A ``schema`` field is optional; when present it must name the loader's
schema, so an ``mrp-v1`` document is not read as an MDP or vice versa.

Both loaders share one header check, ``_state_names`` (a JSON object,
the right ``schema``, a ``states`` list), and one row reader,
``_transition_rows`` (a nonempty ``transitions`` list of objects whose
``x`` and ``y`` name states).  Each loader reads only its own fields, and
parses each distinct number string once (``_Numbers``): the capacity-10
inventory document has 410 number fields but 27 distinct strings.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import ValidationError
from .mdp import FiniteMdp, MarkovRewardProcess, ZERO
from .rationals import format_rational, parse_rational

MDP_SCHEMA = "mdp-v1"
MRP_SCHEMA = "mrp-v1"


def _require(doc: dict, field: str, where: str = "document"):
    if field not in doc:
        raise ValidationError(f"{where}: missing field {field!r}")
    return doc[field]


def state_index(names: tuple[str, ...], name, field: str) -> int:
    """Index of the named state; an unknown name is a ValidationError on ``field``."""
    try:
        return names.index(str(name))
    except ValueError:
        raise ValidationError(f"{field}: unknown state {name!r}") from None


def _state_names(doc, schema: str) -> tuple[str, ...]:
    """The header checks of either schema: an object of ``schema`` with a ``states`` list."""
    if not isinstance(doc, dict):
        raise ValidationError("document: expected a JSON object")
    if "schema" in doc and doc["schema"] != schema:
        raise ValidationError(f"schema: expected {schema!r}, got {doc['schema']!r}")
    raw = _require(doc, "states")
    if not isinstance(raw, list):
        raise ValidationError("states: expected a list of state names")
    return tuple(str(s) for s in raw)


def _transition_rows(doc: dict, states: tuple[str, ...]):
    """Yield ``(where, row, x, y)`` for each ``transitions`` row, ``x`` and ``y`` as indices."""
    rows = _require(doc, "transitions")
    if not isinstance(rows, list) or not rows:
        raise ValidationError("transitions: expected a nonempty list")
    for i, row in enumerate(rows):
        where = f"transitions[{i}]"
        if not isinstance(row, dict):
            raise ValidationError(f"{where}: expected an object")
        yield (where, row, state_index(states, _require(row, "x", where), f"{where}.x"),
               state_index(states, _require(row, "y", where), f"{where}.y"))


def _horizon(doc: dict) -> int:
    raw = _require(doc, "horizon")
    try:
        if isinstance(raw, (int, str)) and not isinstance(raw, bool):
            return int(raw)
    except ValueError:
        pass
    raise ValidationError(f"horizon: expected an integer, got {raw!r}")


class _Numbers(dict):
    """One document's number strings, each parsed once; only strings are kept, as ``True == 1``."""

    def __call__(self, value, field: str) -> Fraction:
        if type(value) is not str:
            return parse_rational(value, field)
        if value not in self:
            self[value] = parse_rational(value, field)
        return self[value]

    def aligned(self, doc: dict, field: str, n: int) -> tuple[Fraction, ...]:
        raw = _require(doc, field)
        if not isinstance(raw, list) or len(raw) != n:
            raise ValidationError(f"{field}: expected a list aligned with states")
        return tuple(self(v, f"{field}[{i}]") for i, v in enumerate(raw))


def mdp_from_document(doc: dict) -> FiniteMdp:
    states = _state_names(doc, MDP_SCHEMA)
    n = len(states)
    raw_actions = _require(doc, "actions")
    if not isinstance(raw_actions, list) or len(raw_actions) != n:
        raise ValidationError("actions: expected one action list per state")
    for x, acts in enumerate(raw_actions):
        if not isinstance(acts, list) or any(isinstance(a, (list, dict)) for a in acts):
            raise ValidationError(f"actions[{x}]: expected a list of scalar actions")
    actions = tuple(tuple(acts) for acts in raw_actions)
    reward_kind = _require(doc, "reward_kind")
    kernel: dict = {}
    number = _Numbers()
    for where, row, x, y in _transition_rows(doc, states):
        a = _require(row, "a", where)
        if a not in actions[x]:
            raise ValidationError(f"{where}.a: action {a!r} not declared at state {states[x]}")
        p = number(_require(row, "p", where), f"{where}.p")
        r = number(_require(row, "r", where), f"{where}.r")
        group = kernel.setdefault((x, a), [])
        if any(z == y for z, _, _ in group):
            raise ValidationError(f"{where}: duplicate (x, a, y) entry")
        if reward_kind == "sa" and group and group[0][2] != r:
            raise ValidationError(
                f"{where}.r: state-action reward differs within group "
                f"({states[x]}, {a!r})")
        group.append((y, p, r))
    return FiniteMdp(
        horizon=_horizon(doc),
        states=states,
        actions=actions,
        kernel={key: tuple(sorted(group)) for key, group in kernel.items()},
        reward_kind=reward_kind,
        mu0=number.aligned(doc, "mu0", n),
        salvage=number.aligned(doc, "salvage", n),
    )


def mdp_to_document(mdp: FiniteMdp) -> dict:
    transitions = []
    for x in range(mdp.n_states):
        for a in mdp.actions[x]:
            for y, p, r in mdp.kernel[x, a]:
                transitions.append({
                    "x": mdp.states[x], "a": a, "y": mdp.states[y],
                    "p": format_rational(p), "r": format_rational(r),
                })
    return {
        "schema": MDP_SCHEMA,
        "horizon": mdp.horizon,
        "states": list(mdp.states),
        "actions": [list(acts) for acts in mdp.actions],
        "reward_kind": mdp.reward_kind,
        "transitions": transitions,
        "mu0": [format_rational(p) for p in mdp.mu0],
        "salvage": [format_rational(v) for v in mdp.salvage],
    }


def mrp_from_document(doc: dict) -> MarkovRewardProcess:
    states = _state_names(doc, MRP_SCHEMA)
    n = len(states)
    reward_on = _require(doc, "reward_on")
    kernel = [[ZERO] * n for _ in range(n)]
    trans_reward: dict = {}
    seen: set = set()
    number = _Numbers()
    for where, row, x, y in _transition_rows(doc, states):
        if (x, y) in seen:
            raise ValidationError(f"{where}: duplicate (x, y) entry")
        seen.add((x, y))
        kernel[x][y] = number(_require(row, "p", where), f"{where}.p")
        if reward_on == "transition":
            trans_reward[(x, y)] = number(_require(row, "r", where), f"{where}.r")
    state_reward = None
    if reward_on == "state":
        state_reward = number.aligned(doc, "state_rewards", n)
    include_final = doc.get("include_final_reward", False)
    if not isinstance(include_final, bool):
        raise ValidationError(
            f"include_final_reward: expected true or false, got {include_final!r}")
    salvage = None
    if doc.get("salvage") is not None:
        salvage = number.aligned(doc, "salvage", n)
    return MarkovRewardProcess(
        horizon=_horizon(doc),
        states=states,
        kernel=tuple(tuple(row) for row in kernel),
        reward_on=reward_on,
        state_reward=state_reward,
        transition_reward=trans_reward if reward_on == "transition" else None,
        mu0=number.aligned(doc, "mu0", n),
        salvage=salvage,
        include_final_reward=include_final,
    )


def mrp_to_document(mrp: MarkovRewardProcess) -> dict:
    transitions = []
    for x, moves in enumerate(mrp.rows()):
        for y, p, r in moves:
            row = {"x": mrp.states[x], "y": mrp.states[y], "p": format_rational(p)}
            if mrp.reward_on == "transition":
                row["r"] = format_rational(r)
            transitions.append(row)
    doc = {
        "schema": MRP_SCHEMA,
        "horizon": mrp.horizon,
        "states": list(mrp.states),
        "reward_on": mrp.reward_on,
        "transitions": transitions,
        "mu0": [format_rational(p) for p in mrp.mu0],
    }
    if mrp.reward_on == "state":
        doc["state_rewards"] = [format_rational(r) for r in mrp.state_reward]
    if mrp.salvage is not None:
        doc["salvage"] = [format_rational(v) for v in mrp.salvage]
    if mrp.include_final_reward:
        doc["include_final_reward"] = True
    return doc


def load_document(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"document: invalid JSON ({exc})") from exc


def dump_document(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"
