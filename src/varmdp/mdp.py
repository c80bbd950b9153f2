"""Core finite-horizon MDP model with exact rational arithmetic.

Models are exact: probabilities, rewards and salvage values are
``fractions.Fraction``.  Each kernel row ``(y, p, r)`` carries the reward
of its transition, as a row of an ``mdp-v1`` document does.  Rewards come
in two conventions that are tagged on the instance:

* ``"sas"`` — the reward ``r(x, a, y)`` may differ between the rows of
  one ``(x, a)``;
* ``"sa"``  — every row of an ``(x, a)`` pays the same ``r'(x, a)``, for
  example the kernel-average of an SAS reward (``simplify_reward``).

Averaging preserves expectations but not distributions, which is the
reason both conventions are first-class citizens throughout the package.
Exact total-reward distributions come from one forward propagation of
mass over (state, accumulated reward) pairs, ``propagate_masses``.  It and
the expected-value induction count in ints, as the augmented model does:
``integer_units`` alone picks the least common denominators of a pass, and
``Fraction``s come back only at the edge (a ``StepCdf``, an expected value).
What a Markov reward process pays on each move is decided in one place for
every reader, ``MarkovRewardProcess.rows``.  Only ``arrays``, its float view,
loads numpy, when first called; the exact solvers never do.

The package's records are frozen plain classes on ``_Record``; ``replace``
rebuilds one through its constructor, which checks it again.  ``dataclasses``
would load ``inspect`` (with ``ast``, ``dis``, ``tokenize``) into every CLI
process and generate each record's methods there: ``import varmdp.cli`` took
65.2 ms with dataclass records, 54.5 ms without (median of 21 fresh
processes, 2-core host; a bare interpreter takes 34.4 ms).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import BudgetExceededError, PreconditionError, ValidationError

if TYPE_CHECKING:
    import numpy as np

Action = Hashable

ZERO = Fraction(0)


def _check_distribution(values: Sequence[Fraction], what: str) -> None:
    masses = [v for v in values if v]  # a dense kernel row is mostly zeros
    total = sum(masses, ZERO)
    if any(v < 0 for v in masses):
        raise ValidationError(f"{what}: negative probability")
    if total != 1:
        raise ValidationError(f"{what}: probabilities sum to {total}, expected 1")


def to_floats(values: Sequence[Fraction], name) -> list[float]:
    """The floats of exact ``values``; one past the float range, or nonzero below it, is refused,
    ``name(i)`` naming it."""
    floats = []
    for i, value in enumerate(values):
        try:
            floats.append(float(value))
        except OverflowError:
            raise PreconditionError(f"{name(i)} is too large for a float "
                                    f"(beyond {sys.float_info.max:.6g})") from None
        if value and not floats[-1]:
            raise PreconditionError(f"{name(i)} is too small for a float (nonzero, read as 0.0)")
    return floats


class _Record:
    """A frozen record, compared and hashed by the fields ``_fields`` names in constructor order.

    Each ``__init__`` stores them with one ``__dict__`` update, then checks them."""

    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def _asdict(self) -> dict:
        return {name: self.__dict__[name] for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __hash__(self):
        return hash(tuple(self._asdict().values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in self._asdict().items())
        return f"{type(self).__qualname__}({fields})"


def replace(record, **changes):
    """``record`` with ``changes``, built again through its constructor, which checks it."""
    return type(record)(**{**record._asdict(), **changes})


class FiniteMdp(_Record):
    """Finite-horizon MDP ``(horizon, states, actions, kernel, reward_kind, mu0, salvage)``.

    ``kernel[(x, a)]`` lists the positive-probability transitions of state
    index ``x`` under action ``a`` as ``(y, p, r)`` rows: successor index,
    probability and the reward paid on that transition.  An ``"sa"``
    instance pays one reward on every row of an ``(x, a)``.
    Action order inside ``actions[x]`` is significant: argmax ties are
    broken in favour of the earliest action listed.
    """

    _fields = ("horizon", "states", "actions", "kernel", "reward_kind", "mu0", "salvage")

    def __init__(self, horizon: int, states: tuple[str, ...],
                 actions: tuple[tuple[Action, ...], ...],
                 kernel: Mapping[tuple[int, Action], tuple[tuple[int, Fraction, Fraction], ...]],
                 reward_kind: str, mu0: tuple[Fraction, ...],
                 salvage: tuple[Fraction, ...]) -> None:
        self.__dict__.update(horizon=horizon, states=states, actions=actions, kernel=kernel,
                             reward_kind=reward_kind, mu0=mu0, salvage=salvage)
        if horizon < 1:
            raise ValidationError("horizon: must be a positive integer")
        n = len(states)
        if len(set(states)) != n:
            raise ValidationError("states: names must be unique")
        if len(actions) != n or len(mu0) != n or len(salvage) != n:
            raise ValidationError("actions/mu0/salvage: length must match states")
        if reward_kind not in ("sas", "sa"):
            raise ValidationError(f"reward_kind: {reward_kind!r} not in {{'sas','sa'}}")
        _check_distribution(mu0, "mu0")
        for x, acts in enumerate(actions):
            if not acts:
                raise ValidationError(f"actions: state {states[x]} has no actions")
            if len(set(acts)) != len(acts):
                raise ValidationError(f"actions: duplicates at state {states[x]}")
            for a in acts:
                rows = kernel.get((x, a))
                if not rows:
                    raise ValidationError(
                        f"kernel: no transitions for state {states[x]}, action {a!r}")
                where = f"kernel row ({states[x]}, {a!r})"
                successors = [y for y, _, _ in rows]
                if any(not 0 <= y < n for y in successors):
                    raise ValidationError(f"{where}: successor index outside 0..{n - 1}")
                if len(set(successors)) != len(rows):
                    raise ValidationError(f"{where}: successor listed twice")
                _check_distribution([p for _, p, _ in rows], where)
                for y, p, _ in rows:
                    if p <= 0:
                        raise ValidationError(
                            f"kernel: nonpositive mass on ({states[x]}, {a!r}, {states[y]})")
                if reward_kind == "sa" and len({r for _, _, r in rows}) > 1:
                    raise ValidationError(f"{where}: an 'sa' instance pays one reward "
                                          f"per (state, action)")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def is_sas(self) -> bool:
        return self.reward_kind == "sas"


class DeterministicPolicy(_Record):
    """Deterministic decision rules, either one per epoch or a single stationary rule."""

    _fields = ("rules", "stationary")

    def __init__(self, rules: tuple[Mapping[int, Action], ...], stationary: bool = False) -> None:
        self.__dict__.update(rules=rules, stationary=stationary)
        if not rules:
            raise ValidationError("policy: no decision rules")
        if stationary and len(rules) != 1:
            raise ValidationError("policy: a stationary policy has exactly one rule")

    def action(self, t: int, x: int) -> Action:
        rule = self.rules[0] if self.stationary else self.rules[t]
        try:
            return rule[x]
        except KeyError:
            raise PreconditionError(f"policy: no action assigned at state index {x}") from None

    @classmethod
    def from_stationary(cls, rule: Mapping[int, Action]) -> "DeterministicPolicy":
        return cls(rules=(dict(rule),), stationary=True)


def check_policy(mdp: FiniteMdp, policy: DeterministicPolicy) -> None:
    """Reject policies that miss a state or use an illegal action, naming the state."""
    if not policy.stationary and len(policy.rules) < mdp.horizon:
        raise PreconditionError(
            f"policy: {len(policy.rules)} rules for horizon {mdp.horizon}")
    for rule in policy.rules[:1 if policy.stationary else mdp.horizon]:
        for x in range(mdp.n_states):
            if x not in rule:
                raise PreconditionError(f"policy: no action assigned at state {mdp.states[x]}")
            if rule[x] not in mdp.actions[x]:
                raise PreconditionError(
                    f"policy: action {rule[x]!r} is illegal at state {mdp.states[x]}")


class MarkovRewardProcess(_Record):
    """A policy-induced chain with a state- or transition-reward function.

    The total reward over ``horizon`` epochs is

    * ``reward_on == "state"``:      sum of ``state_reward[X_t]`` for
      ``t = 0..horizon-1`` (plus the final epoch when
      ``include_final_reward`` is set), plus salvage if present;
    * ``reward_on == "transition"``: sum of ``transition_reward[(X_t, X_{t+1})]``
      for ``t = 0..horizon-1``, plus salvage if present.

    ``rows`` decides from these fields what a move pays; ``arrays`` is its float view.
    """

    _fields = ("horizon", "states", "kernel", "reward_on", "state_reward", "transition_reward",
               "mu0", "salvage", "include_final_reward")

    def __init__(self, horizon: int, states: tuple[str, ...],
                 kernel: tuple[tuple[Fraction, ...], ...], reward_on: str,
                 state_reward: tuple[Fraction, ...] | None,
                 transition_reward: Mapping[tuple[int, int], Fraction] | None,
                 mu0: tuple[Fraction, ...], salvage: tuple[Fraction, ...] | None = None,
                 include_final_reward: bool = False) -> None:
        self.__dict__.update(horizon=horizon, states=states, kernel=kernel, reward_on=reward_on,
                             state_reward=state_reward, transition_reward=transition_reward,
                             mu0=mu0, salvage=salvage, include_final_reward=include_final_reward)
        n = len(states)
        if horizon < 1:
            raise ValidationError("horizon: must be a positive integer")
        if reward_on not in ("state", "transition"):
            raise ValidationError(f"reward_on: {reward_on!r} not in {{'state','transition'}}")
        if (reward_on == "state") != (state_reward is not None):
            raise ValidationError("reward table must match reward_on")
        if (reward_on == "transition") != (transition_reward is not None):
            raise ValidationError("reward table must match reward_on")
        if len(kernel) != n or any(len(row) != n for row in kernel):
            raise ValidationError("kernel: must be a square matrix over states")
        for name, values in (("mu0", mu0), ("state_reward", state_reward), ("salvage", salvage)):
            if values is not None and len(values) != n:
                raise ValidationError(f"{name}: {len(values)} entries for {n} states")
        for x, row in enumerate(kernel):
            _check_distribution(row, f"kernel row {states[x]}")
        _check_distribution(mu0, "mu0")
        if include_final_reward and reward_on != "state":
            raise ValidationError("include_final_reward only applies to state rewards")
        if reward_on == "transition":
            for key in transition_reward:
                if not (isinstance(key, tuple) and len(key) == 2
                        and all(i in range(n) for i in key)):
                    raise ValidationError(f"transition_reward: {key!r} is not a pair of "
                                          f"state indices 0..{n - 1}")
            for x, row in enumerate(kernel):
                for y, p in enumerate(row):
                    if p and (x, y) not in transition_reward:
                        raise ValidationError(f"reward: missing r({states[x]}, {states[y]})")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def rows(self) -> tuple[tuple[tuple[int, Fraction, Fraction], ...], ...]:
        """Per state ``x``, the ``(y, p, r)`` of each move of positive mass ``p``, by ``y``.

        ``r`` is what the move pays, ``transition_reward[(x, y)]`` or ``state_reward[x]``:
        this is the one place that decides it, so a reward on a zero-mass pair is never paid.
        """
        r = self.state_reward
        return tuple(tuple((y, p, self.transition_reward[x, y] if r is None else r[x])
                           for y, p in enumerate(row) if p) for x, row in enumerate(self.kernel))

    def final_rewards(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vectors added at the last state: the state reward if ``include_final_reward``,
        then the salvage."""
        return ((self.state_reward,) if self.include_final_reward else ()) + \
            (() if self.salvage is None else (self.salvage,))

    def arrays(self) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """The float view ``(P, R, final, mu0)`` of ``rows`` and ``final_rewards``.

        A move from ``x`` to ``y`` pays ``R[x, y]``; a zero-mass cell pays 0, or the
        state reward of its row.  A number no float holds is refused, named (``to_floats``).
        """
        import numpy as np
        n, names = self.n_states, self.states
        P, R = np.zeros((n, n)), np.zeros((n, n))
        for x, moves in enumerate(self.rows()):
            ys = [y for y, _, _ in moves]
            P[x, ys] = to_floats([p for _, p, _ in moves],
                                 lambda i: f"probability of move ({names[x]}, {names[ys[i]]})")
            if self.reward_on == "state":
                R[x] = to_floats([moves[0][2]], lambda _: f"reward of state {names[x]}")
            else:
                R[x, ys] = to_floats([r for _, _, r in moves],
                                     lambda i: f"reward of move ({names[x]}, {names[ys[i]]})")
        # every state reward passed through R above, so only a salvage entry can be refused here
        final = tuple(np.array(to_floats(v, lambda i: f"salvage of state {names[i]}"))
                      for v in self.final_rewards())
        return P, R, final, np.array(to_floats(self.mu0, lambda i: f"mu0 of state {names[i]}"))


class StepCdf(_Record):
    """Exact finitely-supported total-reward distribution.

    ``cdf(tau)`` is the right-continuous distribution function
    ``P(total <= tau)``; ``prob_geq(tau)`` is ``P(total >= tau)``.
    """

    _fields = ("support", "prob")

    def __init__(self, support: tuple[Fraction, ...], prob: tuple[Fraction, ...]) -> None:
        self.__dict__.update(support=support, prob=prob)
        if len(support) != len(prob) or not support:
            raise ValidationError("StepCdf: support/prob length mismatch or empty")
        if any(support[i] >= support[i + 1] for i in range(len(support) - 1)):
            raise ValidationError("StepCdf: support must be strictly increasing")
        if any(p <= 0 for p in prob):
            raise ValidationError("StepCdf: masses must be positive")
        if sum(prob, ZERO) != 1:
            raise ValidationError("StepCdf: masses must sum to 1 exactly")

    def cdf(self, tau) -> Fraction:
        tau = Fraction(tau)
        return sum((p for s, p in zip(self.support, self.prob) if s <= tau), ZERO)

    def prob_geq(self, tau) -> Fraction:
        tau = Fraction(tau)
        return sum((p for s, p in zip(self.support, self.prob) if s >= tau), ZERO)


class ParetoFront(_Record):
    """Pointwise-infimum front over a threshold grid, with per-point witnesses (see ``pareto``).

    ``kind`` is "exact" (rational grid) or "estimated" (float grid)."""

    _fields = ("kind", "grid", "value", "witness", "policies")

    def __init__(self, kind: str, grid: tuple, value: tuple, witness: tuple[int, ...],
                 policies: Mapping[int, str] | None = None) -> None:
        self.__dict__.update(kind=kind, grid=grid, value=value, witness=witness,
                             policies={} if policies is None else policies)
        if kind not in ("exact", "estimated"):
            raise ValidationError(f"front kind: {kind!r}")
        if not (len(grid) == len(value) == len(witness)) or not grid:
            raise ValidationError("front: grid/value/witness lengths differ or empty")
        if not all(-math.inf < t < math.inf for t in grid):
            raise ValidationError("front: grid must be finite")
        if any(grid[i] >= grid[i + 1] for i in range(len(grid) - 1)):
            raise ValidationError("front: grid must be strictly increasing")
        if not all(0 <= v <= 1 for v in value):
            raise ValidationError("front: values must lie in [0, 1]")
        if any(value[i] > value[i + 1] for i in range(len(value) - 1)):
            raise ValidationError("front: values must be nondecreasing")


def simplify_reward(mdp: FiniteMdp) -> FiniteMdp:
    """Pay each (x, a) its rows' mean SAS reward on every row: r'(x,a) = sum_y r(x,a,y) p(y|x,a)."""
    if not mdp.is_sas:
        raise PreconditionError("simplify_reward: instance is already SA-tagged")
    kernel = {}
    for key, rows in mdp.kernel.items():
        mean = sum((p * r for _, p, r in rows), ZERO)
        kernel[key] = tuple((y, p, mean) for y, p, _ in rows)
    return replace(mdp, reward_kind="sa", kernel=kernel)


def induced_mrp(mdp: FiniteMdp, policy: DeterministicPolicy) -> MarkovRewardProcess:
    """Fix a stationary policy, yielding a Markov reward process.

    SAS instances induce a transition-rewarded chain, SA instances a
    state-rewarded one; ``mu0``, the horizon and the salvage carry over.
    """
    if not policy.stationary:
        raise PreconditionError("induced_mrp: policy must be stationary")
    check_policy(mdp, policy)
    n = mdp.n_states
    kernel = []
    trans_reward: dict[tuple[int, int], Fraction] = {}
    state_reward: list[Fraction] = []
    for x in range(n):
        rows = mdp.kernel[x, policy.action(0, x)]
        row = [ZERO] * n
        for y, p, r in rows:
            row[y] = p
            trans_reward[(x, y)] = r
        kernel.append(tuple(row))
        state_reward.append(rows[0][2])  # an SA instance pays it on every row
    return MarkovRewardProcess(
        horizon=mdp.horizon,
        states=mdp.states,
        kernel=tuple(kernel),
        reward_on="transition" if mdp.is_sas else "state",
        state_reward=None if mdp.is_sas else tuple(state_reward),
        transition_reward=trans_reward if mdp.is_sas else None,
        mu0=mdp.mu0,
        salvage=mdp.salvage,
    )


def integer_units(kernel: Mapping, mu0: Sequence[Fraction], *vectors: Sequence[Fraction]):
    """An exact pass's numbers as ints, ``(rows, start, final, (M, mass, unit))``: each row
    ``(y, p * mass, r * unit)`` under its key, ``mu0[x] * M`` and the sum of ``vectors`` at ``x``
    times ``unit``, where ``mass``, ``M`` and ``unit`` are the least common denominators of the
    probabilities, of ``mu0`` and of the rewards with ``vectors``."""
    def units(q: Fraction, d: int) -> int:
        return q.numerator * (d // q.denominator)

    mass = math.lcm(*(p.denominator for rows in kernel.values() for _, p, _ in rows))
    unit = math.lcm(*(r.denominator for rows in kernel.values() for _, _, r in rows),
                    *(v.denominator for vector in vectors for v in vector))
    M = math.lcm(*(p.denominator for p in mu0))
    rows = {key: [(y, units(p, mass), units(r, unit)) for y, p, r in rows]
            for key, rows in kernel.items()}
    final = [sum(units(v[x], unit) for v in vectors) for x in range(len(mu0))]
    return rows, [units(p, M) for p in mu0], final, (M, mass, unit)


def _backward_induction(mdp: FiniteMdp, candidates) -> tuple[Fraction, tuple[dict, ...]]:
    """Value under mu0 and per-epoch rules of the best of ``candidates(t, x)``, earliest on ties.

    One formula serves both reward conventions: an SA instance pays
    ``r'(x, a)`` on every row, and each kernel row sums to 1.  Values at
    epoch ``t`` are ints over ``unit * mass**(H - t)`` (``integer_units``), so
    comparisons and ties are exact.
    """
    rows, start, u, (M, mass, unit) = integer_units(mdp.kernel, mdp.mu0, mdp.salvage)
    rules: list[dict[int, Action]] = []
    for t in reversed(range(mdp.horizon)):
        w = mass ** (mdp.horizon - 1 - t)  # a reward in the units of the values at t + 1
        acts = [candidates(t, x) for x in range(mdp.n_states)]
        qs = [[sum([p * (r * w + u[y]) for y, p, r in rows[x, a]]) for a in row]
              for x, row in enumerate(acts)]
        u = [max(q) for q in qs]
        rules.insert(0, {x: row[q.index(v)] for x, (row, q, v) in enumerate(zip(acts, qs, u))})
    value = sum(m * v for m, v in zip(start, u))
    return Fraction(value, M * unit * mass ** mdp.horizon), tuple(rules)


def expected_backward_induction(mdp: FiniteMdp) -> tuple[Fraction, DeterministicPolicy]:
    """Optimal expected total reward and an argmax Markov policy.

    Ties are broken toward the earliest action in the state's action
    list, so the returned policy is deterministic and reproducible.
    """
    value, rules = _backward_induction(mdp, lambda t, x: mdp.actions[x])
    return value, DeterministicPolicy(rules=rules, stationary=False)


def evaluate_policy(mdp: FiniteMdp, policy: DeterministicPolicy) -> Fraction:
    """Expected total reward of a fixed (Markov or stationary) policy."""
    check_policy(mdp, policy)
    return _backward_induction(mdp, lambda t, x: (policy.action(t, x),))[0]


def propagate_masses(units, horizon: int, step, max_states: float) -> StepCdf:
    """Exact total-reward distribution by forward propagation over (state, total) pairs.

    ``units`` is ``integer_units``' output; totals count ``1 / unit`` and
    masses at epoch ``t`` are ints over ``M * mass**t``.  Mass starts on
    ``(x, 0)`` for every mu0-positive ``x``.  At epoch ``t`` the pair ``(x, n)``
    sends mass ``p`` to ``(y, n + r)`` for every ``(y, p, r)`` in
    ``rows[step(t, x, n)]``; equal pairs merge at every epoch.  The total of
    a final pair ``(x, n)`` is ``n + final[x]``.  Refuses once more than
    ``max_states`` pairs are reachable, summed over epochs.
    """
    rows, start, final, (M, mass, unit) = units
    dist = {(x, 0): m for x, m in enumerate(start) if m}
    count = len(dist)
    for t in range(horizon):
        nxt: dict[tuple[int, int], int] = {}
        for (x, n), m in dist.items():
            for y, p, r in rows[step(t, x, n)]:
                key = (y, n + r)
                nxt[key] = nxt.get(key, 0) + m * p
        dist = nxt
        count += len(dist)
        if count > max_states:
            raise BudgetExceededError(
                f"exact distribution refused: more than {max_states} reachable "
                f"(state, reward) pairs; use the long-horizon CDF estimator instead")
    masses: dict[int, int] = {}
    for (x, n), m in dist.items():
        masses[n + final[x]] = masses.get(n + final[x], 0) + m
    support, whole = sorted(masses), M * mass ** horizon
    return StepCdf(support=tuple(Fraction(n, unit) for n in support),
                   prob=tuple(Fraction(masses[n], whole) for n in support))


def exact_total_reward_distribution(process, policy: DeterministicPolicy | None = None,
                                    max_states: int = 200_000) -> StepCdf:
    """Exact distribution of the total reward, by ``propagate_masses``.

    Accepts either a ``FiniteMdp`` together with a Markov or stationary
    policy, or a ``MarkovRewardProcess`` (no policy).  Refuses instances
    with more than ``max_states`` reachable (state, accumulated reward)
    pairs, summed over epochs.
    """
    if isinstance(process, FiniteMdp):
        if policy is None:
            raise PreconditionError("exact_total_reward_distribution: an MDP needs a policy")
        mdp = process
        check_policy(mdp, policy)
        units = integer_units(mdp.kernel, mdp.mu0, mdp.salvage)
        return propagate_masses(units, mdp.horizon, lambda t, x, n: (x, policy.action(t, x)),
                                max_states)

    if isinstance(process, MarkovRewardProcess):
        if policy is not None:
            raise PreconditionError(
                "exact_total_reward_distribution: a Markov reward process takes no policy")
        units = integer_units(dict(enumerate(process.rows())), process.mu0,
                              *process.final_rewards())
        return propagate_masses(units, process.horizon, lambda t, x, n: x, max_states)

    raise PreconditionError(
        f"exact_total_reward_distribution: unsupported input {type(process).__name__}")
