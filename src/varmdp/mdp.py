"""Core finite-horizon MDP model with exact rational arithmetic.

Everything here is exact: probabilities, rewards and salvage values are
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
mass over (state, accumulated reward) pairs, ``propagate_masses``.
What a Markov reward process pays on each move and at its last state is
decided in one place, ``MarkovRewardProcess.arrays``, for every reader.
Only ``arrays`` loads numpy, when first called; the exact solvers never do.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import TYPE_CHECKING, Hashable, Mapping, Sequence

from .errors import BudgetExceededError, PreconditionError, ValidationError

if TYPE_CHECKING:
    import numpy as np

Action = Hashable

ZERO = Fraction(0)


def _check_distribution(values: Sequence[Fraction], what: str) -> None:
    total = sum(values, ZERO)
    if any(v < 0 for v in values):
        raise ValidationError(f"{what}: negative probability")
    if total != 1:
        raise ValidationError(f"{what}: probabilities sum to {total}, expected 1")


@dataclass(frozen=True)
class FiniteMdp:
    """Finite-horizon MDP ``(horizon, states, actions, kernel, reward_kind, mu0, salvage)``.

    ``kernel[(x, a)]`` lists the positive-probability transitions of state
    index ``x`` under action ``a`` as ``(y, p, r)`` rows: successor index,
    probability and the reward paid on that transition.  An ``"sa"``
    instance pays one reward on every row of an ``(x, a)``.
    Action order inside ``actions[x]`` is significant: argmax ties are
    broken in favour of the earliest action listed.
    """

    horizon: int
    states: tuple[str, ...]
    actions: tuple[tuple[Action, ...], ...]
    kernel: Mapping[tuple[int, Action], tuple[tuple[int, Fraction, Fraction], ...]]
    reward_kind: str
    mu0: tuple[Fraction, ...]
    salvage: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise ValidationError("horizon: must be a positive integer")
        n = len(self.states)
        if len(set(self.states)) != n:
            raise ValidationError("states: names must be unique")
        if len(self.actions) != n or len(self.mu0) != n or len(self.salvage) != n:
            raise ValidationError("actions/mu0/salvage: length must match states")
        if self.reward_kind not in ("sas", "sa"):
            raise ValidationError(f"reward_kind: {self.reward_kind!r} not in {{'sas','sa'}}")
        _check_distribution(self.mu0, "mu0")
        for x, acts in enumerate(self.actions):
            if not acts:
                raise ValidationError(f"actions: state {self.states[x]} has no actions")
            if len(set(acts)) != len(acts):
                raise ValidationError(f"actions: duplicates at state {self.states[x]}")
            for a in acts:
                rows = self.kernel.get((x, a))
                if not rows:
                    raise ValidationError(
                        f"kernel: no transitions for state {self.states[x]}, action {a!r}")
                where = f"kernel row ({self.states[x]}, {a!r})"
                successors = [y for y, _, _ in rows]
                if any(not 0 <= y < n for y in successors):
                    raise ValidationError(f"{where}: successor index outside 0..{n - 1}")
                if len(set(successors)) != len(rows):
                    raise ValidationError(f"{where}: successor listed twice")
                _check_distribution([p for _, p, _ in rows], where)
                for y, p, _ in rows:
                    if p <= 0:
                        raise ValidationError(
                            f"kernel: nonpositive mass on ({self.states[x]}, {a!r}, "
                            f"{self.states[y]})")
                if self.reward_kind == "sa" and len({r for _, _, r in rows}) > 1:
                    raise ValidationError(f"{where}: an 'sa' instance pays one reward "
                                          f"per (state, action)")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def is_sas(self) -> bool:
        return self.reward_kind == "sas"


@dataclass(frozen=True)
class DeterministicPolicy:
    """Deterministic decision rules, either one per epoch or a single stationary rule."""

    rules: tuple[Mapping[int, Action], ...]
    stationary: bool = False

    def __post_init__(self) -> None:
        if not self.rules:
            raise ValidationError("policy: no decision rules")
        if self.stationary and len(self.rules) != 1:
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


@dataclass(frozen=True)
class MarkovRewardProcess:
    """A policy-induced chain with a state- or transition-reward function.

    The total reward over ``horizon`` epochs is

    * ``reward_on == "state"``:      sum of ``state_reward[X_t]`` for
      ``t = 0..horizon-1`` (plus the final epoch when
      ``include_final_reward`` is set), plus salvage if present;
    * ``reward_on == "transition"``: sum of ``transition_reward[(X_t, X_{t+1})]``
      for ``t = 0..horizon-1``, plus salvage if present.

    ``arrays`` is the one place that decides from these fields what a move pays.
    """

    horizon: int
    states: tuple[str, ...]
    kernel: tuple[tuple[Fraction, ...], ...]
    reward_on: str
    state_reward: tuple[Fraction, ...] | None
    transition_reward: Mapping[tuple[int, int], Fraction] | None
    mu0: tuple[Fraction, ...]
    salvage: tuple[Fraction, ...] | None = None
    include_final_reward: bool = False

    def __post_init__(self) -> None:
        n = len(self.states)
        if self.horizon < 1:
            raise ValidationError("horizon: must be a positive integer")
        if self.reward_on not in ("state", "transition"):
            raise ValidationError(f"reward_on: {self.reward_on!r} not in {{'state','transition'}}")
        if (self.reward_on == "state") != (self.state_reward is not None):
            raise ValidationError("reward table must match reward_on")
        if (self.reward_on == "transition") != (self.transition_reward is not None):
            raise ValidationError("reward table must match reward_on")
        if len(self.kernel) != n or any(len(row) != n for row in self.kernel):
            raise ValidationError("kernel: must be a square matrix over states")
        for name in ("mu0", "state_reward", "salvage"):
            values = getattr(self, name)
            if values is not None and len(values) != n:
                raise ValidationError(f"{name}: {len(values)} entries for {n} states")
        for x, row in enumerate(self.kernel):
            _check_distribution(row, f"kernel row {self.states[x]}")
        _check_distribution(self.mu0, "mu0")
        if self.include_final_reward and self.reward_on != "state":
            raise ValidationError("include_final_reward only applies to state rewards")
        if self.reward_on == "transition":
            for key in self.transition_reward:
                if not (isinstance(key, tuple) and len(key) == 2
                        and all(i in range(n) for i in key)):
                    raise ValidationError(f"transition_reward: {key!r} is not a pair of "
                                          f"state indices 0..{n - 1}")
            for x in range(n):
                for y in range(n):
                    if self.kernel[x][y] > 0 and (x, y) not in self.transition_reward:
                        raise ValidationError(
                            f"reward: missing r({self.states[x]}, {self.states[y]})")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def arrays(self, dtype) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...], np.ndarray]:
        """Dense ``(P, R, final, mu0)``: ``object`` keeps the ``Fraction``s, ``float`` converts.

        A move from ``x`` to ``y`` pays ``R[x, y]``: the transition reward, or
        ``state_reward[x]``.  ``final`` holds the vectors added at the last state,
        in order: the state reward if ``include_final_reward``, then the salvage.
        """
        import numpy as np
        n = self.n_states
        if self.reward_on == "state":
            R = np.repeat(np.array(self.state_reward, dtype=dtype)[:, None], n, axis=1)
        else:
            R = np.array([[self.transition_reward.get((x, y), ZERO) for y in range(n)]
                          for x in range(n)], dtype=dtype)
        final = [self.state_reward] if self.include_final_reward else []
        if self.salvage is not None:
            final.append(self.salvage)
        return (np.array(self.kernel, dtype=dtype), R,
                tuple(np.array(v, dtype=dtype) for v in final), np.array(self.mu0, dtype=dtype))


@dataclass(frozen=True)
class StepCdf:
    """Exact finitely-supported total-reward distribution.

    ``cdf(tau)`` is the right-continuous distribution function
    ``P(total <= tau)``; ``prob_geq(tau)`` is ``P(total >= tau)``.
    """

    support: tuple[Fraction, ...]
    prob: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.support) != len(self.prob) or not self.support:
            raise ValidationError("StepCdf: support/prob length mismatch or empty")
        if any(self.support[i] >= self.support[i + 1] for i in range(len(self.support) - 1)):
            raise ValidationError("StepCdf: support must be strictly increasing")
        if any(p <= 0 for p in self.prob):
            raise ValidationError("StepCdf: masses must be positive")
        if sum(self.prob, ZERO) != 1:
            raise ValidationError("StepCdf: masses must sum to 1 exactly")

    @classmethod
    def from_masses(cls, masses: Mapping[Fraction, Fraction]) -> "StepCdf":
        support = tuple(sorted(k for k, v in masses.items() if v != 0))
        return cls(support=support, prob=tuple(masses[s] for s in support))

    def cdf(self, tau) -> Fraction:
        tau = Fraction(tau)
        return sum((p for s, p in zip(self.support, self.prob) if s <= tau), ZERO)

    def prob_geq(self, tau) -> Fraction:
        tau = Fraction(tau)
        return sum((p for s, p in zip(self.support, self.prob) if s >= tau), ZERO)


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


def _backward_induction(mdp: FiniteMdp, candidates) -> tuple[Fraction, tuple[dict, ...]]:
    """Value under mu0 and per-epoch rules of the best of ``candidates(t, x)``, earliest on ties.

    One formula serves both reward conventions: an SA instance pays
    ``r'(x, a)`` on every row, and each kernel row sums to 1.
    """
    u = list(mdp.salvage)
    rules: list[dict[int, Action]] = []
    for t in reversed(range(mdp.horizon)):
        acts = [candidates(t, x) for x in range(mdp.n_states)]
        qs = [[sum((p * (r + u[y]) for y, p, r in mdp.kernel[x, a]), ZERO) for a in row]
              for x, row in enumerate(acts)]
        u = [max(q) for q in qs]
        rules.insert(0, {x: row[q.index(v)] for x, (row, q, v) in enumerate(zip(acts, qs, u))})
    return sum((p * u[x] for x, p in enumerate(mdp.mu0)), ZERO), tuple(rules)


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


def propagate_masses(mu0: Sequence[Fraction], horizon: int, step, final,
                     max_states: float) -> StepCdf:
    """Exact total-reward distribution by forward propagation over (state, reward) pairs.

    Mass starts on ``(x, 0)`` for every mu0-positive ``x``.  At epoch ``t``
    the pair ``(x, c)`` sends mass ``p`` to ``(y, c + r)`` for every
    ``(y, p, r)`` in ``step(t, x, c)``; equal pairs merge at every epoch.
    The total of a final pair ``(x, c)`` is ``c + final(x)``.  Refuses
    once more than ``max_states`` pairs are reachable, summed over epochs.
    """
    dist = {(x, ZERO): p for x, p in enumerate(mu0) if p > 0}
    count = len(dist)
    for t in range(horizon):
        nxt: dict[tuple[int, Fraction], Fraction] = {}
        for (x, c), mass in dist.items():
            for y, p, r in step(t, x, c):
                key = (y, c + r)
                nxt[key] = nxt.get(key, ZERO) + mass * p
        dist = nxt
        count += len(dist)
        if count > max_states:
            raise BudgetExceededError(
                f"exact distribution refused: more than {max_states} reachable "
                f"(state, reward) pairs; use the long-horizon CDF estimator instead")
    masses: dict[Fraction, Fraction] = {}
    for (x, c), mass in dist.items():
        total = c + final(x)
        masses[total] = masses.get(total, ZERO) + mass
    return StepCdf.from_masses(masses)


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

        def step(t: int, x: int, c: Fraction):
            return mdp.kernel[x, policy.action(t, x)]

        return propagate_masses(mdp.mu0, mdp.horizon, step, mdp.salvage.__getitem__,
                                max_states)

    if isinstance(process, MarkovRewardProcess):
        if policy is not None:
            raise PreconditionError(
                "exact_total_reward_distribution: a Markov reward process takes no policy")
        P, R, final, mu0 = process.arrays(object)
        rows = [[(y, p, R[x, y]) for y, p in enumerate(P[x]) if p > 0] for x in range(len(P))]
        return propagate_masses(mu0, process.horizon, lambda t, x, c: rows[x],
                                lambda x: sum((v[x] for v in final), ZERO), max_states)

    raise PreconditionError(
        f"exact_total_reward_distribution: unsupported input {type(process).__name__}")
