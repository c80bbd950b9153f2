"""Cumulative-reward state augmentation and exact threshold-percentile solving.

The threshold criterion ("what is the best achievable probability that
the total reward reaches tau?") is not solvable by plain backward
induction because it is not time-consistent.  Augmenting each state
with the reward accumulated so far restores an expectation criterion:
give every in-horizon transition reward zero and pay a terminal 0/1
salvage ``1[c + v(x) >= tau]``; the optimal expected value of the
augmented model is exactly the optimal exceedance probability.

Cumulative values are enumerated exactly (rationals), epoch by epoch,
and the induction only ever touches the reachable per-epoch slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import BudgetExceededError
from .mdp import Action, FiniteMdp, StepCdf, ZERO, propagate_masses

AugState = tuple[int, Fraction]  # (state index, accumulated reward)


@dataclass(frozen=True)
class AugmentedMdp:
    """Augmented model: base MDP and per-epoch reachable slices.

    The slices do not depend on any threshold; ``solve_thresholds`` takes
    the thresholds to solve for.  ``layers[t]`` lists the reachable (state,
    accumulated reward) pairs at epoch ``t``; ``layers[0]`` pairs every
    mu0-positive state with 0.
    The kernel is inherited from the base MDP: from ``(x, c)`` under
    ``a``, the successor ``(y, c + r(x, a, y))`` has probability
    ``p(y | x, a)``.
    """

    base: FiniteMdp
    layers: tuple[tuple[AugState, ...], ...]

    @property
    def horizon(self) -> int:
        return self.base.horizon

    @property
    def n_augmented_states(self) -> int:
        return sum(len(layer) for layer in self.layers)

    @property
    def cumulative_values(self) -> frozenset[Fraction]:
        """All reachable accumulated-reward values across epochs."""
        return frozenset(c for layer in self.layers for _, c in layer)

    def initial_mass(self, pair: AugState) -> Fraction:
        x, c = pair
        return self.base.mu0[x] if c == 0 else ZERO


@dataclass(frozen=True)
class VarSolution:
    """Optimal exceedance probability at a threshold, with witnesses.

    ``policy[t]`` maps each reachable (state, accumulated reward) pair to
    the tie-broken optimal action; ``argmax_sets[t]`` keeps the full set
    of optimal actions so reported ties can be inspected.
    """

    tau: Fraction
    eta: Fraction
    policy: tuple[Mapping[AugState, Action], ...]
    argmax_sets: tuple[Mapping[AugState, tuple[Action, ...]], ...]

    def listing(self, states: tuple[str, ...]) -> str:
        """Stable text form: one "(state, cum_reward) -> action" line per pair."""
        lines = []
        for t, rule in enumerate(self.policy):
            for (x, c) in sorted(rule):
                lines.append(f"t={t} ({states[x]}, {c}) -> {rule[(x, c)]}")
        return "\n".join(lines)


def build_augmented(mdp: FiniteMdp, max_states: int = 200_000) -> AugmentedMdp:
    """Enumerate reachable (state, accumulated reward) pairs epoch by epoch."""
    layer = sorted((x, ZERO) for x, p in enumerate(mdp.mu0) if p > 0)
    layers = [tuple(layer)]
    total = len(layer)
    for _ in range(mdp.horizon):
        nxt: set[AugState] = set()
        for x, c in layer:
            for a in mdp.actions[x]:
                for y, p in mdp.transitions(x, a):
                    nxt.add((y, c + mdp.reward(x, a, y)))
        layer = sorted(nxt)
        total += len(layer)
        if total > max_states:
            raise BudgetExceededError(
                f"augmented model refused: more than {max_states} reachable "
                f"(state, reward) pairs")
        layers.append(tuple(layer))
    return AugmentedMdp(base=mdp, layers=tuple(layers))


def solve_thresholds(aug: AugmentedMdp,
                     taus: tuple[Fraction, ...]) -> tuple[VarSolution, ...]:
    """Best achievable P(total reward >= tau) for every threshold, in one backward pass.

    Each augmented pair carries one exceedance value per threshold: the
    terminal value of ``(x, c)`` is ``1[c + v(x) >= tau]``, and interior
    values maximize the expected successor value (all interior rewards
    are zero).  Per threshold, ties are broken toward the earliest action
    in the state's action list; the full argmax set is reported alongside.

    Values are kept as integers over the common denominator ``D**(H - t)``,
    where ``D`` is the least common denominator of the kernel's
    probabilities; scaling every value in a slice by one positive constant
    leaves all comparisons and ties exact.
    """
    mdp = aug.base
    scale = math.lcm(*(p.denominator for rows in mdp.kernel.values() for _, p in rows))
    weighted = {key: tuple((y, int(p * scale), mdp.reward(*key, y)) for y, p in rows)
                for key, rows in mdp.kernel.items()}
    u: dict[AugState, tuple[int, ...]] = {
        (x, c): tuple(int(c + mdp.salvage[x] >= tau) for tau in taus)
        for x, c in aug.layers[-1]}
    policy: list[list[dict[AugState, Action]]] = [[] for _ in taus]
    argmax: list[list[dict[AugState, tuple[Action, ...]]]] = [[] for _ in taus]
    for t in reversed(range(aug.horizon)):
        nu: dict[AugState, tuple[int, ...]] = {}
        rules: list[dict[AugState, Action]] = [{} for _ in taus]
        sets: list[dict[AugState, tuple[Action, ...]]] = [{} for _ in taus]
        for pair in aug.layers[t]:
            x, c = pair
            acts = mdp.actions[x]
            qs = []
            for a in acts:
                q = [0] * len(taus)
                for y, w, r in weighted[(x, a)]:
                    q = [qk + w * vk for qk, vk in zip(q, u[(y, c + r)])]
                qs.append(q)
            best = tuple(map(max, zip(*qs)))
            nu[pair] = best
            for k, b in enumerate(best):
                ties = tuple(a for a, q in zip(acts, qs) if q[k] == b)
                rules[k][pair] = ties[0]
                sets[k][pair] = ties
        u = nu
        for k in range(len(taus)):
            policy[k].insert(0, rules[k])
            argmax[k].insert(0, sets[k])
    denominator = scale ** aug.horizon
    return tuple(
        VarSolution(tau=tau,
                    eta=sum((aug.initial_mass(pair) * Fraction(u[pair][k], denominator)
                             for pair in aug.layers[0]), ZERO),
                    policy=tuple(policy[k]), argmax_sets=tuple(argmax[k]))
        for k, tau in enumerate(taus))


def solve_threshold_var(mdp: FiniteMdp, tau, max_states: int = 200_000) -> VarSolution:
    """Best achievable P(total reward >= tau), by induction on the augmented model."""
    aug = build_augmented(mdp, max_states=max_states)
    return solve_thresholds(aug, (Fraction(tau),))[0]


def augmented_policy_distribution(mdp: FiniteMdp,
                                  rules: tuple[Mapping[AugState, Action], ...]) -> StepCdf:
    """Exact total-reward distribution of a reward-dependent policy.

    ``rules[t]`` assigns an action to every reachable (state, accumulated
    reward) pair at epoch ``t``, so decisions may depend on the running
    total.  Mass is propagated by ``propagate_masses``; the total collects
    salvage at the final state.  The rules already list every reachable
    pair, so no budget applies.
    """
    def step(t: int, x: int, c: Fraction):
        a = rules[t][(x, c)]
        return [(y, p, mdp.reward(x, a, y)) for y, p in mdp.transitions(x, a)]

    return propagate_masses(mdp.mu0, mdp.horizon, step, mdp.salvage.__getitem__, math.inf)
