"""Cumulative-reward state augmentation and exact threshold-percentile solving.

The threshold criterion ("what is the best achievable probability that
the total reward reaches tau?") is not solvable by plain backward
induction because it is not time-consistent.  Augmenting each state
with the reward accumulated so far restores an expectation criterion:
give every in-horizon transition reward zero and pay a terminal 0/1
salvage ``1[c + v(x) >= tau]``; the optimal expected value of the
augmented model is exactly the optimal exceedance probability.

Only ``build_augmented`` adds rewards, as integers over their least
common denominator; per epoch it records the next-slice index of every
(pair, action, successor) move.  ``solve_thresholds`` is one numpy pass
over those indices for all thresholds at once, in exact Python ints, and
keeps one witness per threshold: the earliest optimal action of every
reachable pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Mapping

import numpy as np

from .errors import BudgetExceededError
from .mdp import Action, FiniteMdp, StepCdf, propagate_masses

AugState = tuple[int, Fraction]  # (state index, accumulated reward)


@dataclass(frozen=True)
class AugmentedMdp:
    """Augmented model: base MDP, reachable slices and their successor indices.

    ``layers[t]`` lists the reachable (state, accumulated reward) pairs at
    epoch ``t``, sorted; ``layers[0]`` pairs every mu0-positive state with
    0.  From ``(x, c)`` under ``a``, the successor ``(y, c + r(x, a, y))``
    has probability ``p(y | x, a)``; ``successors[t]`` holds its index in
    ``layers[t + 1]`` for every such move, pair by pair, in action and then
    kernel-row order.  ``totals`` are the final ``c + v(x)`` times
    ``scale``, the least common denominator of the rewards and salvage.
    """

    base: FiniteMdp
    layers: tuple[tuple[AugState, ...], ...]
    scale: int
    successors: tuple[np.ndarray, ...]
    totals: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return self.base.horizon

    @property
    def n_augmented_states(self) -> int:
        return sum(len(layer) for layer in self.layers)


@dataclass(frozen=True)
class VarSolution:
    """Optimal exceedance probability at a threshold, with one witness policy.

    ``actions[t][i]`` is the earliest optimal action, in the state's action
    list, at ``layers[t][i]``; ``policy[t]`` maps each reachable (state,
    accumulated reward) pair to that action.
    """

    tau: Fraction
    eta: Fraction
    layers: tuple[tuple[AugState, ...], ...]
    actions: tuple[tuple[Action, ...], ...]

    @property
    def policy(self) -> tuple[dict[AugState, Action], ...]:
        return tuple(dict(zip(layer, acts)) for layer, acts in zip(self.layers, self.actions))

    def listing(self, states: tuple[str, ...]) -> str:
        """Stable text form: one "(state, cum_reward) -> action" line per pair."""
        return "\n".join(f"t={t} ({states[x]}, {c}) -> {a}"
                         for t, (layer, acts) in enumerate(zip(self.layers, self.actions))
                         for (x, c), a in zip(layer, acts))


def build_augmented(mdp: FiniteMdp, max_states: int = 200_000) -> AugmentedMdp:
    """Enumerate reachable (state, accumulated reward) pairs epoch by epoch.

    Rewards add as integers over ``scale``, so ``(x, integer)`` order is ``(x, reward)`` order.
    """
    moves = [[(y, r) for a in acts for y, _, r in mdp.kernel[x, a]]
             for x, acts in enumerate(mdp.actions)]
    scale = math.lcm(*(r.denominator for row in moves for _, r in row),
                     *(v.denominator for v in mdp.salvage))
    moves = [[(y, int(r * scale)) for y, r in row] for row in moves]
    layer = [(x, 0) for x, p in enumerate(mdp.mu0) if p > 0]
    layers, successors = [layer], []
    for _ in range(mdp.horizon):
        nxt = sorted({(y, n + r) for x, n in layer for y, r in moves[x]})
        if sum(map(len, layers)) + len(nxt) > max_states:
            raise BudgetExceededError(
                f"augmented model refused: more than {max_states} reachable "
                f"(state, reward) pairs")
        index = {pair: i for i, pair in enumerate(nxt)}
        successors.append(np.fromiter(
            (index[y, n + r] for x, n in layer for y, r in moves[x]), dtype=np.intp))
        layer = nxt
        layers.append(layer)
    return AugmentedMdp(
        base=mdp, layers=tuple(tuple((x, Fraction(n, scale)) for x, n in pairs)
                               for pairs in layers),
        scale=scale, successors=tuple(successors),
        totals=tuple(n + int(mdp.salvage[x] * scale) for x, n in layer))


def solve_thresholds(aug: AugmentedMdp,
                     taus: tuple[Fraction, ...]) -> tuple[VarSolution, ...]:
    """Best achievable P(total reward >= tau) for every threshold, in one backward pass.

    Each augmented pair carries one exceedance value per threshold: the
    terminal value of ``(x, c)`` is ``1[c + v(x) >= tau]``, and interior
    values maximize the expected successor value.  Per threshold, ties are
    broken toward the earliest action in the state's action list, and that
    action is the pair's witness.  Values are integers over
    ``D**(H - t)``, ``D`` the kernel's least common denominator, so all
    comparisons and ties are exact.  The pairs of one state form a block
    of the sorted slice; each block is one numpy step over its
    ``(pairs, moves, thresholds)`` successor values.
    """
    mdp, k = aug.base, len(taus)
    scale = math.lcm(*(p.denominator for rows in mdp.kernel.values() for _, p, _ in rows))
    weights, slots, choices = [], [], []
    for x, acts in enumerate(mdp.actions):
        rows = [mdp.kernel[x, a] for a in acts]
        weights.append(np.array([[int(p * scale)] for row in rows for _, p, _ in row],
                                dtype=object))
        slots.append(np.cumsum([0] + [len(row) for row in rows[:-1]]))
        choices.append(np.fromiter(acts, dtype=object, count=len(acts)))  # tuples stay whole
    cuts = np.array([math.ceil(tau * aug.scale) for tau in taus], dtype=object)
    u = np.where(np.array(aug.totals, dtype=object)[:, None] >= cuts, 1, 0).astype(object)
    found = []  # found[t][i]: the witness actions over layers[t] at taus[i]
    for t in reversed(range(aug.horizon)):
        blocks, picks, move = [], [], 0
        for x, block in groupby(x for x, _ in aug.layers[t]):
            n, m = sum(1 for _ in block), len(weights[x])
            values = u[aug.successors[t][move:move + n * m]].reshape(n, m, k) * weights[x]
            q = np.add.reduceat(values, slots[x], axis=1)
            blocks.append(q.max(axis=1))
            picks.append(choices[x][(q == blocks[-1][:, None]).argmax(axis=1)])
            move += n * m
        u = np.concatenate(blocks)
        found.insert(0, np.concatenate(picks).T.tolist())
    mass_scale = math.lcm(*(p.denominator for p in mdp.mu0))
    numerators = sum(int(mdp.mu0[x] * mass_scale) * row for (x, _), row in zip(aug.layers[0], u))
    return tuple(
        VarSolution(tau=tau, eta=Fraction(numerators[i], mass_scale * scale ** aug.horizon),
                    layers=aug.layers, actions=tuple(tuple(acts[i]) for acts in found))
        for i, tau in enumerate(taus))


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
        return mdp.kernel[x, rules[t][(x, c)]]

    return propagate_masses(mdp.mu0, mdp.horizon, step, mdp.salvage.__getitem__, math.inf)
