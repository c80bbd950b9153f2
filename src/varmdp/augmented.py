"""Cumulative-reward state augmentation and exact threshold-percentile solving.

The threshold criterion ("what is the best achievable probability that
the total reward reaches tau?") is not solvable by plain backward
induction because it is not time-consistent.  Augmenting each state
with the reward accumulated so far restores an expectation criterion:
give every in-horizon transition reward zero and pay a terminal 0/1
salvage ``1[c + v(x) >= tau]``; the optimal expected value of the
augmented model is exactly the optimal exceedance probability.

Only ``build_augmented`` adds rewards, as integers over their least
common denominator.  ``solve_thresholds`` answers every threshold at
once by one backward pass over remaining targets, in plain Python ints:
a pair's value at a threshold depends only on what is left to collect.
Nothing here loads numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping

from .errors import BudgetExceededError
from .mdp import Action, FiniteMdp, StepCdf, propagate_masses

AugState = tuple[int, Fraction]  # (state index, accumulated reward)


@dataclass(frozen=True)
class AugmentedMdp:
    """Augmented model: base MDP and its reachable slices.

    ``layers[t]`` lists the reachable (state, accumulated reward) pairs at
    epoch ``t``, sorted; ``layers[0]`` pairs every mu0-positive state with
    0.  From ``(x, c)`` under ``a``, the successor ``(y, c + r(x, a, y))``
    has probability ``p(y | x, a)`` and lies in ``layers[t + 1]``.
    ``scale`` is the least common denominator of the rewards and salvage.
    """

    base: FiniteMdp
    layers: tuple[tuple[AugState, ...], ...]
    scale: int

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
        """Stable text form: one "t=... (state, cum_reward) -> action" line per pair."""
        return listings((self,), states)[0]


def listings(solutions: tuple[VarSolution, ...], states: tuple[str, ...]) -> list[str]:
    """``listing`` of each solution, all on the same layers; each pair's label is formatted once."""
    layers = solutions[0].layers[:len(solutions[0].actions)]  # the last epoch decides nothing
    labels = [f"t={t} ({states[x]}, {c}) -> " for t, layer in enumerate(layers) for x, c in layer]
    return ["\n".join(map(str.__add__, labels, map(str, chain.from_iterable(sol.actions))))
            for sol in solutions]


def build_augmented(mdp: FiniteMdp, max_states: int = 200_000) -> AugmentedMdp:
    """Enumerate reachable (state, accumulated reward) pairs epoch by epoch.

    Rewards add as integers over ``scale``: each state keeps the set of
    its reachable integer totals, grown once per distinct ``(y, r)`` move.
    """
    moves = [{(y, r) for a in acts for y, _, r in mdp.kernel[x, a]}
             for x, acts in enumerate(mdp.actions)]
    scale = math.lcm(*(r.denominator for row in moves for _, r in row),
                     *(v.denominator for v in mdp.salvage))
    moves = [sorted({(y, int(r * scale)) for y, r in row}) for row in moves]
    sums = [{0} if p > 0 else set() for p in mdp.mu0]
    layers = [[(x, sorted(ns)) for x, ns in enumerate(sums) if ns]]
    count = len(layers[0])
    for _ in range(mdp.horizon):
        nxt = [set() for _ in mdp.states]
        for x, ns in enumerate(sums):
            for y, r in moves[x]:
                nxt[y].update(map(r.__add__, ns))
        count += sum(map(len, nxt))
        if count > max_states:
            raise BudgetExceededError(
                f"augmented model refused: more than {max_states} reachable "
                f"(state, reward) pairs")
        sums = nxt
        layers.append([(y, sorted(ns)) for y, ns in enumerate(sums) if ns])
    fraction = {n: Fraction(n, scale)
                for n in set().union(*(ns for layer in layers for _, ns in layer))}
    return AugmentedMdp(
        base=mdp, layers=tuple(tuple((x, fraction[n]) for x, ns in layer for n in ns)
                               for layer in layers),
        scale=scale)


def solve_thresholds(aug: AugmentedMdp,
                     taus: tuple[Fraction, ...]) -> tuple[VarSolution, ...]:
    """Best achievable P(total reward >= tau) for every threshold, in one backward pass.

    With rewards counted in units of ``1 / aug.scale``, pair ``(x, n)`` at
    threshold ``tau`` has the remaining target ``s = cut - n``, ``cut =
    ceil(tau * scale)``, and its value depends on ``(t, x, s)`` alone.  So
    the pass keeps one value per needed cell: ``s`` ranges over ``cut - n``
    for every pair of ``layers[t]`` and every threshold, and a move from
    ``(x, s)`` lands on the needed cell ``(y, s - r)`` of the next epoch.  A
    final cell is worth ``1[v(x) >= s]``; an interior cell maximizes the
    expected value of its successors.  Values are integers over
    ``D**(H - t)``, ``D`` the kernel's least common denominator, so all
    comparisons and ties are exact.  A strict ``>`` over the state's action
    list keeps the earliest optimal action, the witness of every pair whose
    cell it is.  At one threshold the cells are exactly the reachable pairs.
    """
    mdp, unit = aug.base, aug.scale
    scale = math.lcm(*(p.denominator for rows in mdp.kernel.values() for _, p, _ in rows))
    moves = [[(a, [(y, int(p * scale), int(r * unit)) for y, p, r in mdp.kernel[x, a]])
              for a in acts] for x, acts in enumerate(mdp.actions)]
    cuts = [math.ceil(tau * unit) for tau in taus]
    pairs = [[(x, c.numerator * (unit // c.denominator)) for x, c in layer]
             for layer in aug.layers]
    cells = []  # cells[t][x]: the remaining targets needed at state x in epoch t
    for layer in pairs:
        need = [set() for _ in mdp.states]
        for x, n in layer:
            need[x].update([cut - n for cut in cuts])
        cells.append(need)
    value = [{s: int(v >= s) for s in need}
             for v, need in zip((int(v * unit) for v in mdp.salvage), cells[-1])]
    picks = []  # picks[t][x][s]: the witness action at cell (t, x, s)
    for t in reversed(range(aug.horizon)):
        nxt, value, pick = value, [], []
        for x, need in enumerate(cells[t]):
            options = [(a, [(nxt[y], w, r) for y, w, r in rows]) for a, rows in moves[x]]
            best, chosen = {}, {}
            for s in need:
                top = -1
                for a, rows in options:
                    q = 0
                    for successor, w, r in rows:
                        q += w * successor[s - r]
                    if q > top:
                        top, act = q, a
                best[s], chosen[s] = top, act
            value.append(best)
            pick.append(chosen)
        picks.insert(0, pick)
    mass_scale = math.lcm(*(p.denominator for p in mdp.mu0))
    start = [(int(mdp.mu0[x] * mass_scale), value[x]) for x, _ in pairs[0]]
    witnesses = [[(pick[x], n) for x, n in layer] for pick, layer in zip(picks, pairs)]
    return tuple(
        VarSolution(tau=tau,
                    eta=Fraction(sum(m * v[cut] for m, v in start),
                                 mass_scale * scale ** aug.horizon),
                    layers=aug.layers,
                    actions=tuple(tuple([chosen[cut - n] for chosen, n in cells_t])
                                  for cells_t in witnesses))
        for tau, cut in zip(taus, cuts))


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
