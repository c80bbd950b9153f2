"""Cumulative-reward state augmentation and exact threshold-percentile solving.

The threshold criterion ("what is the best achievable probability that
the total reward reaches tau?") is not solvable by plain backward
induction because it is not time-consistent.  Augmenting each state
with the reward accumulated so far restores an expectation criterion:
give every in-horizon transition reward zero and pay a terminal 0/1
salvage ``1[c + v(x) >= tau]``; the optimal expected value of the
augmented model is exactly the optimal exceedance probability.

Units.  Both passes read the kernel and salvage as ints from
``mdp.integer_units``: every total is an integer ``n`` in units of
``1 / scale``, ``scale`` the least common denominator of the rewards and
salvage, and every mass an integer over the kernel's.  The layers hold
``(x, n)``.  ``Fraction``s appear only at the edge: a threshold's cut, eta,
``VarSolution.policy`` keys (``augmented_policy_distribution``'s rules are
keyed the same way), and ``listings``, which formats each distinct total once.

Forward pass.  ``build_augmented`` keeps each state's reachable totals in
one of two encodings, chosen once per build from the model alone.  A
min/max pass first bounds them: at epoch ``t`` state ``x``'s totals lie on
the lattice from its least total to its largest, points ``step`` apart,
``step`` the gcd of the rewards.  When these lattices, summed over states
and epochs, hold at most ``max_states`` points, each state's totals are one
Python int bitset over its lattice, a move ``(y, r)`` is one shifted or,
and a layer is read off the set bits (on capacity 10 / horizon 12, 5.5 ->
1.5 ms).  Otherwise each state keeps a set of ints, grown once per move.
A bitset costs its lattice's width, not the pairs it holds, so the set
pass stays for sparse lattices: with rewards 1 and 10**12, or the
inventory's rewards times 100, the bitsets would step over far more
points than there are pairs.  A pair is a lattice point, so the bitset
pass never exceeds the budget; a refusal always comes from the set pass.

Backward pass.  ``solve_thresholds`` answers every threshold at once by
one pass over remaining targets, in plain Python ints: a pair's value at
a threshold depends only on what is left to collect.  Cells that are
surely won (the state can guarantee the target) or surely lost (no path
reaches it) take their value and witness in closed form; only the cells
in between maximize over actions.  Nothing here loads numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, chain, groupby
from operator import itemgetter
from typing import Mapping

from .errors import BudgetExceededError
from .mdp import Action, FiniteMdp, StepCdf, _Record, integer_units, propagate_masses

AugState = tuple[int, Fraction]  # (state index, accumulated reward)
Pair = tuple[int, int]  # (state index, accumulated reward in units of 1 / scale)


class AugmentedMdp(_Record):
    """Augmented model: base MDP and its reachable slices.

    ``layers[t]`` lists the reachable pairs ``(x, n)`` at epoch ``t``,
    sorted, where the reward accumulated so far is ``n / scale``;
    ``layers[0]`` pairs every mu0-positive state with 0.  From ``(x, n)``
    under ``a``, the successor ``(y, n + r(x, a, y) * scale)`` has
    probability ``p(y | x, a)`` and lies in ``layers[t + 1]``.  ``scale``
    is the least common denominator of the rewards and salvage.
    """

    _fields = ("base", "layers", "scale")

    def __init__(self, base: FiniteMdp, layers: tuple[tuple[Pair, ...], ...], scale: int) -> None:
        self.__dict__.update(base=base, layers=layers, scale=scale)

    @property
    def horizon(self) -> int:
        return self.base.horizon

    @property
    def n_augmented_states(self) -> int:
        return sum(len(layer) for layer in self.layers)


class VarSolution(_Record):
    """Optimal exceedance probability at a threshold, with one witness policy.

    ``actions[t][i]`` is the earliest optimal action, in the state's action
    list, at ``layers[t][i]``, whose totals count units of ``1 / scale``;
    ``policy[t]`` maps each reachable (state, accumulated reward) pair, the
    reward a ``Fraction``, to that action.
    """

    _fields = ("tau", "eta", "layers", "actions", "scale")

    def __init__(self, tau: Fraction, eta: Fraction, layers: tuple[tuple[Pair, ...], ...],
                 actions: tuple[tuple[Action, ...], ...], scale: int) -> None:
        self.__dict__.update(tau=tau, eta=eta, layers=layers, actions=actions, scale=scale)

    @property
    def policy(self) -> tuple[dict[AugState, Action], ...]:
        return tuple({(x, Fraction(n, self.scale)): a for (x, n), a in zip(layer, acts)}
                     for layer, acts in zip(self.layers, self.actions))


def listings(solutions: tuple[VarSolution, ...], states: tuple[str, ...]) -> list[str]:
    """Stable text form of each solution: one "t=... (state, cum_reward) -> action" line per pair.

    The solutions share their layers, so each pair's label is formatted
    once, and each distinct total once.
    """
    first = solutions[0]
    layers = first.layers[:len(first.actions)]  # the last epoch decides nothing
    totals = {n: str(Fraction(n, first.scale))
              for n in {n for layer in layers for _, n in layer}}
    labels = [f"t={t} ({states[x]}, {totals[n]}) -> "
              for t, layer in enumerate(layers) for x, n in layer]
    return ["\n".join(map(str.__add__, labels, map(str, chain.from_iterable(sol.actions))))
            for sol in solutions]


def _integer_moves(mdp: FiniteMdp) -> tuple[list[list[Pair]], int, int]:
    """Each state's distinct moves ``(y, r)``, sorted, ``r`` in units of ``1 / unit``;
    ``unit``, the least common denominator of the rewards and salvage (``integer_units``);
    and ``step``, the gcd of those ``r`` (1 if all are 0), which every total is a multiple of."""
    rows, _, _, (_, _, unit) = integer_units(mdp.kernel, mdp.mu0, mdp.salvage)
    moves = [sorted({(y, r) for a in acts for y, _, r in rows[x, a]})
             for x, acts in enumerate(mdp.actions)]
    return moves, unit, math.gcd(*(r for row in moves for _, r in row)) or 1


def _lowest_totals(mdp: FiniteMdp, moves: list[list[Pair]], step: int, budget) -> list | None:
    """``lows[t][x]``, the least total reachable at ``x`` in epoch ``t`` (``inf`` where ``x``
    is not reached); or None when the lattices of reachable totals, points ``step`` apart
    from each state's least total to its largest, summed over states and epochs, hold more
    than ``budget`` points."""
    low = [0 if p > 0 else math.inf for p in mdp.mu0]
    high = [-v for v in low]
    lows, points = [low], len(low) - low.count(math.inf)
    for _ in range(mdp.horizon):
        nlow, nhigh = [math.inf] * len(low), [-math.inf] * len(low)
        for x, row in enumerate(moves):
            if low[x] <= high[x]:
                for y, r in row:
                    if low[x] + r < nlow[y]:
                        nlow[y] = low[x] + r
                    if high[x] + r > nhigh[y]:
                        nhigh[y] = high[x] + r
        low, high = nlow, nhigh
        points += sum((b - a) // step + 1 for a, b in zip(low, high) if a <= b)
        if points > budget:
            return None
        lows.append(low)
    return lows


def _set_layers(mdp: FiniteMdp, moves: list[list[Pair]],
                max_states: int) -> tuple[tuple[Pair, ...], ...]:
    """The layers from each state's set of reachable totals, grown once per ``(y, r)`` move."""
    sums = [{0} if p > 0 else set() for p in mdp.mu0]
    layers = [tuple((x, 0) for x, ns in enumerate(sums) if ns)]
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
        layers.append(tuple((y, n) for y, ns in enumerate(sums) for n in sorted(ns)))
    return tuple(layers)


def _bit_layers(mdp: FiniteMdp, moves: list[list[Pair]], step: int,
                lows: list) -> tuple[tuple[Pair, ...], ...]:
    """The layers from one int bitset per state: bit ``i`` of state ``x``'s at epoch ``t``
    stands for the total ``lows[t][x] + step * i``, so a move ``(y, r)`` is one shifted or."""
    masks = [int(p > 0) for p in mdp.mu0]
    layers = [tuple((x, 0) for x, mask in enumerate(masks) if mask)]
    for low, nlow in zip(lows, lows[1:]):
        nxt = [0] * len(masks)
        for x, mask in enumerate(masks):
            if mask:
                for y, r in moves[x]:
                    nxt[y] |= mask << (low[x] + r - nlow[y]) // step
        masks = nxt
        layers.append(tuple([(y, nlow[y] + step * i) for y, mask in enumerate(masks) if mask
                             for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]))
    return tuple(layers)


def build_augmented(mdp: FiniteMdp, max_states: int = 200_000) -> AugmentedMdp:
    """Enumerate reachable (state, accumulated reward) pairs epoch by epoch.

    Rewards add as integers over ``scale``.  Each state's reachable totals
    are an int bitset over its lattice when all the lattices together hold
    at most ``max_states`` points, else a set (see the module docstring).
    A pair is a lattice point, so only the set pass can exceed the budget.
    """
    moves, scale, step = _integer_moves(mdp)
    lows = _lowest_totals(mdp, moves, step, max_states)
    layers = (_set_layers(mdp, moves, max_states) if lows is None
              else _bit_layers(mdp, moves, step, lows))
    return AugmentedMdp(base=mdp, layers=layers, scale=scale)


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
    ``mass**(H - t)``, ``mass`` the kernel's least common denominator, so all
    comparisons and ties are exact.  A strict ``>`` over the state's action
    list keeps the earliest optimal action, the witness of every pair whose
    cell it is.  At one threshold the cells are exactly the reachable pairs.

    Sure cells.  Let ``L_t(x)`` be the total state ``x`` can guarantee
    (``max_a min_y r + L_{t+1}(y)``, the inner minimum being action ``a``'s
    guarantee) and ``H_t(x)`` the largest total of any path, both ``v(x)``
    at the horizon.  Masses are positive, so a cell is worth ``mass**(H - t)``
    exactly when ``s <= L_t(x)``, its witness the earliest action whose
    guarantee reaches ``s``; and 0 exactly when ``s > H_t(x)``, its witness
    the first action, which the strict ``>`` keeps among all-zero values.
    Only cells in ``(L_t(x), H_t(x)]`` run the maximization.
    """
    mdp, unit = aug.base, aug.scale  # integer_units gave the build this unit, and the rows too
    rows, mu0, low, (M, mass, _) = integer_units(mdp.kernel, mdp.mu0, mdp.salvage)
    moves = [[(a, rows[x, a]) for a in acts] for x, acts in enumerate(mdp.actions)]
    cuts = [math.ceil(tau * unit) for tau in taus]
    cells = []  # cells[t][x]: the sorted remaining targets needed at state x in epoch t
    for layer in aug.layers:
        need = [[] for _ in mdp.states]
        for x, group in groupby(layer, itemgetter(0)):
            need[x] = sorted({cut - n for _, n in group for cut in cuts})
        cells.append(need)
    high = low
    value = [{s: int(v >= s) for s in need} for v, need in zip(low, cells[-1])]
    picks = []  # picks[t][x][s]: the witness action at cell (t, x, s)
    for t in reversed(range(aug.horizon)):
        full = mass ** (aug.horizon - t)
        guarantees = [[min([r + low[y] for y, _, r in rows]) for _, rows in options]
                      for options in moves]
        low = list(map(max, guarantees))
        high = [max([r + high[y] for _, rows in options for y, _, r in rows])
                for options in moves]
        nxt, value, pick = value, [], []
        for x, need in enumerate(cells[t]):
            won, lost = bisect_right(need, low[x]), bisect_right(need, high[x])
            best = dict.fromkeys(need[:won], full)
            best.update(dict.fromkeys(need[lost:], 0))
            chosen = dict.fromkeys(need[lost:], moves[x][0][0])
            done = 0  # a won cell's witness: the earliest action whose guarantee reaches s
            for reach, (a, _) in zip(accumulate(guarantees[x], max), moves[x]):
                stop = bisect_right(need, reach, done, won)
                chosen.update(dict.fromkeys(need[done:stop], a))
                if stop == won:
                    break
                done = stop
            options = [(a, [(nxt[y], w, r) for y, w, r in rows]) for a, rows in moves[x]]
            for s in need[won:lost]:
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
    start = [(mu0[x], value[x]) for x, _ in aug.layers[0]]
    witnesses = [[(pick[x], n) for x, n in layer] for pick, layer in zip(picks, aug.layers)]
    return tuple(
        VarSolution(tau=tau,
                    eta=Fraction(sum(m * v[cut] for m, v in start),
                                 M * mass ** aug.horizon),
                    layers=aug.layers,
                    actions=tuple(tuple([chosen[cut - n] for chosen, n in cells_t])
                                  for cells_t in witnesses),
                    scale=unit)
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
    units = integer_units(mdp.kernel, mdp.mu0, mdp.salvage)
    _, _, _, (_, _, unit) = units
    return propagate_masses(units, mdp.horizon,
                            lambda t, x, n: (x, rules[t][x, Fraction(n, unit)]), math.inf)
