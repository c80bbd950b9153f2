"""Pair-state transformation: transition-rewarded chain -> state-rewarded chain.

A chain that pays ``r(x, y)`` per transition becomes one that pays a
reward per state.  Averaging the reward over successors would change the
total-reward distribution, so instead the transitions themselves become
states: the new chain lives on pairs ``(x, y)`` and pays ``r(x, y)`` on
arrival.  Out of pair ``(x, y)`` only pairs ``(y, z)`` are reachable,
with the original probability ``p(z | y)`` — each original state acts as
a router between its incoming and outgoing pairs.  The long-horizon
estimator needs no pair chain: it takes ``R[x, y]`` on the base states.
The estimated front re-estimates each witness on its pair chain, which
checks that both routes give the same numbers.

Accounting: the original total over a horizon of ``N`` epochs has ``N``
transition-reward terms.  The transformed chain has horizon ``N - 1``
but collects its state reward at every epoch including the last
(``include_final_reward``), which is again ``N`` terms and makes the
two total-reward distributions identical, exactly.  Salvage carries
over as ``v((x, y)) = v(y)``: the pair chain ends in ``(X_{N-1}, X_N)``,
so it pays exactly the original ``v(X_N)``.

The numpy graph helper ``bfs_levels`` serves ``transform`` and
``edgeworth``.  The module's name differs from the package export
``transform``, so importing it hides no function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .mdp import MarkovRewardProcess


def bfs_levels(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Breadth-first levels over a boolean adjacency matrix; -1 where unreached.

    ``sources`` is a boolean mask of the level-0 states; each pass moves
    the whole frontier one edge forward.  A leading axis on ``adjacency``
    searches a stack of graphs at once; ``sources`` broadcasts against it.
    """
    frontier = np.broadcast_to(np.asarray(sources, dtype=bool), adjacency.shape[:-1])
    level = np.where(frontier, 0, -1)
    depth = 0
    while frontier.any():
        depth += 1
        frontier = (frontier[..., :, None] & adjacency).any(axis=-2) & (level < 0)
        level[frontier] = depth
    return level


@dataclass(frozen=True)
class TransformedMrp(MarkovRewardProcess):
    """State-rewarded pair chain; ``pairs[i]`` is the (x, y) behind state i."""

    pairs: tuple[tuple[int, int], ...] = ()


def transform(mrp: MarkovRewardProcess) -> TransformedMrp:
    """Build the pair chain with the same total-reward distribution.

    Requires a transition-rewarded process with horizon >= 2.  Pairs
    that are neither initially charged nor reachable from the support
    of ``mu0`` are pruned, which keeps the chain on one communicating
    class whenever the original visits one.  A salvage function carries
    over as ``v((x, y)) = v(y)``.
    """
    if mrp.reward_on == "state":
        raise PreconditionError("transform: process is already state-rewarded")
    if mrp.horizon < 2:
        raise PreconditionError("transform: horizon must be at least 2")

    P, R, _, mu0 = mrp.arrays(object)
    # the pairs are the positive transitions out of the states reachable from the support
    # of mu0, by x then y; pair (x, y) moves to (y, z) with probability p(z | y)
    positive = P != 0
    reach = bfs_levels(positive, mu0 != 0) >= 0
    xs, ys = np.nonzero(positive & reach[:, None])
    kernel = np.where(xs[None, :] == ys[:, None], P[ys[:, None], ys[None, :]], P.flat[0] * 0)
    pairs = list(zip(xs.tolist(), ys.tolist()))
    salvage = None
    if mrp.salvage is not None:
        salvage = tuple(mrp.salvage[y] for (_, y) in pairs)

    return TransformedMrp(
        horizon=mrp.horizon - 1,
        states=tuple(f"{mrp.states[x]}->{mrp.states[y]}" for (x, y) in pairs),
        kernel=tuple(tuple(row) for row in kernel),
        reward_on="state",
        state_reward=tuple(R[xs, ys]),
        transition_reward=None,
        mu0=tuple(mu0[xs] * P[xs, ys]),  # the law of the first transition
        salvage=salvage,
        include_final_reward=True,
        pairs=tuple(pairs),
    )

