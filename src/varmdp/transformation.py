"""Pair-state transformation: transition-rewarded chain -> state-rewarded chain.

A chain that pays ``r(x, y)`` per transition cannot be fed to the
long-horizon CDF estimator, which wants a reward per state.  Averaging
the reward over successors would change the total-reward distribution,
so instead the transitions themselves become states: the new chain
lives on pairs ``(x, y)`` and pays ``r(x, y)`` on arrival.  Out of pair
``(x, y)`` only pairs ``(y, z)`` are reachable, with the original
probability ``p(z | y)`` — each original state acts as a router between
its incoming and outgoing pairs.

Accounting: the original total over a horizon of ``N`` epochs has ``N``
transition-reward terms.  The transformed chain has horizon ``N - 1``
but collects its state reward at every epoch including the last
(``include_final_reward``), which is again ``N`` terms and makes the
two total-reward distributions identical, exactly.  Salvage carries
over as ``v((x, y)) = v(y)``: the pair chain ends in ``(X_{N-1}, X_N)``,
so it pays exactly the original ``v(X_N)``.

The numpy graph helpers ``bfs_levels`` and ``support_groups`` serve
``pair_chain`` and ``edgeworth``.  The module's name differs from the
package export ``transform``, so importing it hides no function.
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


def support_groups(mask: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Rows of a boolean matrix grouped by their number of ``True`` entries.

    Returns ``(members, columns)`` per count, by increasing count:
    ``members`` are the row indices with that count, in order, and
    ``columns[g]`` the ``True`` column indices of row ``members[g]``, in order.
    """
    counts = mask.sum(axis=1)
    groups = []
    for count in sorted(set(counts.tolist())):
        members = np.flatnonzero(counts == count)
        groups.append((members, np.nonzero(mask[members])[1].reshape(len(members), count)))
    return groups


@dataclass(frozen=True)
class TransformedMrp(MarkovRewardProcess):
    """State-rewarded pair chain; ``pairs[i]`` is the (x, y) behind state i."""

    pairs: tuple[tuple[int, int], ...] = ()


def pair_chain(P: np.ndarray, R: np.ndarray, start: np.ndarray):
    """Pair-state arrays of a stack of transition-rewarded chains, grouped by pair count.

    ``P[m, x, y]`` is chain ``m``'s kernel, ``R[m, x, y]`` its transition
    reward and ``start[m, x, y] = mu0(x) p(y | x)`` the law of its first
    transition.  A chain's pairs are the positive transitions out of the
    states reachable from the support of its ``mu0``, by ``x`` then ``y``.
    Returns ``(members, xs, ys, kernel, reward, mu0)`` per pair count:
    pair ``i`` of chain ``members[g]`` is ``(xs[g, i], ys[g, i])``; it
    moves to pair ``(ys[g, i], z)`` with probability ``p(z | ys[g, i])``,
    pays ``R[xs, ys]`` and starts with mass ``start[xs, ys]``.
    The same code serves float arrays and exact ``Fraction`` object arrays.
    """
    n = P.shape[-1]
    positive = P != 0
    reach = bfs_levels(positive, (start != 0).any(axis=-1)) >= 0
    zero = P.flat[0] * 0  # of P's own type: Fraction or float
    groups = []
    for members, cols in support_groups((positive & reach[..., None]).reshape(len(P), -1)):
        xs, ys = np.divmod(cols, n)
        m = members[:, None]
        kernel = np.where(xs[:, None, :] == ys[:, :, None],
                          P[m[..., None], ys[:, :, None], ys[:, None, :]], zero)
        groups.append((members, xs, ys, kernel, R[m, xs, ys], start[m, xs, ys]))
    return groups


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
    start = mu0[:, None] * P
    [(_, xs, ys, kernel, state_reward, mu0)] = pair_chain(P[None], R[None], start[None])
    pairs = list(zip(xs[0].tolist(), ys[0].tolist()))
    salvage = None
    if mrp.salvage is not None:
        salvage = tuple(mrp.salvage[y] for (_, y) in pairs)

    return TransformedMrp(
        horizon=mrp.horizon - 1,
        states=tuple(f"{mrp.states[x]}->{mrp.states[y]}" for (x, y) in pairs),
        kernel=tuple(tuple(row) for row in kernel[0]),
        reward_on="state",
        state_reward=tuple(state_reward[0]),
        transition_reward=None,
        mu0=tuple(mu0[0]),
        salvage=salvage,
        include_final_reward=True,
        pairs=tuple(pairs),
    )

