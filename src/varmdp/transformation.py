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

It is exact: it reads ``MarkovRewardProcess.rows`` and loads no numpy.  The
module's name differs from the package export ``transform``, so importing it
hides no function.
"""

from __future__ import annotations

from .errors import PreconditionError
from .mdp import ZERO, MarkovRewardProcess


def transform(mrp: MarkovRewardProcess) -> MarkovRewardProcess:
    """Build the pair chain with the same total-reward distribution.

    Requires a transition-rewarded process with horizon >= 2.  The pair
    chain's states are the moves out of the states reachable from the
    support of ``mu0``, by ``x`` then ``y``, named ``"x->y"``; the other
    pairs are pruned, which keeps the chain on one communicating class
    whenever the original visits one.  A salvage function carries over as
    ``v((x, y)) = v(y)``.
    """
    if mrp.reward_on == "state":
        raise PreconditionError("transform: process is already state-rewarded")
    if mrp.horizon < 2:
        raise PreconditionError("transform: horizon must be at least 2")

    rows = mrp.rows()
    seen = frontier = {x for x, p in enumerate(mrp.mu0) if p}
    while frontier:  # breadth-first, one level a pass
        frontier = {y for x in frontier for y, _, _ in rows[x]} - seen
        seen = seen | frontier
    pairs = [(x, y, p, r) for x in sorted(seen) for y, p, r in rows[x]]
    index = {(x, y): i for i, (x, y, _, _) in enumerate(pairs)}
    kernel = [[ZERO] * len(pairs) for _ in pairs]
    for row, (_, y, _, _) in zip(kernel, pairs):  # (x, y) moves to (y, z) with p(z | y)
        for z, p, _ in rows[y]:
            row[index[y, z]] = p

    return MarkovRewardProcess(
        horizon=mrp.horizon - 1,
        states=tuple(f"{mrp.states[x]}->{mrp.states[y]}" for x, y, _, _ in pairs),
        kernel=tuple(map(tuple, kernel)),
        reward_on="state",
        state_reward=tuple(r for _, _, _, r in pairs),
        transition_reward=None,
        mu0=tuple(mrp.mu0[x] * p for x, _, p, _ in pairs),  # the law of the first transition
        salvage=None if mrp.salvage is None else tuple(mrp.salvage[y] for _, y, _, _ in pairs),
        include_final_reward=True,
    )
