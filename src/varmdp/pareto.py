"""Pareto front of the total-reward CDF set, exact (short horizon) or estimated.

The front is the pointwise infimum of the CDFs of all deterministic
policies; both risk queries read off it.  For exact fronts the policies
range over decision rules on the reachable (state, accumulated reward)
pairs — decisions may depend on the running total, and a plain
state-feedback policy class would be strictly too small.  That class is
never enumerated: the infimum at each threshold is the complement of
the threshold optimum ``eta(tau)``, and one backward pass over the
augmented slices yields ``eta`` at every grid point at once.  That pass
runs on remaining targets in plain Python ints, so an exact front never
loads numpy; only the linear reading of an estimated front does.

Atom convention of exact fronts: the stored value at a grid point
``tau`` is ``inf_pi P(total < tau)`` (the left limit), so that
``1 - value(tau)`` equals the non-strict exceedance optimum
``eta(tau) = sup_pi P(total >= tau)`` at every point, including atoms.
Between grid points the front evaluates as a left-continuous step
(constant on ``(grid[k-1], grid[k]]``), which keeps that identity
literal for every real threshold.  Estimated fronts hold float values
on a float grid and evaluate by linear interpolation.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Mapping

from .augmented import build_augmented, listings, solve_thresholds
from .errors import PreconditionError, ValidationError
from .mdp import FiniteMdp, ZERO
from .rationals import parse_rational


@dataclass(frozen=True)
class ParetoFront:
    """Pointwise-infimum front over a threshold grid, with per-point witnesses."""

    kind: str                      # "exact" (rational grid) or "estimated" (float grid)
    grid: tuple
    value: tuple
    witness: tuple[int, ...]
    policies: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "estimated"):
            raise ValidationError(f"front kind: {self.kind!r}")
        if not (len(self.grid) == len(self.value) == len(self.witness)) or not self.grid:
            raise ValidationError("front: grid/value/witness lengths differ or empty")
        if not all(-math.inf < t < math.inf for t in self.grid):
            raise ValidationError("front: grid must be finite")
        if any(self.grid[i] >= self.grid[i + 1] for i in range(len(self.grid) - 1)):
            raise ValidationError("front: grid must be strictly increasing")
        if not all(0 <= v <= 1 for v in self.value):
            raise ValidationError("front: values must lie in [0, 1]")
        if any(self.value[i] > self.value[i + 1] for i in range(len(self.value) - 1)):
            raise ValidationError("front: values must be nondecreasing")


def pareto_front_exact(mdp: FiniteMdp, max_states: int = 200_000) -> ParetoFront:
    """Exact front by one threshold-vector backward pass over the augmented slices.

    The grid is the set of reachable totals ``c + v(x)`` over the final
    slice.  At each grid point the stored value is ``1 - eta(tau)``, the
    complement of the best exceedance probability; the witness there is
    the tie-broken optimal threshold policy, whose left limit
    ``P(total < tau)`` attains the value.  Witnesses are deduplicated by
    their tie-broken actions and numbered in order of first appearance
    along the grid; each distinct witness is listed once.
    """
    aug = build_augmented(mdp, max_states=max_states)
    grid = tuple(sorted({c + mdp.salvage[x] for x, c in aug.layers[-1]}))
    solutions = solve_thresholds(aug, grid)
    ids: dict[tuple, int] = {}
    witness = tuple(ids.setdefault(sol.actions, len(ids)) for sol in solutions)
    distinct = dict(zip(witness, solutions))
    return ParetoFront(kind="exact", grid=grid,
                       value=tuple(1 - sol.eta for sol in solutions), witness=witness,
                       policies=dict(zip(distinct, listings(tuple(distinct.values()),
                                                            mdp.states))))


def query_eta(front: ParetoFront, tau):
    """Best exceedance probability ``1 - P(tau)`` read off the front.

    Exact fronts evaluate as left-continuous steps (below the grid the
    front carries no mass, above it all mass); estimated fronts
    interpolate linearly and clamp outside the grid span.
    """
    if front.kind == "exact":
        tau = parse_rational(tau, "tau")
        return ZERO if tau > front.grid[-1] else 1 - front.value[bisect_left(front.grid, tau)]
    import numpy as np
    return 1.0 - float(np.interp(float(tau), front.grid, front.value))


def query_rho(front: ParetoFront, alpha):
    """Best threshold at exceedance level alpha: ``sup {tau : P(tau) <= 1 - alpha}``.

    The level set runs to the last grid point with value ``<= 1 - alpha``:
    exact step fronts return that point, estimated fronts interpolate on
    the segment after it.  Out-of-range levels return signed infinity.
    """
    if isinstance(alpha, float) and not math.isfinite(alpha):
        raise PreconditionError("alpha: must be finite")
    exact = front.kind == "exact"
    a = parse_rational(alpha, "alpha") if exact else float(alpha)
    if not 0 <= a <= 1:
        raise PreconditionError(f"alpha: {a} outside [0, 1]")
    if exact and a == 0:
        return math.inf
    target = 1 - a
    idx = bisect_right(front.value, target) - 1
    if idx < 0:
        return -math.inf
    if exact:
        return front.grid[idx]
    if idx == len(front.grid) - 1:
        return float(front.grid[-1]) if target == front.value[-1] else math.inf
    import numpy as np
    return float(np.interp(target, front.value[idx:idx + 2], front.grid[idx:idx + 2]))
