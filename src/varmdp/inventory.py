"""Single-product stochastic inventory MDP generator.

The model: inventory level ``x`` (states ``0..capacity``), order ``a``
(capped so ``x + a <= capacity``), iid demand ``D``; the next level is
``max(x + a - D, 0)`` (lost sales, no backlog).  Only the horizon and
the capacity are settable; the rest are the paper's constants.  ``D`` is
0, 1 or 2 with probabilities 1/4, 1/2, 1/4 and stock starts empty.
Ordering ``u > 0`` units costs ``4 + 2u``, a sold unit earns 8, and
leftover stock is worth its level (salvage ``v(x) = x``).  The reward

    r(x, a, y) = 8 (x + a - y) - (4 + 2a if a > 0 else 0)

depends on the destination ``y``, i.e. the instance is SAS-tagged.

Two desk-size presets are provided.  They differ only in the action
structure, a point on which the source problem statement is internally
inconsistent: the results it quotes hold for capacity 3, but the action
sets it prints only allow orders up to ``x + a <= 2``, i.e. capacity 2.

* ``paper-short``          — capacity 3, states {0,1,2,3}, orders up to
  capacity.  Reproduces the expected-value and threshold-percentile
  results quoted for this problem (optimum 105/16 = 6.5625).
* ``paper-short-printed``  — the literally printed action sets
  A_0 = {0,1,2}, A_1 = {0,1}, A_2 = {0} over states {0,1,2}.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .mdp import FiniteMdp, ZERO, _Record

_FIXED_COST = Fraction(4)
_UNIT_COST = Fraction(2)
_UNIT_PRICE = Fraction(8)
_DEMAND = {0: Fraction(1, 4), 1: Fraction(1, 2), 2: Fraction(1, 4)}


class InventoryParams(_Record):
    """The settable size of the inventory instance: epochs and storage capacity."""

    _fields = ("horizon", "capacity")

    def __init__(self, horizon: int, capacity: int) -> None:
        self.__dict__.update(horizon=horizon, capacity=capacity)
        if capacity < 0:
            raise ValidationError("capacity: must be nonnegative")
        if horizon < 1:
            raise ValidationError("horizon: must be positive")


def build_inventory(params: InventoryParams) -> FiniteMdp:
    """Construct the SAS-tagged inventory MDP for the given parameters.

    Demand ``d`` takes stock ``s = x + a`` to ``y = max(s - d, 0)``
    (excess demand is lost), so ``p(y)`` sums the masses of those ``d``.
    """
    cap = params.capacity
    states = tuple(str(x) for x in range(cap + 1))
    actions = tuple(tuple(range(cap - x + 1)) for x in range(cap + 1))
    kernel: dict[tuple[int, int], tuple[tuple[int, Fraction, Fraction], ...]] = {}
    for x in range(cap + 1):
        for a in actions[x]:
            stock = x + a
            cost = _FIXED_COST + _UNIT_COST * a if a > 0 else ZERO
            law: dict[int, Fraction] = {}
            for d, p in _DEMAND.items():
                y = max(stock - d, 0)
                law[y] = law.get(y, ZERO) + p
            kernel[(x, a)] = tuple((y, law[y], _UNIT_PRICE * (stock - y) - cost)
                                   for y in sorted(law))
    mu0 = tuple(Fraction(int(x == 0)) for x in range(cap + 1))
    salvage = tuple(Fraction(x) for x in range(cap + 1))
    return FiniteMdp(
        horizon=params.horizon,
        states=states,
        actions=actions,
        kernel=kernel,
        reward_kind="sas",
        mu0=mu0,
        salvage=salvage,
    )


def paper_short() -> FiniteMdp:
    """Desk-size preset: horizon 2, capacity 3 (states {0..3}, orders up to 3)."""
    return build_inventory(InventoryParams(horizon=2, capacity=3))


def paper_short_printed() -> FiniteMdp:
    """Variant with the literally printed action sets: states {0,1,2}, orders x+a <= 2."""
    return build_inventory(InventoryParams(horizon=2, capacity=2))


def paper_long(horizon: int = 500) -> FiniteMdp:
    """Long-horizon preset: same instance as ``paper_short`` with horizon 500."""
    return build_inventory(InventoryParams(horizon=horizon, capacity=3))


PRESETS = {
    "paper-short": paper_short,
    "paper-short-printed": paper_short_printed,
    "paper-long": paper_long,
}
