"""Single-product stochastic inventory MDP generator.

The model: inventory level ``x`` (states ``0..capacity``), order ``a``
(capped so ``x + a <= capacity``), iid demand ``D``; the next level is
``max(x + a - D, 0)`` (lost sales, no backlog).  Ordering ``u > 0``
units costs ``fixed_cost + unit_cost * u``; selling ``u`` units earns
``unit_price * u``; leftover stock at the end of the horizon is worth
its level (salvage ``v(x) = x``).  The per-transition reward is

    r(x, a, y) = unit_price * (x + a - y) - order_cost(a),

which depends on the destination ``y``, i.e. the instance is SAS-tagged.

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

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ValidationError
from .mdp import FiniteMdp, ZERO

_QUARTER = Fraction(1, 4)
_HALF = Fraction(1, 2)

DEFAULT_DEMAND = {0: _QUARTER, 1: _HALF, 2: _QUARTER}


@dataclass(frozen=True)
class InventoryParams:
    """Parameters of the inventory instance; all monetary values exact rationals."""

    horizon: int = 2
    capacity: int = 3
    fixed_cost: Fraction = Fraction(4)
    unit_cost: Fraction = Fraction(2)
    unit_price: Fraction = Fraction(8)
    demand: dict[int, Fraction] = field(default_factory=lambda: dict(DEFAULT_DEMAND))
    initial_level: int = 0

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValidationError("capacity: must be nonnegative")
        if self.horizon < 1:
            raise ValidationError("horizon: must be positive")
        if any(d < 0 or not isinstance(d, int) for d in self.demand):
            raise ValidationError("demand: support must be nonnegative integers")
        if any(p < 0 for p in self.demand.values()):
            raise ValidationError("demand: negative probability")
        if sum(self.demand.values(), ZERO) != 1:
            raise ValidationError("demand: probabilities must sum to 1 exactly")
        if not 0 <= self.initial_level <= self.capacity:
            raise ValidationError("initial_level: outside 0..capacity")


def order_cost(params: InventoryParams, units: int) -> Fraction:
    if units <= 0:
        return ZERO
    return params.fixed_cost + params.unit_cost * units


def build_inventory(params: InventoryParams = InventoryParams()) -> FiniteMdp:
    """Construct the SAS-tagged inventory MDP for the given parameters.

    Transition law for stock ``s = x + a``: ``p(y) = P(D = s - y)`` for
    ``y > 0`` and ``p(0) = P(D >= s)`` (excess demand is lost).
    """
    cap = params.capacity
    states = tuple(str(x) for x in range(cap + 1))
    actions = tuple(tuple(range(cap - x + 1)) for x in range(cap + 1))
    kernel: dict[tuple[int, int], tuple[tuple[int, Fraction, Fraction], ...]] = {}
    for x in range(cap + 1):
        for a in actions[x]:
            stock = x + a
            rows = []
            for y in range(stock, -1, -1):
                if y > 0:
                    p = params.demand.get(stock - y, ZERO)
                else:
                    p = sum((q for d, q in params.demand.items() if d >= stock), ZERO)
                if p > 0:
                    rows.append((y, p, params.unit_price * (stock - y) - order_cost(params, a)))
            rows.sort()
            kernel[(x, a)] = tuple(rows)
    mu0 = tuple(Fraction(int(x == params.initial_level)) for x in range(cap + 1))
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
