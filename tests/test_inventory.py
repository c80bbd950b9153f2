"""Inventory instance generator: structure, rewards, and published values."""

from fractions import Fraction

import pytest

from varmdp import (InventoryParams, ValidationError, build_inventory,
                    expected_backward_induction, paper_long, paper_short,
                    paper_short_printed, simplify_reward)
from varmdp.inventory import order_cost

F = Fraction


class TestStructure:
    def test_capacity_derived_action_sets(self, short_sas):
        assert short_sas.states == ("0", "1", "2", "3")
        assert short_sas.actions == ((0, 1, 2, 3), (0, 1, 2), (0, 1), (0,))
        assert short_sas.horizon == 2
        assert short_sas.mu0 == (F(1), F(0), F(0), F(0))
        assert short_sas.salvage == (F(0), F(1), F(2), F(3))

    def test_printed_action_sets(self, printed_sas):
        assert printed_sas.states == ("0", "1", "2")
        assert printed_sas.actions == ((0, 1, 2), (0, 1), (0,))

    def test_paper_long_same_structure(self):
        long = paper_long()
        short = paper_short()
        assert long.horizon == 500
        assert long.actions == short.actions
        assert long.kernel == short.kernel  # the rows carry the rewards too


class TestRewardsAndKernel:
    def test_published_transition_label(self, short_sas):
        # order 2 from empty stock, one unit sold: reward 0 with probability 1/2
        (p, r), = [(p, r) for y, p, r in short_sas.kernel[0, 2] if y == 1]
        assert r == 0
        assert p == F(1, 2)

    def test_full_table_against_formulas(self, short_sas):
        params = InventoryParams()
        demand = params.demand
        for (x, a), rows in short_sas.kernel.items():
            for y, p, r in rows:
                stock = x + a
                assert r == params.unit_price * (stock - y) - order_cost(params, a)
                if y > 0:
                    assert p == demand.get(stock - y, F(0))
                else:
                    assert p == sum((q for d, q in demand.items() if d >= stock), F(0))

    def test_lost_sales_boundary(self, short_sas):
        # empty stock, no order: demand never met, stay at zero with certainty
        assert short_sas.kernel[0, 0] == ((0, F(1), F(0)),)

    def test_deterministic_demand(self):
        mdp = build_inventory(InventoryParams(demand={1: F(1)}, capacity=2))
        for (x, a), rows in mdp.kernel.items():
            assert len(rows) == 1
            assert rows[0][1] == 1


class TestPublishedValues:
    def test_simplified_reward_label(self, short_sas):
        sa = simplify_reward(short_sas)
        assert {r for _, _, r in sa.kernel[0, 2]} == {0}

    def test_optimal_expectation(self, short_sas):
        value, _ = expected_backward_induction(short_sas)
        assert value == F(105, 16)

    def test_printed_variant_expectation(self, printed_sas):
        # the printed action sets cap orders at two and lose the optimum above
        value, policy = expected_backward_induction(printed_sas)
        assert value == F(45, 8)
        assert policy.rules[0][0] == 2


class TestValidation:
    def test_demand_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="demand"):
            InventoryParams(demand={0: F(1, 2), 1: F(1, 4)})

    def test_initial_level_bounds(self):
        with pytest.raises(ValidationError, match="initial_level"):
            InventoryParams(initial_level=5, capacity=2)

    def test_presets_callable(self):
        assert paper_short_printed().n_states == 3
