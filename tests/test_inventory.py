"""Inventory instance generator: structure, rewards, and published values."""

import hashlib
from fractions import Fraction

import pytest

from varmdp import (InventoryParams, ValidationError, expected_backward_induction,
                    paper_long, paper_short, paper_short_printed, simplify_reward)
from varmdp.cli import main

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
        # the paper's numbers: order u > 0 costs 4 + 2u, a sale earns 8, demand 0/1/2
        demand = {0: F(1, 4), 1: F(1, 2), 2: F(1, 4)}
        for (x, a), rows in short_sas.kernel.items():
            for y, p, r in rows:
                stock = x + a
                assert r == 8 * (stock - y) - (4 + 2 * a if a > 0 else 0)
                if y > 0:
                    assert p == demand.get(stock - y, F(0))
                else:
                    assert p == sum((q for d, q in demand.items() if d >= stock), F(0))

    def test_lost_sales_boundary(self, short_sas):
        # empty stock, no order: demand never met, stay at zero with certainty
        assert short_sas.kernel[0, 0] == ((0, F(1), F(0)),)


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
    @pytest.mark.parametrize("horizon, capacity, message", [
        (2, -1, "capacity: must be nonnegative"),
        (0, 3, "horizon: must be positive"),
        (-4, 0, "horizon: must be positive"),
    ])
    def test_params_bounds(self, horizon, capacity, message):
        with pytest.raises(ValidationError, match=f"^{message}$"):
            InventoryParams(horizon=horizon, capacity=capacity)

    def test_presets_callable(self):
        assert paper_short_printed().n_states == 3


# sha256 of the generated documents; a drifted constant or formula changes them
PRESET_SHA256 = {
    ("paper-short", False): "f656892bd257a43353cd7a2acf9d6eba75fb89184b0f29186f0382c4545979d4",
    ("paper-short", True): "d73e51fe92174f728c66a53a842e2592af54c46856aa98fac634d477441b13e9",
    ("paper-short-printed", False):
        "47de5890048e0a1cb0adf34846765fb8cc63584122ab3b657acaa95de433a1f9",
    ("paper-short-printed", True):
        "deb5f725a1fb909ff2bb0365ba7e75a68f0bba1317f5921c5daefc6da35a84d8",
    ("paper-long", False): "9d0556b12cd62dcb4a322ae174f675070624d1ee984f0943b4e9802a8f1e6ef3",
    ("paper-long", True): "ecda98b78f42719d2deec418bfbdb7baea6e1aba56b7a6c9ee94dab967ee6ffd",
}


@pytest.mark.parametrize("preset, simplify", sorted(PRESET_SHA256))
def test_generated_document_bytes(capsys, preset, simplify):
    assert main(["gen-inventory", "--preset", preset, *["--simplify"] * simplify]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == PRESET_SHA256[preset, simplify]
