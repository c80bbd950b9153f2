"""Pair-state transformation: exact distribution preservation and structure."""

import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from varmdp import (DeterministicPolicy, MarkovRewardProcess, PreconditionError,
                    exact_total_reward_distribution, induced_mrp, transform)
from varmdp.documents import dump_document, mrp_to_document
from varmdp.edgeworth import bfs_levels

from conftest import (chain_stages, random_distribution, random_rational,
                      random_transition_mrp, reward_term_count, transformed_salvage)

F = Fraction


def pairs(t: MarkovRewardProcess, mrp: MarkovRewardProcess) -> list[tuple[int, int]]:
    """The ``(x, y)`` behind each state of the pair chain ``t``, read from its name ``x->y``."""
    return [tuple(mrp.states.index(s) for s in name.split("->")) for name in t.states]


class TestStructure:
    def test_inventory_router_pairs(self, printed_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        chain = replace(induced_mrp(printed_sas, pol), salvage=None)
        t = transform(chain)
        assert t.n_states <= 9
        assert t.n_states == 8          # the (1, 2) transition has probability zero
        assert t.states[0] == "0->0"
        # router wiring: out of (x, y) only pairs starting at y are reachable
        behind = pairs(t, chain)
        for i, (x, y) in enumerate(behind):
            for j, p in enumerate(t.kernel[i]):
                if p > 0:
                    assert behind[j][0] == y
                    assert p == chain.kernel[y][behind[j][1]]

    def test_horizon_and_final_epoch_convention(self, printed_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        chain = replace(induced_mrp(printed_sas, pol), salvage=None)
        t = transform(chain)
        assert t.horizon == chain.horizon - 1
        assert t.include_final_reward
        assert reward_term_count(t) == chain.horizon

    def test_initial_mass_splits_over_first_transition(self, printed_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        chain = replace(induced_mrp(printed_sas, pol), salvage=None)
        t = transform(chain)
        for i, (x, y) in enumerate(pairs(t, chain)):
            assert t.mu0[i] == chain.mu0[x] * chain.kernel[x][y]
        assert sum(t.mu0, F(0)) == 1

    def test_rows_stay_stochastic_random(self):
        for seed in range(20):
            rng = random.Random(seed)
            mrp = random_transition_mrp(rng, rng.randint(2, 4), rng.randint(2, 5))
            t = transform(mrp)
            for row in t.kernel:
                assert sum(row, F(0)) == 1

    def test_state_rewarded_input_rejected(self):
        mrp = MarkovRewardProcess(
            horizon=3, states=("a",), kernel=((F(1),),), reward_on="state",
            state_reward=(F(1),), transition_reward=None, mu0=(F(1),))
        with pytest.raises(PreconditionError, match="state-rewarded"):
            transform(mrp)

    def test_unreachable_source_states_pruned(self):
        kernel = ((F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)))
        mrp = MarkovRewardProcess(
            horizon=3, states=("a", "b", "c"), kernel=kernel, reward_on="transition",
            state_reward=None,
            transition_reward={(0, 0): F(1), (1, 1): F(2), (2, 2): F(3)},
            mu0=(F(1), F(0), F(0)))
        t = transform(mrp)
        assert t.states == ("a->a",) and pairs(t, mrp) == [(0, 0)]


class TestDistributionPreservation:
    def test_destination_independent_rewards_reduce_to_state_rewards(self):
        rng = random.Random(21)
        mrp = random_transition_mrp(rng, 3, 4)
        flat = {(x, y): F(x + 1, 2) for (x, y) in mrp.transition_reward}
        mrp = replace(mrp, transition_reward=flat)
        state_version = replace(
            mrp, reward_on="state", transition_reward=None,
            state_reward=tuple(F(x + 1, 2) for x in range(3)))
        d_transformed = exact_total_reward_distribution(transform(mrp))
        d_state = exact_total_reward_distribution(state_version)
        assert d_transformed == d_state

    def test_random_chains_exact_equality(self):
        for seed in range(40):
            rng = random.Random(4000 + seed)
            n = rng.randint(2, 4)
            horizon = rng.randint(2, 6)
            mrp = random_transition_mrp(rng, n, horizon, with_salvage=bool(seed % 2))
            original = exact_total_reward_distribution(mrp)
            transformed = exact_total_reward_distribution(transform(mrp))
            assert original == transformed

    def test_stationary_measure_maps_to_pair_measure(self):
        # xi_pair((x, y)) = xi(x) P(x, y) is stationary for the pair kernel
        rng = random.Random(99)
        while True:
            mrp = random_transition_mrp(rng, 3, 5, max_support=3)
            P = np.array([[float(p) for p in row] for row in mrp.kernel])
            try:
                xi = chain_stages(P, last="stationary_distribution").xi
                break
            except Exception:
                continue
        t = transform(replace(mrp, mu0=(F(1, 3), F(1, 3), F(1, 3))))
        Pd = np.array([[float(p) for p in row] for row in t.kernel])
        xi_pair = np.array([xi[x] * P[x, y] for (x, y) in pairs(t, mrp)])
        assert abs(xi_pair.sum() - 1.0) < 1e-12
        assert np.abs(xi_pair @ Pd - xi_pair).max() < 1e-12


class TestSalvage:
    def test_zero_salvage_stays_zero(self):
        rng = random.Random(31)
        mrp = random_transition_mrp(rng, 3, 3)
        t = transformed_salvage(mrp, [F(0)] * 3)
        assert all(v == 0 for v in t.salvage)

    def test_inventory_salvage_follows_destination(self, printed_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        chain = replace(induced_mrp(printed_sas, pol), salvage=None)
        t = transformed_salvage(chain, [F(x) for x in range(3)])
        for i, (_, y) in enumerate(pairs(t, chain)):
            assert t.salvage[i] == y

    def test_salvaged_distributions_match(self):
        for seed in range(10):
            rng = random.Random(6000 + seed)
            mrp = random_transition_mrp(rng, 3, 4, with_salvage=True)
            original = exact_total_reward_distribution(mrp)
            transformed = exact_total_reward_distribution(
                transformed_salvage(replace(mrp, salvage=None), mrp.salvage))
            assert original == transformed


def reference_transform(mrp: MarkovRewardProcess) -> MarkovRewardProcess:
    """The pair chain built from dense numpy ``object`` arrays of ``Fraction``s.

    ``P`` and ``R`` hold every pair; ``R`` every listed transition reward,
    a zero-mass pair's too.  The pairs are the positive transitions out of
    the states reachable from the support of mu0, by x then y.
    """
    n = mrp.n_states
    P = np.array(mrp.kernel, dtype=object).reshape(n, n)
    R = np.full((n, n), F(0), dtype=object)
    for (x, y), r in mrp.transition_reward.items():
        R[x, y] = r
    mu0 = np.array(mrp.mu0, dtype=object)
    positive = P != 0
    reach = bfs_levels(positive, mu0 != 0) >= 0
    xs, ys = np.nonzero(positive & reach[:, None])
    kernel = np.where(xs[None, :] == ys[:, None], P[ys[:, None], ys[None, :]], P.flat[0] * 0)
    behind = list(zip(xs.tolist(), ys.tolist()))
    return MarkovRewardProcess(
        horizon=mrp.horizon - 1,
        states=tuple(f"{mrp.states[x]}->{mrp.states[y]}" for (x, y) in behind),
        kernel=tuple(tuple(row) for row in kernel),
        reward_on="state", state_reward=tuple(R[xs, ys]), transition_reward=None,
        mu0=tuple(mu0[xs] * P[xs, ys]),
        salvage=None if mrp.salvage is None else tuple(mrp.salvage[y] for (_, y) in behind),
        include_final_reward=True)


def test_transform_documents_match_the_object_array_reference():
    # the row reader builds the same pair chain, byte for byte, as the dense object
    # arrays did: with and without salvage, with states mu0 cannot reach, with
    # self-loops, at horizon 2, and with rewards listed on zero-mass pairs
    seen = {"salvage": 0, "unreachable": 0, "self-loop": 0, "horizon 2": 0, "zero-mass": 0}
    for seed in range(600):
        rng = random.Random(9000 + seed)
        n = rng.randint(1, 5)
        mrp = random_transition_mrp(rng, n, rng.choice([2, 2, 3, 5]),
                                    with_salvage=bool(seed % 2),
                                    max_support=rng.choice([None, 1, 2]))
        mrp = replace(mrp, mu0=tuple(random_distribution(rng, n, max_support=2)))
        zero = [(x, y) for x in range(n) for y in range(n) if not mrp.kernel[x][y]]
        if zero and seed % 3 == 0:
            extra = {pair: random_rational(rng) for pair in rng.sample(zero, min(2, len(zero)))}
            mrp = replace(mrp, transition_reward={**mrp.transition_reward, **extra})
            seen["zero-mass"] += 1
        t = transform(mrp)
        assert dump_document(mrp_to_document(t)) == \
            dump_document(mrp_to_document(reference_transform(mrp)))
        seen["salvage"] += mrp.salvage is not None
        seen["unreachable"] += len({x for x, _ in pairs(t, mrp)}) < n
        seen["self-loop"] += any(x == y for x, y in pairs(t, mrp))
        seen["horizon 2"] += mrp.horizon == 2
    assert min(seen.values()) >= 50, seen
