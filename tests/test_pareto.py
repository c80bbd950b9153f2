"""Exact and estimated fronts, and the two risk queries."""

import math
import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from varmdp import (BudgetExceededError, ParetoFront, PreconditionError, ValidationError,
                    augmented_policy_distribution, build_augmented,
                    pareto_front_exact, query_eta, query_rho, simplify_reward,
                    solve_threshold_var)

from conftest import fraction_layers, random_mdp

F = Fraction


@pytest.fixture(scope="module")
def front_sas(short_sas):
    return pareto_front_exact(short_sas)


@pytest.fixture(scope="module")
def front_sa(short_sa):
    return pareto_front_exact(short_sa)


def listing_rules(mdp, listing):
    """Rebuild a witness policy's decision rules from its listing."""
    rules = [dict() for _ in range(mdp.horizon)]
    for line in listing.splitlines():
        head, action = line.split(" -> ")
        t = int(head.split()[0].split("=")[1])
        state, c = head.split("(")[1].rstrip(")").split(", ")
        rules[t][(mdp.states.index(state), F(c))] = int(action)
    return tuple(rules)


def enumerated_front(mdp):
    """Reference front: every deterministic policy on the augmented slices.

    Returns the union of all supports and, at each of its points, the
    least left limit ``P(total < tau)`` over all policies.
    """
    layers = fraction_layers(build_augmented(mdp))
    slots = [(t, pair) for t in range(mdp.horizon) for pair in layers[t]]
    dists = []
    for choices in product(*(mdp.actions[pair[0]] for _, pair in slots)):
        rules = [dict() for _ in range(mdp.horizon)]
        for (t, pair), a in zip(slots, choices):
            rules[t][pair] = a
        dists.append(augmented_policy_distribution(mdp, tuple(rules)))
    grid = tuple(sorted({s for dist in dists for s in dist.support}))
    return grid, tuple(min(1 - dist.prob_geq(tau) for dist in dists) for tau in grid)


def small_random_mdps(count, max_policies=2 ** 12):
    """The first ``count`` seeded instances (<= 3 states, horizon <= 3, <= 2 actions)
    whose augmented policy class is small enough to enumerate."""
    seed = 0
    while count:
        rng = random.Random(1000 + seed)
        seed += 1
        mdp = random_mdp(rng, n_states=rng.randint(1, 3), horizon=rng.randint(1, 3),
                         reward_kind=rng.choice(["sas", "sa"]), max_actions=2)
        aug = build_augmented(mdp)
        if math.prod(len(mdp.actions[x]) for t in range(mdp.horizon)
                     for x, _ in aug.layers[t]) <= max_policies:
            count -= 1
            yield mdp


def linear_front(lo=0.0, hi=1.0, steps=101):
    grid = np.linspace(lo, hi, steps)
    return ParetoFront(kind="estimated", grid=tuple(grid), value=tuple(grid),
                       witness=(0,) * steps)


class TestExactFront:
    def test_published_threshold_values(self, front_sas, front_sa):
        assert query_eta(front_sas, 9) == F(5, 16)
        assert query_eta(front_sa, 9) == F(3, 16)
        # complements as read off the front itself
        idx = front_sas.grid.index(F(9))
        assert front_sas.value[idx] == 1 - F(5, 16)

    def test_off_grid_threshold(self, front_sas, front_sa, printed_sa):
        assert query_eta(front_sas, "15/2") == F(11, 16)
        # capacity-structured instance: the simplified value at 7.5
        assert query_eta(front_sa, 7.5) == F(5, 16)
        # printed action sets reproduce the published simplified value 0.25
        printed_front = pareto_front_exact(printed_sa)
        assert query_eta(printed_front, "7.5") == F(1, 4)

    def test_front_agrees_with_threshold_solver_everywhere(self, printed_sas, printed_sa):
        for mdp in (printed_sas, printed_sa):
            front = pareto_front_exact(mdp)
            for tau in front.grid:
                assert 1 - query_eta(front, tau) == 1 - solve_threshold_var(mdp, tau).eta

    def test_dominance_and_witness_tightness(self, short_sa, front_sa):
        layers = fraction_layers(build_augmented(short_sa))
        rng = random.Random(5)
        dists = {pid: augmented_policy_distribution(
                     short_sa, listing_rules(short_sa, front_sa.policies[pid]))
                 for pid in set(front_sa.witness)}
        # some random policies for the inequality side
        random_dists = []
        for _ in range(20):
            rules = tuple({pair: rng.choice(short_sa.actions[pair[0]])
                           for pair in layers[t]} for t in range(short_sa.horizon))
            random_dists.append(augmented_policy_distribution(short_sa, rules))
        for tau, value, wit in zip(front_sa.grid, front_sa.value, front_sa.witness):
            below_witness = 1 - dists[wit].prob_geq(tau)
            assert value == below_witness                      # equality at the witness
            for dist in random_dists:
                assert value <= 1 - dist.prob_geq(tau)         # dominance

    def test_front_monotone_and_bounded(self, front_sas):
        values = front_sas.value
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[0] == 0 and all(0 <= v <= 1 for v in values)

    def test_single_policy_front_is_that_cdf(self):
        rng = random.Random(8)
        mdp = random_mdp(rng, n_states=3, horizon=2, reward_kind="sas", max_actions=1)
        front = pareto_front_exact(mdp)
        from varmdp import DeterministicPolicy, exact_total_reward_distribution
        only = DeterministicPolicy.from_stationary({x: 0 for x in range(3)})
        dist = exact_total_reward_distribution(mdp, only)
        assert front.grid == dist.support
        for tau, value in zip(front.grid, front.value):
            assert value == dist.cdf(tau) - dict(zip(dist.support, dist.prob))[tau]

    def test_budget_refusal_names_count(self, short_sas):
        # paper-short has 34 reachable pairs
        with pytest.raises(BudgetExceededError,
                           match=r"more than 10 reachable \(state, reward\) pairs"):
            pareto_front_exact(short_sas, max_states=10)

    def test_matches_policy_enumeration(self, printed_sas, printed_sa):
        for mdp in [printed_sas, printed_sa, *small_random_mdps(30)]:
            front = pareto_front_exact(mdp)
            assert (front.grid, front.value) == enumerated_front(mdp)
            for tau, value, pid in zip(front.grid, front.value, front.witness):
                dist = augmented_policy_distribution(
                    mdp, listing_rules(mdp, front.policies[pid]))
                assert 1 - dist.prob_geq(tau) == value


class TestQueries:
    def test_eta_step_extension(self, front_sas):
        assert query_eta(front_sas, -1000) == 1     # below all support: all mass above
        assert query_eta(front_sas, 1000) == 0      # above all support
        smallest = front_sas.grid[0]
        assert query_eta(front_sas, smallest) == 1

    def test_rho_closed_form_linear(self):
        front = linear_front()
        assert query_rho(front, 0.3) == pytest.approx(0.7, abs=1e-12)
        assert query_rho(front, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_eta_rho_inversion_linear(self):
        front = linear_front(steps=57)
        for alpha in (0.1, 0.25, 0.5, 0.9):
            assert query_eta(front, query_rho(front, alpha)) == pytest.approx(alpha,
                                                                              abs=1e-12)

    def test_rho_bisection_oracle_on_estimated_front(self):
        # a strictly increasing smooth front; bisect the interpolant directly
        grid = np.linspace(-3.0, 3.0, 301)
        values = 1.0 / (1.0 + np.exp(-1.3 * grid))
        front = ParetoFront(kind="estimated", grid=tuple(grid),
                            value=tuple(values), witness=(0,) * len(grid))
        for alpha in (0.2, 0.5, 0.8):
            target = 1.0 - alpha
            lo, hi = grid[0], grid[-1]
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if np.interp(mid, grid, values) <= target:
                    lo = mid
                else:
                    hi = mid
            assert query_rho(front, alpha) == pytest.approx(lo, abs=1e-9)

    def test_rho_out_of_range_sentinels(self):
        front = linear_front(lo=0.2, hi=0.8, steps=7)  # values span [0.2, 0.8]
        assert query_rho(front, 0.9) == -math.inf      # target 0.1 below the span
        assert query_rho(front, 0.05) == math.inf      # target 0.95 above the span

    def test_rho_alpha_validation(self, front_sas):
        front = linear_front()
        for bad in (-0.1, 1.5):
            with pytest.raises(PreconditionError):
                query_rho(front, bad)
            with pytest.raises(PreconditionError):
                query_rho(front_sas, bad)

    def test_rho_refuses_nan(self, front_sas):
        for front in (linear_front(), front_sas):
            with pytest.raises(PreconditionError) as info:
                query_rho(front, float("nan"))
            assert str(info.value) == "alpha: must be finite"

    def test_rho_exact_sup_of_level_set(self, front_sas):
        # the front sits at 11/16 on [9, 14] and jumps above it after 14, so the
        # level set of target 11/16 tops out at 14
        assert query_rho(front_sas, F(5, 16)) == F(14)
        # a target strictly between plateau values picks the lower plateau's edge
        assert query_rho(front_sas, F(1, 2)) == F(8)
        # and alpha=0 is unbounded
        assert query_rho(front_sas, 0) == math.inf

    def test_rho_flat_front_reads_level_set(self):
        # P stays at 0.1 up to tau = 1 and rises to 0.9 at 2: {P <= 0.5} ends at 1.5
        front = ParetoFront(kind="estimated", grid=(0.0, 1.0, 2.0), value=(0.1, 0.1, 0.9),
                            witness=(0, 0, 0))
        assert query_rho(front, 0.5) == 1.5
        assert query_rho(front, 0.95) == -math.inf

    def test_rho_clipped_front(self):
        # clipped to 0.0 below tau = 2 and to 1.0 above 3, as long-horizon fronts are
        front = ParetoFront(kind="estimated", grid=(0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0),
                            value=(0.0, 0.0, 0.0, 0.5, 1.0, 1.0, 1.0), witness=(0,) * 7)
        assert query_rho(front, 1.0) == 2.0      # target 0.0: the lower clip's end
        assert query_rho(front, 0.75) == 2.25
        assert query_rho(front, 0.5) == 2.5
        assert query_rho(front, 0.25) == 2.75
        assert query_rho(front, 0.0) == 5.0      # target 1.0 is reached: the grid's end


@pytest.mark.parametrize("changes, message", [
    (dict(kind="rough"), "front kind: 'rough'"),
    (dict(value=(F(0), F(1))), "front: grid/value/witness lengths differ or empty"),
    (dict(witness=(0, 0)), "front: grid/value/witness lengths differ or empty"),
    (dict(grid=(), value=(), witness=()), "front: grid/value/witness lengths differ or empty"),
    (dict(grid=(F(0), F(0), F(1))), "front: grid must be strictly increasing"),
    (dict(grid=(F(0), F(2), F(1))), "front: grid must be strictly increasing"),
    (dict(value=(F(-1, 4), F(1, 2), F(1))), "front: values must lie in [0, 1]"),
    (dict(value=(F(0), F(1, 2), F(5, 4))), "front: values must lie in [0, 1]"),
    (dict(value=(F(0), F(3, 4), F(1, 2))), "front: values must be nondecreasing"),
    (dict(grid=(F(0), math.nan, F(2))), "front: grid must be finite"),
    (dict(grid=(F(0), F(1), math.inf)), "front: grid must be finite"),
    (dict(value=(F(0), math.nan, F(1))), "front: values must lie in [0, 1]"),
])
def test_front_refusals(changes, message):
    fields = dict(kind="exact", grid=(F(0), F(1), F(2)), value=(F(0), F(1, 2), F(1)),
                  witness=(0, 1, 1))
    ParetoFront(**fields)
    with pytest.raises(ValidationError) as info:
        ParetoFront(**{**fields, **changes})
    assert str(info.value) == message
