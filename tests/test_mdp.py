"""Core model operations: simplification, induction, induced chains, exact CDFs."""

import random
from dataclasses import replace
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from varmdp import (BudgetExceededError, DeterministicPolicy, FiniteMdp,
                    MarkovRewardProcess, PreconditionError, StepCdf, ValidationError,
                    augmented_policy_distribution, build_augmented,
                    exact_total_reward_distribution, expected_backward_induction,
                    evaluate_policy, induced_mrp, simplify_reward)

from conftest import random_mdp, random_transition_mrp, step_mean

F = Fraction


def reference_distribution(process, policy=None):
    """Depth-first enumeration of every trajectory, one walk per process kind."""
    masses = {}

    def record(total, mass):
        masses[total] = masses.get(total, F(0)) + mass

    if isinstance(process, FiniteMdp):
        mdp = process

        def walk(t, x, mass, total):
            if t == mdp.horizon:
                record(total + mdp.salvage[x], mass)
                return
            for y, p, r in mdp.kernel[x, policy.action(t, x)]:
                walk(t + 1, y, mass * p, total + r)
    else:
        mrp = process
        on_state = mrp.reward_on == "state"

        def walk(t, x, mass, total):
            if t == mrp.horizon:
                if on_state and mrp.include_final_reward:
                    total = total + mrp.state_reward[x]
                if mrp.salvage is not None:
                    total = total + mrp.salvage[x]
                record(total, mass)
                return
            if on_state:
                total = total + mrp.state_reward[x]
            for y, p in enumerate(mrp.kernel[x]):
                if p > 0:
                    step = total if on_state else total + mrp.transition_reward[(x, y)]
                    walk(t + 1, y, mass * p, step)

    for x, p in enumerate(process.mu0):
        if p > 0:
            walk(0, x, p, F(0))
    return StepCdf.from_masses(masses)


def random_markov_policy(rng, mdp):
    return DeterministicPolicy(rules=tuple(
        {x: rng.choice(mdp.actions[x]) for x in range(mdp.n_states)}
        for _ in range(mdp.horizon)))


def enumerate_paths_oracle(mdp: FiniteMdp, policy: DeterministicPolicy):
    """Independent enumeration: iterate bare successor tuples, no recursion sharing."""
    masses = {}
    frontier = [(x, mdp.mu0[x], F(0)) for x in range(mdp.n_states) if mdp.mu0[x] > 0]
    for t in range(mdp.horizon):
        nxt = []
        for x, mass, total in frontier:
            for y, p, r in mdp.kernel[x, policy.action(t, x)]:
                nxt.append((y, mass * p, total + r))
        frontier = nxt
    for x, mass, total in frontier:
        key = total + mdp.salvage[x]
        masses[key] = masses.get(key, F(0)) + mass
    return masses


def transition_law(mdp: FiniteMdp):
    """The kernel without its rewards: (state, action) -> (successor, probability) rows."""
    return {key: tuple((y, p) for y, p, _ in rows) for key, rows in mdp.kernel.items()}


class TestSimplifyReward:
    def test_paper_value_r02(self, short_sas):
        sa = simplify_reward(short_sas)
        assert {r for _, _, r in sa.kernel[0, 2]} == {0}
        # the underlying average: 1/4*(-8) + 1/2*0 + 1/4*8
        assert F(1, 4) * -8 + F(1, 2) * 0 + F(1, 4) * 8 == 0

    def test_constant_in_destination(self):
        rng = random.Random(11)
        mdp = random_mdp(rng, n_states=3, reward_kind="sas")
        flat = {key: tuple((y, p, F(5, 2)) for y, p, _ in rows)
                for key, rows in mdp.kernel.items()}
        mdp = replace(mdp, kernel=flat)
        sa = simplify_reward(mdp)
        assert all(r == F(5, 2) for rows in sa.kernel.values() for _, _, r in rows)

    def test_random_against_direct_sum(self):
        for seed in range(25):
            rng = random.Random(seed)
            mdp = random_mdp(rng, n_states=3, reward_kind="sas", max_actions=3)
            sa = simplify_reward(mdp)
            for key, rows in mdp.kernel.items():
                expected = sum((p * r for _, p, r in rows), F(0))
                assert all(r == expected for _, _, r in sa.kernel[key])

    def test_rejects_sa_input(self, short_sa):
        with pytest.raises(PreconditionError):
            simplify_reward(short_sa)

    def test_other_fields_unchanged(self, short_sas):
        sa = simplify_reward(short_sas)
        assert sa.reward_kind == "sa"
        assert transition_law(sa) == transition_law(short_sas)
        assert sa.mu0 == short_sas.mu0
        assert sa.salvage == short_sas.salvage


class TestInducedMrp:
    def test_inventory_kernel_row(self, printed_sas):
        pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
        mrp = induced_mrp(printed_sas, pol)
        assert mrp.kernel[0] == (F(1, 4), F(1, 2), F(1, 4))
        assert mrp.reward_on == "transition"
        assert mrp.transition_reward[(0, 1)] == 0   # order 2, sell 1, net zero
        assert mrp.mu0 == printed_sas.mu0

    def test_identity_kernel(self):
        n = 3
        mdp = FiniteMdp(
            horizon=2, states=("a", "b", "c"),
            actions=((0,),) * n,
            kernel={(x, 0): ((x, F(1), F(x)),) for x in range(n)},
            reward_kind="sa",
            mu0=(F(1), F(0), F(0)), salvage=(F(0),) * n)
        mrp = induced_mrp(mdp, DeterministicPolicy.from_stationary({x: 0 for x in range(n)}))
        for x in range(n):
            assert mrp.kernel[x][x] == 1
        assert mrp.reward_on == "state"

    def test_random_lookup(self):
        for seed in range(10):
            rng = random.Random(100 + seed)
            mdp = random_mdp(rng, n_states=4, reward_kind="sas", max_actions=3)
            rule = {x: rng.choice(mdp.actions[x]) for x in range(4)}
            mrp = induced_mrp(mdp, DeterministicPolicy.from_stationary(rule))
            for x in range(4):
                for y, p, r in mdp.kernel[x, rule[x]]:
                    assert mrp.kernel[x][y] == p
                    assert mrp.transition_reward[(x, y)] == r

    def test_illegal_action_names_state(self, printed_sas):
        with pytest.raises(PreconditionError, match="state 1"):
            induced_mrp(printed_sas, DeterministicPolicy.from_stationary({0: 0, 1: 9, 2: 0}))

    def test_markov_policy_rejected(self, printed_sas):
        markov = DeterministicPolicy(rules=({0: 0, 1: 0, 2: 0},) * 2, stationary=False)
        with pytest.raises(PreconditionError):
            induced_mrp(printed_sas, markov)


class TestBackwardInduction:
    def test_short_instance_value_and_policy(self, short_sas):
        value, policy = expected_backward_induction(short_sas)
        assert value == F(105, 16)
        assert float(value) == 6.5625
        assert policy.rules[0] == {0: 3, 1: 2, 2: 0, 3: 0}
        assert policy.rules[1] == {0: 2, 1: 0, 2: 0, 3: 0}

    def test_sa_same_value_same_policy(self, short_sas, short_sa):
        vs, ps = expected_backward_induction(short_sas)
        va, pa = expected_backward_induction(short_sa)
        assert vs == va == F(105, 16)
        assert ps == pa

    def test_printed_instance_matches_published_policy(self, printed_sas):
        # the published first-epoch rule (order 2 at level 0, else nothing)
        value, policy = expected_backward_induction(printed_sas)
        assert value == F(45, 8)
        assert policy.rules[0][0] == 2
        assert policy.rules[0][1] == 0 and policy.rules[0][2] == 0

    def test_zero_rewards_single_action(self):
        # value reduces to the propagated expected salvage
        kernel = {(0, 0): ((0, F(1, 2), F(0)), (1, F(1, 2), F(0))), (1, 0): ((0, F(1), F(0)),)}
        mdp = FiniteMdp(
            horizon=2, states=("a", "b"), actions=((0,), (0,)),
            kernel=kernel, reward_kind="sa",
            mu0=(F(1), F(0)), salvage=(F(3), F(7)))
        value, _ = expected_backward_induction(mdp)
        # mu propagation: (1,0) -> (1/2,1/2) -> (3/4,1/4); E[v] = 3*3/4 + 7*1/4
        assert value == F(3) * F(3, 4) + F(7) * F(1, 4)

    def test_simplify_then_induct_equivalence_random(self):
        for seed in range(20):
            rng = random.Random(300 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=3)
            vs, ps = expected_backward_induction(mdp)
            va, pa = expected_backward_induction(simplify_reward(mdp))
            assert vs == va
            assert ps == pa


class TestExactDistribution:
    def test_mean_matches_optimal_value(self, short_sas):
        value, policy = expected_backward_induction(short_sas)
        dist = exact_total_reward_distribution(short_sas, policy)
        assert step_mean(dist) == value == F(105, 16)

    def test_frozen_supports_under_optimal_policy(self, short_sas, short_sa):
        _, policy = expected_backward_induction(short_sas)
        sas = exact_total_reward_distribution(short_sas, policy)
        sa = exact_total_reward_distribution(short_sa, policy)
        assert sas.support == (F(-7), F(0), F(7), F(14))
        assert sas.prob == (F(1, 16), F(1, 4), F(3, 8), F(5, 16))
        assert sa.support == (F(4), F(5), F(6), F(7), F(8), F(9))
        assert sa.prob == (F(3, 16), F(1, 16), F(1, 8), F(5, 16), F(1, 4), F(1, 16))
        assert sas != sa          # averaging changes the distribution
        assert step_mean(sas) == step_mean(sa)

    def test_against_independent_enumeration(self, short_sas, short_sa):
        _, policy = expected_backward_induction(short_sas)
        for mdp in (short_sas, short_sa):
            dist = exact_total_reward_distribution(mdp, policy)
            oracle = enumerate_paths_oracle(mdp, policy)
            assert dict(zip(dist.support, dist.prob)) == oracle

    def test_deterministic_chain_single_point(self):
        kernel = {(0, 0): ((1, F(1), F(2)),), (1, 0): ((1, F(1), F(5)),)}
        mdp = FiniteMdp(
            horizon=3, states=("a", "b"), actions=((0,), (0,)), kernel=kernel,
            reward_kind="sa",
            mu0=(F(1), F(0)), salvage=(F(0), F(1)))
        dist = exact_total_reward_distribution(
            mdp, DeterministicPolicy.from_stationary({0: 0, 1: 0}))
        assert dist.support == (F(2) + F(5) + F(5) + F(1),)
        assert dist.prob == (F(1),)

    def test_masses_sum_to_one_random(self):
        for seed in range(15):
            rng = random.Random(500 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas")
            _, policy = expected_backward_induction(mdp)
            dist = exact_total_reward_distribution(mdp, policy)
            assert sum(dist.prob, F(0)) == 1

    def test_mean_equals_policy_evaluation_random(self):
        for seed in range(15):
            rng = random.Random(700 + seed)
            kind = "sas" if seed % 2 else "sa"
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind=kind, max_actions=2)
            rule = {x: rng.choice(mdp.actions[x]) for x in range(3)}
            policy = DeterministicPolicy.from_stationary(rule)
            dist = exact_total_reward_distribution(mdp, policy)
            assert step_mean(dist) == evaluate_policy(mdp, policy)

    def test_constant_destination_rewards_give_identical_cdfs(self):
        rng = random.Random(42)
        mdp = random_mdp(rng, n_states=2, horizon=2, reward_kind="sas", max_actions=2)
        flat = {(x, a): tuple((y, p, F(x - a, 2)) for y, p, _ in rows)
                for (x, a), rows in mdp.kernel.items()}
        mdp = replace(mdp, kernel=flat)
        sa = simplify_reward(mdp)
        all_rules = [dict(enumerate(c))
                     for c in product(*(mdp.actions[x] for x in range(mdp.n_states)))]
        for r0 in all_rules:
            for r1 in all_rules:
                policy = DeterministicPolicy(rules=(r0, r1), stationary=False)
                assert exact_total_reward_distribution(mdp, policy) == \
                    exact_total_reward_distribution(sa, policy)

    def test_budget_refusal_mentions_estimator(self, short_sas):
        # at horizon 10 the optimal policy reaches between 150 and 200 pairs
        big = replace(short_sas, horizon=10)
        _, policy = expected_backward_induction(big)
        with pytest.raises(BudgetExceededError, match=r"more than 100 reachable "
                           r"\(state, reward\) pairs; use the long-horizon"):
            exact_total_reward_distribution(big, policy, max_states=100)
        assert sum(exact_total_reward_distribution(big, policy, max_states=200).prob) == 1

    @pytest.mark.parametrize("case, message", [
        ("mdp", "exact_total_reward_distribution: an MDP needs a policy"),
        ("mrp", "exact_total_reward_distribution: a Markov reward process takes no policy"),
        ("other", "exact_total_reward_distribution: unsupported input str"),
    ])
    def test_precondition_refusals(self, short_sas, case, message):
        policy = DeterministicPolicy(rules=({x: 0 for x in range(short_sas.n_states)},),
                                     stationary=True)
        args = {"mdp": (short_sas,), "mrp": (induced_mrp(short_sas, policy), policy),
                "other": ("mdp.json",)}[case]
        with pytest.raises(PreconditionError) as info:
            exact_total_reward_distribution(*args)
        assert str(info.value) == message

    def test_mrp_variant_and_final_epoch_reward(self):
        mrp = MarkovRewardProcess(
            horizon=2, states=("a", "b"),
            kernel=((F(0), F(1)), (F(1), F(0))),
            reward_on="state", state_reward=(F(1), F(10)), transition_reward=None,
            mu0=(F(1), F(0)), salvage=None)
        dist = exact_total_reward_distribution(mrp)
        assert dist.support == (F(11),)                    # epochs 0,1: 1 + 10
        final = replace(mrp, include_final_reward=True)
        dist2 = exact_total_reward_distribution(final)
        assert dist2.support == (F(12),)                   # plus the final state's 1


class TestForwardPropagation:
    """The forward mass propagation equals the trajectory enumeration exactly."""

    def test_mdp_markov_policies_match_reference(self):
        for seed in range(60):
            rng = random.Random(1100 + seed)
            mdp = random_mdp(rng, n_states=rng.randint(1, 4), horizon=rng.randint(1, 4),
                             reward_kind="sas" if seed % 2 else "sa", max_actions=3)
            policy = random_markov_policy(rng, mdp)
            assert exact_total_reward_distribution(mdp, policy) == \
                reference_distribution(mdp, policy)
            stationary = DeterministicPolicy.from_stationary(policy.rules[0])
            assert exact_total_reward_distribution(mdp, stationary) == \
                reference_distribution(mdp, stationary)

    def test_state_rewarded_mrps_match_reference(self):
        for seed in range(40):
            rng = random.Random(1300 + seed)
            mdp = random_mdp(rng, n_states=rng.randint(1, 4), horizon=rng.randint(1, 4),
                             reward_kind="sa", max_actions=2)
            rule = {x: rng.choice(mdp.actions[x]) for x in range(mdp.n_states)}
            mrp = induced_mrp(mdp, DeterministicPolicy.from_stationary(rule))
            if not seed % 2:
                mrp = replace(mrp, salvage=None)
            for final in (False, True):
                variant = replace(mrp, include_final_reward=final)
                assert exact_total_reward_distribution(variant) == \
                    reference_distribution(variant)

    def test_transition_rewarded_mrps_with_salvage_match_reference(self):
        for seed in range(40):
            rng = random.Random(1500 + seed)
            mrp = random_transition_mrp(rng, rng.randint(1, 4), rng.randint(1, 4),
                                        with_salvage=True)
            assert exact_total_reward_distribution(mrp) == reference_distribution(mrp)

    def test_lifted_markov_policy_matches_augmented_propagation(self):
        for seed in range(30):
            rng = random.Random(1700 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=rng.randint(1, 4),
                             reward_kind="sas" if seed % 2 else "sa", max_actions=3)
            policy = random_markov_policy(rng, mdp)
            aug = build_augmented(mdp)
            rules = tuple({pair: policy.action(t, pair[0]) for pair in aug.layers[t]}
                          for t in range(mdp.horizon))
            assert augmented_policy_distribution(mdp, rules) == \
                exact_total_reward_distribution(mdp, policy)


ARRAY_CHAINS = {
    "transition with salvage": MarkovRewardProcess(
        horizon=3, states=("a", "b", "c"),
        kernel=((F(1, 2), F(1, 2), F(0)), (F(0), F(1, 3), F(2, 3)), (F(1), F(0), F(0))),
        reward_on="transition", state_reward=None,
        transition_reward={(0, 0): F(1), (0, 1): F(-2, 3), (1, 1): F(5),
                           (1, 2): F(7, 4), (2, 0): F(-1)},
        mu0=(F(1, 4), F(0), F(3, 4)), salvage=(F(3), F(-1, 2), F(0))),
    "state with final reward and salvage": MarkovRewardProcess(
        horizon=2, states=("a", "b"), kernel=((F(1, 5), F(4, 5)), (F(1), F(0))),
        reward_on="state", state_reward=(F(2), F(-3, 7)), transition_reward=None,
        mu0=(F(1, 2), F(1, 2)), salvage=(F(10), F(1, 9)), include_final_reward=True),
    "neither": MarkovRewardProcess(
        horizon=4, states=("a", "b"), kernel=((F(0), F(1)), (F(2, 3), F(1, 3))),
        reward_on="state", state_reward=(F(5, 2), F(0)), transition_reward=None,
        mu0=(F(0), F(1))),
}


@pytest.mark.parametrize("dtype", [object, float])
@pytest.mark.parametrize("name", list(ARRAY_CHAINS))
def test_mrp_arrays_match_fields(name, dtype):
    """``arrays`` equals the arrays read entry by entry from the record's fields."""
    mrp = ARRAY_CHAINS[name]
    n = mrp.n_states
    if mrp.reward_on == "state":
        pays = [[mrp.state_reward[x]] * n for x in range(n)]
    else:
        pays = [[mrp.transition_reward.get((x, y), F(0)) for y in range(n)] for x in range(n)]
    final = {"transition with salvage": [mrp.salvage],
             "state with final reward and salvage": [mrp.state_reward, mrp.salvage],
             "neither": []}[name]
    want = [mrp.kernel, pays, *final, mrp.mu0]
    P, R, got_final, mu0 = mrp.arrays(dtype)
    assert len(got_final) == len(final)
    for got, exact in zip([P, R, *got_final, mu0], want):
        exact = np.array(exact, dtype=object)
        assert got.dtype == np.dtype(dtype) and got.shape == exact.shape
        if dtype is object:
            assert all(type(v) is F for v in got.flat) and got.tolist() == exact.tolist()
        else:
            assert got.ravel().tolist() == [float(v) for v in exact.flat]


TRANSITION = dict(reward_on="transition", state_reward=None,
                  transition_reward={(x, y): F(x + y) for x in range(3) for y in range(3)})


class TestValidation:
    """Malformed models are refused at construction, naming the field."""

    @staticmethod
    def chain(**fields) -> MarkovRewardProcess:
        third = F(1, 3)
        base = dict(horizon=2, states=("a", "b", "c"), kernel=((third,) * 3,) * 3,
                    reward_on="state", state_reward=(F(1), F(2), F(3)),
                    transition_reward=None, mu0=(third,) * 3, salvage=(F(0),) * 3)
        return MarkovRewardProcess(**{**base, **fields})

    @pytest.mark.parametrize("name, values", [
        ("mu0", (F(1),)), ("state_reward", (F(1), F(2))), ("salvage", (F(0), F(0)))])
    def test_mrp_per_state_lengths(self, name, values):
        self.chain()
        with pytest.raises(ValidationError, match=f"^{name}: {len(values)} entries for 3"):
            self.chain(**{name: values})

    @staticmethod
    def mdp(rows=((0, F(1, 2), F(1)), (1, F(1, 2), F(1))), **fields) -> FiniteMdp:
        base = dict(horizon=1, states=("a", "b"), actions=((0,), (0,)),
                    kernel={(0, 0): rows, (1, 0): ((1, F(1), F(0)),)}, reward_kind="sa",
                    mu0=(F(1), F(0)), salvage=(F(0), F(1)))
        return FiniteMdp(**{**base, **fields})

    @pytest.mark.parametrize("y", [2, 5, -1])
    def test_mdp_successor_outside_states(self, y):
        self.mdp(((1, F(1), F(1)),))
        with pytest.raises(ValidationError, match=r"kernel row \(a, 0\): successor index"):
            self.mdp(((y, F(1), F(1)),))

    def test_mdp_duplicate_successor(self):
        with pytest.raises(ValidationError, match=r"kernel row \(a, 0\): successor listed twice"):
            self.mdp(((0, F(1, 2), F(1)), (0, F(1, 2), F(1))))

    def test_sa_mdp_pays_one_reward_per_state_action(self):
        self.mdp(((0, F(1, 2), F(1)), (1, F(1, 2), F(1))))
        with pytest.raises(ValidationError, match=r"kernel row \(a, 0\): an 'sa' instance"):
            self.mdp(((0, F(1, 2), F(1)), (1, F(1, 2), F(2))))


    @pytest.mark.parametrize("fields, message", [
        (dict(horizon=0), "horizon: must be a positive integer"),
        (dict(states=("a", "a")), "states: names must be unique"),
        (dict(actions=((0,),)), "actions/mu0/salvage: length must match states"),
        (dict(mu0=(F(1),)), "actions/mu0/salvage: length must match states"),
        (dict(salvage=(F(0),) * 3), "actions/mu0/salvage: length must match states"),
        (dict(reward_kind="sam"), "reward_kind: 'sam' not in {'sas','sa'}"),
        (dict(mu0=(F(3, 2), F(-1, 2))), "mu0: negative probability"),
        (dict(mu0=(F(1, 2), F(0))), "mu0: probabilities sum to 1/2, expected 1"),
        (dict(actions=((0,), ())), "actions: state b has no actions"),
        (dict(actions=((0, 0), (0,))), "actions: duplicates at state a"),
        (dict(actions=((0, 1), (0,))), "kernel: no transitions for state a, action 1"),
        (dict(rows=()), "kernel: no transitions for state a, action 0"),
        (dict(rows=((2, F(1), F(1)),)), "kernel row (a, 0): successor index outside 0..1"),
        (dict(rows=((0, F(1, 2), F(1)), (0, F(1, 2), F(1)))),
         "kernel row (a, 0): successor listed twice"),
        (dict(rows=((0, F(3, 2), F(1)), (1, F(-1, 2), F(1)))),
         "kernel row (a, 0): negative probability"),
        (dict(rows=((0, F(1, 2), F(1)), (1, F(1, 4), F(1)))),
         "kernel row (a, 0): probabilities sum to 3/4, expected 1"),
        (dict(rows=((0, F(1), F(1)), (1, F(0), F(1)))),
         "kernel: nonpositive mass on (a, 0, b)"),
        (dict(rows=((0, F(1, 2), F(1)), (1, F(1, 2), F(2)))),
         "kernel row (a, 0): an 'sa' instance pays one reward per (state, action)"),
    ])
    def test_mdp_refusals(self, fields, message):
        self.mdp()
        with pytest.raises(ValidationError) as info:
            self.mdp(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("fields, message", [
        (dict(horizon=0), "horizon: must be a positive integer"),
        (dict(reward_on="edge"), "reward_on: 'edge' not in {'state','transition'}"),
        (dict(state_reward=None), "reward table must match reward_on"),
        (dict(reward_on="transition"), "reward table must match reward_on"),
        (dict(transition_reward=TRANSITION["transition_reward"]),
         "reward table must match reward_on"),
        (dict(kernel=((F(1, 3),) * 3,) * 2), "kernel: must be a square matrix over states"),
        (dict(kernel=((F(1, 2),) * 2,) * 3), "kernel: must be a square matrix over states"),
        (dict(mu0=(F(1),)), "mu0: 1 entries for 3 states"),
        (dict(kernel=((F(3, 2), F(-1, 2), F(0)),) * 3), "kernel row a: negative probability"),
        (dict(kernel=((F(1, 2), F(1, 4), F(0)),) * 3),
         "kernel row a: probabilities sum to 3/4, expected 1"),
        (dict(mu0=(F(1, 3), F(1, 3), F(0))), "mu0: probabilities sum to 2/3, expected 1"),
        (dict(TRANSITION, include_final_reward=True),
         "include_final_reward only applies to state rewards"),
        (dict(TRANSITION, transition_reward={
            k: v for k, v in TRANSITION["transition_reward"].items() if k != (0, 1)}),
         "reward: missing r(a, b)"),
        (dict(TRANSITION, transition_reward={**TRANSITION["transition_reward"], (5, 7): F(1)}),
         "transition_reward: (5, 7) is not a pair of state indices 0..2"),
        (dict(TRANSITION, transition_reward={**TRANSITION["transition_reward"], (0, -1): F(1)}),
         "transition_reward: (0, -1) is not a pair of state indices 0..2"),
        (dict(TRANSITION, transition_reward={**TRANSITION["transition_reward"], "ab": F(1)}),
         "transition_reward: 'ab' is not a pair of state indices 0..2"),
    ])
    def test_mrp_refusals(self, fields, message):
        self.chain(include_final_reward=True)
        self.chain(**TRANSITION)
        with pytest.raises(ValidationError) as info:
            self.chain(**fields)
        assert str(info.value) == message

    @pytest.mark.parametrize("rules, stationary, message", [
        ((), False, "policy: no decision rules"),
        ((), True, "policy: no decision rules"),
        (({0: 0}, {0: 1}), True, "policy: a stationary policy has exactly one rule"),
    ])
    def test_policy_refusals(self, rules, stationary, message):
        DeterministicPolicy(rules=({0: 0}, {0: 1}))
        with pytest.raises(ValidationError) as info:
            DeterministicPolicy(rules=rules, stationary=stationary)
        assert str(info.value) == message

    @pytest.mark.parametrize("stationary", [False, True])
    def test_policy_without_action_at_a_state(self, stationary):
        policy = DeterministicPolicy(rules=({0: 0},), stationary=stationary)
        assert policy.action(0, 0) == 0
        with pytest.raises(PreconditionError) as info:
            policy.action(0, 1)
        assert str(info.value) == "policy: no action assigned at state index 1"

    @pytest.mark.parametrize("support, prob, message", [
        ((F(0), F(1)), (F(1),), "StepCdf: support/prob length mismatch or empty"),
        ((), (), "StepCdf: support/prob length mismatch or empty"),
        ((F(1), F(1)), (F(1, 2), F(1, 2)), "StepCdf: support must be strictly increasing"),
        ((F(2), F(1)), (F(1, 2), F(1, 2)), "StepCdf: support must be strictly increasing"),
        ((F(0), F(1)), (F(1), F(0)), "StepCdf: masses must be positive"),
        ((F(0), F(1)), (F(3, 2), F(-1, 2)), "StepCdf: masses must be positive"),
        ((F(0), F(1)), (F(1, 2), F(1, 4)), "StepCdf: masses must sum to 1 exactly"),
    ])
    def test_step_cdf_refusals(self, support, prob, message):
        StepCdf(support=(F(0), F(1)), prob=(F(1, 2), F(1, 2)))
        with pytest.raises(ValidationError) as info:
            StepCdf(support=support, prob=prob)
        assert str(info.value) == message
