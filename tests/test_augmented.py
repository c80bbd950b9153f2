"""Augmented-state threshold solving: reachable slices, induction values, witnesses."""

import math
import random
from fractions import Fraction
from itertools import accumulate, groupby

import numpy as np
import pytest

from varmdp import (BudgetExceededError, InventoryParams, build_augmented,
                    augmented_policy_distribution, build_inventory, pareto_front_exact,
                    simplify_reward, solve_threshold_var, solve_thresholds)

from conftest import fraction_layers, random_mdp, scaled_rewards

F = Fraction


def reference_thresholds(aug, taus):
    """Dict induction over the slices: ``(eta, policy, argmax_sets)`` per threshold.

    Successor values are looked up by the rebuilt key ``(y, c + r)`` and
    each threshold's values are summed with list arithmetic, in integers
    over ``D**(H - t)`` for the kernel's least common denominator ``D``.
    """
    mdp = aug.base
    scale = math.lcm(*(p.denominator for rows in mdp.kernel.values() for _, p, _ in rows))
    weighted = {key: tuple((y, int(p * scale), r) for y, p, r in rows)
                for key, rows in mdp.kernel.items()}
    layers = fraction_layers(aug)
    u = {(x, c): tuple(int(c + mdp.salvage[x] >= tau) for tau in taus)
         for x, c in layers[-1]}
    policy = [[] for _ in taus]
    argmax = [[] for _ in taus]
    for t in reversed(range(aug.horizon)):
        nu = {}
        rules = [{} for _ in taus]
        sets = [{} for _ in taus]
        for pair in layers[t]:
            x, c = pair
            acts = mdp.actions[x]
            qs = []
            for a in acts:
                q = [0] * len(taus)
                for y, w, r in weighted[(x, a)]:
                    q = [qk + w * vk for qk, vk in zip(q, u[(y, c + r)])]
                qs.append(q)
            best = tuple(map(max, zip(*qs)))
            nu[pair] = best
            for k, b in enumerate(best):
                ties = tuple(a for a, q in zip(acts, qs) if q[k] == b)
                rules[k][pair] = ties[0]
                sets[k][pair] = ties
        u = nu
        for k in range(len(taus)):
            policy[k].insert(0, rules[k])
            argmax[k].insert(0, sets[k])
    denominator = scale ** aug.horizon
    return [(sum((mdp.mu0[x] * F(u[(x, c)][k], denominator) for x, c in layers[0]),
                 F(0)), tuple(policy[k]), tuple(argmax[k]))
            for k in range(len(taus))]


def numpy_thresholds(aug, taus):
    """The earlier numpy pass over every pair: ``(eta, actions)`` per threshold.

    Every move's successor is looked up by its index in the next slice;
    the pairs of one state form a block of the sorted slice, and each block
    is one numpy step over its ``(pairs, moves, thresholds)`` successor
    values, exact Python ints in ``object`` arrays.
    """
    mdp, k, layers = aug.base, len(taus), fraction_layers(aug)
    successors = []
    for layer, nxt in zip(layers, layers[1:]):
        index = {pair: i for i, pair in enumerate(nxt)}
        successors.append(np.array([index[y, c + r] for x, c in layer for a in mdp.actions[x]
                                    for y, _, r in mdp.kernel[x, a]], dtype=np.intp))
    scale = math.lcm(*(p.denominator for rows in mdp.kernel.values() for _, p, _ in rows))
    weights, slots, choices = [], [], []
    for x, acts in enumerate(mdp.actions):
        rows = [mdp.kernel[x, a] for a in acts]
        weights.append(np.array([[int(p * scale)] for row in rows for _, p, _ in row],
                                dtype=object))
        slots.append(np.cumsum([0] + [len(row) for row in rows[:-1]]))
        choices.append(np.fromiter(acts, dtype=object, count=len(acts)))  # tuples stay whole
    cuts = np.array([math.ceil(tau * aug.scale) for tau in taus], dtype=object)
    totals = [int((c + mdp.salvage[x]) * aug.scale) for x, c in layers[-1]]
    u = np.where(np.array(totals, dtype=object)[:, None] >= cuts, 1, 0).astype(object)
    found = []  # found[t][i]: the witness actions over layers[t] at taus[i]
    for t in reversed(range(aug.horizon)):
        blocks, picks, move = [], [], 0
        for x, block in groupby(x for x, _ in layers[t]):
            n, m = sum(1 for _ in block), len(weights[x])
            values = u[successors[t][move:move + n * m]].reshape(n, m, k) * weights[x]
            q = np.add.reduceat(values, slots[x], axis=1)
            blocks.append(q.max(axis=1))
            picks.append(choices[x][(q == blocks[-1][:, None]).argmax(axis=1)])
            move += n * m
        u = np.concatenate(blocks)
        found.insert(0, np.concatenate(picks).T.tolist())
    mass_scale = math.lcm(*(p.denominator for p in mdp.mu0))
    numerators = sum(int(mdp.mu0[x] * mass_scale) * row for (x, _), row in zip(aug.layers[0], u))
    return [(Fraction(numerators[i], mass_scale * scale ** aug.horizon),
             tuple(tuple(acts[i]) for acts in found)) for i in range(k)]


def assert_matches_reference(aug, taus):
    """The remaining-target pass against the dict induction and the earlier numpy pass."""
    for sol, (eta, policy, _), (np_eta, np_actions) in zip(
            solve_thresholds(aug, taus), reference_thresholds(aug, taus),
            numpy_thresholds(aug, taus), strict=True):
        assert sol.eta == eta == np_eta
        assert sol.policy == policy
        assert sol.actions == np_actions


def reference_sets(mdp, tau):
    """The reference's argmax sets at one threshold, per epoch: pair -> optimal actions."""
    return reference_thresholds(build_augmented(mdp), (F(tau),))[0][2]


def assert_first_of_sets(rule, sets):
    """The tie-broken rule picks the first action of every reference argmax set."""
    assert rule == {pair: ties[0] for pair, ties in sets.items()}


def sure_bounds(mdp):
    """Per epoch and state, by direct recursion: the total the state can guarantee
    (``L``) and the largest total any path collects (``H``), both ``v(x)`` at the end."""
    low = [list(mdp.salvage)]
    high = [list(mdp.salvage)]
    for _ in range(mdp.horizon):
        rows = [[mdp.kernel[x, a] for a in acts] for x, acts in enumerate(mdp.actions)]
        low.insert(0, [max(min(r + low[0][y] for y, _, r in row) for row in by_action)
                       for by_action in rows])
        high.insert(0, [max(r + high[0][y] for row in by_action for y, _, r in row)
                        for by_action in rows])
    return low, high


def path_sums_oracle(mdp):
    """Brute-force cumulative sums along positive-probability paths, per epoch."""
    sums = {0: {(x, F(0)) for x, p in enumerate(mdp.mu0) if p > 0}}
    for t in range(mdp.horizon):
        nxt = set()
        for x, c in sums[t]:
            for a in mdp.actions[x]:
                for y, _, r in mdp.kernel[x, a]:
                    nxt.add((y, c + r))
        sums[t + 1] = nxt
    return sums


def exceedance_oracle(mdp, rules, tau):
    """P(total >= tau) of a reward-dependent policy by direct trajectory recursion."""
    def walk(t, x, c):
        if t == mdp.horizon:
            return F(1) if c + mdp.salvage[x] >= tau else F(0)
        a = rules[t][(x, c)]
        return sum((p * walk(t + 1, y, c + r) for y, p, r in mdp.kernel[x, a]), F(0))
    return sum((p * walk(0, x, F(0)) for x, p in enumerate(mdp.mu0) if p > 0), F(0))


class TestBuildAugmented:
    def test_published_first_slice_pairs(self, short_sas):
        aug = build_augmented(short_sas)
        layer1 = set(aug.layers[1])
        for pair in [(0, F(2)), (0, F(8)), (1, F(0)), (1, F(6)), (2, F(-2))]:
            assert pair in layer1
        # full slice from the formulas
        assert layer1 == {(0, F(0)), (0, F(2)), (0, F(8)), (1, F(-6)), (1, F(0)),
                          (1, F(6)), (2, F(-8)), (2, F(-2)), (3, F(-10))}

    def test_initial_slice_and_mass(self, short_sas):
        aug = build_augmented(short_sas)
        assert aug.layers[0] == ((0, F(0)),)
        assert sum(short_sas.mu0[x] for x, _ in aug.layers[0]) == 1

    def test_zero_reward_collapses_to_base_states(self):
        rng = random.Random(3)
        mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas")
        flat = {k: tuple((y, p, F(0)) for y, p, _ in rows) for k, rows in mdp.kernel.items()}
        from varmdp.mdp import replace
        mdp = replace(mdp, kernel=flat)
        aug = build_augmented(mdp)
        assert {c for layer in aug.layers for _, c in layer} == {F(0)}
        for layer in aug.layers:
            assert all(c == 0 for _, c in layer)

    def test_reachable_sums_match_bruteforce(self):
        # the integer totals over scale are the path sums, whatever the rewards' sign,
        # denominators or size, SAS and SA
        for seed in range(8):
            rng = random.Random(40 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=2)
            for variant in (mdp, simplify_reward(mdp), scaled_rewards(mdp, F(10) ** 4),
                            scaled_rewards(mdp, F(-7, 3))):
                aug = build_augmented(variant)
                oracle = path_sums_oracle(variant)
                for t, layer in enumerate(fraction_layers(aug)):
                    assert set(layer) == oracle[t]
                    assert list(aug.layers[t]) == sorted(aug.layers[t])

    def test_budget_guard(self, short_sas):
        with pytest.raises(BudgetExceededError, match="pairs"):
            build_augmented(short_sas, max_states=3)

    def test_budget_refusal_text(self, short_sas):
        message = "augmented model refused: more than 3 reachable (state, reward) pairs"
        for solve in (lambda: solve_threshold_var(short_sas, 9, max_states=3),
                      lambda: pareto_front_exact(short_sas, max_states=3)):
            with pytest.raises(BudgetExceededError) as info:
                solve()
            assert str(info.value) == message


def inventory_corpus():
    """SAS and SA inventories: capacities 0-11 x horizons {1, 2, 4, 6, 12}, and 14 / 20."""
    sizes = [(cap, h) for cap in range(12) for h in (1, 2, 4, 6, 12)] + [(14, 20)]
    for cap, h in sizes:
        mdp = build_inventory(InventoryParams(horizon=h, capacity=cap))
        yield mdp
        yield simplify_reward(mdp)


def with_rewards(mdp, reward):
    """``mdp`` paying ``reward(y, r)`` in place of ``r`` on each move to ``y``."""
    from varmdp.mdp import replace
    return replace(mdp, kernel={key: tuple((y, p, reward(y, r)) for y, p, r in rows)
                                for key, rows in mdp.kernel.items()})


class TestEncodings:
    def test_bitsets_and_sets_give_the_same_layers(self):
        from varmdp.augmented import _bit_layers, _integer_moves, _lowest_totals, _set_layers
        for mdp in inventory_corpus():
            moves, _, step = _integer_moves(mdp)
            lows = _lowest_totals(mdp, moves, step, math.inf)
            layers = _set_layers(mdp, moves, math.inf)
            assert _bit_layers(mdp, moves, step, lows) == layers
            assert build_augmented(mdp).layers == layers

    def test_budget_refusals_come_from_the_set_pass_alone(self):
        # a pair is a lattice point: where the lattices fit the budget the pairs do too,
        # and a budget the pairs overrun is refused by the set pass, as before
        from varmdp.augmented import _integer_moves, _lowest_totals, _set_layers
        message = "augmented model refused: more than {} reachable (state, reward) pairs"
        for mdp in inventory_corpus():
            moves, _, step = _integer_moves(mdp)
            counts = list(accumulate(map(len, _set_layers(mdp, moves, math.inf))))
            for budget in {counts[0], counts[1] - 1, counts[-1] - 1, counts[-1]}:
                if _lowest_totals(mdp, moves, step, budget) is not None:
                    assert counts[-1] <= budget
                if counts[-1] <= budget:
                    assert build_augmented(mdp, max_states=budget).n_augmented_states == \
                        counts[-1]
                    continue
                with pytest.raises(BudgetExceededError) as built:
                    build_augmented(mdp, max_states=budget)
                with pytest.raises(BudgetExceededError) as by_sets:
                    _set_layers(mdp, moves, budget)
                assert str(built.value) == str(by_sets.value) == message.format(budget)

    def test_wide_lattices_take_the_set_pass(self, monkeypatch):
        import varmdp.augmented as augmented
        from varmdp.augmented import _integer_moves, _set_layers
        dense = build_inventory(InventoryParams(horizon=12, capacity=10))
        wide = [with_rewards(dense, lambda y, r: r * 10 ** 4 + 1),
                with_rewards(dense, lambda y, r: F(10) ** 12 if y == 0 else F(1))]
        passes = []

        def recording(name):
            original = getattr(augmented, name)

            def run(*args):
                passes.append(name)
                return original(*args)
            return run

        for name in ("_bit_layers", "_set_layers"):
            monkeypatch.setattr(augmented, name, recording(name))
        for mdp, taken in ((dense, "_bit_layers"), *((mdp, "_set_layers") for mdp in wide)):
            passes.clear()
            layers = build_augmented(mdp).layers
            assert passes == [taken]
            assert layers == _set_layers(mdp, _integer_moves(mdp)[0], math.inf)
        # rewards times 10**4 plus 1 keep the pairs and widen each state's lattice
        assert build_augmented(wide[0]).n_augmented_states == \
            build_augmented(dense).n_augmented_states == 5352


class TestSolveThreshold:
    def test_sas_value_and_first_action(self, short_sas):
        sol = solve_threshold_var(short_sas, 9)
        assert sol.eta == F(5, 16)
        assert float(sol.eta) == 0.3125
        assert sol.policy[0][(0, F(0))] == 2
        sets = reference_sets(short_sas, 9)
        assert set(sets[0][(0, F(0))]) == {2, 3}
        assert_first_of_sets(sol.policy[0], sets[0])

    def test_sa_value(self, short_sa):
        sol = solve_threshold_var(short_sa, 9)
        assert sol.eta == F(3, 16)
        assert sol.policy[0][(0, F(0))] == 2
        # the published simplified-instance rule at the only winning slice pair
        assert sol.policy[1][(2, F(0))] == 0
        sets = reference_sets(short_sa, 9)
        assert sets[1][(2, F(0))] == (0,)
        assert_first_of_sets(sol.policy[1], sets[1])

    def test_published_tie_sets_at_second_epoch(self, short_sas):
        sol = solve_threshold_var(short_sas, 9)
        sets = reference_sets(short_sas, 9)[1]
        assert set(sets[(0, F(2))]) == {2, 3}      # listed representative: 2
        assert set(sets[(0, F(8))]) == {1, 2}      # published "1 or 2"
        assert set(sets[(1, F(0))]) == {1, 2}      # published "1 or 2"
        assert set(sets[(1, F(6))]) == {0, 1}      # published "0 or 1"
        assert set(sets[(2, F(-2))]) == {0, 1}     # published "0 or 1"
        assert_first_of_sets(sol.policy[1], sets)

    def test_simplification_loses_threshold_value(self, short_sas, short_sa):
        assert solve_threshold_var(short_sas, 9).eta > solve_threshold_var(short_sa, 9).eta

    def test_threshold_below_all_paths_gives_one(self, short_sas):
        assert solve_threshold_var(short_sas, -100).eta == 1

    def test_eta_antitone_in_tau(self, short_sas):
        taus = [F(-20), F(0), F(5), F(15, 2), F(9), F(12), F(20)]
        etas = [solve_threshold_var(short_sas, t).eta for t in taus]
        assert all(a >= b for a, b in zip(etas, etas[1:]))

    def test_eta_antitone_random(self):
        rng = random.Random(77)
        mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=2)
        taus = sorted(rng.randint(-10, 10) for _ in range(6))
        etas = [solve_threshold_var(mdp, t).eta for t in taus]
        assert all(a >= b for a, b in zip(etas, etas[1:]))


class TestPolicyValueConsistency:
    def test_optimal_policy_value_matches_trajectory_oracle(self, short_sas, short_sa):
        for mdp, tau in [(short_sas, F(9)), (short_sa, F(9)), (short_sas, F(15, 2))]:
            sol = solve_threshold_var(mdp, tau)
            assert exceedance_oracle(mdp, sol.policy, tau) == sol.eta

    def test_arbitrary_fixed_policy_matches_oracle(self):
        for seed in range(10):
            rng = random.Random(900 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=2)
            tau = F(rng.randint(-6, 6))
            layers = fraction_layers(build_augmented(mdp))
            rules = tuple({pair: rng.choice(mdp.actions[pair[0]]) for pair in layers[t]}
                          for t in range(mdp.horizon))
            dist = augmented_policy_distribution(mdp, rules)
            assert dist.prob_geq(tau) == exceedance_oracle(mdp, rules, tau)

    def test_simplified_threshold_differs_at_off_grid_tau(self, short_sas, short_sa):
        # the two conventions disagree away from tau=9 as well
        assert solve_threshold_var(short_sas, F(15, 2)).eta == F(11, 16)
        assert solve_threshold_var(short_sa, F(15, 2)).eta == F(5, 16)


class TestIndexInduction:
    def test_matches_dict_induction_on_random_instances(self):
        for seed in range(40):
            rng = random.Random(3000 + seed)
            mdp = random_mdp(rng, n_states=rng.randint(1, 4), horizon=rng.randint(1, 4),
                             reward_kind="sas" if seed % 2 else "sa", max_actions=3)
            aug = build_augmented(mdp)
            on_grid = sorted({c + mdp.salvage[x] for x, c in fraction_layers(aug)[-1]})
            taus = tuple(rng.sample(on_grid, min(3, len(on_grid)))) + (
                F(rng.randint(-40, 40), 8), F(rng.randint(-40, 40), 3),
                on_grid[0] - 1, on_grid[-1] + F(1, 4))
            assert_matches_reference(aug, taus)

    def test_reward_denominators_enter_the_scale(self):
        rng = random.Random(17)
        mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=2)
        assert any(r.denominator == 4 for rows in mdp.kernel.values() for _, _, r in rows)
        aug = build_augmented(mdp)
        assert aug.scale % 4 == 0
        assert all(((c + mdp.salvage[x]) * aug.scale).denominator == 1
                   for x, c in fraction_layers(aug)[-1])
        assert_matches_reference(aug, (F(1, 4), F(-3, 2), F(5, 3)))

    def test_values_beyond_int64(self):
        # kernel denominator 4 at horizon 32: values are integers over 4**32 = 2**64
        mdp = build_inventory(InventoryParams(horizon=32, capacity=1))
        aug = build_augmented(mdp)
        assert 4 ** mdp.horizon > 2 ** 63
        assert_matches_reference(aug, (F(60), F(100), F(241, 2)))

    def test_tuple_actions_stay_whole(self):
        from varmdp.mdp import replace
        rng = random.Random(31)
        mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=3)
        pair = {a: (a, "order") for acts in mdp.actions for a in acts}
        mdp = replace(mdp, actions=tuple(tuple(pair[a] for a in acts) for acts in mdp.actions),
                      kernel={(x, pair[a]): rows for (x, a), rows in mdp.kernel.items()})
        aug = build_augmented(mdp)
        taus = (F(-1), F(0), F(2))
        assert_matches_reference(aug, taus)
        for sol in solve_thresholds(aug, taus):
            assert all(a in pair.values() for acts in sol.actions for a in acts)

    def test_moves_land_in_the_next_layer(self):
        for seed in range(10):
            rng = random.Random(23 + seed)
            mdp = random_mdp(rng, n_states=3, horizon=3, reward_kind="sas", max_actions=3)
            layers = fraction_layers(build_augmented(mdp))
            for t in range(mdp.horizon):
                landed = {(y, c + r) for x, c in layers[t]
                          for a in mdp.actions[x] for y, _, r in mdp.kernel[x, a]}
                assert landed == set(layers[t + 1])

    def test_thresholds_at_the_sure_bounds_match_references(self):
        # every pair's cell sits on a boundary at one of these thresholds: guaranteed at
        # L, not at L + 1 unit, reachable at H and lost at H + 1 unit
        for seed in range(30):
            rng = random.Random(4100 + seed)
            mdp = random_mdp(rng, n_states=rng.randint(1, 4), horizon=rng.randint(1, 3),
                             reward_kind="sas" if seed % 2 else "sa", max_actions=3)
            aug = build_augmented(mdp)
            unit = F(1, aug.scale)
            low, high = sure_bounds(mdp)
            taus = sorted({c + bound[t][x] + extra for t, layer in enumerate(fraction_layers(aug))
                           for x, c in layer
                           for bound, extra in ((low, 0), (low, unit), (high, 0), (high, unit))})
            assert_matches_reference(aug, tuple(taus))

    def test_off_grid_and_negative_taus_match_references(self, short_sas, short_sa):
        for mdp in (short_sas, short_sa):
            aug = build_augmented(mdp)
            assert_matches_reference(aug, (F(-100), F(-11, 2), F(-1, 3), F(0), F(15, 2),
                                           F(9), F(101, 7), F(1000)))
