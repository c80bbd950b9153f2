"""Spectral quantities, third-moment constant, CDF estimates, long-horizon fronts."""

import ast
import json
import logging
import math
import random
import re
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components
from scipy.special import ndtr

import varmdp.cli as cli
import varmdp.edgeworth as edgeworth
from varmdp import (DegenerateVarianceError, DeterministicPolicy, ErgodicityError,
                    FiniteMdp, InventoryParams, PreconditionError, build_inventory,
                    enumerate_stationary_policies, estimate_cdf, estimate_cdf_arrays,
                    induced_mrp, paper_long, pareto_front_long, policy_chain, query_eta,
                    query_rho, simplify_reward, simulate)
from varmdp.documents import mdp_to_document
from varmdp.edgeworth import bfs_levels

from conftest import (CHAIN_STAGES, base_chain, chain_stages, empirical_cdf, normal_reference,
                      random_ergodic_chain, random_mdp, reference_front_long, scaled_rewards)

F = Fraction


@pytest.fixture(scope="module")
def printed_chain(printed_sas):
    """Printed inventory chain under the order-2-then-nothing policy, SA rewards."""
    from varmdp import simplify_reward
    pol = DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0})
    mrp = replace(induced_mrp(simplify_reward(printed_sas), pol), salvage=None)
    P = np.array([[float(p) for p in row] for row in mrp.kernel])
    r = np.array([float(v) for v in mrp.state_reward])
    mu0 = np.array([float(p) for p in mrp.mu0])
    return P, r, mu0, mrp


def iid_chain(xi, r):
    xi = np.asarray(xi, dtype=float)
    return np.tile(xi, (len(xi), 1)), np.asarray(r, dtype=float)


def lag_sum_kappa(P, r, T=None):
    """Reference ``(k1, k2, k3)``: the lag sums at the stationary start, truncated at ``T``.

    Without ``T`` the sums stop at the smallest power of two with
    ``max_x sum_y |P^T - 1 xi|(x, y) <= 1e-12``.
    """
    xi = chain_stages(P, last="stationary_distribution").xi
    rt = r - float(xi @ r)
    if T is None:
        M, T = P.copy(), 1
        while np.abs(M - xi).sum(axis=1).max() > 1e-12:
            M, T = M @ M, 2 * T
    k1 = float((rt ** 3 * xi).sum())
    w, w2, s = rt.copy(), rt * rt, np.zeros_like(rt)
    k2 = 0.0
    for _ in range(T):
        w = P @ w
        w2 = P @ w2
        k2 += float((xi * rt * rt) @ w) + float((xi * rt) @ w2)
        s += w
    v = rt * s
    k3 = 0.0
    for _ in range(T):
        v = P @ v
        k3 += float((xi * rt) @ v)
    return k1, 3.0 * k2, 6.0 * k3


class TestStationaryDistribution:
    def test_symmetric_two_state(self):
        xi = chain_stages(np.full((2, 2), 0.5), last="stationary_distribution").xi
        assert np.allclose(xi, [0.5, 0.5], atol=1e-15)

    def test_inventory_chain_against_power_iteration(self, printed_chain):
        P, _, _, _ = printed_chain
        xi = chain_stages(P, last="stationary_distribution").xi
        mu = np.full(3, 1.0 / 3.0)
        for _ in range(6000):
            mu = mu @ P
        assert np.abs(xi - mu).max() < 1e-12
        assert np.abs(xi @ P - xi).max() <= 1e-12

    def test_lazy_doubly_stochastic_uniform(self):
        Q = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
        P = 0.5 * np.eye(3) + 0.5 * Q
        xi = chain_stages(P, last="stationary_distribution").xi
        assert np.allclose(xi, 1.0 / 3.0, atol=1e-14)

    def test_reducible_rejected_with_classes(self):
        P = np.array([[1.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ErgodicityError, match="2 communicating classes"):
            chain_stages(P, last="stationary_distribution")

    def test_periodic_rejected(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ErgodicityError, match="period 2"):
            chain_stages(P, last="stationary_distribution")

    def test_structural_check_passes_on_positive_kernel(self):
        P, _ = random_ergodic_chain(0, 5)
        chain_stages(P, last="_check_structure")

    def test_residual_bound_random_batch(self):
        for seed in range(20):
            P, _ = random_ergodic_chain(seed, 3 + seed % 4)
            xi = chain_stages(P, last="stationary_distribution").xi
            assert np.abs(xi @ P - xi).max() <= 1e-12
            assert xi.min() >= 0 and abs(xi.sum() - 1) < 1e-14


def reference_ergodic_verdict(P):
    """The former structural check: scipy classes, a queue BFS and a per-edge gcd loop.

    Returns ``("reducible", classes)``, ``("periodic", period)`` or ``("ergodic", 1)``.
    """
    n = P.shape[0]
    n_comp, labels = connected_components(P > 0, directed=True, connection="strong")
    if n_comp != 1:
        return "reducible", sorted(np.nonzero(labels == k)[0].tolist() for k in range(n_comp))
    if n == 1:
        return "ergodic", 1
    dist = np.full(n, -1)
    dist[0] = 0
    queue = [0]
    while queue:
        u = queue.pop(0)
        for v in np.nonzero(P[u] > 0)[0]:
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    g = 0
    for u in range(n):
        for v in np.nonzero(P[u] > 0)[0]:
            g = math.gcd(g, int(dist[u]) + 1 - int(dist[v]))
    return ("ergodic", 1) if abs(g) == 1 else ("periodic", abs(g))


def random_sparse_kernel(gen, n):
    """Row-stochastic kernel on ``n`` states: sparse, cyclic-by-blocks, or block-split."""
    kind = gen.integers(3)
    if kind == 0:                           # sparse, often reducible
        A = gen.random((n, n)) < gen.uniform(0.1, 0.6)
    elif kind == 1:                         # k cyclic blocks: period a multiple of k
        block = gen.integers(gen.integers(1, n + 1), size=n)
        k = int(block.max()) + 1
        A = (block[None, :] == (block[:, None] + 1) % k) & (gen.random((n, n)) < 0.7)
        A |= (gen.random((n, n)) < 0.03)    # an occasional shortcut breaks the period
    else:                                   # two blocks, one-way link: reducible
        cut = gen.integers(n + 1)
        A = gen.random((n, n)) < 0.5
        A[cut:, :cut] = False
    empty = ~A.any(axis=1)
    A[empty, gen.integers(n, size=int(empty.sum()))] = True
    W = A * gen.uniform(0.1, 1.0, size=(n, n))
    return W / W.sum(axis=1, keepdims=True)


class TestErgodicStructure:
    def test_matches_reference_on_random_sparse_kernels(self):
        gen = np.random.default_rng(20)
        seen = set()
        for _ in range(3000):
            P = random_sparse_kernel(gen, int(gen.integers(1, 9)))
            kind, detail = reference_ergodic_verdict(P)
            seen.add(kind if kind != "periodic" else detail)
            try:
                chain_stages(P, last="_check_structure")
                got = ("ergodic", 1)
            except ErgodicityError as exc:
                text = str(exc)
                if "reducible" in text:
                    count, listed = re.search(r"(\d+) communicating classes (.*)$",
                                              text).groups()
                    classes = ast.literal_eval(listed)
                    assert int(count) == len(classes)
                    assert classes == sorted(classes)   # listed by smallest member
                    got = ("reducible", classes)
                else:
                    got = ("periodic", int(re.search(r"period (\d+)$", text).group(1)))
            assert got == (kind, detail), P
        assert {"ergodic", "reducible", 2, 3}.issubset(seen)

    def test_reducible_error_names_class_count(self):
        P = np.array([[0.5, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ErgodicityError,
                           match=r"3 communicating classes \[\[0\], \[1\], \[2\]\]"):
            chain_stages(P, last="_check_structure")


class TestPoisson:
    def test_constant_reward_gives_zero_bias(self):
        P, _ = random_ergodic_chain(1, 4)
        data = chain_stages(P, np.full(4, 3.25), last="spectral_data")
        assert data.zeta == pytest.approx(3.25, abs=1e-13)
        assert np.abs(data.rhat).max() < 1e-12

    def test_iid_chain_closed_form(self):
        P, r = iid_chain([0.3, 0.5, 0.2], [1.0, -2.0, 4.0])
        xi = chain_stages(P, last="stationary_distribution").xi
        data = chain_stages(P, r, last="spectral_data")
        assert np.abs(data.rhat - (r - data.zeta)).max() < 1e-12
        assert data.zeta == pytest.approx(float(xi @ r), abs=1e-14)

    def test_partial_sum_oracle(self):
        P, r = random_ergodic_chain(7, 5)
        data = chain_stages(P, r, last="spectral_data")
        # rhat = sum_{t>=0} (P^t r - zeta), truncated far past mixing
        acc = np.zeros(5)
        v = r.copy()
        for _ in range(4000):
            acc += v - data.zeta
            v = P @ v
        assert np.abs(data.rhat - acc).max() < 1e-6

    def test_residual_and_gauge_random_batch(self):
        for seed in range(20):
            P, r = random_ergodic_chain(100 + seed, 3 + seed % 4)
            data = chain_stages(P, r, last="spectral_data")
            assert np.abs(P @ data.rhat - data.rhat + r - data.zeta).max() <= 1e-10
            assert abs(float(data.xi @ data.rhat)) < 1e-12


class TestAsymptoticVariance:
    def test_iid_chain_is_plain_variance(self):
        P, r = iid_chain([0.25, 0.25, 0.5], [2.0, -1.0, 0.5])
        data = chain_stages(P, r, last="spectral_data")
        var = float((r - data.zeta) ** 2 @ data.xi)
        assert data.sigma2 == pytest.approx(var, abs=1e-12)

    def test_constant_reward_degenerate(self):
        P, _ = random_ergodic_chain(2, 3)
        data = chain_stages(P, np.full(3, -1.5), last="spectral_data")
        assert data.sigma2 == pytest.approx(0.0, abs=1e-12)
        mu0 = np.full(3, 1 / 3)
        with pytest.raises(DegenerateVarianceError):
            estimate_cdf_arrays(P, np.full(3, -1.5), mu0, 100)

    def test_inventory_chain_against_monte_carlo(self, printed_chain):
        # empirical variance of the N-step total over many seeded paths
        P, r, mu0, mrp = printed_chain
        data = chain_stages(P, r, last="spectral_data")
        n_steps, paths = 10_000, 100_000
        totals = simulate(mrp, samples=paths, seed=424_242, n_steps=n_steps)
        empirical = totals.var() / n_steps
        assert empirical == pytest.approx(data.sigma2, rel=0.05)


class TestThirdMomentConstant:
    def test_iid_symmetric_two_point_vanishes(self):
        P, r = iid_chain([0.5, 0.5], [1.0, -1.0])
        res = chain_stages(P, r)
        assert res.kappa == pytest.approx(0.0, abs=1e-12)

    def test_iid_general_is_third_central_moment(self):
        P, r = iid_chain([0.3, 0.5, 0.2], [2.0, -1.0, 0.25])
        xi = chain_stages(P, last="stationary_distribution").xi
        zeta = float(xi @ r)
        res = chain_stages(P, r)
        assert res.kappa == pytest.approx(float(((r - zeta) ** 3) @ xi), abs=1e-12)

    def test_closed_form_matches_lag_sum(self):
        chains = [random_ergodic_chain(200 + n, n) for n in (3, 4, 7, 12, 25, 50)]
        witness = policy_chain(paper_long(),
                               DeterministicPolicy.from_stationary({0: 2, 1: 0, 2: 0, 3: 0}))
        P, R, *_ = edgeworth.float_chain(witness)
        chains.append((P, R[:, 0]))  # a state-rewarded chain pays R[x, y] = r(x)
        for P, r in chains:
            res = chain_stages(P, r)
            assert res.kappa == pytest.approx(sum(lag_sum_kappa(P, r)), rel=1e-9, abs=1e-9)

    def test_matches_exact_cumulant_growth_rate(self, printed_chain):
        # sigma^2 and kappa are the asymptotic growth rates of the exact second
        # and third cumulants of the total; rational forward DP gives those
        # exactly, and the slope between two horizons cancels the O(1) term
        P, r, mu0, mrp = printed_chain
        data = res = chain_stages(P, r)

        def cumulants(n_steps):
            rq = [F(0), F(6), F(8)]
            pq = [[F(p).limit_denominator(64) for p in row] for row in P]
            dist = {(x, F(0)): F(p).limit_denominator(64)
                    for x, p in enumerate(mu0) if p > 0}
            for _ in range(n_steps):
                nxt = {}
                for (x, tot), m in dist.items():
                    for y in range(3):
                        if pq[x][y] > 0:
                            key = (y, tot + rq[x])
                            nxt[key] = nxt.get(key, F(0)) + m * pq[x][y]
                dist = nxt
            mean = sum(m * t for (_, t), m in dist.items())
            return tuple(sum(m * (t - mean) ** k for (_, t), m in dist.items())
                         for k in (2, 3))

        n1, n2 = 16, 24
        (var1, third1), (var2, third2) = cumulants(n1), cumulants(n2)
        assert float(var2 - var1) / (n2 - n1) == pytest.approx(data.sigma2, rel=1e-6)
        assert float(third2 - third1) / (n2 - n1) == pytest.approx(res.kappa, rel=1e-6)


class TestEstimateCdf:
    def test_normal_cdf_matches_scipy_ndtr(self):
        y = np.concatenate([np.linspace(-40.0, 40.0, 400_001), [-0.0, 1e-300, -1e-300]])
        assert np.abs(edgeworth.normal_cdf(y) - ndtr(y)).max() <= 1e-15
        assert edgeworth.normal_cdf(-40.0) == ndtr(-40.0)  # far tail keeps its precision
        assert np.ndim(edgeworth.normal_cdf(0.3)) == 0

    def test_normal_cdf_is_bitwise_half_erfc(self):
        cuts = (edgeworth._CDF_ZERO_AT_OR_BELOW, edgeworth._CDF_ONE_AT_OR_ABOVE)
        near = [v for cut in cuts for v in (np.nextafter(cut, -np.inf), cut,
                                            np.nextafter(cut, np.inf))]
        y = np.concatenate([np.linspace(-45.0, 12.0, 228_001), near,
                            [-np.inf, np.inf, np.nan, -0.0]])
        want = np.array([0.5 * math.erfc(-v / math.sqrt(2.0)) for v in y])
        assert np.array_equal(edgeworth.normal_cdf(y).view(np.int64), want.view(np.int64))
        for v in (0.3, -40.0, 9.0, np.nan):
            got = edgeworth.normal_cdf(v)
            assert np.ndim(got) == 0
            assert np.array_equal(got, 0.5 * math.erfc(-v / math.sqrt(2.0)), equal_nan=True)

    def test_vanishing_correction_is_exactly_normal(self):
        P, r = iid_chain([0.5, 0.5], [1.0, -1.0])
        cdf = estimate_cdf_arrays(P, r, np.array([0.5, 0.5]), 400)
        taus = np.linspace(-80.0, 80.0, 501)
        y = taus / (cdf.sigma * math.sqrt(400))
        assert cdf.kappa == pytest.approx(0.0, abs=1e-12)
        assert cdf.rhat_start == pytest.approx(0.0, abs=1e-12)
        assert np.abs(cdf.evaluate(taus) - ndtr(y)).max() < 1e-12

    def test_value_at_mean_closed_form(self, printed_chain):
        P, r, mu0, _ = printed_chain
        for n in (100, 2_500):
            cdf = estimate_cdf_arrays(P, r, mu0, n)
            gamma0 = 1.0 / math.sqrt(2.0 * math.pi)
            expected = 0.5 + gamma0 / (cdf.sigma * math.sqrt(n)) * (
                cdf.kappa / (6.0 * cdf.sigma2) - cdf.rhat_start)
            assert cdf.evaluate(n * cdf.zeta) == pytest.approx(expected, abs=1e-14)

    def test_non_ergodic_rejected(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ErgodicityError):
            estimate_cdf_arrays(P, np.array([1.0, 2.0]), np.array([1.0, 0.0]), 10)

    def test_normal_limit_decay_rates(self, printed_chain):
        P, r, mu0, _ = printed_chain
        sups = []
        for n in (100, 1_000, 10_000):
            cdf = estimate_cdf_arrays(P, r, mu0, n)
            scale = cdf.sigma * math.sqrt(n)
            taus = n * cdf.zeta + np.linspace(-8.0, 8.0, 2001) * scale
            sups.append(float(np.abs(cdf.evaluate(taus)
                                     - normal_reference(cdf, taus)).max()))
        assert sups[0] > sups[1] > sups[2]
        root10 = math.sqrt(10.0)
        for a, b in zip(sups, sups[1:]):
            assert root10 / 2 <= a / b <= root10 * 2

    def test_shift_covariance(self):
        P, r = random_ergodic_chain(5, 4)
        mu0 = np.array([1.0, 0.0, 0.0, 0.0])
        n = 250
        base = estimate_cdf_arrays(P, r, mu0, n)
        taus = n * base.zeta + np.linspace(-5, 5, 101) * base.sigma * math.sqrt(n)
        for c in (-1.5, 0.75, 2.0):
            shifted = estimate_cdf_arrays(P, r + c, mu0, n)
            assert np.abs(shifted.evaluate(taus + n * c)
                          - base.evaluate(taus)).max() <= 1e-12

    def test_scale_covariance(self):
        P, r = random_ergodic_chain(6, 4)
        mu0 = np.full(4, 0.25)
        n = 250
        base = estimate_cdf_arrays(P, r, mu0, n)
        taus = n * base.zeta + np.linspace(-5, 5, 101) * base.sigma * math.sqrt(n)
        for s in (0.25, 0.5, 3.0):
            scaled = estimate_cdf_arrays(P, s * r, mu0, n)
            assert np.abs(scaled.evaluate(s * taus) - base.evaluate(taus)).max() <= 1e-12

    def test_slow_mixing_chain_is_estimated(self):
        # second eigenvalue 0.9991: P^T reaches its limit too slowly for a
        # truncated lag sum, the closed form needs no mixing time
        a, b = 5e-4, 4e-4
        P = np.array([[1 - a, a], [b, 1 - b]])
        r = np.array([1.0, -1.0])
        cdf = estimate_cdf_arrays(P, r, np.array([1.0, 0.0]), 10_000)
        values = cdf.evaluate(np.linspace(-2_000.0, 2_000.0, 41))
        assert np.isfinite(values).all() and np.isfinite(cdf.rhat_start)
        # two-state closed form: sigma^2 = d^2 ab (2 - a - b) / (a + b)^3
        assert cdf.sigma2 == pytest.approx(4 * a * b * (2 - a - b) / (a + b) ** 3, rel=1e-9)
        assert cdf.kappa == pytest.approx(sum(lag_sum_kappa(P, r, T=2 ** 16)), rel=1e-9)

    def test_one_stationary_solve_per_estimate(self, printed_chain, monkeypatch):
        # each traced stage runs once per stack: once for a one-chain estimate, and
        # on the FULL capacity-5 front once per chain size (1 to 6 states) and once
        # for the exact chain of its one witness; so does the one linear solve, whose
        # inverse is the fundamental kernel
        calls, solves = [], []
        solve = np.linalg.solve

        def counted_solve(*args):
            solves.append(args[0].shape)
            return solve(*args)

        def second_factorization(*args, **kwargs):
            raise AssertionError("the stationary solve already gives the fundamental kernel")

        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        for name in ("cond", "inv"):
            monkeypatch.setattr(np.linalg, name, second_factorization)

        def counted(name, stage):
            def run(st):
                calls.append(name)
                return stage(st)
            return run

        for name in CHAIN_STAGES[1:]:
            monkeypatch.setattr(edgeworth, name, counted(name, getattr(edgeworth, name)))
        P, r, mu0, _ = printed_chain
        estimate_cdf_arrays(P, r, mu0, 500)
        assert calls == list(CHAIN_STAGES[1:]) and solves == [(1, 3, 3)]
        calls.clear()
        solves.clear()
        mdp = build_inventory(InventoryParams(horizon=500, capacity=5))
        pareto_front_long(mdp, 500, np.linspace(2000, 3000, 2501))
        assert calls == list(CHAIN_STAGES[1:]) * 7 and len(solves) == 7


def two_policy_mdp():
    """2 states; state 0 chooses between a lazy and a jumpy kernel."""
    half, third = F(1, 2), F(1, 3)
    kernel = {
        (0, 0): ((0, F(3, 4), F(1, 3)), (1, F(1, 4), F(1, 3))),
        (0, 1): ((0, third, F(-5, 7)), (1, 1 - third, F(-5, 7))),
        (1, 0): ((0, half, F(9, 5)), (1, half, F(9, 5))),
    }
    return FiniteMdp(horizon=400, states=("a", "b"), actions=((0, 1), (0,)),
                     kernel=kernel, reward_kind="sa",
                     mu0=(F(1), F(0)), salvage=(F(0), F(0)))


class TestParetoFrontLong:
    def test_single_policy_front_equals_its_cdf(self):
        P = np.array([[0.6, 0.4], [0.3, 0.7]])
        kernel = ((F(3, 5), F(2, 5)), (F(3, 10), F(7, 10)))
        mdp = FiniteMdp(horizon=300, states=("a", "b"), actions=((0,), (0,)),
                        kernel={(0, 0): ((0, F(3, 5), F(1)), (1, F(2, 5), F(1))),
                                (1, 0): ((0, F(3, 10), F(-2)), (1, F(7, 10), F(-2)))},
                        reward_kind="sa",
                        mu0=(F(1), F(0)), salvage=(F(0), F(0)))
        only = policy_chain(mdp, DeterministicPolicy.from_stationary({0: 0, 1: 0}))
        cdf = estimate_cdf(only, 300)
        scale = cdf.sigma * math.sqrt(300)
        taus = 300 * cdf.zeta + np.linspace(-4, 4, 81) * scale
        front = pareto_front_long(mdp, 300, taus)
        assert np.abs(np.asarray(front.value) - cdf.evaluate(taus)).max() < 1e-15
        assert set(front.witness) == {0}

    def test_two_policy_front_against_monte_carlo(self):
        mdp = two_policy_mdp()
        n = 400
        chains = [policy_chain(mdp, DeterministicPolicy.from_stationary({0: a, 1: 0}))
                  for a in (0, 1)]
        cdfs = [estimate_cdf(ch, n) for ch in chains]
        lo = min(n * c.zeta - 4 * c.sigma * math.sqrt(n) for c in cdfs)
        hi = max(n * c.zeta + 4 * c.sigma * math.sqrt(n) for c in cdfs)
        taus = np.linspace(lo, hi, 161)
        front = pareto_front_long(mdp, n, taus)
        empirical = [simulate(ch, samples=120_000, seed=50 + i)
                     for i, ch in enumerate(chains)]
        mc_min = np.minimum(empirical_cdf(empirical[0])(taus),
                            empirical_cdf(empirical[1])(taus))
        assert np.abs(np.asarray(front.value) - mc_min).max() <= 0.02

    def test_non_ergodic_policy_skipped_with_warning(self, caplog):
        mdp = two_policy_mdp()
        # make action 1 at state 0 absorbing: the restricted chain is a
        # constant-reward singleton, refused for degenerate variance
        kernel = dict(mdp.kernel)
        kernel[(0, 1)] = ((0, F(1), F(-5, 7)),)
        bad = replace(mdp, kernel=kernel)
        taus = np.linspace(0, 800, 41)
        with caplog.at_level(logging.WARNING, logger="varmdp.edgeworth"):
            front = pareto_front_long(bad, 400, taus)
        assert "skipped" in caplog.text
        assert set(front.witness) == {0}

    def test_all_policies_rejected(self):
        mdp = FiniteMdp(horizon=10, states=("a", "b"), actions=((0,), (0,)),
                        kernel={(0, 0): ((0, F(1), F(1)),), (1, 0): ((1, F(1), F(2)),)},
                        reward_kind="sa",
                        mu0=(F(1, 2), F(1, 2)), salvage=(F(0), F(0)))
        with pytest.raises(ErgodicityError, match="no stationary policy"):
            pareto_front_long(mdp, 100, np.linspace(0, 20, 11))

    @pytest.mark.parametrize("grid", [[100, math.nan, 200], [100, 200, math.inf],
                                      [-math.inf, 0]])
    def test_non_finite_grid_refused_before_estimating(self, monkeypatch, grid):
        monkeypatch.setattr(edgeworth, "policy_stacks", None)  # estimating would raise TypeError
        with pytest.raises(PreconditionError) as info:
            pareto_front_long(paper_long(50), 50, grid)
        assert str(info.value) == "pareto_front_long: grid must be finite"

    @pytest.mark.parametrize("grid", [[0, 2, 1], [0, 0, 1], [100]])
    def test_non_increasing_grid_refused_before_estimating(self, monkeypatch, grid):
        monkeypatch.setattr(edgeworth, "policy_stacks", None)
        with pytest.raises(PreconditionError) as info:
            pareto_front_long(paper_long(50), 50, grid)
        assert str(info.value) == "pareto_front_long: grid must be strictly increasing"

    def test_front_queries_invert(self):
        # grid kept inside the bulk so the min envelope is strictly increasing
        # (in the far tails the envelope saturates at 0/1 and has no inverse)
        mdp = two_policy_mdp()
        n = 400
        chains = [policy_chain(mdp, DeterministicPolicy.from_stationary({0: a, 1: 0}))
                  for a in (0, 1)]
        cdfs = [estimate_cdf(ch, n) for ch in chains]
        lo = max(n * c.zeta - 2.8 * c.sigma * math.sqrt(n) for c in cdfs)
        hi = max(n * c.zeta + 3.0 * c.sigma * math.sqrt(n) for c in cdfs)
        front = pareto_front_long(mdp, n, np.linspace(lo, hi, 301))
        assert all(a < b for a, b in zip(front.value, front.value[1:]))
        for alpha in (0.1, 0.5, 0.9):
            rho = query_rho(front, alpha)
            assert query_eta(front, rho) == pytest.approx(alpha, abs=1e-9)


def test_monotone_guard_lifts_far_tail_dips_on_paper_long():
    # In two far-tail cells the pointwise minimum of the per-policy estimates
    # dips below the cell before; without np.maximum.accumulate in
    # pareto_front_long, ParetoFront refuses the front as decreasing.
    mdp, taus = paper_long(), np.linspace(1000, 3000, 2001)
    raw = np.full(len(taus), np.inf)
    for policy in enumerate_stationary_policies(mdp):
        try:
            cdf = estimate_cdf_arrays(*base_chain(mdp, policy)[:3], 500)
        except (ErgodicityError, DegenerateVarianceError):
            continue
        raw = np.minimum(raw, cdf.evaluate(taus))
    assert np.count_nonzero(np.diff(raw) < 0) == 2
    front = pareto_front_long(mdp, 500, taus)
    assert np.array_equal(front.value, np.maximum.accumulate(raw))


def assert_front_matches_reference(caplog, mdp, n_steps, taus):
    """The stacked front equals the per-policy loop: values, witnesses, listings, skips."""
    want, skipped = reference_front_long(mdp, n_steps, taus)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="varmdp.edgeworth"):
        if want is None:
            with pytest.raises(ErgodicityError, match="no stationary policy"):
                pareto_front_long(mdp, n_steps, taus)
        else:
            assert pareto_front_long(mdp, n_steps, taus) == want
    assert caplog.messages == (["\n".join(skipped)] if skipped else [])  # one record
    return want


@pytest.mark.parametrize("name, mdp, grid", [
    ("paper-long", paper_long(), (1700, 2600, 901)),
    ("capacity-5", build_inventory(InventoryParams(horizon=500, capacity=5)),
     (2000, 3000, 501)),
    ("paper-long-sa", simplify_reward(paper_long()), (1700, 2600, 901)),
    ("capacity-5-full", build_inventory(InventoryParams(horizon=500, capacity=5)),
     (2000, 3000, 2501)),
])
def test_float_front_matches_exact_path_reference(caplog, name, mdp, grid):
    front = assert_front_matches_reference(caplog, mdp, 500, np.linspace(*grid))
    assert len(front.policies) >= 1


def test_front_names_reducible_classes_by_mdp_state(caplog, tmp_path):
    # policy 221 of capacity 5 reaches states 0, 1, 3, 4 and 5; its classes are named by
    # those indices, not by their positions among the reachable states
    mdp = build_inventory(InventoryParams(horizon=500, capacity=5))
    line = "policy 221 skipped: chain is reducible: 3 communicating classes [[0], [1], [3, 4, 5]]"
    _, messages = run_front(caplog, mdp, 500, np.linspace(2000, 3000, 501))
    assert len(messages) == 1 and messages[0].split("\n").count(line) == 1
    doc = tmp_path / "capacity-5.json"
    doc.write_text(json.dumps(mdp_to_document(mdp)))
    argv = ["pareto-long", str(doc), "--horizon", "500", "--grid=2000:3000:501",
            "-o", str(tmp_path / "front.csv")]
    script = f"import sys; from varmdp.cli import main; sys.exit(main({argv!r}))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines().count(line) == 1


def seeded_random_mdps(reward_kind):
    """100 seeded random MDPs of 1 to 4 states, up to 3 actions, some with sparse rows."""
    for seed in range(100):
        rng = random.Random(seed)
        yield random_mdp(rng, n_states=rng.randint(1, 4), horizon=3, reward_kind=reward_kind,
                         max_actions=3, max_support=rng.choice([None, None, 2]))


@pytest.mark.parametrize("reward_kind", ["sas", "sa"])
def test_stacked_front_matches_per_policy_loop_on_random_mdps(caplog, reward_kind):
    # the chains group by their count of reachable states
    taus = np.linspace(-1700.0, 1700.0, 681)
    fronts = sum(assert_front_matches_reference(caplog, mdp, 200, taus) is not None
                 for mdp in seeded_random_mdps(reward_kind))
    assert fronts >= 50


def test_pair_chain_and_base_chain_give_the_same_estimate():
    # The paper's claim: the pair-state chain pays the same total as the transition-rewarded
    # chain, so estimating it must refuse the same policies and give the same numbers.
    mdps = [build_inventory(InventoryParams(horizon=500, capacity=c)) for c in (3, 4, 5)]
    counts = {"estimated": 0, "refused": 0}
    for mdp in [*mdps, *seeded_random_mdps("sas")]:
        routed = replace(mdp, horizon=2)  # the least horizon the transformation accepts
        for policy in enumerate_stationary_policies(mdp):
            outcomes = []
            for chain in (edgeworth.float_chain(policy_chain(routed, policy))[:3],
                          base_chain(mdp, policy)[:3]):
                try:
                    cdf = estimate_cdf_arrays(*chain, 500)
                except (ErgodicityError, DegenerateVarianceError) as exc:
                    outcomes.append(type(exc))
                else:
                    outcomes.append(np.array([cdf.zeta, cdf.sigma2, cdf.kappa, cdf.rhat_start]))
            pair, base = outcomes
            if isinstance(base, type) or isinstance(pair, type):
                assert pair is base, policy
                counts["refused"] += 1
                continue
            assert (np.abs(pair - base) <= 1e-12 * np.maximum(1.0, np.abs(base))).all(), policy
            counts["estimated"] += 1
    assert counts["estimated"] >= 700 and counts["refused"] >= 950


def test_closure_reaches_what_breadth_first_search_reaches():
    # float_chain keeps the states the closure reaches from mu0's support: the ones a
    # breadth-first search reaches, a path of n states (n - 1 levels deep) included
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5, 16, 33):
        graphs = rng.random((30, n, n)) < rng.random((30, 1, 1)) * 0.3
        graphs[0] = np.eye(n, k=1, dtype=bool)
        reach = edgeworth._closure(graphs)
        for source in range(n):
            assert np.array_equal(reach[:, source], bfs_levels(graphs, np.arange(n) == source) >= 0)


def test_stacked_chains_fail_alone(monkeypatch):
    """One stack holds a chain failing each numeric check and healthy chains around them.

    Each failing chain gets the error its one-chain estimate raises, and the
    healthy ones the one-chain estimates, bit for bit, as in a stack of their own.
    """
    # off for every chain, so that the identity kernel reaches the solve and makes it singular
    monkeypatch.setattr(edgeworth, "_check_structure", lambda st: st)

    def near_split(eps):
        return np.array([[1 - eps, eps, 0.0], [eps, 0.5 - eps, 0.5], [0.0, 0.5, 0.5]])

    two_cycles = np.array([[0.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 0.0, 0.0]])
    telescoping = np.array([1.0, -1.0, 0.0])  # cycle means zero: sigma^2 = 0 exactly
    chains = [random_ergodic_chain(seed, 3) for seed in range(4)]
    cases = [
        (*chains[0], None),
        (np.eye(3), np.ones(3), "stationary solve failed: "),
        (*chains[1], None),
        (near_split(1e-15), np.array([1.0, -2.0, 0.5]),
         "fundamental kernel is numerically singular"),
        (near_split(2.0 ** -30), np.array([1.0, -2.0, 0.5]), "Poisson residual "),
        (two_cycles, 1e4 * telescoping, "asymptotic variance "),
        (chains[3][0], np.full(3, 3.25), "asymptotic variance 0.000e+00 is (numerically) zero"),
        (*chains[3], None),
    ]
    P, r, _ = (np.array(column) for column in zip(*cases))
    mu0 = np.full((len(cases), 3), 1 / 3)
    stack = edgeworth._estimate_stack(P, r, mu0)
    healthy = [i for i, case in enumerate(cases) if case[2] is None]
    alone = edgeworth._estimate_stack(P[healthy], r[healthy], mu0[healthy])
    assert stack.ids.tolist() == healthy and sorted(stack.errors) == sorted(
        set(range(len(cases))) - set(healthy))
    assert "is (numerically) zero" in str(stack.errors[5])
    for i, (Pi, ri, prefix) in enumerate(cases):
        try:
            want = estimate_cdf_arrays(Pi, ri, mu0[i], 100)
        except (ErgodicityError, DegenerateVarianceError) as exc:
            got = stack.errors[i]
            assert type(got) is type(exc) and str(got) == str(exc)
            assert str(got).startswith(prefix)
            continue
        j, k = stack.ids.tolist().index(i), healthy.index(i)
        for st, m in ((stack, j), (alone, k)):
            assert st.numbers[m].tolist() == [want.zeta, want.sigma2, want.kappa, want.rhat_start]
    h = np.array([0.0, 1e4, 2e4])  # paid per move as h(x) - h(y), the total telescopes
    with pytest.raises(DegenerateVarianceError, match=r"is \(numerically\) zero"):
        estimate_cdf_arrays(two_cycles, h[:, None] - h[None, :], mu0[5], 100)


def test_witness_chain_mismatch_is_refused(monkeypatch, tmp_path, capsys):
    mdp = two_policy_mdp()
    doc = tmp_path / "mdp.json"
    doc.write_text(json.dumps(mdp_to_document(mdp)))
    exact = edgeworth.float_chain
    cases = [
        # moves zeta by 1e-6, past the check's 1e-9 * max(|zeta|, 1), 1 the reward scale
        (lambda P, R: (P, R + 1e-6), "policy 0: base-chain estimate differs from its exact "
                                     "chain's by 1.000e-06 of max(|number|, its reward unit), "
                                     "beyond 1e-9"),
        (lambda P, R: (np.eye(len(P)), R), "policy 0: its exact chain is refused: chain is "
                                           "reducible: 2 communicating classes [[0], [1]]"),
    ]
    for change, message in cases:
        def changed(mrp, change=change):
            P, R, mu0, states = exact(mrp)
            return *change(P, R), mu0, states

        monkeypatch.setattr(edgeworth, "float_chain", changed)
        with pytest.raises(ErgodicityError) as refusal:
            pareto_front_long(mdp, 400, np.linspace(0, 800, 41))
        assert str(refusal.value) == message
        assert cli.main(["pareto-long", str(doc), "--horizon", "400", "--grid=0:800:41"]) == 5
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("factor", [F(1), F(1, 2 ** 30)])
def test_witness_recheck_does_not_depend_on_the_reward_unit(monkeypatch, factor):
    # rewards 1 + 1e-6 times larger on the exact chain move every number by a relative
    # 1e-6 or more, which is refused at any reward unit, the smallest included
    exact = edgeworth.float_chain

    def changed(mrp):
        P, R, mu0, states = exact(mrp)
        return P, R * (1 + 1e-6), mu0, states

    mdp = scaled_rewards(two_policy_mdp(), factor)
    taus = np.linspace(0, 800, 41) * float(factor)
    pareto_front_long(mdp, 400, taus)
    monkeypatch.setattr(edgeworth, "float_chain", changed)
    with pytest.raises(ErgodicityError, match=r"^policy 0: base-chain estimate differs .* "
                                              r"by [1-9]\.\d{3}e-06 of max"):
        pareto_front_long(mdp, 400, taus)


@pytest.mark.parametrize("factor", [F(2 ** 20), F(1, 2 ** 24)])
def test_front_does_not_depend_on_the_reward_unit(caplog, factor):
    # each chain is estimated in units of its largest |reward|, a power of two away, so
    # that the checks' tolerances scale with the rewards and the numbers scale exactly
    mdp = build_inventory(InventoryParams(horizon=500, capacity=3))
    taus = np.linspace(900, 2100, 1001)
    want, want_messages = run_front(caplog, mdp, 500, taus)
    front, messages = run_front(caplog, scaled_rewards(mdp, factor), 500, taus * float(factor))
    assert front.value == want.value and front.witness == want.witness
    assert front.policies == want.policies

    def skipped(lines):
        return re.findall(r"^policy (\d+) skipped", "\n".join(lines), re.MULTILINE)

    assert skipped(messages) == skipped(want_messages) and len(skipped(messages)) == 9


@pytest.mark.parametrize("reward_kind", ["sas", "sa"])
def test_float_chain_arrays_equal_exact_path(monkeypatch, reward_kind):
    monkeypatch.setattr(edgeworth, "_STACK_CELLS", 64)  # stacks of 64 one-state chains, 2 of 5
    checked = 0
    for seed in range(60):
        rng = random.Random(seed)
        mdp = random_mdp(rng, n_states=rng.randint(1, 5), horizon=3,
                         reward_kind=reward_kind, max_actions=3,
                         max_support=rng.choice([None, 1, 2]))
        policies = enumerate_stationary_policies(mdp)
        slots = edgeworth.policy_slots(mdp)
        assert [[mdp.actions[x][k] for x, k in enumerate(row)] for row in slots.tolist()] \
            == [[policy.action(0, x) for x in range(mdp.n_states)] for policy in policies]
        seen = []
        for pids, *stacked, states in edgeworth.policy_stacks(mdp):
            size = states.shape[-1]
            assert stacked[0].shape == (len(pids), size, size)
            assert len(pids) * size * size <= 64
            seen.extend(pids.tolist())
            for g, pid in enumerate(pids):
                got = [a[g] for a in (*stacked, states)]
                want = base_chain(mdp, policies[pid])
                for a, b in zip(got, want):
                    assert a.shape == b.shape and np.array_equal(a, b)
                checked += 1
        assert sorted(seen) == list(range(len(policies)))
    assert checked > 200


def dense_front_minimum(n_steps, params, taus):
    """Every (row, tau) cell of ``_edgeworth_values``, in blocks: the reference minimum.

    The least value at each tau and its earliest row; a NaN value never
    wins, and a tau where every value is NaN keeps ``inf`` and row -1.
    """
    best = np.full(len(taus), np.inf)
    witness = np.full(len(taus), -1)
    block = max(1, edgeworth._EVAL_CELLS // len(taus))
    for first in range(0, len(params), block):
        values = edgeworth._edgeworth_values(n_steps, *params[first:first + block].T[..., None],
                                             taus)
        values[np.isnan(values)] = np.inf
        low = values.argmin(axis=0)  # the earliest row of the block on ties
        value = values[low, np.arange(len(taus))]
        improved = value < best
        best = np.where(improved, value, best)
        witness = np.where(improved, first + low, witness)
    return best, witness


def random_params(rng, rows, sigma2=None):
    """Rows of (zeta, sigma2, kappa, rhat_start) spread around totals of 2,000 to 3,000."""
    sigma2 = 10.0 ** rng.uniform(-2, 2, rows) if sigma2 is None else np.full(rows, sigma2)
    kappa = rng.normal(0.0, 2.0, rows) * sigma2 ** 1.5
    return np.column_stack([rng.uniform(4.0, 6.0, rows), sigma2, kappa,
                            rng.normal(0.0, 3.0, rows)])


def knot_params(rng, rows):
    """Rows with ``y = tau`` exactly at ``n_steps = 1``, and corrections of every size."""
    params = random_params(rng, rows)
    params[:, 0], params[:, 1] = 0.0, 1.0
    params[:, 2] *= 10.0 ** rng.uniform(-3, 2, rows)
    params[:, 3] *= 10.0 ** rng.uniform(-3, 0, rows)
    return params


EDGES = (edgeworth._CDF_ZERO_AT_OR_BELOW, edgeworth._CDF_ONE_AT_OR_ABOVE)
ON_KNOTS = np.unique(np.concatenate([
    np.arange(-640, 140) / 16.0,
    [v for edge in EDGES for v in (np.nextafter(edge, -np.inf), edge, np.nextafter(edge, np.inf))],
    np.nextafter(np.arange(-40, 10) / 2.0, -np.inf)]))


def seeded_params(seed):
    """A seeded table with NaN rows, duplicated rows and corrections of a random size."""
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(1, 60))
    params = random_params(rng, rows)
    params[rng.random(rows) < 0.1] = np.nan
    params[np.sort(rng.integers(0, rows, rows // 4))] = params[rng.integers(0, rows, rows // 4)]
    params[:, 2:] *= 10.0 ** rng.uniform(-2, 3)
    lo = rng.uniform(1500.0, 3000.0)
    return params, np.linspace(lo, lo + rng.uniform(1.0, 800.0), int(rng.integers(2, 900)))


def front_minimum_cases():
    """(name, n_steps, params, taus) tables that the screened minimum must match densely."""
    rng = np.random.default_rng(24)
    mixed = random_params(rng, 40)
    mixed[[3, 17]] = np.nan
    mixed[25, 2] = np.nan  # one NaN field: the whole row is NaN
    mixed[[30, 35, 39]] = mixed[[5, 5, 12]]  # duplicates: the earliest wins
    wide = random_params(rng, 30)
    wide[:, 2] *= 1e3  # corrections past 0 and 1: clipped ties
    wide[:, 3] *= 1e2
    taus = np.linspace(2000.0, 3000.0, 2501)
    return [
        ("mixed", 500, mixed, taus),
        ("clipped corrections", 500, wide, taus),
        ("below every tail", 500, mixed, np.linspace(-5e4, -4e4, 301)),
        ("above every tail", 500, mixed, np.linspace(1e5, 2e5, 301)),
        ("knots and cut-offs", 1, knot_params(rng, 12), ON_KNOTS),
        ("knots, duplicated", 1, np.repeat(knot_params(rng, 4), 3, axis=0), ON_KNOTS),
        ("one policy, two points", 500, random_params(rng, 1), np.array([2400.0, 2600.0])),
        ("two points", 500, mixed, np.array([2450.0, 2500.0])),
        ("sigma2 1e-10", 500, random_params(rng, 25, 1e-10),
         np.linspace(2400.0, 2600.0, 2001)),
        ("sigma2 1e6", 500, random_params(rng, 25, 1e6), np.linspace(-4e4, 4e4, 2001)),
        ("all NaN", 500, np.full((3, 4), np.nan), taus[:50]),
        ("many rows", 500, np.concatenate([random_params(rng, 300), mixed]), taus[::7]),
        ("past the overflow of y * y", 500, mixed, np.concatenate(  # |y| > 4e155 in the tails
            [-np.geomspace(1e300, 1e158, 50), taus[::50], np.geomspace(1e158, 1e300, 50)])),
        *((f"seed {seed}", 500, *seeded_params(seed)) for seed in range(30)),
    ]


FRONT_MINIMUM_CASES = front_minimum_cases()


@pytest.mark.parametrize("name, n_steps, params, taus", FRONT_MINIMUM_CASES,
                         ids=[case[0] for case in FRONT_MINIMUM_CASES])
def test_screened_minimum_equals_dense_minimum(name, n_steps, params, taus):
    best, witness = edgeworth._front_minimum(n_steps, params, taus)
    want_best, want_witness = dense_front_minimum(n_steps, params, taus)
    assert np.array_equal(best.view(np.int64), want_best.view(np.int64))
    assert witness.tolist() == want_witness.tolist()


def test_front_sends_few_cells_to_normal_cdf(monkeypatch):
    # The dense minimum sends all 228 estimated policies x 2,501 thresholds
    # (570,228 cells) of the capacity-5 front through normal_cdf.
    cells = []
    normal = edgeworth.normal_cdf

    def counting(y):
        cells.append(np.size(y))
        return normal(y)

    monkeypatch.setattr(edgeworth, "normal_cdf", counting)
    mdp = build_inventory(InventoryParams(horizon=500, capacity=5))
    pareto_front_long(mdp, 500, np.linspace(2000, 3000, 2501))
    assert 0 < sum(cells) <= 570_228 // 10


def run_front(caplog, mdp, n_steps, taus):
    """The front (None when no policy is estimated) and its logged messages."""
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="varmdp.edgeworth"):
        try:
            front = pareto_front_long(mdp, n_steps, taus)
        except ErgodicityError:
            front = None
    return front, list(caplog.messages)


def test_sub_stacks_of_one_and_many_chains_give_the_same_front(caplog, monkeypatch):
    cases = [(build_inventory(InventoryParams(horizon=500, capacity=c)), 500,
              np.linspace(1700, 3000, 651)) for c in (3, 4, 5)]
    for reward_kind in ("sas", "sa"):  # the MDPs of the per-policy loop test
        cases.extend((mdp, 200, np.linspace(-1700.0, 1700.0, 681))
                     for mdp in seeded_random_mdps(reward_kind))
    defaults = [run_front(caplog, *case) for case in cases]
    stacks = []
    estimate = edgeworth._estimate_stack

    def recording(P, *arrays):
        stacks.append(len(P))
        return estimate(P, *arrays)

    monkeypatch.setattr(edgeworth, "_estimate_stack", recording)
    monkeypatch.setattr(edgeworth, "_STACK_CELLS", 64)  # 64 one-state chains, 4 of 4 states
    for case, want in zip(cases, defaults):
        assert run_front(caplog, *case) == want
    assert stacks.count(1) > 10 and max(stacks) == 64
