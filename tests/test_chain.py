"""The plain-float route of ``estimate_cdf`` against ``edgeworth``'s numpy stages."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

import varmdp.chain as chain
import varmdp.edgeworth as edgeworth
from varmdp import (DeterministicPolicy, EdgeworthCdf, ErgodicityError, InventoryParams,
                    MarkovRewardProcess, VarMdpError, build_inventory,
                    enumerate_stationary_policies, estimate_cdf, induced_mrp, paper_long,
                    policy_chain)
from varmdp.documents import mrp_from_document
from varmdp.edgeworth import bfs_levels
from varmdp.mdp import communicating_classes

from conftest import random_mdp, random_transition_mrp
from test_numeric_edges import _documents

F = Fraction
NUMBER = re.compile(r"-?\d\.\d{3}e[+-]\d+")  # a computed float of a refusal text, as %.3e


def numpy_route(mrp, n_steps):
    """A chain past ``PLAIN_STATES``: the stacked stages on ``float_chain``, a stack of one."""
    return edgeworth._estimate_one(n_steps, *edgeworth.float_chain(mrp))


def outcome(route, mrp, n_steps):
    try:
        return route(mrp, n_steps)
    except VarMdpError as exc:
        return exc


def assert_routes_agree(mrp, n_steps=500) -> bool:
    """The same answer or refusal on both routes; True if answered.

    A refusal has the same type and, up to its computed floats, the same
    text.  An answer has the same numbers within 1e-12 of ``max(|number|,
    unit**degree)``, for the chain's reward unit, and the same ``cond_h``
    within 1e-12 of ``max(cond_h, 1)``.
    """
    got, want = outcome(chain.estimate_cdf, mrp, n_steps), outcome(numpy_route, mrp, n_steps)
    if isinstance(want, Exception):
        assert type(got) is type(want)
        assert NUMBER.sub("#", str(got)) == NUMBER.sub("#", str(want))
        return False
    assert type(got) is EdgeworthCdf and got.n_steps == want.n_steps
    R = edgeworth.float_chain(mrp)[1]
    unit = 2.0 ** (math.frexp(float(np.abs(R).max()))[1] - 1)
    for name, degree in zip(chain._NAMES, chain._DEGREES):
        a, b = getattr(got, name), getattr(want, name)
        assert abs(a - b) <= 1e-12 * max(abs(b), unit ** degree), name
    assert abs(got.cond_h - want.cond_h) <= 1e-12 * max(want.cond_h, 1.0)
    return True


def seeded_mrps():
    """Transition- and state-rewarded seeded processes of 1 to 6 states, some sparse."""
    for seed in range(150):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        support = rng.choice([None, 1, 2])
        yield random_transition_mrp(rng, n, 20, with_salvage=seed % 2 == 0,
                                    max_support=support)
        mdp = random_mdp(rng, n_states=n, horizon=20, reward_kind="sa", max_support=support)
        yield induced_mrp(mdp, enumerate_stationary_policies(mdp)[0])


def inventory_chains():
    """Every stationary policy's base and pair-state chain on inventory capacities 2 to 5."""
    for capacity in (2, 3, 4, 5):
        mdp = build_inventory(InventoryParams(horizon=2, capacity=capacity))
        for policy in enumerate_stationary_policies(mdp):
            yield induced_mrp(mdp, policy)
            yield policy_chain(mdp, policy)


def near_split(eps: Fraction, rewards) -> MarkovRewardProcess:
    """Three states, the first two joined only by moves of mass ``eps``."""
    half = F(1, 2)
    kernel = ((1 - eps, eps, 0), (eps, half - eps, half), (0, half, half))
    return MarkovRewardProcess(
        horizon=10, states=("a", "b", "c"), kernel=tuple(tuple(map(F, row)) for row in kernel),
        reward_on="state", state_reward=tuple(map(F, rewards)), transition_reward=None,
        mu0=(F(1), F(0), F(0)))


def test_constants_equal_the_stages():
    names = ("_XI_TOL", "_POISSON_TOL", "_DEGENERATE_SIGMA2", "_NAMES", "_CDF_ZERO_AT_OR_BELOW",
             "_CDF_ONE_AT_OR_ABOVE", "_FLAT")
    assert [getattr(chain, n) for n in names] == [getattr(edgeworth, n) for n in names]
    assert list(chain._DEGREES) == edgeworth._DEGREES.tolist()


def test_routes_agree_on_seeded_processes():
    answered = [assert_routes_agree(mrp) for mrp in seeded_mrps()]
    assert answered.count(True) >= 60 and answered.count(False) >= 60


def test_routes_agree_on_inventory_chains():
    answered = [assert_routes_agree(mrp) for mrp in inventory_chains()]
    assert len(answered) == 2 * (6 + 24 + 120 + 720)
    assert answered.count(True) == 608 and answered.count(False) == 1132


def test_routes_agree_on_numeric_edges():
    refusals = []
    for name, doc in _documents().items():
        if name.startswith("mrp-"):
            mrp = mrp_from_document(doc)
            for n_steps in (0, 100):
                if not assert_routes_agree(mrp, n_steps):
                    refusals.append(str(outcome(chain.estimate_cdf, mrp, n_steps)))
    assert "sigma2 is 4.900e-01 times 2**-1128, 0.000e+00 as a float: the rewards are too " \
           "small for a float estimate" in refusals
    assert "estimate_cdf: n_steps must be >= 1" in refusals


@pytest.mark.parametrize("mrp, words", [
    (near_split(F(1, 10 ** 15), [1, -2, F(1, 2)]), "fundamental kernel is numerically singular"),
    (near_split(F(1, 2 ** 30), [1, -2, F(1, 2)]), "Poisson residual "),
    (near_split(F(1, 4), [F(13, 4)] * 3), "asymptotic variance 0.000e+00 is (numerically) zero"),
    (near_split(F(1, 4), [F(10) ** 300, -F(10) ** 300, 0]),
     "sigma2 is inf: the rewards are too large for a float estimate"),
])
def test_routes_refuse_numeric_failures_alike(mrp, words):
    assert not assert_routes_agree(mrp, 100)
    with pytest.raises(VarMdpError) as refusal:
        estimate_cdf(mrp, 100)
    assert str(refusal.value).startswith(words)


def test_inverse_pivots_and_matches_numpy():
    # a zero leading entry needs a row swap; a singular matrix is refused as numpy refuses it
    assert chain._inverse([[0.0, 2.0], [4.0, 0.0]]) == [[0.0, 0.5], [0.25, 0.0]]
    rng = np.random.default_rng(11)
    for n in (2, 3, 7, 20):
        A = rng.normal(size=(n, n))
        A[0, 0] = 0.0
        got = np.array(chain._inverse(A.tolist())).T  # its columns
        assert np.abs(got - np.linalg.inv(A)).max() <= 1e-12 * np.abs(np.linalg.inv(A)).max()
    with pytest.raises(np.linalg.LinAlgError) as numpy_refusal:
        np.linalg.solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.eye(2))
    with pytest.raises(ErgodicityError,
                       match=f"^stationary solve failed: {numpy_refusal.value}$"):
        chain._inverse([[1.0, 2.0], [2.0, 4.0]])


def lazy_cycle(n: int) -> MarkovRewardProcess:
    """``n`` states on a cycle, each staying put with mass 1/2: irreducible and aperiodic."""
    half = F(1, 2)
    kernel = tuple(tuple(half * ((y == x) + (y == (x + 1) % n)) for y in range(n))
                   for x in range(n))
    return MarkovRewardProcess(
        horizon=10, states=tuple(f"s{x}" for x in range(n)), kernel=kernel, reward_on="state",
        state_reward=tuple(F(x % 3) for x in range(n)), transition_reward=None,
        mu0=(F(1),) + (F(0),) * (n - 1))


def test_route_switches_past_plain_states(monkeypatch):
    routes = []
    monkeypatch.setattr(chain, "_estimate", lambda *args: routes.append("plain"))
    monkeypatch.setattr(edgeworth, "_estimate_one", lambda *args: routes.append("numpy"))
    for n in (chain.PLAIN_STATES, chain.PLAIN_STATES + 1):
        estimate_cdf(lazy_cycle(n), 100)
    assert routes == ["plain", "numpy"]


def test_plain_route_on_a_cycle_of_plain_states_matches_the_stages():
    assert assert_routes_agree(lazy_cycle(chain.PLAIN_STATES))


def test_evaluate_plain_lists_match_numpy_arrays():
    witness = policy_chain(paper_long(500), DeterministicPolicy.from_stationary(
        {0: 2, 1: 0, 2: 0, 3: 0}))
    cdf = estimate_cdf(witness, 500)
    mean, spread = 500 * cdf.zeta, 12 * cdf.sigma * math.sqrt(500)
    taus = np.linspace(mean - spread, mean + spread, 2001)
    plain, stacked = cdf.evaluate(taus.tolist()), cdf.evaluate(taus)
    assert type(plain) is list and type(stacked) is np.ndarray
    assert np.abs(np.array(plain) - stacked).max() <= 1e-15
    assert plain[0] == 0.0 and plain[-1] == 1.0
    assert type(cdf.evaluate(mean)) is float
    assert cdf.evaluate(mean) == pytest.approx(cdf.evaluate(np.array(mean)), abs=1e-15)


def reference_classes(graph: np.ndarray, starts: np.ndarray):
    """Reach by breadth-first search, classes by scipy, the period by levels from the first."""
    reach = np.flatnonzero(bfs_levels(graph, starts) >= 0)
    sub = graph[np.ix_(reach, reach)]
    count, labels = connected_components(sub, directed=True, connection="strong")
    classes = {}
    for x, label in zip(reach.tolist(), labels.tolist()):
        classes.setdefault(label, []).append(x)
    period = None
    if count == 1:
        level = bfs_levels(sub, np.arange(len(reach)) == 0)
        lags = (level[:, None] + 1 - level[None, :])[sub]
        period = int(np.gcd.reduce(lags)) if len(lags) else 0
    return reach.tolist(), list(classes.values()), period


def test_communicating_classes_match_the_reference_on_random_graphs():
    rng = np.random.default_rng(7)
    periods = set()
    for trial in range(400):
        n = int(rng.integers(1, 13))
        graph = rng.random((n, n)) < rng.random() * 0.5
        if trial % 4 == 0:  # a cycle of n states, with extra moves that keep a period
            graph = np.roll(np.eye(n, dtype=bool), 1, axis=1)
        graph[~graph.any(axis=1), 0] = True  # every state moves somewhere
        starts = rng.random(n) < 0.3
        starts[int(rng.integers(n))] = True
        moves = [(np.flatnonzero(row).tolist(), None, None) for row in graph]
        got = communicating_classes(moves, starts.astype(float).tolist())
        assert got == reference_classes(graph, starts), trial
        periods.add(got[2])
    assert {None, 1} < periods and len(periods) > 4
