"""Shared fixtures: paper presets, exact-rational random instance generators,
test-only helpers (CDF distances, derived quantities of library objects, one
chain run through the estimate's stages) and the per-policy long-horizon
front loop that the stacked front is checked against."""

import math
import os
import random
import threading
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import varmdp.edgeworth as edgeworth
from varmdp import (DegenerateVarianceError, ErgodicityError, FiniteMdp, MarkovRewardProcess,
                    ParetoFront, PreconditionError, StepCdf, enumerate_stationary_policies,
                    induced_mrp, paper_short, paper_short_printed, simplify_reward, transform)
from varmdp.edgeworth import normal_cdf
from varmdp.mdp import replace

ZERO = Fraction(0)
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def _src_on_child_path():
    """Child interpreters of the CLI tests import varmdp from this checkout too."""
    with pytest.MonkeyPatch.context() as mp:
        paths = [SRC, os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture
def thread_starts(monkeypatch) -> list:
    """The threads started while the test runs, in order."""
    starts = []
    start = threading.Thread.start

    def counting_start(thread):
        starts.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return starts


@pytest.fixture(scope="session")
def short_sas() -> FiniteMdp:
    return paper_short()


@pytest.fixture(scope="session")
def short_sa(short_sas) -> FiniteMdp:
    return simplify_reward(short_sas)


@pytest.fixture(scope="session")
def printed_sas() -> FiniteMdp:
    return paper_short_printed()


@pytest.fixture(scope="session")
def printed_sa(printed_sas) -> FiniteMdp:
    return simplify_reward(printed_sas)


def random_distribution(rng: random.Random, n: int, max_support: int | None = None):
    """Exact rational probability vector with random support."""
    k = rng.randint(1, n if max_support is None else min(max_support, n))
    support = rng.sample(range(n), k)
    weights = [rng.randint(1, 4) for _ in support]
    total = sum(weights)
    probs = [ZERO] * n
    for idx, w in zip(support, weights):
        probs[idx] = Fraction(w, total)
    return probs


def random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-8, 8), rng.choice([1, 1, 2, 4]))


def random_mdp(rng: random.Random, n_states: int = 3, horizon: int = 2,
               reward_kind: str = "sas", max_actions: int = 2,
               max_support: int | None = None) -> FiniteMdp:
    states = tuple(f"s{i}" for i in range(n_states))
    actions = tuple(tuple(range(rng.randint(1, max_actions))) for _ in range(n_states))
    kernel = {}
    for x in range(n_states):
        for a in actions[x]:
            probs = random_distribution(rng, n_states, max_support)
            sas = [(y, p, random_rational(rng)) for y, p in enumerate(probs) if p > 0]
            sa = random_rational(rng)  # drawn for both kinds: a seed gives one kernel either way
            kernel[(x, a)] = tuple(sas if reward_kind == "sas" else
                                   [(y, p, sa) for y, p, _ in sas])
    mu0 = tuple(random_distribution(rng, n_states))
    salvage = tuple(random_rational(rng) for _ in range(n_states))
    return FiniteMdp(
        horizon=horizon, states=states, actions=actions, kernel=kernel,
        reward_kind=reward_kind, mu0=mu0, salvage=salvage)


def fraction_layers(aug) -> tuple:
    """An augmented model's slices with each total as a reward: ``(x, Fraction(n, scale))``."""
    return tuple(tuple((x, Fraction(n, aug.scale)) for x, n in layer) for layer in aug.layers)


def random_transition_mrp(rng: random.Random, n_states: int, horizon: int,
                          with_salvage: bool = False,
                          max_support: int | None = None) -> MarkovRewardProcess:
    states = tuple(f"s{i}" for i in range(n_states))
    kernel = []
    reward = {}
    for x in range(n_states):
        probs = random_distribution(rng, n_states, max_support)
        kernel.append(tuple(probs))
        for y, p in enumerate(probs):
            if p > 0:
                reward[(x, y)] = random_rational(rng)
    return MarkovRewardProcess(
        horizon=horizon, states=states, kernel=tuple(kernel),
        reward_on="transition", state_reward=None, transition_reward=reward,
        mu0=tuple(random_distribution(rng, n_states)),
        salvage=tuple(random_rational(rng) for _ in range(n_states))
        if with_salvage else None)


def random_ergodic_chain(seed: int, n: int):
    """Fully positive float kernel (hence irreducible and aperiodic) plus a reward."""
    gen = np.random.default_rng(seed)
    P = gen.uniform(0.05, 1.0, size=(n, n))
    P /= P.sum(axis=1, keepdims=True)
    r = gen.uniform(-2.0, 2.0, size=n)
    return P, r


CHAIN_STAGES = ("_check_structure", "stationary_distribution", "spectral_data",
                "third_moment_constant")


def chain_stages(P, r=None, last: str = CHAIN_STAGES[-1]) -> SimpleNamespace:
    """One chain's row after the estimate's stages up to ``last``, run on a stack of one.

    ``r`` is a state reward, paid on every move from a state, passed to the
    stages as ``R[x, y] = r[x]`` at their default reward scale 1.  The
    stages are read from ``edgeworth`` at each call; the chain's own error
    is raised by the stage that refuses it.
    """
    arrays = (("P", P), ("R", None if r is None else np.asarray(r)[:, None]))
    st = edgeworth._Stack(**{k: np.asarray(v, dtype=float)[None] for k, v in arrays
                             if v is not None})
    for name in CHAIN_STAGES[:CHAIN_STAGES.index(last) + 1]:
        getattr(edgeworth, name)(st).only()
    return SimpleNamespace(**{k: v[0] for k, v in vars(st).items() if isinstance(v, np.ndarray)})


def empirical_cdf(totals: np.ndarray):
    """Right-continuous empirical CDF of sorted simulated totals, elementwise in tau."""
    return lambda tau: np.searchsorted(totals, tau, side="right") / len(totals)


def step_cdf(dist: StepCdf):
    """Float CDF of an exact distribution; a float tau is read as its exact decimal."""
    def cdf(tau) -> float:
        if isinstance(tau, float):
            tau = Fraction(repr(float(tau)))  # exact decimal, also for numpy scalars
        return float(dist.cdf(tau))
    return cdf


def as_cdf(cdf):
    """A CDF callable from a callable, a ``StepCdf`` or sorted simulated totals."""
    if callable(cdf):
        return cdf
    if isinstance(cdf, StepCdf):
        return step_cdf(cdf)
    if isinstance(cdf, np.ndarray):
        return empirical_cdf(cdf)
    raise PreconditionError(f"ks_distance: {type(cdf).__name__} is not CDF-like")


def ks_distance(a, b, grid) -> float:
    """Max over the grid of |a(tau) - b(tau)|; symmetric in its arguments."""
    grid = list(np.atleast_1d(np.asarray(grid, dtype=float)))
    if not grid:
        raise PreconditionError("ks_distance: empty grid")
    fa, fb = as_cdf(a), as_cdf(b)
    return max(abs(float(fa(t)) - float(fb(t))) for t in grid)


def step_mean(dist: StepCdf) -> Fraction:
    return sum((s * p for s, p in zip(dist.support, dist.prob)), ZERO)


def reward_term_count(mrp: MarkovRewardProcess) -> int:
    """Number of reward summands in the total reward."""
    if mrp.reward_on == "state" and mrp.include_final_reward:
        return mrp.horizon + 1
    return mrp.horizon


def normal_reference(cdf, tau):
    """The plain normal limit with an ``EdgeworthCdf``'s mean and scale (no correction)."""
    scale = cdf.sigma * math.sqrt(cdf.n_steps)
    return normal_cdf((np.asarray(tau, dtype=float) - cdf.n_steps * cdf.zeta) / scale)


def transformed_salvage(mrp: MarkovRewardProcess, salvage):
    """Pair-state transform with an explicit terminal value over the original states."""
    return transform(replace(mrp, salvage=tuple(Fraction(v) for v in salvage)))


def base_chain(mdp: FiniteMdp, policy) -> tuple[np.ndarray, ...]:
    """Float ``(P, R, mu0, states)`` of a policy's induced chain on the states reachable
    from the start, and the indices of those states.

    The reachable set is closed here by plain iteration, not by the
    library's breadth-first search.
    """
    P, R, _, mu0 = induced_mrp(mdp, policy).arrays()
    reach = mu0 > 0
    for _ in range(len(P)):  # a reachable state is at most n - 1 moves away
        reach = reach | (P[reach] > 0).any(axis=0)
    keep = np.flatnonzero(reach)
    return P[np.ix_(keep, keep)], R[np.ix_(keep, keep)], mu0[keep], keep


def scaled_rewards(mdp: FiniteMdp, factor: Fraction) -> FiniteMdp:
    """``mdp`` with every transition's reward multiplied by ``factor``."""
    return replace(mdp, kernel={key: tuple((y, p, r * factor) for y, p, r in rows)
                                for key, rows in mdp.kernel.items()})


def reference_front_long(mdp: FiniteMdp, n_steps: int, taus):
    """The long-horizon front one policy at a time: each base chain estimated alone.

    Returns the front (``None`` when no policy is estimated) and the skip
    messages, in policy order, as ``pareto_front_long`` logs them: a
    reducible chain's classes are named by MDP state index.
    """
    taus = np.asarray(taus, dtype=float)
    policies = enumerate_stationary_policies(mdp)
    best = np.full(len(taus), np.inf)
    witness = np.full(len(taus), -1)
    skipped, used = [], 0
    for pid, policy in enumerate(policies):
        try:
            cdf = edgeworth._estimate_one(n_steps, *base_chain(mdp, policy))
        except (ErgodicityError, DegenerateVarianceError) as exc:
            skipped.append(f"policy {pid} skipped: {exc}")
            continue
        used += 1
        values = cdf.evaluate(taus)
        improved = values < best
        best = np.where(improved, values, best)
        witness = np.where(improved, pid, witness)
    if used == 0:
        return None, skipped
    listings = {pid: "\n".join(f"{mdp.states[x]} -> {policies[pid].action(0, x)}"
                               for x in range(mdp.n_states))
                for pid in sorted({int(w) for w in witness if w >= 0})}
    front = ParetoFront(kind="estimated", grid=tuple(float(t) for t in taus),
                        value=tuple(float(v) for v in np.maximum.accumulate(best)),
                        witness=tuple(int(w) for w in witness), policies=listings)
    return front, skipped
