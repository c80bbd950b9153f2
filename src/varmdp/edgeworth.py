"""Long-horizon total-reward CDF estimation for ergodic state-rewarded chains.

For an ergodic chain with stationary distribution ``xi`` and state
reward ``r``, the ``N``-step total is asymptotically normal with mean
``N * zeta`` (``zeta = xi . r``) and variance ``sigma^2 * N``.  The
estimate used here sharpens the normal limit by the first Edgeworth
correction term,

    F(tau) ~= g(y) + gamma(y)/(sigma sqrt(N)) *
              [kappa/(6 sigma^2) * (1 - y^2) - rhat_start],
    y = (tau - N zeta) / (sigma sqrt(N)),

with ``g``/``gamma`` the standard normal CDF/density, ``kappa`` the
asymptotic third cumulant of the total per step, and ``rhat`` the
solution of the Poisson equation ``P rhat = rhat - r + zeta 1``
(averaged over the start distribution).  All chain-level quantities come
out of one fundamental kernel ``Z = (I - P - Xi)^{-1}``, where ``Xi``
stacks ``xi`` row-wise; the lag sums in ``kappa`` close through
``sum_{i>=1} P^i f = (Z - I)(f - xi.f)``.

Geometric ergodicity is certified structurally, with numpy frontier
searches: a finite chain that is one strongly connected aperiodic class
qualifies; anything else is rejected with an ergodicity error.

The long-horizon front estimates one stationary policy at a time.  Each
policy's chain is built as float arrays straight from per-MDP float
tables (``FloatTables``); ``policy_chain`` and ``estimate_cdf`` keep the
exact ``Fraction`` route, which the tests use as the reference.  The
normal CDF is ``0.5 * erfc(-y / sqrt(2))`` from ``math``, so no command
loads scipy.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import dataclass, replace
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (BudgetExceededError, DegenerateVarianceError, ErgodicityError,
                     PreconditionError)
from .mdp import (DeterministicPolicy, FiniteMdp, MarkovRewardProcess, bfs_levels,
                  induced_mrp)
from .pareto import ParetoFront
from .transform import pair_chain, transform

logger = logging.getLogger(__name__)

_XI_TOL = 1e-12
_POISSON_TOL = 1e-10
_SIGMA2_FLOOR = -1e-12
_DEGENERATE_SIGMA2 = 1e-12


def check_ergodic_structure(P: np.ndarray) -> None:
    """Require one strongly connected, aperiodic class; else raise with the classes.

    Strong connectivity: every state is reached from state 0 forward and
    backward.  The period is ``gcd(d(u) + 1 - d(v))`` over the edges
    ``(u, v)``, with ``d`` the breadth-first levels from state 0.
    """
    positive = np.asarray(P, dtype=float) > 0
    origin = np.arange(len(positive)) == 0
    level = bfs_levels(positive, origin)
    if level.min() < 0 or bfs_levels(positive.T, origin).min() < 0:
        classes = _communicating_classes(positive)
        raise ErgodicityError(
            f"chain is reducible: {len(classes)} communicating classes {classes}")
    u, v = np.nonzero(positive)
    period = int(np.gcd.reduce(level[u] + 1 - level[v]))
    if period != 1:
        raise ErgodicityError(f"chain is periodic with period {period}")


def _communicating_classes(positive: np.ndarray) -> list[list[int]]:
    """Communicating classes of a boolean adjacency matrix, by smallest member."""
    reach = positive | np.eye(len(positive), dtype=bool)
    while True:
        closure = reach @ reach
        if (closure == reach).all():
            break
        reach = closure
    smallest = (reach & reach.T).argmax(axis=1)  # each state's smallest classmate
    return [np.nonzero(smallest == x)[0].tolist() for x in np.unique(smallest)]


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve ``xi P = xi``, ``sum xi = 1`` on a single aperiodic recurrent class."""
    P = np.asarray(P, dtype=float)
    check_ergodic_structure(P)
    n = P.shape[0]
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        xi = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise ErgodicityError(f"stationary solve failed: {exc}") from exc
    xi = np.where(np.abs(xi) < 1e-15, 0.0, xi)
    if xi.min() < -1e-12:
        raise ErgodicityError(f"stationary solve produced negative mass {xi.min():.3e}")
    xi = np.clip(xi, 0.0, None)
    xi /= xi.sum()
    residual = np.abs(xi @ P - xi).max()
    if residual > _XI_TOL:
        raise ErgodicityError(f"stationary residual {residual:.3e} exceeds {_XI_TOL}")
    return xi


@dataclass(frozen=True)
class ChainSpectralData:
    """Stationary/spectral quantities of one ergodic state-rewarded chain."""

    P: np.ndarray
    r: np.ndarray
    xi: np.ndarray
    zeta: float
    rhat: np.ndarray
    sigma2: float
    z_kernel: np.ndarray   # (I - P - Xi)^{-1}
    cond_h: float


def spectral_data(P: np.ndarray, r: np.ndarray) -> ChainSpectralData:
    """One spectral pass: ``xi``, ``zeta``, ``rhat``, ``sigma^2`` and ``Z`` of a chain.

    ``Z = (I - P - Xi)^{-1}`` is the fundamental kernel; a numerically
    singular ``I - P - Xi`` (cond above 1e14) is refused.  ``rhat`` solves
    the Poisson equation ``P rhat = rhat - r + zeta 1`` in the
    ``xi . rhat = 0`` gauge, with its residual checked against 1e-10, and
    ``sigma^2 = sum_x [rhat(x)^2 - (P rhat)(x)^2] xi(x)``, clamped at zero.
    """
    P = np.asarray(P, dtype=float)
    r = np.asarray(r, dtype=float)
    xi = stationary_distribution(P)
    zeta = float(xi @ r)
    H = np.eye(P.shape[0]) - P - xi
    cond = float(np.linalg.cond(H))
    if not np.isfinite(cond) or cond > 1e14:
        raise ErgodicityError(f"fundamental kernel is numerically singular (cond ~ {cond:.3e})")
    Z = np.linalg.inv(H)
    rhat = Z @ (r - zeta)
    rhat = rhat - float(xi @ rhat)  # gauge: stationary mean zero
    Pr = P @ rhat
    residual = np.abs(Pr - rhat + r - zeta).max()
    if residual > _POISSON_TOL:
        raise ErgodicityError(
            f"Poisson residual {residual:.3e} exceeds {_POISSON_TOL} (cond ~ {cond:.3e})")
    sigma2 = float(((rhat ** 2 - Pr ** 2) * xi).sum())
    if sigma2 < _SIGMA2_FLOOR:
        raise ErgodicityError(f"asymptotic variance {sigma2:.3e} is negative")
    return ChainSpectralData(P=P, r=r, xi=xi, zeta=zeta, rhat=rhat, sigma2=max(sigma2, 0.0),
                             z_kernel=Z, cond_h=cond)


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    k1: float
    k2: float
    k3: float
    truncation: int = 0  # always 0 (no lag sum); varbench/tracing.py still reads it


def third_moment_constant(data: ChainSpectralData) -> KappaResult:
    """Asymptotic third-cumulant constant ``kappa = k1 + k2 + k3`` of the total per step.

    With the centered reward ``rt = r - zeta`` and the stationary start:

        k1 = E_xi[rt(X_0)^3]
        k2 = 3 * sum_{i>=1} (E_xi[rt^2(X_0) rt(X_i)] + E_xi[rt(X_0) rt^2(X_i)])
        k3 = 6 * sum_{i,j>=1} E_xi[rt(X_0) rt(X_i) rt(X_{i+j})]

    Every lag sum is closed through the fundamental kernel,
    ``sum_{i>=1} P^i f = (Z - I)(f - xi.f)``, so no sum is truncated.
    ``rt`` is centered already, and the tails of ``rt^2`` and ``rt * s``
    are paired with ``xi * rt``, which annihilates constants, so they are
    taken uncentered.
    """
    xi, Z = data.xi, data.z_kernel
    rt = data.r - data.zeta
    w = xi * rt
    s = Z @ rt - rt  # sum_{j>=1} P^j rt
    k1 = float((rt ** 3 * xi).sum())
    k2 = 3.0 * float((w * rt) @ s + w @ (Z @ (rt * rt) - rt * rt))
    k3 = 6.0 * float(w @ (Z @ (rt * s) - rt * s))
    return KappaResult(kappa=k1 + k2 + k3, k1=k1, k2=k2, k3=k3)


_erfc = np.vectorize(math.erfc, otypes=[float])


def normal_cdf(y):
    """Standard normal CDF, ``0.5 * erfc(-y / sqrt(2))``, elementwise."""
    return 0.5 * _erfc(-np.asarray(y, dtype=float) / math.sqrt(2.0))


@dataclass(frozen=True)
class EdgeworthCdf:
    """Normal-plus-correction estimate of the total-reward CDF after ``n_steps``."""

    n_steps: int
    zeta: float
    sigma2: float
    kappa: float
    rhat_start: float
    cond_h: float = float("nan")

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def evaluate(self, tau):
        tau = np.asarray(tau, dtype=float)
        scale = self.sigma * math.sqrt(self.n_steps)
        y = (tau - self.n_steps * self.zeta) / scale
        density = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
        correction = density / scale * (
            self.kappa / (6.0 * self.sigma2) * (1.0 - y * y) - self.rhat_start)
        out = np.clip(normal_cdf(y) + correction, 0.0, 1.0)
        return float(out) if out.ndim == 0 else out


def float_chain(mrp: MarkovRewardProcess):
    """Float (P, r, mu0) arrays of a state-rewarded process."""
    if mrp.reward_on != "state":
        raise PreconditionError(
            "float_chain: transition-rewarded process; apply the pair-state "
            "transformation first")
    P = np.array([[float(p) for p in row] for row in mrp.kernel])
    r = np.array([float(v) for v in mrp.state_reward])
    mu0 = np.array([float(p) for p in mrp.mu0])
    return P, r, mu0


def estimate_cdf(mrp: MarkovRewardProcess, n_steps: int) -> EdgeworthCdf:
    """Estimate the CDF of the ``n_steps``-term total reward of an ergodic chain.

    ``n_steps`` is the number of reward summands.  The start distribution
    enters through ``rhat_start = E_mu0[rhat]``; the third-moment
    constant is the stationary one (the asymptotic constant does not
    depend on the start).  Degenerate variance is refused.
    """
    P, r, mu0 = float_chain(mrp)
    return estimate_cdf_arrays(P, r, mu0, n_steps)


def _check_n_steps(n_steps: int) -> None:
    """The estimate scales by ``sqrt(n_steps)``, so the count must fit in a float."""
    if n_steps < 1:
        raise PreconditionError("estimate_cdf: n_steps must be >= 1")
    if n_steps > sys.float_info.max:
        raise PreconditionError(
            f"estimate_cdf: n_steps must be at most {sys.float_info.max:.6g}")


def estimate_cdf_arrays(P, r, mu0, n_steps: int) -> EdgeworthCdf:
    """Array-level variant of ``estimate_cdf`` for chains given as float matrices."""
    _check_n_steps(n_steps)
    mu0 = np.asarray(mu0, dtype=float)
    data = spectral_data(P, r)
    if data.sigma2 <= _DEGENERATE_SIGMA2:
        raise DegenerateVarianceError(
            f"asymptotic variance {data.sigma2:.3e} is (numerically) zero; "
            f"the normalized total reward is degenerate")
    kap = third_moment_constant(data)
    return EdgeworthCdf(
        n_steps=int(n_steps), zeta=data.zeta, sigma2=data.sigma2, kappa=kap.kappa,
        rhat_start=float(mu0 @ data.rhat), cond_h=data.cond_h)


def enumerate_stationary_policies(mdp: FiniteMdp) -> list[DeterministicPolicy]:
    """All stationary deterministic policies, in lexicographic action order."""
    combos = product(*(mdp.actions[x] for x in range(mdp.n_states)))
    return [DeterministicPolicy.from_stationary(dict(enumerate(c))) for c in combos]


def policy_chain(mdp: FiniteMdp, policy: DeterministicPolicy) -> MarkovRewardProcess:
    """Induced chain of a stationary policy, prepared for long-horizon estimation.

    Salvage is dropped (a bounded terminal term is negligible at long
    horizons and the estimator does not model it).  SAS instances are
    routed through the pair-state transformation, which keeps only the
    pairs reachable from the start; SA chains keep the reachable states.
    """
    mrp = replace(induced_mrp(mdp, policy), salvage=None)
    if mrp.reward_on == "transition":
        return transform(mrp)
    keep = np.flatnonzero(bfs_levels(np.array(mrp.kernel) > 0, np.array(mrp.mu0) > 0) >= 0)
    return replace(mrp, states=tuple(mrp.states[x] for x in keep),
                   kernel=tuple(tuple(mrp.kernel[x][y] for y in keep) for x in keep),
                   state_reward=tuple(mrp.state_reward[x] for x in keep),
                   mu0=tuple(mrp.mu0[x] for x in keep))


@dataclass(frozen=True)
class FloatTables:
    """Float copies of an MDP's tables, indexed by action slot ``k`` of ``actions[x]``.

    ``P[x, k, y]`` is the kernel, ``R[x, k, y]`` (SAS) or ``R[x, k]`` (SA)
    the reward and ``start[x, k, y]`` the exact product
    ``mu0(x) p(y | x, a)`` rounded once, so the arrays of a policy's chain
    equal ``float_chain(policy_chain(mdp, policy))`` entry for entry.
    """

    P: np.ndarray
    R: np.ndarray
    start: np.ndarray
    mu0: np.ndarray
    slots: tuple[dict, ...]

    def chain(self, policy: DeterministicPolicy):
        """Float ``(P, r, mu0)`` of a stationary policy's chain, as ``policy_chain`` builds it.

        The policy's rows are restricted to the states reachable from the
        start; SAS rows then go through the pair-state construction.
        """
        rows = np.arange(len(self.slots))
        choice = [slot[policy.action(0, x)] for x, slot in enumerate(self.slots)]
        P, R = self.P[rows, choice], self.R[rows, choice]
        if R.ndim == 2:  # SAS: one reward per transition
            _, _, kernel, reward, mu0 = pair_chain(P, R, self.start[rows, choice])
            return kernel, reward, mu0
        keep = bfs_levels(P > 0, self.mu0 > 0) >= 0
        return P[np.ix_(keep, keep)], R[keep], self.mu0[keep]


def float_tables(mdp: FiniteMdp) -> FloatTables:
    """Build an MDP's ``FloatTables`` once, for many policy chains."""
    n, width = mdp.n_states, max(len(acts) for acts in mdp.actions)
    P, start = np.zeros((n, width, n)), np.zeros((n, width, n))
    R = np.zeros((n, width, n) if mdp.is_sas else (n, width))
    for x, acts in enumerate(mdp.actions):
        for k, a in enumerate(acts):
            for y, p, r in mdp.kernel[x, a]:
                P[x, k, y] = float(p)
                start[x, k, y] = float(mdp.mu0[x] * p)
                R[(x, k, y) if mdp.is_sas else (x, k)] = float(r)
    return FloatTables(P=P, R=R, start=start, mu0=np.array([float(p) for p in mdp.mu0]),
                       slots=tuple({a: k for k, a in enumerate(acts)}
                                   for acts in mdp.actions))


def pareto_front_long(mdp: FiniteMdp, n_steps: int, tau_grid: Sequence[float],
                      max_policies: int = 10_000) -> ParetoFront:
    """Estimated front: pointwise minimum of per-policy CDF estimates.

    Enumerates stationary deterministic policies; non-ergodic or
    degenerate-variance chains are skipped with a logged warning.  Each
    policy's chain is built directly as float arrays from the MDP's
    ``FloatTables`` (reachable rows, then pair states for SAS instances)
    and estimated by ``estimate_cdf_arrays``.  Every witness is rebuilt
    on the exact route, ``float_chain(policy_chain(mdp, policy))``, and
    its arrays must equal the float ones; that route runs at horizon 2,
    the least the pair-state transformation accepts, whatever the
    document's horizon.
    The number of reward terms is ``n_steps`` for both reward conventions
    (an SAS chain over ``n_steps`` epochs pays ``n_steps`` transition
    rewards; its pair chain pays the same count of state rewards).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) < 2 or np.any(np.diff(taus) <= 0):
        raise PreconditionError("pareto_front_long: grid must be strictly increasing")
    count = 1
    for acts in mdp.actions:
        count *= len(acts)
    if count > max_policies:
        raise BudgetExceededError(
            f"long-horizon front refused: {count} stationary policies exceed "
            f"budget {max_policies}")
    _check_n_steps(n_steps)
    tables = float_tables(mdp)
    best = np.full(len(taus), np.inf)
    witness = np.full(len(taus), -1, dtype=int)
    used = 0
    policies = enumerate_stationary_policies(mdp)
    for pid, policy in enumerate(policies):
        try:
            cdf = estimate_cdf_arrays(*tables.chain(policy), n_steps)
        except (ErgodicityError, DegenerateVarianceError) as exc:
            logger.warning("policy %d skipped: %s", pid, exc)
            continue
        used += 1
        values = cdf.evaluate(taus)
        improved = values < best
        best = np.where(improved, values, best)
        witness = np.where(improved, pid, witness)
    if used == 0:
        raise ErgodicityError("no stationary policy induces an ergodic chain")
    best = np.maximum.accumulate(best)  # guard against float non-monotonicity in far tails
    present = {int(w) for w in witness if w >= 0}
    listings: dict[int, str] = {}
    routed = replace(mdp, horizon=2)  # chain arrays do not depend on the horizon
    for pid in sorted(present):
        exact = float_chain(policy_chain(routed, policies[pid]))
        if not all(map(np.array_equal, tables.chain(policies[pid]), exact)):
            raise RuntimeError(f"policy {pid}: float chain differs from its exact chain")
        listings[pid] = "\n".join(
            f"{mdp.states[x]} -> {policies[pid].action(0, x)}" for x in range(mdp.n_states))
    return ParetoFront(kind="estimated", grid=tuple(float(t) for t in taus),
                       value=tuple(float(v) for v in best),
                       witness=tuple(int(w) for w in witness),
                       policies=listings)
