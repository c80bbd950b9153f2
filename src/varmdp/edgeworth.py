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

Every stage works on a stack of equal-size chains (``_Stack``): the
structural check, the stationary solve, the spectral pass and ``kappa``
are each one stacked numpy call sequence, and a chain that fails a check
leaves the stack with the error a one-chain call raises.  The one-chain
functions (``check_ergodic_structure``, ``stationary_distribution``,
``spectral_data``, ``third_moment_constant``, ``estimate_cdf_arrays``)
run the same stages on a stack of one.  The long-horizon front gathers
every stationary policy's chain as float arrays from per-MDP float tables
(``FloatTables``), up to ``_STACK`` policies at a time, groups the chains
by size and estimates each group in one pass; the per-policy numpy call
overhead on many small chains is what this saves.  Its CDFs are
evaluated ``_EVAL_CELLS`` grid cells at a time, which keeps the
temporaries of a large policy count times a fine grid from setting the
process's peak memory.  ``policy_chain`` and ``estimate_cdf`` keep the
exact ``Fraction`` route, which re-checks every witness.  The normal CDF
is ``0.5 * erfc(-y / sqrt(2))`` from ``math``, so no command loads scipy.
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
from .mdp import DeterministicPolicy, FiniteMdp, MarkovRewardProcess, induced_mrp
from .pareto import ParetoFront
from .transformation import bfs_levels, pair_chain, support_groups, transform

logger = logging.getLogger(__name__)

_XI_TOL = 1e-12
_POISSON_TOL = 1e-10
_SIGMA2_FLOOR = -1e-12
_DEGENERATE_SIGMA2 = 1e-12
# Policies whose chains are gathered and estimated together, and grid cells
# (policies x thresholds) evaluated at once: both bound the front's memory.
_STACK = 256
_EVAL_CELLS = 1 << 13


class _Stack:
    """Equal-size chains estimated together, one stacked numpy pass per stage.

    Every array attribute holds the chains still in the running along its
    leading axis; ``ids`` are their indices in the stack as built.  A
    chain that fails a check leaves every array at once and keeps, in
    ``errors`` under its id, the error a one-chain call would raise.
    """

    def __init__(self, **arrays: np.ndarray):
        self.errors: dict[int, Exception] = {}
        self.ids = np.arange(len(next(iter(arrays.values()))))
        self.__dict__.update(arrays)

    def refuse(self, bad: np.ndarray, message, kind=ErgodicityError) -> np.ndarray:
        """Drop each chain ``j`` with ``bad[j]`` as ``kind(message(j))``; return the kept mask."""
        keep = ~bad
        if bad.any():
            for j in np.flatnonzero(bad):
                self.errors[int(self.ids[j])] = kind(message(j))
            for name, value in list(vars(self).items()):
                if isinstance(value, np.ndarray):
                    setattr(self, name, value[keep])
        return keep

    def only(self) -> "_Stack":
        """A stack of one, which raises its chain's error if it has one."""
        if self.errors:
            raise self.errors[0]
        return self


def _mv(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked matrix-vector product ``A @ v``."""
    return (A @ v[..., None])[..., 0]


def _dot(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Stacked inner product ``u @ v``."""
    return (u[..., None, :] @ v[..., None])[..., 0, 0]


def _check_structure(st: _Stack) -> _Stack:
    """Refuse every chain that is not one strongly connected, aperiodic class.

    Strong connectivity: every state is reached from state 0 forward and
    backward.  The period is ``gcd(d(u) + 1 - d(v))`` over the edges
    ``(u, v)``, with ``d`` the breadth-first levels from state 0.
    """
    positive = st.P > 0
    origin = np.arange(positive.shape[-1]) == 0
    level = bfs_levels(positive, origin)
    reducible = ((level.min(axis=-1) < 0)
                 | (bfs_levels(positive.swapaxes(-1, -2), origin).min(axis=-1) < 0))
    classes = dict(zip(np.flatnonzero(reducible).tolist(),
                       _communicating_classes(positive[reducible])))
    lag = np.where(positive, level[..., :, None] + 1 - level[..., None, :], 0)
    period = np.gcd.reduce(lag.reshape(len(lag), -1), axis=-1)
    st.refuse(reducible | (period != 1), lambda j: (
        f"chain is reducible: {len(classes[j])} communicating classes {classes[j]}"
        if j in classes else f"chain is periodic with period {period[j]}"))
    return st


def _communicating_classes(positive: np.ndarray) -> list[list[list[int]]]:
    """Communicating classes of each stacked boolean adjacency matrix, by smallest member."""
    reach = positive | np.eye(positive.shape[-1], dtype=bool)
    while True:
        closure = reach @ reach
        if (closure == reach).all():
            break
        reach = closure
    found = []
    for smallest in (reach & reach.swapaxes(-1, -2)).argmax(axis=-1).tolist():
        classes: dict[int, list[int]] = {}  # keyed by each state's smallest classmate
        for x, first in enumerate(smallest):
            classes.setdefault(first, []).append(x)
        found.append(list(classes.values()))
    return found


def check_ergodic_structure(P: np.ndarray) -> None:
    """Require one strongly connected, aperiodic class; else raise with the classes."""
    _check_structure(_Stack(P=np.asarray(P, dtype=float)[None])).only()


def _stationary(st: _Stack) -> _Stack:
    """Solve ``xi P = xi``, ``sum xi = 1`` for every chain; refuse failed or inexact solves."""
    n = st.P.shape[-1]
    A = st.P.swapaxes(-1, -2) - np.eye(n)
    A[..., -1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    try:
        st.xi = np.linalg.solve(A, np.broadcast_to(b[:, None], A.shape[:-1] + (1,)))[..., 0]
    except np.linalg.LinAlgError:  # one singular chain fails the stacked call
        st.xi, failed = np.zeros(A.shape[:-1]), {}
        for j, a in enumerate(A):
            try:
                st.xi[j] = np.linalg.solve(a, b)
            except np.linalg.LinAlgError as exc:
                failed[j] = exc
        st.refuse(np.array([j in failed for j in range(len(A))]),
                  lambda j: f"stationary solve failed: {failed[j]}")
    st.xi = np.where(np.abs(st.xi) < 1e-15, 0.0, st.xi)
    low = st.xi.min(axis=-1)
    st.refuse(low < -1e-12, lambda j: f"stationary solve produced negative mass {low[j]:.3e}")
    st.xi = np.clip(st.xi, 0.0, None)
    st.xi /= st.xi.sum(axis=-1, keepdims=True)
    residual = np.abs((st.xi[..., None, :] @ st.P)[..., 0, :] - st.xi).max(axis=-1)
    st.refuse(residual > _XI_TOL,
              lambda j: f"stationary residual {residual[j]:.3e} exceeds {_XI_TOL}")
    return st


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Solve ``xi P = xi``, ``sum xi = 1`` on a single aperiodic recurrent class."""
    P = np.asarray(P, dtype=float)
    check_ergodic_structure(P)
    return _stationary(_Stack(P=P[None])).only().xi[0]


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


def _spectral(st: _Stack) -> _Stack:
    """``zeta``, ``cond``, ``Z``, ``rhat`` and ``sigma2`` of every chain (see ``spectral_data``)."""
    st.zeta = _dot(st.xi, st.r)
    H = np.eye(st.P.shape[-1]) - st.P - st.xi[..., None, :]
    st.cond = np.linalg.cond(H)
    keep = st.refuse(~np.isfinite(st.cond) | (st.cond > 1e14), lambda j: (
        f"fundamental kernel is numerically singular (cond ~ {st.cond[j]:.3e})"))
    st.Z = np.linalg.inv(H[keep])
    rhat = _mv(st.Z, st.r - st.zeta[..., None])
    st.rhat = rhat - _dot(st.xi, rhat)[..., None]  # gauge: stationary mean zero
    Pr = _mv(st.P, st.rhat)
    residual = np.abs(Pr - st.rhat + st.r - st.zeta[..., None]).max(axis=-1)
    keep = st.refuse(residual > _POISSON_TOL, lambda j: (
        f"Poisson residual {residual[j]:.3e} exceeds {_POISSON_TOL} (cond ~ {st.cond[j]:.3e})"))
    st.sigma2 = ((st.rhat ** 2 - Pr[keep] ** 2) * st.xi).sum(axis=-1)
    st.refuse(st.sigma2 < _SIGMA2_FLOOR,
              lambda j: f"asymptotic variance {st.sigma2[j]:.3e} is negative")
    st.sigma2 = np.maximum(st.sigma2, 0.0)
    return st


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
    st = _spectral(_Stack(P=P[None], r=r[None], xi=xi[None])).only()
    return ChainSpectralData(P=P, r=r, xi=xi, zeta=float(st.zeta[0]), rhat=st.rhat[0],
                             sigma2=float(st.sigma2[0]), z_kernel=st.Z[0],
                             cond_h=float(st.cond[0]))


@dataclass(frozen=True)
class KappaResult:
    kappa: float
    k1: float
    k2: float
    k3: float
    truncation: int = 0  # always 0 (no lag sum); varbench/tracing.py still reads it


def _kappa(st: _Stack) -> _Stack:
    """``k1``, ``k2``, ``k3`` and ``kappa`` of every chain (see ``third_moment_constant``)."""
    rt = st.r - st.zeta[..., None]
    w = st.xi * rt
    s = _mv(st.Z, rt) - rt  # sum_{j>=1} P^j rt
    st.k1 = (rt ** 3 * st.xi).sum(axis=-1)
    st.k2 = 3.0 * (_dot(w * rt, s) + _dot(w, _mv(st.Z, rt * rt) - rt * rt))
    st.k3 = 6.0 * _dot(w, _mv(st.Z, rt * s) - rt * s)
    st.kappa = st.k1 + st.k2 + st.k3
    return st


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
    st = _kappa(_Stack(r=data.r[None], xi=data.xi[None], zeta=np.array([data.zeta]),
                       Z=data.z_kernel[None]))
    return KappaResult(kappa=float(st.kappa[0]), k1=float(st.k1[0]), k2=float(st.k2[0]),
                       k3=float(st.k3[0]))


# 0.5 * math.erfc(-y / sqrt(2)) is exactly 0.0 at and below the first cut-off
# and exactly 1.0 at and above the second, so those cells skip math.erfc.
_CDF_ZERO_AT_OR_BELOW = -38.4754
_CDF_ONE_AT_OR_ABOVE = 8.2924


def normal_cdf(y):
    """Standard normal CDF, ``0.5 * erfc(-y / sqrt(2))``, elementwise."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= _CDF_ONE_AT_OR_ABOVE, 1.0, 0.0)
    inside = ~((y <= _CDF_ZERO_AT_OR_BELOW) | (y >= _CDF_ONE_AT_OR_ABOVE))  # NaN is inside
    z = -y[inside] / math.sqrt(2.0)
    out[inside] = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, count=len(z))
    return out


def _edgeworth_values(n_steps: int, zeta, sigma2, kappa, rhat_start, tau):
    """The estimate ``F(tau)`` clipped to [0, 1], broadcast over the chain parameters and ``tau``."""
    scale = np.sqrt(sigma2) * math.sqrt(n_steps)
    y = (tau - float(n_steps) * zeta) / scale
    density = np.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi)
    correction = density / scale * (kappa / (6.0 * sigma2) * (1.0 - y * y) - rhat_start)
    return np.clip(normal_cdf(y) + correction, 0.0, 1.0)


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
        out = _edgeworth_values(self.n_steps, self.zeta, self.sigma2, self.kappa,
                                self.rhat_start, np.asarray(tau, dtype=float))
        return float(out) if out.ndim == 0 else out


def float_chain(mrp: MarkovRewardProcess):
    """Float (P, r, mu0) arrays of a state-rewarded process."""
    if mrp.reward_on != "state":
        raise PreconditionError(
            "float_chain: transition-rewarded process; apply the pair-state "
            "transformation first")
    P, R, _, mu0 = mrp.arrays(float)
    return P, R[:, 0].copy(), mu0  # a strided column would round the dot products differently


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


def _degenerate(st: _Stack) -> _Stack:
    """Refuse every chain whose asymptotic variance is numerically zero."""
    st.refuse(st.sigma2 <= _DEGENERATE_SIGMA2, lambda j: (
        f"asymptotic variance {st.sigma2[j]:.3e} is (numerically) zero; "
        f"the normalized total reward is degenerate"), DegenerateVarianceError)
    return st


def estimate_cdf_arrays(P, r, mu0, n_steps: int) -> EdgeworthCdf:
    """Array-level variant of ``estimate_cdf`` for chains given as float matrices."""
    _check_n_steps(n_steps)
    mu0 = np.asarray(mu0, dtype=float)
    data = spectral_data(P, r)
    _degenerate(_Stack(sigma2=np.array([data.sigma2]))).only()
    kap = third_moment_constant(data)
    return EdgeworthCdf(
        n_steps=int(n_steps), zeta=data.zeta, sigma2=data.sigma2, kappa=kap.kappa,
        rhat_start=float(_dot(mu0, data.rhat)), cond_h=data.cond_h)


def _estimate_stack(P: np.ndarray, r: np.ndarray, mu0: np.ndarray) -> _Stack:
    """Every stage of ``estimate_cdf_arrays`` on a stack of equal-size chains.

    The chains left in the stack carry ``zeta``, ``sigma2``, ``kappa`` and
    ``rhat_start``; each refused one has its error under its index.
    """
    st = _Stack(P=P, r=r, mu0=mu0)
    for stage in (_check_structure, _stationary, _spectral, _degenerate, _kappa):
        stage(st)
    st.rhat_start = _dot(st.mu0, st.rhat)
    return st


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

    def chains(self, policies: Sequence[DeterministicPolicy]) -> list[tuple[np.ndarray, ...]]:
        """Float chains of stationary policies, as ``policy_chain`` builds them, grouped by size.

        Each policy's rows are restricted to the states reachable from the
        start; SAS rows then go through the pair-state construction.
        Returns ``(members, P, r, mu0)`` per chain size, with the chains of
        ``policies[members[g]]`` along the leading axis.
        """
        rows = np.arange(len(self.slots))
        choice = np.array([[slot[policy.action(0, x)] for x, slot in enumerate(self.slots)]
                           for policy in policies])
        P, R = self.P[rows, choice], self.R[rows, choice]
        if R.ndim == 3:  # SAS: one reward per transition
            return [(members, kernel, reward, mu0) for members, _, _, kernel, reward, mu0
                    in pair_chain(P, R, self.start[rows, choice])]
        groups = []
        for members, keep in support_groups(bfs_levels(P > 0, self.mu0 > 0) >= 0):
            m = members[:, None]
            groups.append((members, P[m[..., None], keep[:, :, None], keep[:, None, :]],
                           R[m, keep], self.mu0[keep]))
        return groups


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
    degenerate-variance chains are skipped with a logged warning, in
    policy order.  The policies' chains are built as float arrays from the
    MDP's ``FloatTables`` (reachable rows, then pair states for SAS
    instances), ``_STACK`` policies at a time, and each group of equal
    size is estimated in one stacked pass, with the numbers
    ``estimate_cdf_arrays`` gives each chain alone.  The minimum keeps the
    earliest policy on ties.  Every witness is rebuilt on the exact route,
    ``float_chain(policy_chain(mdp, policy))``, and its arrays must equal
    the float ones; that route runs at horizon 2, the least the pair-state
    transformation accepts, whatever the document's horizon.
    The number of reward terms is ``n_steps`` for both reward conventions
    (an SAS chain over ``n_steps`` epochs pays ``n_steps`` transition
    rewards; its pair chain pays the same count of state rewards).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) < 2 or np.any(np.diff(taus) <= 0):
        raise PreconditionError("pareto_front_long: grid must be strictly increasing")
    if not np.isfinite(taus).all():
        raise PreconditionError("pareto_front_long: grid must be finite")
    count = 1
    for acts in mdp.actions:
        count *= len(acts)
    if count > max_policies:
        raise BudgetExceededError(
            f"long-horizon front refused: {count} stationary policies exceed "
            f"budget {max_policies}")
    _check_n_steps(n_steps)
    tables = float_tables(mdp)
    policies = enumerate_stationary_policies(mdp)
    estimated = np.zeros(len(policies), dtype=bool)
    params = np.zeros((len(policies), 4))  # zeta, sigma2, kappa, rhat_start
    for first in range(0, len(policies), _STACK):
        skipped = {}
        for members, P, r, mu0 in tables.chains(policies[first:first + _STACK]):
            st = _estimate_stack(P, r, mu0)
            done = first + members[st.ids]
            estimated[done] = True
            params[done] = np.stack([st.zeta, st.sigma2, st.kappa, st.rhat_start], axis=-1)
            skipped.update((first + int(members[j]), exc) for j, exc in st.errors.items())
        for pid in sorted(skipped):
            logger.warning("policy %d skipped: %s", pid, skipped[pid])
    used = np.flatnonzero(estimated)
    if len(used) == 0:
        raise ErgodicityError("no stationary policy induces an ergodic chain")
    best = np.full(len(taus), np.inf)
    witness = np.full(len(taus), -1, dtype=int)
    block = max(1, _EVAL_CELLS // len(taus))
    for first in range(0, len(used), block):
        pids = used[first:first + block]
        values = _edgeworth_values(n_steps, *params[pids].T[..., None], taus)
        values[np.isnan(values)] = np.inf  # a NaN never improves the minimum
        low = values.argmin(axis=0)  # the earliest policy of the block on ties
        value = values[low, np.arange(len(taus))]
        improved = value < best
        best = np.where(improved, value, best)
        witness = np.where(improved, pids[low], witness)
    best = np.maximum.accumulate(best)  # guard against float non-monotonicity in far tails
    present = {int(w) for w in witness if w >= 0}
    listings: dict[int, str] = {}
    routed = replace(mdp, horizon=2)  # chain arrays do not depend on the horizon
    for pid in sorted(present):
        [(_, *chain)] = tables.chains([policies[pid]])
        exact = float_chain(policy_chain(routed, policies[pid]))
        if not all(np.array_equal(a[0], b) for a, b in zip(chain, exact)):
            raise RuntimeError(f"policy {pid}: float chain differs from its exact chain")
        listings[pid] = "\n".join(
            f"{mdp.states[x]} -> {policies[pid].action(0, x)}" for x in range(mdp.n_states))
    return ParetoFront(kind="estimated", grid=tuple(float(t) for t in taus),
                       value=tuple(float(v) for v in best),
                       witness=tuple(int(w) for w in witness),
                       policies=listings)
