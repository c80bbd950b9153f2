"""Long-horizon total-reward CDF estimation for ergodic Markov reward chains.

A chain pays ``R[x, y]`` on each move from ``x`` to ``y``; a state reward
``r`` is the case ``R[x, y] = r(x)``.  For an ergodic chain with
stationary distribution ``xi``, the ``N``-step total is asymptotically
normal with mean ``N * zeta`` (``zeta = xi . (P o R) 1``, ``o`` the
entrywise product) and variance ``sigma^2 * N``.  The estimate used here
sharpens the normal limit by the first Edgeworth correction term,

    F(tau) ~= g(y) + gamma(y)/(sigma sqrt(N)) *
              [kappa/(6 sigma^2) * (1 - y^2) - rhat_start],
    y = (tau - N zeta) / (sigma sqrt(N)),

with ``g``/``gamma`` the standard normal CDF/density, ``kappa`` the
asymptotic third cumulant of the total per step, and ``rhat`` the
solution of the Poisson equation ``P rhat = rhat - (P o R) 1 + zeta 1``
(averaged over the start distribution).  ``zeta``, ``sigma^2`` and
``kappa`` are the first three derivatives at 0 of the log Perron root of
``P o exp(theta R)`` (Ney & Nummelin 1987), and ``rhat`` is the first-order
term of its right eigenvector.  All of them need only ``xi`` and solutions
``h`` of ``(I - P) h = g`` for ``xi . g = 0``, and one LU factorization per
chain gives both.  With ``A = P^T - I`` and its last row set to ``1``,
``A xi = e_n``: ``xi`` is the last column of ``A^{-1}``.  And ``Z =
-A^{-T}`` is a fundamental kernel (Kemeny & Snell 1960; Meyer 1975): for
``h = Z g``, ``A^T h = -g``.  The last column of ``A^T`` is ``1`` and
``xi`` annihilates the others, which are columns of ``P - I``, so ``h_n =
xi . (A^T h) = -xi . g = 0``, and then ``(I - P) h = -A^T h = g``.  The
numbers depend only on the moves, so a transition-rewarded chain is
estimated on its own states, with the numbers of its pair-state chain.
Each chain is estimated in units of its reward scale, the power of two
at or below its largest ``|R|``: the checks' tolerances are relative to
it, the numbers scale back exactly, and one that overflows a float is
refused.

Geometric ergodicity is certified structurally, with one reachability
closure per stack: a finite chain that is one strongly connected
aperiodic class qualifies; anything else is rejected with an ergodicity
error.

Every estimate is a stack of equal-size chains (``_Stack``) run through
``_estimate_stack``; ``estimate_cdf_arrays`` runs a stack of one.  Each
stage (structural check, stationary solve, spectral pass, ``kappa``) is one
stacked numpy call sequence, and a chain that fails a check leaves the
stack with its own error.  Three stages keep public names
(``stationary_distribution``, ``spectral_data``, ``third_moment_constant``)
and are looked up at each call, so a timing wrapper bound over one of them
sees every estimate, the front's stacks included.  The long-horizon front
takes its chains from one builder, ``policy_stacks``: float tables of the
MDP, one reachability search over every stationary policy, and stacks of
chains of one size (the states reachable from the start), at most
``_STACK_CELLS`` kernel entries each, estimated together; the per-policy
numpy call overhead on many small chains is what this saves, and the cell
bound keeps the stacks' temporaries small.  Its minimum is taken
``_EVAL_CELLS`` grid cells at a time, and it bounds each cell from below
without ``math.erfc`` (a knot table of the normal CDF), so the normal CDF
runs only on the cells that can hold the minimum.  Each witness is
estimated once more on its exact chain, ``policy_chain`` (the pair-state
chain of an SAS instance), and must give the same numbers.  The normal CDF
is ``0.5 * erfc(-y / sqrt(2))`` from ``math``, so no command loads scipy.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import product
from typing import Sequence

import numpy as np

from .errors import (BudgetExceededError, DegenerateVarianceError, ErgodicityError,
                     PreconditionError)
from .mdp import (DeterministicPolicy, FiniteMdp, MarkovRewardProcess, ParetoFront, _Record,
                  induced_mrp, replace, to_floats)
from .transformation import transform

_XI_TOL = 1e-12
_POISSON_TOL = 1e-10
_DEGENERATE_SIGMA2 = 1e-12
# Kernel entries (chains x states^2) estimated in one stack, and grid cells
# (policies x thresholds) evaluated at once: both bound the front's memory.
_STACK_CELLS = 1 << 15
_EVAL_CELLS = 1 << 13
_RUN = 32  # thresholds the front's minimum screens as one run
# The degree in the rewards of each number (zeta, sigma2, kappa, rhat_start): a
# chain of reward scale 2**k states it in units of 2**(k * degree).
_DEGREES = np.array([1, 2, 3, 1])
_NAMES = ("zeta", "sigma2", "kappa", "rhat_start")


class _Stack:
    """Equal-size chains estimated together, one stacked numpy pass per stage.

    Every array attribute holds the chains still in the running along its
    leading axis; ``ids`` are their indices in the stack as built.  A
    chain that fails a check leaves every array at once, and its error
    stays in ``errors`` under its id.  The stages read each chain's
    rewards in units of its reward scale ``2**scale`` (``_estimate_stack``
    sets it; 1 by default).
    """

    truncation = 0  # no lag sum is cut short; varbench/tracing.py reads it off a kappa stage

    def __init__(self, **arrays: np.ndarray):
        self.errors: dict[int, Exception] = {}
        self.ids = np.arange(len(next(iter(arrays.values()))))
        self.scale = np.zeros_like(self.ids)
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


def _unscaled(value, scale, power: int = 1) -> str:
    """``value * (2**scale)**power`` as ``%.3e``: a number of the stages' unit in the rewards'."""
    unit = 2.0 ** int(scale)  # a product of Python floats that overflows is inf, not an error
    return f"{math.prod([float(value)] + [unit] * power):.3e}"


def bfs_levels(adjacency: np.ndarray, sources: np.ndarray) -> np.ndarray:
    """Breadth-first levels over a boolean adjacency matrix; -1 where unreached.

    ``sources`` is a boolean mask of the level-0 states; each pass moves
    the whole frontier one edge forward.  A leading axis on ``adjacency``
    searches a stack of graphs at once; ``sources`` broadcasts against it.
    """
    frontier = np.broadcast_to(np.asarray(sources, dtype=bool), adjacency.shape[:-1])
    level = np.where(frontier, 0, -1)
    depth = 0
    while frontier.any():
        depth += 1
        frontier = (frontier[..., :, None] & adjacency).any(axis=-2) & (level < 0)
        level[frontier] = depth
    return level


def _closure(positive: np.ndarray) -> np.ndarray:
    """``reach[..., x, y]``: whether a path (of length 0 or more) leads from ``x`` to ``y``.

    ``positive`` is a stack of adjacency matrices.  ``I + A`` is squared
    until its paths reach length ``n - 1``, in float matmuls clamped to 0/1
    after each product, so ``log2 n`` products whatever the graph's depth.
    """
    n = positive.shape[-1]
    reach = (positive | np.eye(n, dtype=bool)).astype(float)
    for _ in range(max(n - 2, 0).bit_length()):  # paths of length 2**k >= n - 1
        reach = np.minimum(reach @ reach, 1.0)  # counts up to n: exact in floats
    return reach > 0


def _check_structure(st: _Stack) -> _Stack:
    """Refuse every chain that is not one strongly connected, aperiodic class.

    One reachability closure (``_closure``) serves the connectivity test and
    the classes.  A chain is strongly connected when a path leads from
    every state to every other; otherwise its communicating classes are the
    sets of mutually reachable states, named by ``st.states`` where the
    stack has it.  A strongly connected chain with a
    self-loop is aperiodic; any other has period ``gcd(d(u) + 1 - d(v))``
    over the edges ``(u, v)``, with ``d`` the breadth-first levels from state 0.
    """
    positive = st.P > 0
    n = positive.shape[-1]
    reach = _closure(positive)
    reducible = ~reach.all(axis=(-2, -1))
    mutual = reach[reducible] & reach[reducible].swapaxes(-1, -2)
    names = getattr(st, "states", np.broadcast_to(np.arange(n), positive.shape[:-1]))
    classes = dict(zip(np.flatnonzero(reducible).tolist(), map(
        _classes_text, map(tuple, mutual.argmax(axis=-1).tolist()),
        map(tuple, names[reducible].tolist()))))
    period = np.ones(len(positive), dtype=np.int64)
    loopless = np.flatnonzero(~reducible & ~np.diagonal(positive, axis1=-2, axis2=-1).any(axis=-1))
    edges = positive[loopless]
    level = bfs_levels(edges, np.arange(n) == 0)
    lag = np.where(edges, level[..., :, None] + 1 - level[..., None, :], 0)
    period[loopless] = np.gcd.reduce(lag.reshape(len(lag), n * n), axis=-1)
    st.refuse(reducible | (period != 1), lambda j: (
        f"chain is reducible: {classes[j]}" if j in classes
        else f"chain is periodic with period {period[j]}"))
    return st


@functools.lru_cache(maxsize=1024)
def _classes_text(smallest: tuple[int, ...], names: tuple[int, ...]) -> str:
    """``"k communicating classes [[...], ...]"`` from each state's name and smallest classmate."""
    classes: dict[int, list[int]] = {}  # in order of smallest member
    for name, first in zip(names, smallest):
        classes.setdefault(first, []).append(name)
    return f"{len(classes)} communicating classes {list(classes.values())}"


def stationary_distribution(st: _Stack) -> _Stack:
    """``X = A^{-1}`` on one LU per chain, ``A = P^T - I`` with its last row set to ``1``.

    Its last column ``A^{-1} e_n`` is the stationary law ``xi``, refused when the solve
    fails or is inexact; ``X`` stays for the spectral pass, and ``cond = |A|_1 |X|_1``.
    """
    n = st.P.shape[-1]
    A = st.P.swapaxes(-1, -2) - np.eye(n)
    A[..., -1, :] = 1.0
    st.cond = np.abs(A).sum(axis=-2).max(axis=-1)
    try:
        st.X = np.linalg.solve(A, np.broadcast_to(np.eye(n), A.shape))
    except np.linalg.LinAlgError:  # one singular chain fails the stacked call
        st.X, failed = np.zeros(A.shape), {}
        for j, a in enumerate(A):
            try:
                st.X[j] = np.linalg.solve(a, np.eye(n))
            except np.linalg.LinAlgError as exc:
                failed[j] = exc
        st.refuse(np.array([j in failed for j in range(len(A))]),
                  lambda j: f"stationary solve failed: {failed[j]}")
    st.cond *= np.abs(st.X).sum(axis=-2).max(axis=-1)
    low = st.X[..., -1].min(axis=-1)
    st.refuse(low < -1e-12, lambda j: f"stationary solve produced negative mass {low[j]:.3e}")
    st.xi = np.where(st.X[..., -1] < 1e-15, 0.0, st.X[..., -1])
    st.xi /= st.xi.sum(axis=-1, keepdims=True)
    residual = np.abs((st.xi[..., None, :] @ st.P)[..., 0, :] - st.xi).max(axis=-1)
    st.refuse(residual > _XI_TOL,
              lambda j: f"stationary residual {residual[j]:.3e} exceeds {_XI_TOL}")
    return st


def spectral_data(st: _Stack) -> _Stack:
    """One spectral pass per chain: ``zeta``, ``Z``, ``rhat`` and ``sigma2``.

    With the centered reward ``Rt = R - zeta`` and ``M_j = P o Rt^j / j!``,
    this is the second order of the Perron root ``lambda(theta) = 1 +
    lambda_2 theta^2 + lambda_3 theta^3 + ...`` of ``P o exp(theta Rt)``:
    centering (``xi . M_1 1 = 0``) removes the first order, so the second and
    third derivatives of ``log lambda`` at 0 are ``sigma^2 = 2 lambda_2`` and
    ``kappa = 6 lambda_3``.  The fundamental kernel is ``Z = -X^T`` (module
    docstring), refused when ``cond`` exceeds 1e14.  ``rhat = Z M_1 1`` solves
    the Poisson equation ``P rhat = rhat - M_1 1``, in the ``xi . rhat = 0``
    gauge, with its residual checked against 1e-10 of the reward scale.
    ``sigma^2`` is summed in its martingale form, ``sum xi(x) P(x, y) (Rt(x, y)
    + rhat(y) - rhat(x))^2``, which cannot be negative: ``2 xi . (M_1 rhat +
    M_2 1)``, equal to it, cancels terms of size ``Rt^2``.
    """
    st.zeta = _dot(st.xi, (st.P * st.R).sum(axis=-1))
    st.refuse(~(st.cond <= 1e14), lambda j: (  # NaN too
        f"fundamental kernel is numerically singular (cond ~ {st.cond[j]:.3e})"))
    st.Z = -st.X.swapaxes(-1, -2)
    st.Rt = st.R - st.zeta[..., None, None]
    st.M1 = st.P * st.Rt
    f = st.M1.sum(axis=-1)
    rhat = _mv(st.Z, f)
    st.rhat = rhat - _dot(st.xi, rhat)[..., None]  # gauge: stationary mean zero
    residual = np.abs(_mv(st.P, st.rhat) - st.rhat + f).max(axis=-1)
    st.refuse(residual > _POISSON_TOL, lambda j: (
        f"Poisson residual {_unscaled(residual[j], st.scale[j])} exceeds "
        f"{_unscaled(_POISSON_TOL, st.scale[j])} (cond ~ {st.cond[j]:.3e})"))
    step = st.Rt + st.rhat[..., None, :] - st.rhat[..., :, None]  # a move's martingale increment
    st.sigma2 = _dot(st.xi, (st.P * step * step).sum(axis=-1))
    st.M2 = st.M1 * st.Rt / 2.0
    st.second = _mv(st.M1, st.rhat) + st.M2.sum(axis=-1)  # its xi-mean is lambda_2
    return st


def third_moment_constant(st: _Stack) -> _Stack:
    """Asymptotic third-cumulant constant ``kappa = 6 lambda_3`` of the total per step.

    The third order of the Perron root, with its right eigenvector expanded
    as ``1 + theta rhat + theta^2 v_2 + ...`` and matched power by power:

        v_2 = Z (M_1 rhat + M_2 1 - lambda_2 1),   xi . v_2 = 0
        lambda_3 = xi . (M_1 v_2 + M_2 rhat + M_3 1)

    ``lambda_1 = 0`` and ``xi . rhat = 0`` drop the other terms of the third
    order.  No sum is truncated.
    """
    v2 = _mv(st.Z, st.second - st.sigma2[..., None] / 2.0)
    v2 -= _dot(st.xi, v2)[..., None]
    M3 = st.M2 * st.Rt / 3.0
    st.kappa = 6.0 * _dot(st.xi, _mv(st.M1, v2) + _mv(st.M2, st.rhat) + M3.sum(axis=-1))
    return st


# 0.5 * math.erfc(-y / sqrt(2)) is exactly 0.0 at and below the first cut-off
# and exactly 1.0 at and above the second, so those cells skip math.erfc.
_CDF_ZERO_AT_OR_BELOW = -38.4754
_CDF_ONE_AT_OR_ABOVE = 8.2924
# np.exp(-y * y / 2) is 0.0 for |y| > 38.6, so the correction is formed at y clipped to
# +-_FLAT: the same values, and y * y cannot overflow (the correction 0 * -inf = NaN).
_FLAT = 40.0


def normal_cdf(y):
    """Standard normal CDF, ``0.5 * erfc(-y / sqrt(2))``, elementwise."""
    y = np.asarray(y, dtype=float)
    out = np.where(y >= _CDF_ONE_AT_OR_ABOVE, 1.0, 0.0)
    inside = ~((y <= _CDF_ZERO_AT_OR_BELOW) | (y >= _CDF_ONE_AT_OR_ABOVE))  # NaN is inside
    z = -y[inside] / math.sqrt(2.0)
    out[inside] = 0.5 * np.fromiter(map(math.erfc, z.tolist()), float, count=len(z))
    return out


# Lower bounds of normal_cdf at the knots y = i / 16, so that a cell can be
# screened without math.erfc: for y >= knot K, normal_cdf(y) >= floor(K).
# - The last knot lies at or above _CDF_ONE_AT_OR_ABOVE, where normal_cdf is
#   1.0 by definition, and so is its floor.  The first lies at or below
#   _CDF_ZERO_AT_OR_BELOW, where normal_cdf is 0.0, and a y below it reads it.
# - At every knot but the last the floor is normal_cdf(K) (1 - 2**-30) - 2**-1070.
#   The exact CDF rises with y, and normal_cdf stays within a relative 4e-13
#   of it between the cut-offs: rounding -y / sqrt(2) moves the argument z of
#   erfc by a relative 2**-52 at most, which moves erfc(z) by a relative
#   2 (|z| + 1) |z| 2**-52 <= 4e-13 for |z| <= 27.3, and math.erfc adds a few
#   ulps.  So normal_cdf(y) >= normal_cdf(K) (1 - 1e-12), and the margin
#   2**-30 (9.3e-10) leaves room for math.erfc to be off by many ulps.  Below
#   2**-1022 the values are subnormal, their rounding is absolute and the
#   relative margin rounds away; 2**-1070, 16 of their ulps, covers them.
# - A knot step that is a power of two makes floor(y * 16) exact, so the knot
#   read for y is never above it.
_KNOTS_PER_UNIT = 16
_FIRST_KNOT = math.floor(_CDF_ZERO_AT_OR_BELOW * _KNOTS_PER_UNIT)
_LAST_KNOT = math.ceil(_CDF_ONE_AT_OR_ABOVE * _KNOTS_PER_UNIT)


@functools.cache
def _cdf_floors() -> np.ndarray:
    """The floor at each knot from ``_FIRST_KNOT`` to ``_LAST_KNOT``; built on first use."""
    floors = normal_cdf(np.arange(_FIRST_KNOT, _LAST_KNOT + 1) / _KNOTS_PER_UNIT)
    floors[:-1] *= 1.0 - 2.0 ** -30
    floors[:-1] -= 2.0 ** -1070
    return floors


def _cdf_floor(y: np.ndarray) -> np.ndarray:
    """A lower bound of ``normal_cdf(y)`` from the knot table, elementwise; finite for NaN."""
    # clamped before scaling, so that a huge y cannot overflow; NaN reads the first knot
    knot = np.fmin(np.fmax(y, _FIRST_KNOT / _KNOTS_PER_UNIT), _LAST_KNOT / _KNOTS_PER_UNIT)
    knot *= _KNOTS_PER_UNIT  # a power of two: exact
    np.floor(knot, out=knot)
    knot -= _FIRST_KNOT
    return _cdf_floors()[knot.astype(np.intp)]


def _edgeworth_terms(n_steps: int, zeta, sigma2, kappa, rhat_start, tau):
    """``y`` and the correction of the estimate, broadcast over the chain parameters and ``tau``."""
    scale = np.sqrt(sigma2) * math.sqrt(n_steps)
    with np.errstate(over="ignore", divide="ignore"):  # far tails: +-inf is the value meant
        y = (tau - float(n_steps) * zeta) / scale
    flat = np.clip(y, -_FLAT, _FLAT)
    density = np.exp(-0.5 * flat * flat) / math.sqrt(2.0 * math.pi)
    return y, density / scale * (kappa / (6.0 * sigma2) * (1.0 - flat * flat) - rhat_start)


def _edgeworth_values(n_steps: int, zeta, sigma2, kappa, rhat_start, tau):
    """The estimate ``F(tau)`` clipped to [0, 1], broadcast over the chain parameters and ``tau``."""
    y, correction = _edgeworth_terms(n_steps, zeta, sigma2, kappa, rhat_start, tau)
    return np.clip(normal_cdf(y) + correction, 0.0, 1.0)


def _front_minimum(n_steps: int, params: np.ndarray, taus: np.ndarray):
    """The least estimate over the rows of ``params`` at each ``tau``, and its earliest row.

    ``params`` holds ``(zeta, sigma2, kappa, rhat_start)`` per row.  The
    result is the minimum over every (row, tau) cell of ``_edgeworth_values``,
    bit for bit: a NaN estimate never wins, and where every estimate is NaN
    the minimum is ``inf`` and the row -1.  But ``normal_cdf`` sees only the
    cells whose lower bound, clipped to [0, 1] as the value is, does not
    exceed the ceiling and is below the least value of an earlier row:

    - The ceiling at a tau is the value of the row whose ``y`` is least at
      the start of its run of ``_RUN`` thresholds, widened by 2**-40 of its
      terms' size in case ``np.exp`` rounds a lane of another array shape
      differently.  The minimum does not exceed it, and a later row wins a
      tau only below the least value of the rows before it.
    - A run's bound is ``_cdf_floor(y)`` at its start less a bound on the
      correction over the run.  ``y`` rises with tau, in floats too, so the
      run's ``y`` lie between the bracket's ends, and ``|correction| <= phi(y)
      (|k| |1 - y^2| + |rhat|) / scale`` with ``k = kappa / (6 sigma2)``.
      ``phi(y)`` is at most its value at the bracket's point nearest 0 (with
      ``y`` clipped to +-``_FLAT`` on both sides, as the correction is), and
      ``phi(y) |1 - y^2|`` at most ``phi(y) (1 + y^2)``, which is at most
      0.4840 and falls for ``|y| > 1``.  The relative margin 2**-30 covers
      the rounding of both sides (at most about 2e-13, from ``y^2`` in
      ``np.exp``).  A subnormal density is rounded by up to 2**-1074
      absolute, times ``1 + y^2 < 2**11`` (beyond, it is 0), which the term
      ``2**-1000 (|k| + |rhat|)`` covers.  A NaN bound keeps the run.
    - A cell's bound is ``_cdf_floor(y) + correction``, with the correction
      its value adds: rounded addition and the clip are monotone, so the
      bound never exceeds the value, and it is NaN exactly when the value is.

    So every cell left out is above the minimum or ties a row before it; the
    others are evaluated, and the minimum is taken in row order.
    """
    count, runs = len(taus), np.arange(0, len(taus), _RUN)
    edges = taus[np.append(runs, count - 1)]  # y at the edges brackets each run's y
    zeta, sigma2, kappa, rhat_start = params.T[..., None]  # columns
    scale = np.sqrt(sigma2) * math.sqrt(n_steps)
    with np.errstate(over="ignore"):  # N zeta past the float range: y is +-inf, as meant
        shift = float(n_steps) * zeta
    k, r = np.abs(kappa / (6.0 * sigma2)), np.abs(rhat_start)
    step = max(1, _EVAL_CELLS // len(edges))
    blocks = [slice(first, first + step) for first in range(0, len(params), step)]
    cols = np.arange(len(runs))
    least, incumbent = np.full(len(runs), np.inf), np.zeros(len(runs), dtype=np.intp)
    for rows in blocks:
        with np.errstate(over="ignore", divide="ignore"):  # +-inf is the value meant
            y = (edges[:-1] - shift[rows]) / scale[rows]
        y[np.isnan(y)] = np.inf
        low = y.argmin(axis=0)
        lower = y[low, cols] < least
        least = np.where(lower, y[low, cols], least)
        incumbent = np.where(lower, rows.start + low, incumbent)
    y, correction = _edgeworth_terms(n_steps, *params[np.repeat(incumbent, _RUN)[:count]].T, taus)
    cdf = normal_cdf(y)
    value = np.clip(cdf + correction, 0.0, 1.0)
    ceiling = np.where(np.isnan(value), np.inf, value + 2.0 ** -40 * (cdf + np.abs(correction)))
    run_ceiling = np.maximum.reduceat(ceiling, runs)
    best = np.full(count, np.inf)
    witness = np.full(count, -1, dtype=np.intp)
    for rows in blocks:
        with np.errstate(over="ignore", divide="ignore"):
            y = (edges - shift[rows]) / scale[rows]
        near = np.clip(np.clip(0.0, y[:, :-1], y[:, 1:]), -_FLAT, _FLAT)  # bracket point nearest 0
        density = np.exp(-0.5 * near * near) / math.sqrt(2.0 * math.pi)
        shape = np.where(np.abs(near) < 1.0, 0.4840, density * (1.0 + near * near))
        reach = (k[rows] * shape + r[rows] * density + 2.0 ** -1000 * (k[rows] + r[rows]))
        bound = np.maximum(_cdf_floor(y[:, :-1]) - reach / scale[rows] * (1.0 + 2.0 ** -30), 0.0)
        run_best = np.maximum.reduceat(best, runs)
        kept = np.flatnonzero(~((bound > run_ceiling) | (bound >= run_best)))  # NaN is kept
        for part in range(0, len(kept), _EVAL_CELLS // _RUN):
            row, run = np.divmod(kept[part:part + _EVAL_CELLS // _RUN], len(runs))
            t = (runs[run, None] + np.arange(_RUN)).ravel()
            row = np.repeat(rows.start + row, _RUN)[t < count]
            t = t[t < count]
            y, correction = _edgeworth_terms(n_steps, *params[row].T, taus[t])
            bound = np.clip(_cdf_floor(y) + correction, 0.0, 1.0)
            sent = (bound <= ceiling[t]) & (bound < best[t])
            t, row = t[sent], row[sent]
            value = np.clip(normal_cdf(y[sent]) + correction[sent], 0.0, 1.0)
            order = np.lexsort((row, value, t))  # by tau, then value, then row
            lead = order[np.diff(t[order], prepend=-1) != 0]  # least value, earliest row
            improved = lead[value[lead] < best[t[lead]]]
            best[t[improved]] = value[improved]
            witness[t[improved]] = row[improved]
    return best, witness


class EdgeworthCdf(_Record):
    """Normal-plus-correction estimate of the total-reward CDF after ``n_steps``.

    ``cond_h`` is ``|A|_1 |A^{-1}|_1``, the 1-norm condition number of the
    stationary system ``A = P^T - I`` with its last row set to ``1``, whose
    inverse gives the fundamental kernel; a chain above 1e14 is refused.
    """

    _fields = ("n_steps", "zeta", "sigma2", "kappa", "rhat_start", "cond_h")

    def __init__(self, n_steps: int, zeta: float, sigma2: float, kappa: float,
                 rhat_start: float, cond_h: float) -> None:
        self.__dict__.update(n_steps=n_steps, zeta=zeta, sigma2=sigma2, kappa=kappa,
                             rhat_start=rhat_start, cond_h=cond_h)

    @property
    def sigma(self) -> float:
        return math.sqrt(self.sigma2)

    def evaluate(self, tau):
        out = _edgeworth_values(self.n_steps, self.zeta, self.sigma2, self.kappa,
                                self.rhat_start, np.asarray(tau, dtype=float))
        return float(out) if out.ndim == 0 else out


def float_chain(mrp: MarkovRewardProcess):
    """Float (P, R, mu0) of a process on the states reachable from its start, and their indices.

    ``R[x, y]`` is paid on the move from ``x`` to ``y``.  The other states
    cannot change the total, and the pair-state transformation drops them too.
    The reachable states are read off the chain's closure (``_closure``).
    """
    P, R, _, mu0 = mrp.arrays()
    keep = np.flatnonzero(_closure(P > 0)[mu0 > 0].any(axis=0))
    return P[np.ix_(keep, keep)], R[np.ix_(keep, keep)], mu0[keep], keep


def estimate_cdf(mrp: MarkovRewardProcess, n_steps: int) -> EdgeworthCdf:
    """Estimate the CDF of the ``n_steps``-term total reward of an ergodic chain.

    ``n_steps`` is the number of reward summands.  The chain is taken on
    the states reachable from its start (``float_chain``), whether it pays
    state or transition rewards.  The start distribution enters through
    ``rhat_start = E_mu0[rhat]``; the third-moment constant is the
    stationary one (the asymptotic constant does not depend on the start).
    Degenerate variance is refused, and a reducible chain's classes are
    named by the process's state indices.
    """
    return _estimate_one(n_steps, *float_chain(mrp))


def _check_n_steps(n_steps: int) -> None:
    """The estimate scales by ``sqrt(n_steps)``, so the count must fit in a float."""
    if n_steps < 1:
        raise PreconditionError("estimate_cdf: n_steps must be >= 1")
    if n_steps > sys.float_info.max:
        raise PreconditionError(
            f"estimate_cdf: n_steps must be at most {sys.float_info.max:.6g}")


def _degenerate(st: _Stack) -> _Stack:
    """Refuse each chain whose asymptotic variance is at most 1e-12 of its reward scale squared."""
    st.refuse(st.sigma2 <= _DEGENERATE_SIGMA2, lambda j: (
        f"asymptotic variance {_unscaled(st.sigma2[j], st.scale[j], 2)} is (numerically) zero; "
        f"the normalized total reward is degenerate"), DegenerateVarianceError)
    return st


def estimate_cdf_arrays(P, R, mu0, n_steps: int) -> EdgeworthCdf:
    """Array-level variant of ``estimate_cdf``: ``_estimate_stack`` on a stack of one.

    ``R[x, y]`` is the reward of a move from ``x`` to ``y``; a vector ``R``
    is a state reward, ``R[x, y] = R[x]``.
    """
    return _estimate_one(n_steps, *(np.asarray(a, dtype=float) for a in (P, R, mu0)))


def _estimate_one(n_steps: int, *arrays: np.ndarray) -> EdgeworthCdf:
    """``_estimate_stack`` on a stack of one chain's arrays; the chain's error is raised."""
    _check_n_steps(n_steps)
    st = _estimate_stack(*(a[None] for a in arrays)).only()
    return EdgeworthCdf(int(n_steps), *st.numbers[0].tolist(), cond_h=float(st.cond[0]))


def _estimate_stack(P: np.ndarray, R: np.ndarray, mu0: np.ndarray,
                    states: np.ndarray | None = None) -> _Stack:
    """Every stage of the estimate on a stack of equal-size chains.

    ``R[m, x, y]`` is the reward chain ``m`` pays on the move from ``x`` to
    ``y``, or ``R[m, x]`` a state reward, paid on every move from ``x``.
    ``states[m, x]``, if given, is the index by which a refusal names state
    ``x`` of chain ``m``; by default its index in the chain.  The stages
    see ``R`` divided by the chain's reward scale ``2**scale``, the power of
    two with ``2**scale <= max |R| < 2**(scale + 1)``, so that their
    tolerances are relative to the rewards' size; the division is exact.
    The chains left in the stack carry ``numbers``, the rows ``(zeta,
    sigma2, kappa, rhat_start)`` in the rewards' unit, and ``cond``.  A
    chain is refused when a number is not a finite float in the rewards'
    unit, or is zero or subnormal there but not in the chain's own; each
    refused one has its error under its index.  The stages are read from
    the module at each call.
    """
    if R.ndim < P.ndim:  # a state reward: R[x, y] = r(x), broadcast over y
        R = R[..., None]
    scale = np.frexp(np.abs(R).max(axis=(-2, -1)))[1] - 1
    st = _Stack(P=P, R=np.ldexp(R, -scale[:, None, None]), mu0=mu0, scale=scale)
    if states is not None:
        st.states = states
    for stage in (_check_structure, stationary_distribution, spectral_data, _degenerate,
                  third_moment_constant):
        stage(st)
    st.units = np.stack([st.zeta, st.sigma2, st.kappa, _dot(st.mu0, st.rhat)], axis=-1)
    with np.errstate(over="ignore"):  # refused below
        st.numbers = np.ldexp(st.units, st.scale[:, None] * _DEGREES)
    bad = ~np.isfinite(st.numbers)
    st.refuse(bad.any(axis=-1), lambda j: (
        f"{_NAMES[bad[j].argmax()]} is {st.numbers[j, bad[j].argmax()]}: "
        f"the rewards are too large for a float estimate"))
    lost = (np.abs(st.numbers) < sys.float_info.min) & (st.units != 0)
    st.refuse(lost.any(axis=-1), lambda j: (
        f"{_NAMES[lost[j].argmax()]} is {st.units[j, lost[j].argmax()]:.3e} "
        f"times 2**{st.scale[j] * _DEGREES[lost[j].argmax()]}, "
        f"{st.numbers[j, lost[j].argmax()]:.3e} as a float: "
        f"the rewards are too small for a float estimate"))
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
    pairs reachable from the start.  An SA chain keeps every state;
    ``estimate_cdf`` drops the ones its start cannot reach.
    """
    mrp = replace(induced_mrp(mdp, policy), salvage=None)
    return transform(mrp) if mrp.reward_on == "transition" else mrp


def policy_slots(mdp: FiniteMdp) -> np.ndarray:
    """``slots[m, x]``: the index in ``mdp.actions[x]`` of policy ``m``'s action in state ``x``.

    Policies are numbered as ``enumerate_stationary_policies`` lists them,
    in product order: the last state's action varies fastest.
    """
    counts = np.array([len(acts) for acts in mdp.actions])
    later = np.cumprod(counts[::-1])[::-1]  # policies per choice at each state
    return np.arange(later[0])[:, None] // (later // counts) % counts


def policy_stacks(mdp: FiniteMdp):
    """Float chains of every stationary policy on its reachable base states, in stacks.

    The kernel and reward are tabled once as ``P[x, k, y]`` and ``R[x, k,
    y]``, for action slot ``k`` of ``actions[x]`` (``policy_slots``); an SA
    action pays its reward towards every ``y``.  One breadth-first search
    over every policy's support finds the states reachable from the start.
    Yields ``(pids, P, R, mu0, states)`` per stack: the chains of the
    policies ``pids``, all of one size, at most ``_STACK_CELLS`` kernel
    entries together, and ``states[m]`` the base states chain ``m`` keeps,
    in state order.  The arrays equal ``float_chain(induced_mrp(mdp,
    policy))``'s, entry for entry, and only one stack's are built at a time.
    A reward or probability no float holds (past the float range, or nonzero
    below it) is refused, naming its move.
    """
    n, width = mdp.n_states, max(len(acts) for acts in mdp.actions)
    P, R = np.zeros((n, width, n)), np.zeros((n, width, n))
    names = mdp.states
    for x, acts in enumerate(mdp.actions):
        for k, a in enumerate(acts):
            rows = mdp.kernel[x, a]
            move = f"move ({names[x]}, {a!r}, "
            probs = to_floats([p for _, p, _ in rows],
                              lambda i: f"probability of {move}{names[rows[i][0]]})")
            pays = to_floats([r for _, _, r in rows],
                             lambda i: f"reward of {move}{names[rows[i][0]]})")
            for (y, _, _), p, r in zip(rows, probs, pays):
                P[x, k, y] = p
                R[x, k, y if mdp.is_sas else slice(None)] = r
    mu0 = np.array(to_floats(mdp.mu0, lambda i: f"mu0 of state {names[i]}"))
    slots = policy_slots(mdp)
    reach = bfs_levels((P > 0)[np.arange(n), slots], mu0 > 0) >= 0
    sizes = reach.sum(axis=-1)
    for size in sorted(set(sizes.tolist())):  # np.unique would import numpy.ma
        same = np.flatnonzero(sizes == size)
        kept = np.nonzero(reach[same])[1].reshape(len(same), size)  # in state order
        step = max(1, _STACK_CELLS // (size * size))
        for first in range(0, len(same), step):
            pids, x = same[first:first + step], kept[first:first + step]
            square = x[:, :, None], slots[pids[:, None], x][:, :, None], x[:, None, :]
            yield pids, P[square], R[square], mu0[x], x


def pareto_front_long(mdp: FiniteMdp, n_steps: int, tau_grid: Sequence[float],
                      max_policies: int = 10_000) -> ParetoFront:
    """Estimated front: pointwise minimum of per-policy CDF estimates.

    Enumerates stationary deterministic policies; non-ergodic or
    degenerate-variance chains are skipped and reported in one logged
    warning, a line per policy in policy order, which names a reducible
    chain's classes by MDP state index.  Each stack of ``policy_stacks``
    (equal-size chains on the base states reachable from the start, SAS
    and SA alike) is estimated together, with the numbers
    ``estimate_cdf_arrays`` gives each chain alone.  The minimum
    (``_front_minimum``) keeps the earliest policy on ties and evaluates the
    normal CDF only where the minimum can be.  Every witness is estimated once more on its exact
    route, ``float_chain(policy_chain(mdp, policy))`` (the pair-state chain
    of an SAS instance), and its four numbers must match the base-chain
    ones within 1e-9 of ``max(|number|, 2**(k * degree))``, for the chain's
    reward scale ``2**k`` and the number's degree in the rewards
    (``_DEGREES``), so the check does not depend on the reward unit: the
    pair-state transformation's claim, checked at run time.  That route runs at
    horizon 2, the least the transformation accepts, whatever the
    document's horizon.  The number of reward terms is ``n_steps`` for
    both reward conventions (an SAS chain over ``n_steps`` epochs pays
    ``n_steps`` transition rewards).
    """
    taus = np.asarray(tau_grid, dtype=float)
    if taus.ndim != 1 or len(taus) < 2 or np.any(np.diff(taus) <= 0):
        raise PreconditionError("pareto_front_long: grid must be strictly increasing")
    if not np.isfinite(taus).all():
        raise PreconditionError("pareto_front_long: grid must be finite")
    count = math.prod(map(len, mdp.actions))
    if count > max_policies:
        raise BudgetExceededError(
            f"long-horizon front refused: {count} stationary policies exceed "
            f"budget {max_policies}")
    _check_n_steps(n_steps)
    policies = enumerate_stationary_policies(mdp)
    estimated = np.zeros(len(policies), dtype=bool)
    params = np.zeros((len(policies), 4))  # zeta, sigma2, kappa, rhat_start
    skipped = {}
    for pids, *chains in policy_stacks(mdp):
        st = _estimate_stack(*chains)
        estimated[pids[st.ids]] = True
        params[pids[st.ids]] = st.numbers
        skipped.update((int(pids[j]), exc) for j, exc in st.errors.items())
    if skipped:
        import logging  # here, not at the top: an estimate-cdf process never logs
        logging.getLogger(__name__).warning("\n".join(f"policy {pid} skipped: {skipped[pid]}"
                                                       for pid in sorted(skipped)))
    used = np.flatnonzero(estimated)
    if len(used) == 0:
        raise ErgodicityError("no stationary policy induces an ergodic chain")
    best, row = _front_minimum(n_steps, params[used], taus)
    witness = np.where(row >= 0, used[row], -1)
    best = np.maximum.accumulate(best)  # guard against float non-monotonicity in far tails
    listings: dict[int, str] = {}
    routed = replace(mdp, horizon=2)  # chain arrays do not depend on the horizon
    for pid in sorted(set(witness.tolist()) - {-1}):
        st = _estimate_stack(*(a[None] for a in float_chain(policy_chain(routed, policies[pid]))))
        if st.errors:
            raise ErgodicityError(f"policy {pid}: its exact chain is refused: {st.errors[0]}")
        shift = -st.scale[0] * _DEGREES  # exact: to units of the chain's reward scale
        got, want = np.ldexp(st.numbers[0], shift), np.ldexp(params[pid], shift)
        gap = (np.abs(got - want) / np.maximum(1, np.abs(want))).max()
        if not gap <= 1e-9:
            raise ErgodicityError(f"policy {pid}: base-chain estimate differs from its exact "
                                  f"chain's by {gap:.3e} of max(|number|, its reward unit), "
                                  f"beyond 1e-9")
        listings[pid] = "\n".join(
            f"{mdp.states[x]} -> {policies[pid].action(0, x)}" for x in range(mdp.n_states))
    return ParetoFront(kind="estimated", grid=tuple(taus.tolist()), value=tuple(best.tolist()),
                       witness=tuple(witness.tolist()), policies=listings)
