"""One chain's long-horizon CDF estimate in plain Python floats, without numpy.

``estimate_cdf`` answers ``estimate-cdf``: the normal-plus-Edgeworth
estimate that ``edgeworth`` derives (see its docstring), for one chain.  A
chain of at most ``PLAIN_STATES`` states reachable from its start is
estimated here, in lists of Python floats, so that its process never imports
numpy, which would be about half of its wall time:

- one search over the rows (``mdp.communicating_classes``) gives the
  reachable states, their classes and the period;
- one LU with partial pivoting of ``A = P^T - I``, its last row set to ``1``,
  gives ``X = A^{-1}``: ``xi`` is its last column, ``Z = -X^T`` the
  fundamental kernel, and ``cond = |A|_1 |X|_1``;
- ``zeta``, ``rhat``, ``sigma^2``, ``kappa`` and ``rhat_start`` follow as in
  ``edgeworth``'s stages, in units of the same power-of-two reward scale.

Every refusal comes in the order and with the words of ``edgeworth``'s
stages.  The numbers agree with those stages' to rounding (sums run in
another order), which a test bounds at 1e-12 of their size.  A larger chain
is estimated by those stages, as a stack of one.  ``EdgeworthCdf`` evaluates
a number or a list with ``math.erfc`` and ``math.exp``, and any other
argument, an ndarray say, with ``edgeworth``'s numpy evaluation, which the
long-horizon front shares bit for bit.
"""

from __future__ import annotations

import math
import sys
from operator import mul

from .errors import DegenerateVarianceError, ErgodicityError, PreconditionError
from .mdp import MarkovRewardProcess, _Record, communicating_classes

# The most reachable states estimated in Python floats.  The inverse costs ~n^3
# interpreted float operations, numpy's import a fixed ~70 ms.  On seeded dense
# chains a fresh estimate-cdf process was no slower in Python floats at 112 states
# (196 against 198 ms, median of 21 alternating processes, 2-core host), and
# slower at 116 (213 against 204 ms).
PLAIN_STATES = 112

# As in edgeworth's stages and evaluation (a test pins them equal).
_XI_TOL = 1e-12
_POISSON_TOL = 1e-10
_DEGENERATE_SIGMA2 = 1e-12
_NAMES = ("zeta", "sigma2", "kappa", "rhat_start")
_DEGREES = (1, 2, 3, 1)
_CDF_ZERO_AT_OR_BELOW = -38.4754
_CDF_ONE_AT_OR_ABOVE = 8.2924
_FLAT = 40.0


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
        """The estimate ``F(tau)`` clipped to [0, 1]: a float at a number, a list at a list.

        Any other ``tau`` (an ndarray) goes through ``edgeworth._edgeworth_values``,
        numpy's evaluation, and gives an ndarray, or a float for a 0-d one.
        """
        if isinstance(tau, (int, float)):
            return self._values([tau])[0]
        if isinstance(tau, list):
            return self._values(tau)
        import numpy as np
        from .edgeworth import _edgeworth_values
        out = _edgeworth_values(self.n_steps, self.zeta, self.sigma2, self.kappa,
                                self.rhat_start, np.asarray(tau, dtype=float))
        return float(out) if out.ndim == 0 else out

    def _values(self, taus) -> list[float]:
        """``edgeworth._edgeworth_values`` in Python floats, operation for operation.

        ``math.exp`` may round a density an ulp away from ``np.exp``.
        """
        scale = math.sqrt(self.sigma2) * math.sqrt(self.n_steps)
        shift = float(self.n_steps) * self.zeta  # past the float range: +-inf, as meant
        k, rhat = self.kappa / (6.0 * self.sigma2), self.rhat_start
        root2, root2pi = math.sqrt(2.0), math.sqrt(2.0 * math.pi)
        values = []
        for tau in taus:
            y = (tau - shift) / scale
            flat = -_FLAT if y < -_FLAT else _FLAT if y > _FLAT else y  # NaN stays NaN
            correction = math.exp(-0.5 * flat * flat) / root2pi / scale * (
                k * (1.0 - flat * flat) - rhat)
            if y >= _CDF_ONE_AT_OR_ABOVE:
                value = 1.0 + correction
            elif y <= _CDF_ZERO_AT_OR_BELOW:
                value = 0.0 + correction
            else:
                value = 0.5 * math.erfc(-y / root2) + correction
            values.append(0.0 if value < 0.0 else 1.0 if value > 1.0 else value)
        return values


def estimate_cdf(mrp: MarkovRewardProcess, n_steps: int) -> EdgeworthCdf:
    """Estimate the CDF of the ``n_steps``-term total reward of an ergodic chain.

    ``n_steps`` is the number of reward summands.  The chain is taken on
    the states reachable from its start, whether it pays state or
    transition rewards.  The start distribution enters through
    ``rhat_start = E_mu0[rhat]``; the third-moment constant is the
    stationary one (the asymptotic constant does not depend on the start).
    Degenerate variance is refused, and a reducible chain's classes are
    named by the process's state indices.  A chain of more than
    ``PLAIN_STATES`` reachable states is estimated by ``edgeworth``'s stages,
    on ``edgeworth.float_chain``.
    """
    floats = mrp.float_rows()
    moves, _, mu0 = floats
    reach, classes, period = communicating_classes(moves, mu0)
    if len(reach) > PLAIN_STATES:
        from .edgeworth import _estimate_one, float_chain
        return _estimate_one(n_steps, *float_chain(mrp, floats))
    _check_n_steps(n_steps)
    if len(classes) > 1:
        raise ErgodicityError(f"chain is reducible: {len(classes)} communicating classes "
                              f"{classes}")
    if period != 1:
        raise ErgodicityError(f"chain is periodic with period {period}")
    return _estimate(n_steps, moves, mu0, reach)


def _check_n_steps(n_steps: int) -> None:
    """The estimate scales by ``sqrt(n_steps)``, so the count must fit in a float."""
    if n_steps < 1:
        raise PreconditionError("estimate_cdf: n_steps must be >= 1")
    if n_steps > sys.float_info.max:
        raise PreconditionError(
            f"estimate_cdf: n_steps must be at most {sys.float_info.max:.6g}")


def _unscaled(value: float, scale: int, power: int = 1) -> str:
    """``value * (2**scale)**power`` as ``%.3e``: a number of the stages' unit in the rewards'."""
    unit = 2.0 ** scale  # a product of Python floats that overflows is inf, not an error
    return f"{math.prod([value] + [unit] * power):.3e}"


def _ldexp(value: float, power: int) -> float:
    """``value * 2**power``, an infinity of its sign past the float range."""
    try:
        return math.ldexp(value, power)
    except OverflowError:
        return math.copysign(math.inf, value)


def _inverse(A: list[list[float]]) -> list[list[float]]:
    """The columns of ``A^{-1}``: ``cols[c]`` solves ``A x = e_c``.

    LU with partial pivoting, ``P_m A = L U``, in its left-looking form: column
    ``k`` of the factors comes from the columns before it, and its pivot is the
    first entry of largest size, as LAPACK's ``getrf`` takes it.  Then ``L U x =
    P_m e_c`` for each ``c``, by forward and back substitution.  Every step is an
    inner product, ``sum(map(mul, ...))``, which runs in C.  An exact zero pivot
    is refused as numpy's solve refuses it.
    """
    n = len(A)
    rows, perm = list(A), list(range(n))
    lower = [[] for _ in range(n)]  # lower[i]: row i of L below its diagonal, so far
    upper = []  # upper[k]: column k of U, to its diagonal
    for k in range(n):
        u = []
        for p in range(k):
            u.append(rows[p][k] - sum(map(mul, lower[p], u)))
        s = [rows[i][k] - sum(map(mul, lower[i], u)) for i in range(k, n)]
        size = list(map(abs, s))
        big = max(size)
        if big == 0.0:
            raise ErgodicityError("stationary solve failed: Singular matrix")
        p = k + size.index(big)
        rows[k], rows[p], lower[k], lower[p] = rows[p], rows[k], lower[p], lower[k]
        perm[k], perm[p], s[0], s[p - k] = perm[p], perm[k], s[p - k], s[0]
        upper.append(u + [s[0]])
        for i in range(k + 1, n):
            lower[i].append(s[i - k] / s[0])
    # row i of U right of its diagonal, from the last column in
    tails = [[upper[j][i] for j in range(n - 1, i, -1)] for i in range(n)]
    cols = [None] * n
    for q, c in enumerate(perm):  # P_m e_c is 1 at row q and 0 above it
        y = [1.0]
        for i in range(q + 1, n):
            y.append(-sum(map(mul, lower[i][q:], y)))
        y = [0.0] * q + y
        x = []  # from the last row up
        for i in range(n - 1, -1, -1):
            x.append((y[i] - sum(map(mul, tails[i], x))) / upper[i][i])
        cols[c] = x[::-1]
    return cols


def _estimate(n_steps: int, moves, mu0, reach: list[int]) -> EdgeworthCdf:
    """``edgeworth``'s stages after the structural check, on one chain in Python floats.

    ``moves`` and ``mu0`` are ``MarkovRewardProcess.float_rows``' lists and
    ``reach`` the states kept.  Only the moves enter a sum: a zero-mass cell
    adds 0 in the stages too.
    """
    n = len(reach)
    at = {x: i for i, x in enumerate(reach)}
    top = max(abs(r) for x in reach for r in moves[x][2])
    scale = math.frexp(top)[1] - 1  # 2**scale <= max |R| < 2**(scale + 1); -1 for no reward
    rows = [[(at[y], p, math.ldexp(r, -scale)) for y, p, r in zip(*moves[x])] for x in reach]

    # stationary_distribution
    A = [[0.0] * n for _ in range(n)]
    for x, row in enumerate(rows):
        for y, p, _ in row:
            A[y][x] = p
    for i in range(n):
        A[i][i] -= 1.0
    A[-1] = [1.0] * n
    cond = max(sum(map(abs, column)) for column in zip(*A))
    cols = _inverse(A)  # the columns of X
    cond *= max(sum(map(abs, column)) for column in cols)
    low = min(cols[-1])
    if low < -1e-12:
        raise ErgodicityError(f"stationary solve produced negative mass {low:.3e}")
    xi = [0.0 if v < 1e-15 else v for v in cols[-1]]
    total = sum(xi)
    xi = [v / total for v in xi]
    flow = [0.0] * n  # xi P
    for x, row in enumerate(rows):
        for y, p, _ in row:
            flow[y] += xi[x] * p
    residual = max(abs(a - b) for a, b in zip(flow, xi))
    if residual > _XI_TOL:
        raise ErgodicityError(f"stationary residual {residual:.3e} exceeds {_XI_TOL}")

    def kernel(g: list[float]) -> list[float]:
        """``Z g = -X^T g``, in the gauge ``xi . h = 0``."""
        h = [-sum(map(mul, col, g)) for col in cols]
        mean = sum(map(mul, xi, h))
        return [a - mean for a in h]

    # spectral_data
    zeta = sum(w * sum(p * r for _, p, r in row) for w, row in zip(xi, rows))
    if not cond <= 1e14:  # NaN too
        raise ErgodicityError(f"fundamental kernel is numerically singular (cond ~ {cond:.3e})")
    centered = [[(y, p, r - zeta) for y, p, r in row] for row in rows]
    f = [sum(p * r for _, p, r in row) for row in centered]  # M_1 1
    rhat = kernel(f)
    residual = max(abs(sum(p * rhat[y] for y, p, _ in row) - rhat[x] + f[x])
                   for x, row in enumerate(centered))
    if residual > _POISSON_TOL:
        raise ErgodicityError(f"Poisson residual {_unscaled(residual, scale)} exceeds "
                              f"{_unscaled(_POISSON_TOL, scale)} (cond ~ {cond:.3e})")
    sigma2 = sum(w * sum(p * (r + rhat[y] - rhat[x]) ** 2 for y, p, r in row)
                 for x, (w, row) in enumerate(zip(xi, centered)))  # the martingale form
    if sigma2 <= _DEGENERATE_SIGMA2:
        raise DegenerateVarianceError(
            f"asymptotic variance {_unscaled(sigma2, scale, 2)} is (numerically) zero; "
            f"the normalized total reward is degenerate")
    weights = []  # per move (y, M_1, M_2, M_3), M_j = P o Rt^j / j!
    for row in centered:
        weights.append([])
        for y, p, r in row:
            m1 = p * r
            m2 = m1 * r / 2.0
            weights[-1].append((y, m1, m2, m2 * r / 3.0))
    second = [sum(m1 * rhat[y] for y, m1, _, _ in row) + sum(m2 for _, _, m2, _ in row)
              for row in weights]

    # third_moment_constant
    v2 = kernel([s - sigma2 / 2.0 for s in second])
    kappa = 6.0 * sum(w * (sum(m1 * v2[y] for y, m1, _, _ in row)
                           + sum(m2 * rhat[y] for y, _, m2, _ in row)
                           + sum(m3 for _, _, _, m3 in row)) for w, row in zip(xi, weights))

    units = (zeta, sigma2, kappa, sum(mu0[x] * h for x, h in zip(reach, rhat)))
    numbers = [_ldexp(u, scale * d) for u, d in zip(units, _DEGREES)]
    for name, number in zip(_NAMES, numbers):
        if not math.isfinite(number):
            raise ErgodicityError(f"{name} is {number}: the rewards are too large for a float "
                                  f"estimate")
    for name, unit, number, degree in zip(_NAMES, units, numbers, _DEGREES):
        if abs(number) < sys.float_info.min and unit != 0:
            raise ErgodicityError(f"{name} is {unit:.3e} times 2**{scale * degree}, "
                                  f"{number:.3e} as a float: the rewards are too small for a "
                                  f"float estimate")
    return EdgeworthCdf(int(n_steps), *numbers, cond_h=cond)
