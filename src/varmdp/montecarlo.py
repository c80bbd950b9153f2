"""Simulation oracle: seeded trajectory sampling and CDF distances.

Serves as the independent check on both the exact short-horizon
distributions and the long-horizon estimates.  Sampling runs the numpy
kernel of ``_kernels`` and is reproducible bit-exactly from the seed
(counter-based streams), so results are stable in CI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._kernels import simulate_totals
from .errors import PreconditionError
from .mdp import MarkovRewardProcess


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution of simulated total rewards."""

    samples: np.ndarray  # sorted, float64
    seed: int

    @property
    def n(self) -> int:
        return len(self.samples)

    def evaluate(self, tau) -> float:
        return float(np.searchsorted(self.samples, tau, side="right")) / self.n

    def evaluate_many(self, taus) -> np.ndarray:
        return np.searchsorted(self.samples, np.asarray(taus), side="right") / self.n


def _float_arrays(mrp: MarkovRewardProcess):
    kernel = np.array([[float(p) for p in row] for row in mrp.kernel])
    cum = np.cumsum(kernel, axis=1)
    cum[:, -1] = 1.0
    mu0 = np.cumsum([float(p) for p in mrp.mu0])
    mu0[-1] = 1.0
    salvage = None
    if mrp.salvage is not None:
        salvage = np.array([float(v) for v in mrp.salvage])
    if mrp.reward_on == "state":
        state = np.array([float(r) for r in mrp.state_reward])
        return cum, mu0, state, None, salvage
    trans = np.zeros(kernel.shape)
    for (x, y), r in mrp.transition_reward.items():
        trans[x, y] = float(r)
    return cum, mu0, None, trans, salvage


def simulate(mrp: MarkovRewardProcess, samples: int, seed: int,
             n_steps: int | None = None) -> EmpiricalCdf:
    """Sample iid trajectories and return the empirical total-reward CDF.

    Totals follow the process's own reward convention (state or
    transition rewards, final-epoch collection, salvage).  ``n_steps``
    overrides the number of epochs; identical seeds give identical
    output.
    """
    if samples < 1:
        raise PreconditionError("simulate: samples must be >= 1")
    steps = mrp.horizon if n_steps is None else int(n_steps)
    if steps < 1:
        raise PreconditionError("simulate: n_steps must be >= 1")
    cum, mu0, state, trans, salvage = _float_arrays(mrp)
    totals = simulate_totals(
        cum, mu0, steps, samples, seed,
        state_reward=state, trans_reward=trans,
        include_final=mrp.include_final_reward, salvage=salvage)
    totals.sort()
    return EmpiricalCdf(samples=totals, seed=int(seed))


def _as_callable(cdf):
    if callable(cdf):
        return cdf
    if hasattr(cdf, "evaluate"):
        return cdf.evaluate
    raise PreconditionError(f"ks_distance: {type(cdf).__name__} is not CDF-like")


def ks_distance(a, b, grid) -> float:
    """Max over the grid of |a(tau) - b(tau)|; symmetric in its arguments."""
    grid = list(np.atleast_1d(np.asarray(grid, dtype=float)))
    if not grid:
        raise PreconditionError("ks_distance: empty grid")
    fa, fb = _as_callable(a), _as_callable(b)
    return max(abs(float(fa(t)) - float(fb(t))) for t in grid)
