"""Simulation oracle: seeded trajectory sampling.

Serves as the independent check on both the exact short-horizon
distributions and the long-horizon estimates.  Sampling runs the numpy
kernel of ``_kernels`` on every CPU the process may use, and is
reproducible from the seed (counter-based streams), bit-exact whatever
the number of CPUs, so results are stable in CI.  What each move
pays and what the last state adds come from
``MarkovRewardProcess.arrays``, the float view of its ``rows``.
"""

from __future__ import annotations

import numpy as np

from ._kernels import simulate_totals
from .errors import PreconditionError
from .mdp import MarkovRewardProcess


def simulate(mrp: MarkovRewardProcess, samples: int, seed: int,
             n_steps: int | None = None) -> np.ndarray:
    """Sample iid trajectories and return their total rewards, sorted.

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
    P, R, final, mu0 = mrp.arrays()
    totals = simulate_totals(np.cumsum(P, axis=1), np.cumsum(mu0), steps, samples, seed,
                             step_reward=R, final=final)
    totals.sort()
    return totals

