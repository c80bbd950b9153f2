"""Simulation oracle: seeded trajectory sampling.

Serves as the independent check on both the exact short-horizon
distributions and the long-horizon estimates.  Sampling runs the numpy
kernel of ``_kernels`` and is reproducible bit-exactly from the seed
(counter-based streams), so results are stable in CI.  A state reward
is the transition reward ``R[x, y] = r[x]``, so one kernel loop serves
both reward conventions.
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
    cum = np.cumsum([[float(p) for p in row] for row in mrp.kernel], axis=1)
    cum[:, -1] = 1.0
    mu0 = np.cumsum([float(p) for p in mrp.mu0])
    mu0[-1] = 1.0
    if mrp.reward_on == "state":
        state = np.array([float(r) for r in mrp.state_reward])
        step_reward = np.broadcast_to(state[:, None], cum.shape)
    else:
        step_reward = np.zeros(cum.shape)
        for (x, y), r in mrp.transition_reward.items():
            step_reward[x, y] = float(r)
    final = [state] if mrp.include_final_reward else []
    if mrp.salvage is not None:
        final.append(np.array([float(v) for v in mrp.salvage]))
    totals = simulate_totals(cum, mu0, steps, samples, seed,
                             step_reward=step_reward, final=tuple(final))
    totals.sort()
    return totals

