"""Value-at-Risk solvers for finite-state MDPs.

Short horizons are handled exactly (rational arithmetic): reward
simplification, expected-value induction, exact total-reward
distributions, threshold percentiles via cumulative-reward state
augmentation, and the exact CDF Pareto front by one backward pass that
carries every threshold of the grid at once.
Long horizons are estimated: per-policy CDFs come from a
normal-plus-correction expansion on the policy's own states, for state
and transition rewards alike, validated against a seeded Monte Carlo
oracle.  The pair-state transformation preserves transition-reward
distributions, and the estimated front re-checks its witnesses on it.

``import varmdp`` loads the exact, rational layers only, and no numpy.
The float layers (``edgeworth``, ``montecarlo`` and ``transformation``)
load, with numpy, when one of their names is first read from this
package (PEP 562).  No submodule shares a name with an export, so
loading one never hides a function.
"""

import importlib

from .augmented import (AugmentedMdp, VarSolution, augmented_policy_distribution,
                        build_augmented, solve_threshold_var, solve_thresholds)
from .errors import (BudgetExceededError, DegenerateVarianceError, ErgodicityError,
                     PreconditionError, ValidationError, VarMdpError)
from .inventory import (InventoryParams, build_inventory, paper_long, paper_short,
                        paper_short_printed)
from .mdp import (DeterministicPolicy, FiniteMdp, MarkovRewardProcess, StepCdf,
                  check_policy, evaluate_policy, exact_total_reward_distribution,
                  expected_backward_induction, induced_mrp, simplify_reward)
from .pareto import ParetoFront, pareto_front_exact, query_eta, query_rho
from .rationals import format_rational, parse_rational

__version__ = "0.1.0"

__all__ = [
    "AugmentedMdp", "BudgetExceededError", "DegenerateVarianceError", "DeterministicPolicy",
    "EdgeworthCdf", "ErgodicityError", "FiniteMdp", "InventoryParams", "MarkovRewardProcess",
    "ParetoFront", "PreconditionError", "StepCdf", "TransformedMrp", "ValidationError",
    "VarMdpError", "VarSolution", "augmented_policy_distribution", "build_augmented",
    "build_inventory", "check_policy", "enumerate_stationary_policies", "estimate_cdf",
    "estimate_cdf_arrays", "evaluate_policy", "exact_total_reward_distribution",
    "expected_backward_induction", "format_rational", "induced_mrp", "paper_long",
    "paper_short", "paper_short_printed", "pareto_front_exact", "pareto_front_long",
    "parse_rational", "policy_chain", "query_eta", "query_rho", "simplify_reward", "simulate",
    "solve_threshold_var", "solve_thresholds", "transform",
]

_FLOAT_LAYERS = {
    **dict.fromkeys(("EdgeworthCdf", "enumerate_stationary_policies", "estimate_cdf",
                     "estimate_cdf_arrays", "pareto_front_long", "policy_chain"), ".edgeworth"),
    "simulate": ".montecarlo", "TransformedMrp": ".transformation", "transform": ".transformation",
}


def __getattr__(name: str):
    """Import a float layer's name on first use and bind it in this package (PEP 562)."""
    if name not in _FLOAT_LAYERS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_FLOAT_LAYERS[name], __name__), name)
    return globals().setdefault(name, value)

