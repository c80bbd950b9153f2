"""Value-at-Risk solvers for finite-state MDPs.

Short horizons are handled exactly (rational arithmetic): reward
simplification, expected-value induction, exact total-reward
distributions, threshold percentiles via cumulative-reward state
augmentation, and the exact CDF Pareto front by one backward pass that
carries every threshold of the grid at once.
Long horizons are estimated: per-policy CDFs come from a
normal-plus-correction expansion on the policy's own states, for state
and transition rewards alike, validated against a seeded Monte Carlo
oracle.  The exact pair-state transformation preserves transition-reward
distributions, and the estimated front re-checks its witnesses on it.

A name loads its module on first read (PEP 562).  ``_EXPORTS`` names
each export once, under its module, and ``__all__`` derives from it, so
``import varmdp`` loads no submodule and no numpy; only the float layers
(``edgeworth``, ``montecarlo``, ``_kernels``) bring numpy.  ``chain``
estimates one small chain in Python floats, without them.  No
submodule shares a name with an export, so loading one hides no function.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "augmented": ("AugmentedMdp", "VarSolution", "augmented_policy_distribution",
                  "build_augmented", "solve_threshold_var", "solve_thresholds"),
    "chain": ("EdgeworthCdf", "estimate_cdf"),
    "edgeworth": ("enumerate_stationary_policies", "estimate_cdf_arrays", "pareto_front_long",
                  "policy_chain"),
    "errors": ("BudgetExceededError", "DegenerateVarianceError", "ErgodicityError",
               "PreconditionError", "ValidationError", "VarMdpError"),
    "inventory": ("InventoryParams", "build_inventory", "paper_long", "paper_short",
                  "paper_short_printed"),
    "mdp": ("DeterministicPolicy", "FiniteMdp", "MarkovRewardProcess", "ParetoFront", "StepCdf",
            "check_policy", "evaluate_policy", "exact_total_reward_distribution",
            "expected_backward_induction", "induced_mrp", "simplify_reward"),
    "montecarlo": ("simulate",),
    "pareto": ("pareto_front_exact", "query_eta", "query_rho"),
    "rationals": ("format_rational", "parse_rational"),
    "transformation": ("transform",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module of the export ``name`` and bind the name in this package (PEP 562)."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return globals().setdefault(name, value)
