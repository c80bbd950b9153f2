"""Exception hierarchy shared across the package."""


class VarMdpError(Exception):
    """Base class for all package errors."""


class ValidationError(VarMdpError):
    """A document or model failed a structural invariant (names the field/state)."""


class PreconditionError(VarMdpError):
    """An operation was called on inputs that violate its contract."""


class BudgetExceededError(VarMdpError):
    """An exact enumeration would exceed its configured budget."""


class ErgodicityError(VarMdpError):
    """A chain is not a single aperiodic recurrent class."""


class DegenerateVarianceError(VarMdpError):
    """The asymptotic variance is zero; no CDF estimate is possible."""
