"""Exact rational parsing/formatting helpers.

All short-horizon quantities in this package are ``fractions.Fraction``
values.  Documents accept numerics as integers, decimal strings
("0.25") or ratio strings ("1/4"); they are stored exactly.
"""

from fractions import Fraction

from .errors import ValidationError


def parse_rational(value, field: str = "value") -> Fraction:
    """Parse an exact rational from an int, Fraction, or string.

    Floats are accepted through their shortest decimal representation,
    so a JSON literal 0.25 parses to 1/4, not to its binary expansion.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"{field}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        value = repr(float(value))  # plain float repr, also for numpy scalars
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"{field}: cannot parse rational from {value!r}") from exc
    raise ValidationError(f"{field}: cannot parse rational from {type(value).__name__}")


def format_rational(q: Fraction) -> str:
    """Canonical string form: plain integer or "num/den"."""
    return str(Fraction(q))
