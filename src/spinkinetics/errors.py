"""Exception types shared across the package, and :func:`checked`, the one check
of every scalar library input, made where it enters. NaN and -inf never pass;
+inf passes only where it is a documented limit: the inverse temperature beta
(the irreversible limit) and the contact reactivity kappa0 (where the reaction
radius saturates at the contact distance)."""

import math


class SpinKineticsError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(SpinKineticsError, ValueError):
    """Operands live on different bases or have incompatible shapes."""


class ValidationError(SpinKineticsError, ValueError):
    """An input violates a documented invariant."""


class RegimeError(SpinKineticsError, ValueError):
    """Parameters fall outside the regime where a formula applies."""


class NumericalError(SpinKineticsError, RuntimeError):
    """A numerical routine failed to produce a trustworthy result."""


class NonDecayingGeneratorError(NumericalError):
    """The generator has non-decaying modes; infinite-time integrals diverge."""


def checked(name: str, value, low=-math.inf, *, strict: bool = False, infinite: bool = False):
    """``value`` if it is finite and at least ``low`` (above it when ``strict``),
    or +inf when ``infinite``; else a ValidationError naming ``name`` and the
    value. Every comparison with NaN is false, so NaN never passes."""
    if (value > low if strict else value >= low) and -math.inf < value and (
            infinite or value < math.inf):
        return value
    rule = "finite" if low == -math.inf else f"finite and {'>' if strict else '>='} {low:g}"
    raise ValidationError(f"{name} must be {rule}{' or +inf' if infinite else ''}, got {value}")
