"""Exception types shared across the package.

The CLI maps these onto process exit codes; library users can catch the
base class to handle anything raised by miezesim itself.
"""

from __future__ import annotations

import numbers

__all__ = [
    "MiezesimError",
    "ConfigError",
    "PhysicsError",
    "ResolutionError",
    "FitError",
    "DegenerateDataError",
    "DiagnosticError",
]


class MiezesimError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(MiezesimError):
    """Malformed or inconsistent configuration or input data (exit code 2)."""


class PhysicsError(MiezesimError):
    """Physically infeasible geometry or settings (exit code 3)."""


class ResolutionError(MiezesimError):
    """k-space grid cannot resolve the integrand phase (quadrature would alias; exit code 2)."""


class FitError(MiezesimError):
    """Least-squares fit failed or was given insufficient data (exit code 4)."""


class DegenerateDataError(FitError):
    """Input data carries no usable signal, e.g. all-zero counts (exit code 4)."""


class DiagnosticError(MiezesimError):
    """A self-check failed, e.g. too many bootstrap refits failed (exit code 4)."""


def bounded_repr(value) -> str:
    """``repr(value)`` for an error message, cut to 80 characters.

    An integer of more than 320 bits is named by its bit length instead:
    ``repr`` itself raises for one of over 4300 digits.
    """
    if isinstance(value, int) and value.bit_length() > 320:
        return f"an integer of {value.bit_length()} bits"
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def integer_in_range(value, low: int, high: int, message: str) -> int:
    """``value`` as an ``int``, if it is a real number equal to an integer in [low, high].

    ``2.0`` and numpy integers count; booleans do not.  Anything else raises
    ``ConfigError(message)`` with ``bounded_repr(value)`` in place of ``{}``.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            if (number := int(value)) == value and low <= number <= high:
                return number
        except (OverflowError, ValueError):  # int() of an infinity or a NaN
            pass
    raise ConfigError(message.format(bounded_repr(value)))
