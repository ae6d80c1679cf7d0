"""Exception types shared across the package, and the integer and real
rules of the config parsers."""

import math
import numbers
import operator


class EquiSzegoError(Exception):
    """Base class for all package errors."""


class ConfigError(EquiSzegoError):
    """Invalid experiment configuration (CLI exit code 2)."""


class AssumptionViolation(EquiSzegoError):
    """A structural assumption fails, e.g. 0 lies in the convex hull of the
    torus weight columns, or a stabilizer is not finite (CLI exit code 3)."""


class TransversalityError(EquiSzegoError):
    """The evaluation map on the moment-kernel is numerically singular."""


class DomainError(EquiSzegoError):
    """Operation called outside its geometric domain (e.g. off the locus)."""


class InfeasibleLocusError(EquiSzegoError):
    """The requested concentration locus is empty."""


def config_integer(v, key: str) -> int:
    """Config value v as an int.  An integral float such as 2.0 is accepted;
    a fractional number, a bool, a string or a list is a config error, not
    truncated or parsed."""
    if isinstance(v, float) and v.is_integer():
        return int(v)
    if not isinstance(v, bool):
        try:
            return operator.index(v)
        except TypeError:
            pass
    raise ConfigError(f"'{key}' takes integers, got {v!r}")


def config_real(v, key: str) -> float:
    """Config value v as a finite float.  Any real number is accepted; a
    bool, a string, a list or a non-finite number is a config error, not
    read as 1.0 or parsed."""
    if isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v):
        return float(v)
    raise ConfigError(f"'{key}' takes finite real numbers, got {v!r}")
