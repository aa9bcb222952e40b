"""Exception types shared across the package."""

import math


class CiltrackError(Exception):
    """Base class for all package errors."""


class NotFoundError(CiltrackError):
    """A required file or directory does not exist."""


class FormatError(CiltrackError):
    """On-disk data or in-memory structure violates the dataset format."""


class ConflictError(CiltrackError):
    """Two label sources overlap where they must be disjoint."""


class ShapeError(CiltrackError):
    """Array dimensions are inconsistent with the model or data."""


class ValidationError(CiltrackError):
    """An input value is outside its legal range (NaN, negative size, ...)."""


class NumericalError(CiltrackError):
    """A computation produced a non-finite value."""


class DegenerateDistributionError(CiltrackError):
    """A Gaussian with zero standard deviation where positive spread is required."""


class StateError(CiltrackError):
    """A stage was run without the checkpoint or state it depends on."""


class PlanError(CiltrackError):
    """A stage plan assigns the same class to more than one stage."""


def check_ranges(section: str, config, **rules: str) -> None:
    """Raise ValidationError naming ``[section] key`` for the first field of
    ``config`` that is not finite or breaks its rule (``">= 1"``, ``"> 0"``)."""
    for key, rule in rules.items():
        value = getattr(config, key)
        op, bound = rule.split()
        in_range = value >= float(bound) if op == ">=" else value > float(bound)
        if not (math.isfinite(value) and in_range):
            message = f"[{section}] {key} = {value!r} must be finite and {rule}"
            raise ValidationError(message)
