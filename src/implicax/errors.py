"""Failure taxonomy shared by the strand, geometry and pipeline layers."""

from .arith import ArithError, NotDivisibleError, ParseError, SmallCharacteristicError

__all__ = [
    "ImplicaxError",
    "ParseError",
    "NotDivisibleError",
    "SmallCharacteristicError",
    "HypothesisViolation",
    "ConsistencyError",
    "UsageError",
]

ImplicaxError = ArithError


class HypothesisViolation(ImplicaxError):
    """The input violates a hypothesis of the implicitization theorems.

    Raised for positive-dimensional base loci, maps that are not generically
    finite, and strand rank profiles inconsistent with generic exactness.
    """


class ConsistencyError(ImplicaxError):
    """An internal cross-check failed (degree mismatch, evaluation oracle)."""


class UsageError(ImplicaxError):
    """A request the pipeline does not take as given: an unknown method, a
    strand degree below the proven bound without allow_sub_bound, a negative
    strand degree, no oracle trials, or the resultant route on a surface."""
