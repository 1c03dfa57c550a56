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
    finite, and strands whose chain of nested minors cannot be completed:
    some level stays short of full rank at every draw the 2^-40 bound of
    `strands._profile_draws` asks for, or the chain leaves rows over.
    """


class ConsistencyError(ImplicaxError):
    """An internal cross-check failed (degree mismatch, evaluation oracle)."""


class UsageError(ImplicaxError):
    """A request the pipeline does not take as given: an unknown method, a
    strand degree below the proven bound without allow_sub_bound, a negative
    strand degree, no oracle trials, or the resultant route on a surface."""
