"""Shared exception types.

Every failure mode that a caller is expected to handle gets its own class;
plain assertions are reserved for programmer errors.
"""


class CurvlabError(Exception):
    """Base class for all package errors."""


class ParameterError(CurvlabError, ValueError):
    """A constructor or operation received an out-of-range parameter."""


class DomainError(CurvlabError, ValueError):
    """A function was evaluated outside its declared domain."""


class EvaluationError(CurvlabError, ArithmeticError):
    """A pointwise evaluation produced non-finite values."""


class NumericalError(CurvlabError, RuntimeError):
    """A numerical routine failed (singular solve, bracket failure, ...)."""


class QuadratureError(CurvlabError, RuntimeError):
    """An integration window failed its tail-mass guard or did not converge."""


class CertificationError(CurvlabError, RuntimeError):
    """No admissible certificate constants could be found; carries the worst point."""

    def __init__(self, message, worst_point=None, worst_margin=None):
        super().__init__(message)
        self.worst_point = worst_point
        self.worst_margin = worst_margin


class SimulationError(CurvlabError, RuntimeError):
    """A simulated path left |x| = 1e8 or turned non-finite."""

    def __init__(self, message, exploded_fraction=None):
        super().__init__(message)
        self.exploded_fraction = exploded_fraction
