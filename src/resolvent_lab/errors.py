"""Exception types shared across the laboratory."""


class ResolventLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(ResolventLabError):
    """An argument violates a documented precondition."""


class InvalidConfigError(InvalidInputError):
    """A parameter pack violates one of its defining relations."""


class EvaluationError(ResolventLabError):
    """A numerical evaluation produced non-finite or inconsistent values."""


class AccuracyError(ResolventLabError):
    """An iterative or quadrature computation missed its tolerance."""


class SingularPointError(ResolventLabError):
    """Evaluation was requested at the singular radius r = a."""


class SingularMatrixError(ResolventLabError):
    """A sector factorization failed."""


class SearchExhaustedError(ResolventLabError):
    """No admissible phase amplitude was found below the search cap."""

    def __init__(self, message, history=()):
        super().__init__(message)
        self.history = tuple(history)
