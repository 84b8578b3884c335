"""Exception types shared across the laboratory, and the one finiteness check."""

import numpy as np


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


def require_finite(what, values, r):
    """Raise EvaluationError "<what> not finite at r=<node>" for the first bad node.

    ``values`` holds one number per node of ``r``; the estimates hold for
    real-valued potentials only, so a NaN or inf must stop the computation.
    """
    finite = np.isfinite(values)
    if not finite.all():
        raise EvaluationError(f"{what} not finite at r={r[~finite][0]:.6g}")
