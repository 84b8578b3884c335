"""Exception types, the number checks and the paper's parameter domain."""

import math
import numbers

import numpy as np

# the space dimension and the energy when none is given, for a resolvent
# query and for the Carleman certificate a sweep is checked against
DIMENSION = 3
ENERGY = 1.0
# the left end of the radial range in dimension two when none is given: the
# exterior domain r >= 1 on which the two-dimensional estimates hold
R_MIN_D2 = 1.0


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


def _check_real(name, value, error=InvalidInputError):
    """``value``, required to be a real number that is not a bool (numpy reals included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a number, got {value!r}")
    return value


def _check_integer(name, value, least, error=InvalidInputError):
    """Require a non-bool integer (numpy integers included) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise error(f"{name} must be at least {least}, got {value}")


def _check_positive(name, value, error=InvalidInputError):
    """Require a positive finite number."""
    _check_real(name, value, error)
    if not 0.0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def _check_at_least(name, value, least, error=InvalidInputError):
    """Require a finite real number of at least ``least``."""
    _check_real(name, value, error)
    if not least <= value < math.inf:
        bound = "nonnegative" if least == 0 else f"at least {least:g}"
        raise error(f"{name} must be finite and {bound}, got {value}")


def _check_interval(name, value, hi, error=InvalidInputError, closed=True):
    """Require a real number in (0, hi], or in (0, hi) when not ``closed``."""
    _check_real(name, value, error)
    if not (0.0 < value < hi or closed and value == hi):
        raise error(f"{name} must lie in (0, {hi:g}{']' if closed else ')'}, got {value}")


def _check_domain(error, d, E, h, s):
    """Raise ``error`` unless integer d >= 2, finite E > 0 and s > 1/2, and 0 < h <= 1."""
    _check_integer("d", d, 2, error)
    _check_positive("E", E, error)
    _check_interval("h", h, 1.0, error)
    _check_real("s", s, error)
    if not s > 0.5:
        raise error(f"s below lower bound 1/2 (got {s})")
    if s == math.inf:
        raise error("s must be finite, got inf")


def _inner_radius(d, r_min):
    """The left end of the radial range: ``r_min``, a finite number >= 0, > 0 when d = 2.

    None gives 0, or R_MIN_D2 in dimension two; d = None skips the d = 2 rule.
    """
    if r_min is None:
        return R_MIN_D2 if d == 2 else 0.0
    _check_at_least("r_min", r_min, 0.0)
    if d == 2 and r_min == 0:
        raise InvalidInputError("dimension two requires r_min > 0")
    return r_min
