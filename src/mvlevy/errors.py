"""Exception hierarchy shared across the package, and the checks that
turn a config section into dataclass keywords and its values into numbers."""

import numbers
from dataclasses import MISSING, fields


def _config_kwargs(cls, obj):
    """obj as keyword arguments of the dataclass cls.  ValueError when obj
    is not an object, names a key that is not a field of cls, or lacks a
    field that has no default."""
    if not isinstance(obj, dict):
        raise ValueError(f"{cls.__name__} config must be an object, got {obj!r}")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {cls.__name__} keys {unknown}")
    missing = [f.name for f in fields(cls) if f.name not in obj and f.default is MISSING]
    if missing:
        raise ValueError(f"{cls.__name__} config lacks {missing}")
    return dict(obj)


def _check_numeric(obj):
    """ValueError unless every float- or int-typed field of the dataclass
    obj holds a real number (a bool or a string is not one), so that the
    range checks that follow compare numbers."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if f.type in (float, int) and (isinstance(v, bool)
                                       or not isinstance(v, numbers.Real)):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be a number, got {v!r}")


class MvLevyError(Exception):
    """Base class for all package-specific errors."""


class DivergentMoment(MvLevyError):
    """Requested jump-measure moment integral diverges."""


class InvalidRegion(MvLevyError):
    """Region parameter (e.g. radius l) is out of range."""


class InfiniteOverlap(MvLevyError):
    """Overlap mass is infinite (x = 0 with an infinite-activity measure)."""


class DimensionMismatch(MvLevyError):
    """Operands live in different dimensions."""


class EmptyMeasure(MvLevyError):
    """An empirical measure with no points was supplied."""


class Blowup(MvLevyError):
    """Trajectory escaped the admissible region.

    Carries the step index at which the guard tripped.
    """

    def __init__(self, step, value):
        super().__init__(f"trajectory exceeded guard at step {step}: |x| = {value:.3e}")
        self.step = step
        self.value = value


class NotInTheta(MvLevyError):
    """The (eps1, eps2, r0, l) tuple is outside the admissible index set."""


class CaseViolation(MvLevyError):
    """Lyapunov parameters satisfy neither threshold case."""


class QuadratureFailure(MvLevyError):
    """Adaptive quadrature failed to reach its tolerance."""


class GridTooCoarse(MvLevyError):
    """Root scan grid cannot separate adjacent roots."""


class NoTransition(MvLevyError):
    """Root-count transition not found in the scanned interval."""


class SigmaViolatesH2(MvLevyError):
    """Piecewise-linear sigma fails positivity, monotonicity, concavity, or domination."""


class ZeroOverlap(MvLevyError):
    """J(kappa) = 0, so the coupling constants are undefined."""


class NoiseFloorExceedsTol(MvLevyError):
    """Fixed-point tolerance is below the Monte Carlo noise floor."""


class UnsupportedFamily(MvLevyError):
    """Drift family or parameter combination is not supported."""
