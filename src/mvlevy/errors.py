"""Exception hierarchy shared across the package, and the one description
of a config section: the declared field types of its dataclass.

A config dataclass runs _check_types in __post_init__, reads a JSON
section through _config_kwargs, and writes one back through _to_json."""

import numbers
import typing
from dataclasses import MISSING, fields, is_dataclass

_KIND_NAMES = {float: "a number", int: "an integer", str: "a string", tuple: "a list"}


def _is_kind(v, kind):
    """True when v is of kind: float takes any real number and int any
    integer, but a bool is neither; [k] is a nonempty list of k, tuple[k, ...]
    a tuple of k, and any other type its instances."""
    if isinstance(kind, list):
        return isinstance(v, list) and bool(v) and all(_is_kind(x, kind[0]) for x in v)
    if typing.get_origin(kind) is tuple:
        return isinstance(v, tuple) and all(_is_kind(x, typing.get_args(kind)[0]) for x in v)
    kind = {float: numbers.Real, int: numbers.Integral}.get(kind, kind)
    return not isinstance(v, bool) and isinstance(v, kind)


def _kind_name(kind):
    if isinstance(kind, list):
        return f"a nonempty list, each item {_kind_name(kind[0])}"
    if typing.get_origin(kind) is tuple:
        return f"a list, each item {_kind_name(typing.get_args(kind)[0])}"
    return _KIND_NAMES.get(kind, f"a {kind.__name__}")


def _config_kwargs(cls, obj, section=None, extra=()):
    """obj, the config section named section (cls's name by default), as
    keyword arguments of the dataclass cls, with a list given for a tuple
    field made a tuple.  The section may name the fields of cls except
    those that hold a dataclass (the caller passes those itself), and the
    keys in extra (the caller reads those itself).  ValueError when obj is
    not an object, names another key, or lacks a field that has no default."""
    section = section or cls.__name__
    if not isinstance(obj, dict):
        raise ValueError(f"config section {section!r} must be an object, got {obj!r}")
    own = {f.name: f for f in fields(cls) if not is_dataclass(f.type)}
    unknown = sorted(set(obj) - set(own) - set(extra))
    if unknown:
        raise ValueError(f"unknown keys {unknown} in config section {section!r}")
    missing = [k for k, f in own.items() if k not in obj and f.default is MISSING]
    if missing:
        raise ValueError(f"config section {section!r} lacks {missing}")
    tuples = {k for k, f in own.items() if (typing.get_origin(f.type) or f.type) is tuple}
    return {k: tuple(v) if k in tuples and isinstance(v, list) else v
            for k, v in obj.items()}


def _check_types(obj):
    """ValueError unless every field of the dataclass obj holds a value of
    its declared type (see _is_kind); a field whose default is None may
    also hold None.  It runs first in __post_init__, so that the range
    checks that follow compare numbers."""
    for f in fields(obj):
        v = getattr(obj, f.name)
        if not (_is_kind(v, f.type) or (v is None and f.default is None)):
            raise ValueError(f"{type(obj).__name__}.{f.name} must be "
                             f"{_kind_name(f.type)}, got {v!r}")


def _from_json(cls, obj):
    """The config dataclass cls read from the JSON section obj."""
    return cls(**_config_kwargs(cls, obj))


def _to_json(obj):
    """The config dataclass obj as a JSON section: every field, with tuples
    written as lists."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj)}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in out.items()}


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
    """An integral could not be evaluated to its tolerance, or at all."""


class GridTooCoarse(MvLevyError):
    """The root search grid puts the positive root of h within three cells
    of 0, so it cannot separate the roots."""


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
