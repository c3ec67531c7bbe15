"""Drift families b(x, mu) and their Lyapunov parameter bundles.

Four built-in families:
  double_well        b = -lam x (x - a1)(x - a2) - kap (x - mean(mu)),  d = 1
  symmetric_two_well b = -(lam/2)((x-y1)|x-y2|^2 + (x-y2)|x-y1|^2) - kap (x - mean(mu))
  asymmetric_cubic   b = -lam x (x-1)(x+2) + kap [(1+x^2)^{(b-1)/2} mu(|.|) + mu(g)]
  mean_field_ou      b = -lam x + mean(mu)

Each family carries known parameters (C_b, lam1, lam2, theta1..theta4, beta)
for the dissipativity inequality
  <x, b(x,mu)> <= C_b - lam1 |x|^{1+theta1}
                  + lam2 (1+|x|^2)^{theta2/2} mu(|.|^{theta3})^{theta4}.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, UnsupportedFamily, _check_types, _from_json, _to_json
from .measures import moment
from .rng import stream

DOUBLE_WELL = "double_well"
TWO_WELL = "symmetric_two_well"
ASYM_CUBIC = "asymmetric_cubic"
MEAN_FIELD_OU = "mean_field_ou"


# the g kinds of the asymmetric cubic and the number of parameters each takes
_G_ARITY = {"tanh_scaled": 2, "cosine": 2, "constant": 1}


def _g_function(kind, params):
    if kind not in _G_ARITY:
        raise UnsupportedFamily(f"unknown g kind {kind!r}")
    if len(params) != _G_ARITY[kind]:
        raise UnsupportedFamily(f"g kind {kind!r} takes {_G_ARITY[kind]} g_params, "
                                f"got {len(params)}")
    if kind == "tanh_scaled":
        c, s = params
        return (lambda x: c * np.tanh(s * x)), abs(c)
    if kind == "cosine":
        c, s = params
        return (lambda x: c * np.cos(s * x)), abs(c)
    (c,) = params
    return (lambda x: np.full_like(np.asarray(x, dtype=float), c)), abs(c)


@dataclass(frozen=True)
class DriftSpec:
    family: str
    lam: float
    kappa: float = 0.0
    a1: float = 0.0
    a2: float = 0.0
    y1: tuple[float, ...] = ()
    y2: tuple[float, ...] = ()
    beta: float = 0.0
    g_kind: str = "constant"
    g_params: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        _check_types(self)
        if self.lam <= 0:
            raise UnsupportedFamily("lam must be positive")
        if self.family == DOUBLE_WELL and self.a1 * self.a2 >= 0:
            raise UnsupportedFamily("double well needs a1*a2 < 0")
        if self.family == ASYM_CUBIC and self.beta < 1:
            raise UnsupportedFamily("asymmetric cubic needs beta >= 1")
        if self.family == TWO_WELL and len(self.y1) != len(self.y2):
            raise DimensionMismatch("y1 and y2 must share a dimension")
        if self.family not in (DOUBLE_WELL, TWO_WELL, ASYM_CUBIC, MEAN_FIELD_OU):
            raise UnsupportedFamily(f"unknown family {self.family!r}")
        _g_function(self.g_kind, self.g_params)

    @property
    def dim(self):
        return len(self.y1) if self.family == TWO_WELL else 1

    @property
    def g(self):
        return _g_function(self.g_kind, self.g_params)[0]

    @property
    def g_sup(self):
        return _g_function(self.g_kind, self.g_params)[1]

    to_json = _to_json
    from_json = classmethod(_from_json)


def measure_stats(spec, points, weights):
    """The functionals a family's drift reads of the measure with finite
    points, an (n, d) block, and n weights summing to one."""
    stats = {"mean": weights @ points}
    if spec.family == ASYM_CUBIC:
        x = points[:, 0]
        stats["abs_moment"] = float(weights @ np.abs(x))
        stats["g_moment"] = float(weights @ spec.g(x))
    return stats


def _polynomial(spec, stats):
    """(coefficients, remainder) of a one-dimensional family's drift:
    b(x) = sum_k coefficients[k] x^(deg - k), highest power first, plus the
    asymmetric cubic's term remainder = (weight, power), which adds
    weight (1 + x^2)^power (None for the other families).  The one place
    these drift formulas are written."""
    lam, kap = spec.lam, spec.kappa
    if spec.family == MEAN_FIELD_OU:
        return (-lam, stats["mean"]), None
    if spec.family == DOUBLE_WELL:
        # -lam x (x - a1)(x - a2) - kap (x - m)
        a1, a2 = spec.a1, spec.a2
        return (-lam, lam * (a1 + a2), -(lam * a1 * a2 + kap),
                kap * stats["mean"][0]), None
    # -lam x (x - 1)(x + 2) + kap [(1 + x^2)^{(b-1)/2} mu(|.|) + mu(g)]
    return ((-lam, -lam, 2.0 * lam, kap * stats["g_moment"]),
            (kap * stats["abs_moment"], (spec.beta - 1.0) / 2.0))


def field_closure(spec, stats):
    """Drift evaluator specialized to one family and one set of measure
    stats.

    Returns field(X, out): the drift at an (n, d) state block X, written
    into out, an array of X's shape that is not X, and returned.  The
    integrator calls it once per Euler step, so the family branch is taken
    once, not per step.  One-dimensional families evaluate the
    coefficients of _polynomial by Horner's rule in place, skipping zero
    coefficients, and the asymmetric cubic then adds its remainder.  The
    two-well is a vector cubic, written here.
    """
    if spec.family == TWO_WELL:
        lam, kap = spec.lam, spec.kappa
        y1 = np.asarray(spec.y1, dtype=float)
        y2 = np.asarray(spec.y2, dtype=float)
        mean = stats["mean"][None, :]

        def two_well(X, out):
            d1 = X - y1
            d2 = X - y2
            n1 = np.sum(d1 ** 2, axis=1, keepdims=True)
            n2 = np.sum(d2 ** 2, axis=1, keepdims=True)
            np.multiply(d1, n2, out=out)
            out += d2 * n1
            out *= -(lam / 2.0)
            out -= kap * (X - mean)
            return out

        return two_well
    (top, *rest), remainder = _polynomial(spec, stats)
    # per lower coefficient: the one to add (None for 0, as for x^2 in a
    # symmetric double well) and whether X multiplies after it; on a few
    # hundred rows each call costs its dispatch, so zeros are skipped, and
    # ufuncs with a positional out dispatch faster than in-place operators
    steps = [(c if np.any(c) else None, k < len(rest) - 1)
             for k, c in enumerate(rest)]

    def horner(X, out):
        np.multiply(X, top, out)
        for c, times_x in steps:
            if c is not None:
                np.add(out, c, out)
            if times_x:
                np.multiply(out, X, out)
        return out

    if remainder is None:
        return horner
    weight, power = remainder

    def asymmetric(X, out):
        horner(X, out)
        out += weight * (1.0 + X * X) ** power
        return out

    return asymmetric


def affine_coefficients(spec, stats):
    """(rate, shift) with b(x) = shift - rate * x when the family is affine
    in the state, else None.  Under stable noise this lets the integrator
    jump the Euler chain from one kept state to the next in a single
    update that is exact in law."""
    if spec.family != MEAN_FIELD_OU:
        return None
    (slope, shift), _ = _polynomial(spec, stats)
    return -slope, shift


def eval_drift(spec, x, mu):
    """b(x, mu) at a single point, measure integrals as empirical averages."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[0] != spec.dim:
        raise DimensionMismatch(f"x has dim {x.shape[0]}, drift wants {spec.dim}")
    if mu.dim != spec.dim:
        raise DimensionMismatch(f"measure has dim {mu.dim}, drift wants {spec.dim}")
    stats = measure_stats(spec, mu.points, mu.weights)
    X = x[None, :]
    return field_closure(spec, stats)(X, np.empty_like(X))[0]


# ---------------------------------------------------------------------------
# Lyapunov parameters


@dataclass(frozen=True)
class A1Params:
    """Symbols of the dissipativity inequality with derived exponents.

    beta_star = beta + theta1 - 1, gamma1 = (beta+theta2-2)^+ / beta_star,
    gamma2 = (beta-1)^+ / beta_star.  case is "i" when
    beta_star (1-gamma1) > theta3 theta4, "ii" at equality with lam1 > lam2,
    and None otherwise (threshold machinery then unavailable).
    """

    C_b: float
    lam1: float
    lam2: float
    theta1: float
    theta2: float
    theta3: float
    theta4: float
    beta: float

    def __post_init__(self):
        _check_types(self)
        if min(self.C_b, self.lam1, self.lam2) < 0:
            raise ValueError("C_b, lam1, lam2 must be nonnegative")
        if self.theta1 < 1.0 - self.beta / 2.0 - 1e-12:
            raise ValueError("need theta1 >= 1 - beta/2")
        if self.theta2 >= 1.0 + self.theta1:
            raise ValueError("need theta2 < 1 + theta1")
        bs = self.beta_star
        if not (0.0 < self.theta3 <= bs + 1e-12):
            raise ValueError("need theta3 in (0, beta_star]")
        if not (0.0 <= self.gamma1 < 1.0):
            raise ValueError("need gamma1 in [0, 1)")

    @property
    def beta_star(self):
        return self.beta + self.theta1 - 1.0

    @property
    def gamma1(self):
        return max(self.beta + self.theta2 - 2.0, 0.0) / self.beta_star

    @property
    def gamma2(self):
        return max(self.beta - 1.0, 0.0) / self.beta_star

    @property
    def case(self):
        gap = self.beta_star * (1.0 - self.gamma1) - self.theta3 * self.theta4
        if gap > 1e-12:
            return "i"
        if abs(gap) <= 1e-12 and self.lam1 > self.lam2:
            return "ii"
        return None

    @staticmethod
    def h(r):
        return r / (1.0 + r)


def _sup(fn, dim):
    """Supremum over R^dim of fn, a function of an (n, dim) block that
    tends to -inf at infinity.

    fn is taken at 501 radii in [0, 50] along +-1 (d = 1) or along 256
    seeded random unit directions.  The local maxima along the rays are
    candidate starts, and the best 8 of them that lie more than 0.5 apart
    are polished by a compass search: fn at x +- step on each axis, one
    (2 dim, dim) block per trial, moving to the best trial point while it
    improves and else halving the step, from the 0.1 ray spacing down to
    1e-10.  The spacing keeps starts that crowd one peak from hiding
    another peak that lies between the rays.
    """
    if dim == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        dirs = stream(7).standard_normal((256, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    X = np.linspace(0.0, 50.0, 501)[None, :, None] * dirs[:, None, :]
    vals = fn(X.reshape(-1, dim)).reshape(X.shape[:2])
    padded = np.pad(vals, ((0, 0), (1, 1)), constant_values=-np.inf)
    ray, k = np.nonzero((vals >= padded[:, :-2]) & (vals >= padded[:, 2:]))
    axes = np.concatenate((np.eye(dim), -np.eye(dim)))
    best = float(vals.max())
    starts = []
    for i in np.argsort(vals[ray, k])[::-1]:
        x, fx = X[ray[i], k[i]], vals[ray[i], k[i]]
        if all(np.linalg.norm(x - s) > 0.5 for s in starts):
            starts.append(x)
            step = 0.1
            while step > 1e-10:
                trial = x + step * axes
                tv = fn(trial)
                j = int(np.argmax(tv))
                if tv[j] > fx:
                    x, fx = trial[j], tv[j]
                else:
                    step /= 2.0
            best = max(best, float(fx))
            if len(starts) == 8:
                break
    return best


def lyapunov_exponents(spec, beta=None, alpha=None):
    """The bundle of lyapunov_params without the sup search: C_b = 0.

    beta defaults to (1 + alpha)/2 for stable alpha in (1, 2), else 1.5.
    The rates lam1, lam2 and the exponents theta1, theta2 do not depend on
    C_b, so beta_star, gamma1, gamma2 and case read the same here as on
    the full bundle.
    """
    if beta is None:
        if alpha is not None and 1.0 < alpha < 2.0:
            beta = (1.0 + alpha) / 2.0
        else:
            beta = 1.5
    lam1 = spec.lam / 2.0
    if spec.family == MEAN_FIELD_OU:
        lam2, theta1, theta2 = 1.0, 1.0, 1.0
    else:
        lam2, theta1 = spec.kappa, 3.0
        theta2 = spec.beta if spec.family == ASYM_CUBIC else 1.0
    return A1Params(0.0, lam1, lam2, theta1, theta2, 1.0, 1.0, beta)


def lyapunov_params(spec, beta=None, alpha=None):
    """Known (C_b, lam1, lam2, theta) bundle for a built-in family.

    The rates and exponents come from lyapunov_exponents.  The measure
    enters every family's drift through kappa (through the mean for
    mean_field_ou), and kappa <x, mean(mu)> <= lam2 (1+|x|^2)^{theta2/2}
    mu(|.|), so C_b is 5 percent above the supremum of the measure-free
    residual <x, b(x, .)> + lam1 |x|^{1+theta1}, with every measure stat
    set to zero.  The asymmetric cubic's mu(g) term adds kappa sup|g| |x|.
    """
    p = lyapunov_exponents(spec, beta, alpha)
    g_term = spec.kappa * spec.g_sup if spec.family == ASYM_CUBIC else 0.0
    field = field_closure(spec, {"mean": np.zeros(spec.dim), "abs_moment": 0.0,
                                 "g_moment": 0.0})

    def resid(X):
        nx2 = np.sum(X * X, axis=1)
        return (np.sum(X * field(X, np.empty_like(X)), axis=1)
                + p.lam1 * nx2 ** ((1.0 + p.theta1) / 2.0)
                + g_term * np.sqrt(nx2))

    return replace(p, C_b=max(_sup(resid, spec.dim) * 1.05, 1e-9))


def verify_E12(spec, params, grid, mus):
    """Check the dissipativity inequality at every (grid point, measure) pair.

    Returns {"ok", "worst_slack", "violations"}; a violation is a
    (x, measure index, slack) triple with negative slack, in grid order
    within each measure, from one slack array per measure.
    """
    X = np.asarray(grid, dtype=float).reshape(len(grid), spec.dim)
    # row-wise x @ y through a stacked matmul, which sums as the 1-d x @ y does
    nx2 = (X[:, None, :] @ X[:, :, None])[:, 0, 0]
    decay = params.lam1 * nx2 ** ((1.0 + params.theta1) / 2.0)
    growth = params.lam2 * (1.0 + nx2) ** (params.theta2 / 2.0)
    violations = []
    worst = math.inf
    for mi, mu in enumerate(mus):
        b = field_closure(spec, measure_stats(spec, mu.points, mu.weights))(X, np.empty_like(X))
        lhs = (X[:, None, :] @ b[:, :, None])[:, 0, 0]
        slack = (params.C_b - decay + growth * moment(mu, params.theta3) ** params.theta4) - lhs
        worst = min(worst, float(slack.min(initial=math.inf)))
        violations += [(tuple(X[i]), mi, float(slack[i])) for i in np.flatnonzero(slack < 0)]
    return {"ok": not violations, "worst_slack": worst, "violations": violations}
