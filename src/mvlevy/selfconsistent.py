"""Scalar self-consistency analysis for the gradient-type quartic case and
the mean-field Ornstein-Uhlenbeck dichotomy.

The quartic family has stationary candidates with density proportional to
exp(gamma m x - x^4 + beta x^2); a candidate is consistent when its mean
equals m, i.e. when h(m) = int (x - m) exp(...) dx vanishes.  The code
follows this density: the number of roots of h jumps from 1 to 3 where
gamma Var_beta(X) = 1 at m = 0, Var_beta being the variance under
exp(-x^4 + beta x^2).  That puts beta_c(2) near 0.91, and beta_c reaches 0
at gamma = Gamma(1/4)/Gamma(3/4) ~ 2.96.  The formula
beta_c = (12 - gamma^2)/(2 gamma) is only the target that acceptance
criterion 1 checks (the CLI reports it as "formula_value"); it does not
match the density, so that criterion fails by design (README, "Testing
notes").  GAMMA_C = 2 sqrt(3), the formula's own threshold, serves only
that report.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridTooCoarse, NoTransition, QuadratureFailure

GAMMA_C = 2.0 * math.sqrt(3.0)


def check_gamma(gamma):
    if not (gamma > 0 and math.isfinite(gamma)):
        raise ValueError(f"gamma must be positive and finite, got {gamma!r}")


@dataclass(frozen=True)
class GradientCase:
    gamma: float
    beta: float

    def __post_init__(self):
        check_gamma(self.gamma)
        if not math.isfinite(self.beta):
            raise ValueError(f"beta must be finite, got {self.beta!r}")

    def exponent(self, x, m):
        # x^4 as (x^2)^2: numpy's x ** 4 takes a slow pow() path on
        # negative bases, about 58 ns a node
        x = np.asarray(x, dtype=float)
        x2 = x * x
        return self.gamma * m * x - x2 * x2 + self.beta * x2


def _root_real_parts(*coeffs):
    """Real parts of the roots of one polynomial per row, coefficients
    highest degree first (scalars or 1-d arrays over the rows): the
    eigenvalues of the stacked companion matrices, built as numpy.roots builds
    its one."""
    deg = len(coeffs) - 1
    companion = np.zeros((max(np.size(c) for c in coeffs), deg, deg))
    for j, c in enumerate(coeffs[1:]):
        companion[:, 0, j] = -c / coeffs[0]
    companion[:, range(1, deg), range(deg - 1)] = 1.0
    return np.linalg.eigvals(companion).real


def _pieces(case, m):
    """(a, b, fmax) for a 1-d array of m: fmax[i] is the exponent's maximum
    at m[i], taken at the real roots of its derivative -4x^3 + 2 beta x +
    gamma m; a[i] and b[i] bound the one or two intervals where the exponent
    lies within 60 of fmax[i], split at m[i]: at most three pieces, padded
    to three with zero-width pieces at the row's top end, so a[i, 0] and
    b[i, -1] bound the support.  A scalar m gives one row's a, b and fmax.

    The real parts of all four roots of exponent = fmax - 60 cut the line;
    a piece between cuts is inside when its midpoint clears the level (or
    it has zero width, as between a complex pair's equal real parts), and
    adjacent inside pieces join, so a near-double root can neither drop
    nor split an interval.  Outside [a[i, 0], b[i, -1]] the exponent drops
    more than 60 below fmax[i]."""
    ms = np.atleast_1d(np.asarray(m, dtype=float))
    mm = ms[:, None]
    crit = _root_real_parts(-4.0, 0.0, 2.0 * case.beta, case.gamma * ms)
    fmax = case.exponent(crit, mm).max(axis=1)
    level = fmax[:, None] - 60.0
    ends = np.sort(_root_real_parts(-1.0, 0.0, case.beta, case.gamma * ms, -level[:, 0]),
                   axis=1)
    inside = ((ends[:, 1:] == ends[:, :-1])
              | (case.exponent(0.5 * (ends[:, :-1] + ends[:, 1:]), mm) >= level))
    edge = np.zeros((len(ms), 5), dtype=np.int8)
    edge[:, 1:4] = inside
    edge = np.diff(edge, axis=1)
    # at most two intervals: their starts (ends) and m sort into the first
    # three columns, and pairing them in order splits the interval around m
    a = np.sort(np.hstack((np.where(edge == 1, ends, np.inf), mm)), axis=1)[:, :3]
    b = np.sort(np.hstack((np.where(edge == -1, ends, np.inf), mm)), axis=1)[:, :3]
    keep = a < b
    top = np.where(keep, b, -np.inf).max(axis=1, keepdims=True)
    a, b = (np.sort(np.where(keep, v, top), axis=1) for v in (a, b))
    if np.ndim(m) == 0:
        return a[0], b[0], fmax[0]
    return a, b, fmax


def _gl_rule(panels):
    """Nodes and weights on [0, 1] of the composite rule with GL_NODES
    Gauss-Legendre nodes on each of `panels` equal panels."""
    x, w = np.polynomial.legendre.leggauss(GL_NODES)
    left = np.arange(panels)[:, None] / panels
    return (left + (x + 1.0) / (2.0 * panels)).ravel(), np.tile(w / (2.0 * panels), panels)


# The rule behind h_fn, stationary_density and _count_at's variance (so the
# pinned beta_c bits): GL_PANELS panels on each piece of _pieces (coarse)
# against 2 GL_PANELS (fine), GL_NODES nodes per panel.  Against adaptive
# quadrature this agreed within 1.1e-12 of the mass for gamma in [0.5, 4],
# beta in [-50, 100] and |m| <= 12, and within 3e-10 at beta = 1000, where
# rounding the exponent's terms (about 1e6) dominates.
GL_NODES = 24
GL_PANELS = 16
_COARSE, _FINE = _gl_rule(GL_PANELS), _gl_rule(2 * GL_PANELS)
_RULE_X = np.concatenate((_COARSE[0], _FINE[0]))
# columns: coarse weights, fine weights, fine weights squared (for rounding)
_RULE_W = np.zeros((_RULE_X.size, 3))
_RULE_W[:_COARSE[0].size, 0] = _COARSE[1]
_RULE_W[_COARSE[0].size:, 1] = _FINE[1]
_RULE_W[:, 2] = _RULE_W[:, 1] ** 2


# pieces per block of _moments: a block temporary holds SCAN_BLOCK x 4 x
# 1152 floats (295 KB at 8).
SCAN_BLOCK = 8


def _moments(case, m, k=1):
    """(int (x - m)^k p, int p) for p = exp(exponent - fmax), one pair of
    arrays for a 1-d array of m, one pair of floats for a scalar m: k = 1
    gives h, and k = 2 at m = 0 the variance times the mass.

    The composite Gauss-Legendre rule covers each piece from _pieces,
    where the exponent lies within 60 of fmax: one or two intervals, split
    at m, where (x - m) changes sign.  The pieces of all rows go SCAN_BLOCK
    at a time through one batched matrix product, so memory does not grow
    with the number of rows, and a row's sums do not depend on the rows
    beside it.  Both sums come from the same exp evaluations.  The fine
    rule's value is returned.
    Its error estimate is its difference from the coarse rule plus the
    rounding of the exponent, whose terms reach x^4 and |fmax|: eps times
    their sum at each node, summed in quadrature.  A row whose error is
    above 1e-8 of its mass raises QuadratureFailure, naming its m.
    """
    ms = np.atleast_1d(np.asarray(m, dtype=float))
    a, b, fmax = _pieces(case, ms)
    keep = a < b  # drops the zero-width pads
    row = np.nonzero(keep)[0]
    lo, width = a[keep], (b - a)[keep]
    piece = np.empty((lo.size, 4, 3))
    for i in range(0, lo.size, SCAN_BLOCK):
        blk = slice(i, i + SCAN_BLOCK)
        x = lo[blk, None] + width[blk, None] * _RULE_X
        mp, fp = ms[row[blk], None], fmax[row[blk], None]
        # per piece the rows g p, p, (g rounding)^2 and rounding^2, filled in
        # place to keep the block's memory small
        cols = np.empty((len(x), 4, _RULE_X.size))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            p = np.exp(case.exponent(x, mp) - fp, out=cols[:, 1])
            g = (x - mp) ** k
            np.multiply(g, p, out=cols[:, 0])
            rounding = abs(case.gamma * mp * x)
            x *= x
            rounding += x * x + abs(case.beta) * x + abs(fp)
            rounding *= p
            g *= rounding
            np.square(g, out=cols[:, 2])
            np.square(rounding, out=cols[:, 3])
            piece[blk] = cols @ _RULE_W
    piece[:, :2] *= width[:, None, None]
    piece[:, 2:] *= (width ** 2)[:, None, None]
    # a row's sums add its pieces in order, whatever rows share its blocks
    sums = np.zeros(keep.shape + piece.shape[1:])
    sums[keep] = piece
    sums = sums.sum(axis=1)
    (i_c, i_f), (mass_c, mass) = sums[:, 0, :2].T, sums[:, 1, :2].T
    # roundings at different nodes are independent: they add in quadrature
    i_round, mass_round = np.finfo(float).eps * np.sqrt(sums[:, 2:, 2].T)
    degenerate = ~((mass > 0) & np.isfinite(mass) & np.isfinite(i_f))
    with np.errstate(invalid="ignore"):
        err = np.maximum(abs(i_f - i_c) + i_round, abs(mass - mass_c) + mass_round)
        failed = np.flatnonzero(degenerate | ~(err <= 1e-8 * mass))
    if failed.size:
        j = failed[0]
        what = ("degenerate normalizing mass" if degenerate[j]
                else f"quadrature error {err[j]:g} too large")
        raise QuadratureFailure(f"{what} at m = {float(ms[j])!r}")
    if np.ndim(m) == 0:
        return float(i_f[0]), float(mass[0])
    return i_f, mass


def h_fn(case, m):
    """int (x - m) exp(gamma m x - x^4 + beta x^2 - fmax) dx, at each m of a
    1-d array (an array back) or at a scalar m (a float back).

    The exponent is shifted by its max for stable quadrature; the shift
    rescales h by a positive constant and leaves its roots and signs alone.
    The integral is the composite Gauss-Legendre rule of _moments over the
    pieces of the support, and raises QuadratureFailure, naming the first
    failing m, when its error estimate exceeds 1e-8 of the mass: from beta
    of about 3e3 on, where rounding the exponent's terms (about beta^2)
    moves h by that much.
    """
    return _moments(case, m)[0]


def _bisect(case, a, b):
    """The root of h_fn in [a, b], where h_fn(a) > 0 >= h_fn(b), bisected
    to width 1e-8."""
    for _ in range(math.ceil(math.log2((b - a) / 1e-8))):
        mid = 0.5 * (a + b)
        if h_fn(case, mid) > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


def root_count(case, m_max, grid_n, refine=True):
    """Roots of h in [-m_max, m_max]: the count from the sign of h'(0)
    (_count_at), and the one positive root r, if any, located on the grid
    linspace(-m_max, m_max, grid_n) by a search of h_fn; the roots are -r,
    0 and r.  From the first grid point with m > 0 the search gallops
    (offsets 1, 2, 4, ...) to a point where h_fn <= 0, then bisects the grid
    indices to the first such point, so every probe stays within about 2r.
    r is refined by bisecting h_fn on its cell, or with refine=False
    interpolated linearly between the cell's ends.  A root beyond m_max is
    not counted.  GridTooCoarse is raised when r lies within three cells
    of 0.
    """
    if grid_n < 1000:
        raise ValueError("grid_n must be >= 1000")
    if _count_at(case.gamma, case.beta) == 1:
        return {"roots": [0.0], "count": 1}
    ms = np.linspace(-m_max, m_max, grid_n)
    cell = ms[1] - ms[0]
    first = (grid_n + 1) // 2  # an odd grid's middle point is not m > 0
    lo, h_lo = first, h_fn(case, ms[first])
    if h_lo <= 0.0:
        raise GridTooCoarse(f"roots 0 and one in (0, {ms[first]:.6g}] "
                            "closer than 3 cells")
    step = 1
    while True:
        hi = min(first + step, grid_n - 1)
        h_hi = h_fn(case, ms[hi])
        if h_hi <= 0.0:
            break
        if hi == grid_n - 1:  # r lies beyond m_max
            return {"roots": [0.0], "count": 1}
        lo, h_lo, step = hi, h_hi, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        h_mid = h_fn(case, ms[mid])
        if h_mid > 0.0:
            lo, h_lo = mid, h_mid
        else:
            hi, h_hi = mid, h_mid
    if refine:
        r = _bisect(case, ms[lo], ms[hi])
    else:
        r = ms[lo] - h_lo * (ms[hi] - ms[lo]) / (h_hi - h_lo)
    r = float(r)
    if r < 3.0 * cell:
        raise GridTooCoarse(f"roots 0 and {r:.6g} closer than 3 cells")
    return {"roots": [-r, 0.0, r], "count": 3}


@dataclass(frozen=True)
class BetaCResult:
    value: float
    supercritical: bool

    def __float__(self):
        return self.value


def _count_at(gamma, beta):
    """Root count of h: 3 when h'(0) = gamma Var_beta - 1 > 0, else 1.

    Var_beta is the variance of exp(-x^4 + beta x^2), the candidate law at
    m = 0, by _moments' rule.  h is odd, so 0 is a root and the count is
    odd; the GHS inequality makes the mean concave in m > 0, so h has at
    most one positive root, and it has one exactly when h rises at 0."""
    s2, mass = _moments(GradientCase(gamma, beta), 0.0, 2)
    return 3 if gamma * (s2 / mass) > 1.0 else 1


def beta_c(gamma, tol):
    """Critical beta where the root count passes from 1 to 3, that is where
    gamma Var_beta = 1 (Var_beta rises with beta), bisected on [1e-3, 100]
    to width tol.  A count of 3 at beta = 1e-3, as from gamma =
    Gamma(1/4)/Gamma(3/4) ~ 2.96 on, is flagged supercritical with value 0."""
    check_gamma(gamma)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    lo, hi = 1e-3, 1e2
    if _count_at(gamma, lo) != 1:
        return BetaCResult(0.0, True)
    if _count_at(gamma, hi) == 1:
        raise NoTransition("no 1 -> 3 transition in the scanned beta range")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if _count_at(gamma, mid) == 1:
            lo = mid
        else:
            hi = mid
    return BetaCResult(0.5 * (lo + hi), False)


def ou_classify(lam):
    """Stationary structure of the mean-field OU equation.

    Unique zero-mean Gaussian for lam != 1; a continuum indexed by the
    (conserved) mean at lam = 1; the variance is 1/(2 lam) either way.
    """
    if lam <= 0:
        raise ValueError("lam must be positive")
    if lam == 1.0:
        return {"kind": "continuum", "mean_set": "all real m", "variance": 0.5}
    return {"kind": "unique", "mean_set": "{0}", "variance": 1.0 / (2.0 * lam)}


def stationary_density(case, m, grid):
    """Normalized density exp(gamma m x - x^4 + beta x^2)/C on the grid."""
    grid = np.asarray(grid, dtype=float)
    a, b, fmax = _pieces(case, m)
    if grid.min() > a[0] or grid.max() < b[-1]:
        raise QuadratureFailure("grid does not cover the effective support")
    return np.exp(case.exponent(grid, m) - fmax) / _moments(case, m)[1]
