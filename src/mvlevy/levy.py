"""Jump-measure specifications and their scalar functionals.

The driving noise is described by a Levy measure nu.  Isotropic stable
measures have density C |z|^{-d-alpha} with C fixed so that the unit-scale
process has characteristic function exp(-|xi|^alpha); a process scale sigma
multiplies C by sigma^alpha.  All tail moments, overlap masses, and increment
samplers used elsewhere in the package live here.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DivergentMoment,
    InfiniteOverlap,
    InvalidRegion,
    QuadratureFailure,
    SigmaViolatesH2,
    _check_types,
    _from_json,
    _is_kind,
    _to_json,
)

STABLE = "stable"
TRUNCATED = "truncated_stable"
COMPOUND = "compound_poisson"


def _jump_dist_ok(jump_dist):
    """True for ("gaussian", std) with std > 0 and ("uniform", lo, hi) with
    0 <= lo < hi: the jump laws of a compound Poisson spec."""
    if not jump_dist or not all(_is_kind(p, float) for p in jump_dist[1:]):
        return False
    name, *params = jump_dist
    if name == "gaussian":
        return len(params) == 1 and params[0] > 0
    return name == "uniform" and len(params) == 2 and 0 <= params[0] < params[1]


def stable_constant(dim, alpha):
    """Normalizing constant of the unit isotropic stable Levy density.

    Chosen so the Levy-Khintchine exponent of C|z|^{-d-alpha} equals
    -|xi|^alpha:  C = alpha 2^{alpha-1} Gamma((d+alpha)/2)
                      / (pi^{d/2} Gamma(1-alpha/2)).
    At alpha = 2 the pole of Gamma(1-alpha/2) gives C = 0: no jump part.
    """
    if alpha == 2.0:
        return 0.0
    return (alpha * 2.0 ** (alpha - 1.0) * math.gamma((dim + alpha) / 2.0)
            / (math.pi ** (dim / 2.0) * math.gamma(1.0 - alpha / 2.0)))


def sphere_area(dim):
    """Surface area of the unit sphere in R^dim."""
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


@dataclass(frozen=True)
class LevyMeasureSpec:
    """Parameters of the driving noise.

    kind: "stable", "truncated_stable", or "compound_poisson".
    alpha = 2 means Brownian motion with no jump part.
    jump_dist (compound_poisson only): ("gaussian", std), centred normal
    jumps, or ("uniform", lo, hi), jump sizes uniform on [lo, hi].
    scale multiplies the process, so the Levy density constant is
    stable_constant(dim, alpha) * scale^alpha.
    """

    kind: str = STABLE
    alpha: float = 1.5
    scale: float = 1.0
    dim: int = 1
    cutoff: float = 0.0
    rate: float = 0.0
    jump_dist: tuple = ()

    def __post_init__(self):
        _check_types(self)
        if self.kind not in (STABLE, TRUNCATED, COMPOUND):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind != COMPOUND and not (0.0 < self.alpha <= 2.0):
            raise ValueError("alpha must lie in (0, 2]")
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind == TRUNCATED and self.cutoff <= 0:
            raise ValueError("truncated spec needs a positive cutoff")
        if self.kind == TRUNCATED and self.alpha >= 2.0:
            raise ValueError("truncated spec needs alpha < 2: "
                             "alpha = 2 has no jumps to truncate")
        if self.kind == COMPOUND and self.rate <= 0:
            raise ValueError("compound spec needs a positive rate")
        if self.kind == COMPOUND and not _jump_dist_ok(self.jump_dist):
            raise ValueError('compound spec needs jump_dist ["gaussian", std] with '
                             'std > 0 or ["uniform", lo, hi] with 0 <= lo < hi, '
                             f"got {list(self.jump_dist)}")

    @property
    def density_constant(self):
        """Constant C of the stable Levy density C|z|^{-d-alpha}."""
        return stable_constant(self.dim, self.alpha) * self.scale ** self.alpha

    def _densities(self, r):
        """(radial, pointwise) density at radii r; every kind is isotropic,
        so the two differ by the sphere area |S^{d-1}| r^{d-1}.  Each law is
        written once: per unit volume for the Gaussian jump law (finite at
        r = 0, where its radial density vanishes in d >= 2), per unit radius
        for the others.  Where the radial density is 0 so is the other."""
        r = np.asarray(r, dtype=float)
        d = self.dim
        shell = sphere_area(d) * r ** (d - 1)
        if self.kind == COMPOUND and self.jump_dist[0] == "gaussian":
            # rate times the N(0, std^2 I_d) density
            std = self.jump_dist[1]
            dens = (self.rate * (2.0 * math.pi * std ** 2) ** (-d / 2.0)
                    * np.exp(-r ** 2 / (2.0 * std ** 2)))
            return dens * shell, dens
        if self.kind == COMPOUND:
            # rate times jump sizes uniform on [lo, hi]
            lo, hi = self.jump_dist[1:]
            radial = self.rate * np.where((r >= lo) & (r <= hi), 1.0 / (hi - lo), 0.0)
        elif self.alpha >= 2.0:
            radial = np.zeros_like(r)
        else:
            with np.errstate(divide="ignore"):
                radial = (self.density_constant * sphere_area(d)
                          * r ** (-1.0 - self.alpha))
            if self.kind == TRUNCATED:
                radial = np.where(r <= self.cutoff, radial, 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return radial, np.where(radial > 0, radial / shell, 0.0)

    def radial_density(self, r):
        """dnu/dr after integrating out the sphere: mass per unit radius."""
        return self._densities(r)[0]

    def levy_density(self, z):
        """Pointwise Levy density at vectors z (rows).

        The uniform jump law spreads its sizes over uniform directions, as
        sample_increment draws them, so in d >= 2 its density falls off like
        |z|^{1-d} on lo <= |z| <= hi.
        """
        z = np.atleast_2d(np.asarray(z, dtype=float))
        return self._densities(np.linalg.norm(z, axis=-1))[1]

    to_json = _to_json
    from_json = classmethod(_from_json)


BALL = "ball"
COMPLEMENT = "complement"


def _gamma_pq(k, x):
    """(P, Q), the regularized incomplete gamma functions P(k, x) and
    Q(k, x) = 1 - P(k, x) for k > 0 and x >= 0.  The smaller side comes
    directly: P by its power series for x < k + 1, Q otherwise by its
    continued fraction, evaluated by modified Lentz; there every partial
    denominator exceeds 3, so no step needs a zero guard."""
    if x == 0.0:
        return 0.0, 1.0
    front = math.exp(k * math.log(x) - x - math.lgamma(k))
    if x < k + 1.0:
        term = total = 1.0 / k
        n = k
        while term > total * 1e-17:
            n += 1.0
            term *= x / n
            total += term
        return front * total, 1.0 - front * total
    b = x + 1.0 - k
    c, d = math.inf, 1.0 / b
    frac = d
    for i in range(1, 1000):
        an = -i * (i - k)
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        frac *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    return 1.0 - front * frac, front * frac


def tail_moment(spec, p, region, l):
    """Moment of the Levy measure restricted to a ball or its complement.

    Returns nu(|.|^p 1_{|.|<=l}) for region "ball" and nu(|.|^p 1_{|.|>l})
    for region "complement", in closed form for every kind.  Stable kinds
    integrate their power law.  Gaussian jumps in R^d have
    |z|^2 / (2 std^2) ~ Gamma(d/2), so the moment is
    rate (sqrt(2) std)^p Gamma(k) / Gamma(d/2) times P(k, l^2 / (2 std^2))
    (ball) or Q (complement), k = (p + d)/2; uniform jump sizes integrate
    r^p over [lo, hi] cut at l.  alpha = 2 has no jump part and gives 0.
    """
    if l <= 0:
        raise InvalidRegion(f"radius l must be positive, got {l}")
    if region not in (BALL, COMPLEMENT):
        raise InvalidRegion(f"unknown region {region!r}")
    if p < 0:
        raise ValueError("p must be nonnegative")
    if spec.kind == COMPOUND:
        name, *params = spec.jump_dist
        if name == "gaussian":
            std, d = params[0], spec.dim
            k = (p + d) / 2.0
            inside, outside = _gamma_pq(k, l * l / (2.0 * std * std))
            return (spec.rate * (math.sqrt(2.0) * std) ** p
                    * math.exp(math.lgamma(k) - math.lgamma(d / 2.0))
                    * (inside if region == BALL else outside))
        lo, hi = params
        a, b = (lo, min(l, hi)) if region == BALL else (max(l, lo), hi)
        if a >= b:
            return 0.0
        return spec.rate * (b ** (p + 1.0) - a ** (p + 1.0)) / ((p + 1.0) * (hi - lo))
    if spec.alpha >= 2.0:
        return 0.0
    a = spec.alpha
    c = spec.density_constant * sphere_area(spec.dim)
    if spec.kind == STABLE:
        if region == COMPLEMENT:
            if p >= a:
                raise DivergentMoment(f"p = {p} >= alpha = {a} on the far tail")
            return c * l ** (p - a) / (a - p)
        if p <= a:
            raise DivergentMoment(f"p = {p} <= alpha = {a} near the origin")
        return c * l ** (p - a) / (p - a)
    # truncated stable: support |z| <= cutoff
    R = spec.cutoff
    if region == COMPLEMENT:
        if l >= R:
            return 0.0
        if p == a:
            return c * math.log(R / l)
        return c * (l ** (p - a) - R ** (p - a)) / (a - p)
    if p <= a:
        raise DivergentMoment(f"p = {p} <= alpha = {a} near the origin")
    lo = min(l, R)
    return c * lo ** (p - a) / (p - a)


def overlap_mass(spec, x):
    """Total mass of nu ^ (delta_x * nu), i.e. the integral of
    min(nu(z), nu(z - x)) dz, in closed form.

    Finite for stable specs as soon as x != 0; the min removes both
    singularities.  A radially non-increasing density (every kind but
    uniform jumps) makes the min pick the center farther from z, so the
    overlap is 2 nu of the halfspace beyond the bisector plane.  Uniform
    jump sizes in d = 1 have density rate / (2 (hi - lo)) on
    A = [-hi, -lo] u [lo, hi], so the overlap is that density times the
    length of A n (A + x).  Truncated and uniform specs in d >= 2 raise
    QuadratureFailure.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    r = float(np.linalg.norm(x))
    if spec.kind == COMPOUND and spec.jump_dist[0] == "gaussian":
        # 2 rate P(N(0, std^2) > r/2) in every dimension
        return spec.rate * math.erfc(r / (2.0 * math.sqrt(2.0) * spec.jump_dist[1]))
    if spec.kind != COMPOUND:
        if spec.alpha >= 2.0:
            return 0.0
        if r == 0.0:
            raise InfiniteOverlap("overlap at x = 0 is the (infinite) total mass")
    a = spec.alpha
    if spec.kind == STABLE:
        # nu({z . x/|x| > r/2}) = C A (r/2)^{-alpha} / alpha, A = 1 in d = 1
        d = spec.dim
        A = (math.pi ** ((d - 1) / 2.0) * math.gamma((a + 1.0) / 2.0)
             / math.gamma((d + a) / 2.0))
        return 2.0 * spec.density_constant * A * (r / 2.0) ** (-a) / a
    if spec.dim > 1:
        raise QuadratureFailure("overlap unsupported for this spec in d >= 2")
    if spec.kind == TRUNCATED:
        # nu({z > r/2}) = C ((r/2)^{-alpha} - R^{-alpha})^+ / alpha
        return (2.0 * spec.density_constant
                * max(0.0, (r / 2.0) ** (-a) - spec.cutoff ** (-a)) / a)
    lo, hi = spec.jump_dist[1:]
    arms = ((-hi, -lo), (lo, hi))
    meet = sum(max(0.0, min(b1, b2 + r) - max(a1, a2 + r))
               for a1, b1 in arms for a2, b2 in arms)
    return spec.rate * meet / (2.0 * (hi - lo))


def J(spec, r):
    """inf over 0 < |x| <= r of the overlap mass, exactly.

    A radially non-increasing density (every kind but uniform jumps) makes
    the overlap fall as |x| grows, so the infimum is the overlap at |x| = r.
    The uniform jump law's overlap is piecewise linear in |x|, with kinks
    where an end of one arm meets an end of the other arm shifted by x; so
    its infimum is the least overlap at those kinks in (0, r] and at r.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    e1 = np.zeros(spec.dim)
    e1[0] = 1.0
    radii = [r]
    if spec.kind == COMPOUND and spec.jump_dist[0] == "uniform":
        lo, hi = spec.jump_dist[1:]
        ends = (-hi, -lo, lo, hi)
        radii += [p - q for p in ends for q in ends if 0.0 < p - q < r]
    return float(min(overlap_mass(spec, s * e1) for s in radii))


# ---------------------------------------------------------------------------
# increment sampling


# Blocks of this many draws keep the angle arrays and their temporaries
# (32 KB each) in cache while the sampler works through them.
STABLE_BLOCK = 4096
# pi/2 = _HALF_PI + _HALF_PI_LO to about 1e-33, so that pi/2 - x and pi - x
# keep their relative precision for x next to pi/2 and pi
_HALF_PI = math.pi / 2.0
_HALF_PI_LO = 6.123233995736766e-17


def _fold(x):
    """min(x, pi - x) for x in [0, pi]: the point of [0, pi/2] with the same sine."""
    return np.minimum(x, (math.pi - x) + 2.0 * _HALF_PI_LO)


def _log_sin(x):
    """log sin(x) for float64 x in [0, pi/2]: the sine in float32, the log in
    float64.  On this interval the float32 rounding of x and the sine's own
    error leave sin(x) within 1.2e-7 relative, so the log within 1.2e-7
    absolute."""
    return np.log(np.sin(x, dtype=np.float32), dtype=np.float64)


def _stable_power(alpha, x1, x2, x3, w):
    """sin(x1) sin(x2)^{-1/alpha} (sin(x3) / w)^{(1 - alpha)/alpha}, each x
    in [0, pi/2]: the shape shared by the Chambers-Mallows-Stuck draw and
    Kanter's positive-stable draw.  Within 1.2e-7 (1 + (1 + |1 - alpha|)/alpha)
    relative, by the _log_sin bound on each factor."""
    return np.exp(_log_sin(x1) - _log_sin(x2) / alpha
                  + (1.0 - alpha) / alpha * (_log_sin(x3) - np.log(w)))


def _unit_stable_1d(alpha, rng, size, out=None):
    """size symmetric standard stable draws with CF exp(-|xi|^alpha) in
    d = 1, written into out (a new array when out is None) and returned.

    Chambers-Mallows-Stuck for alpha != 1:
    sin(alpha u) / cos(u)^{1/alpha} (cos((1 - alpha) u) / w)^{(1 - alpha)/alpha}
    with u uniform on (-pi/2, pi/2) and w standard exponential, both float64;
    w is drawn into out, and each block of draws overwrites its own w.
    Its sine and two cosines are float32 sines of float64 arguments
    reduced to [0, pi/2] (cos v = sin(pi/2 - |v|)), so they keep their
    relative precision into the tail; the powers go through float64 log and
    exp.  A draw is within 1.2e-7 (1 + (1 + |1 - alpha|)/alpha) relative of
    the float64 expression: about 2.4e-7/alpha for alpha < 1 and 2.4e-7 above.
    """
    if out is None:
        out = np.empty(size)
    if alpha == 1.0:
        out[:] = rng.standard_cauchy(size)
        return out
    u = rng.uniform(-math.pi / 2.0, math.pi / 2.0, size)
    w = rng.standard_exponential(out=out)
    with np.errstate(divide="ignore"):  # u = 0 or w = 0 gives log 0 = -inf
        for start in range(0, size, STABLE_BLOCK):
            blk = slice(start, start + STABLE_BLOCK)
            a = np.abs(u[blk])
            draw = _stable_power(alpha, _fold(alpha * a),
                                 (_HALF_PI - a) + _HALF_PI_LO,
                                 (_HALF_PI - abs(1.0 - alpha) * a) + _HALF_PI_LO, w[blk])
            np.copysign(draw, u[blk], out=out[blk])
    return out


def _positive_stable(alpha1, rng, size):
    """One-sided stable draws with Laplace transform exp(-s^alpha1), alpha1 < 1.

    Kanter's representation with the Zolotarev integrand,
    (sin((1 - alpha1) u) sin(alpha1 u)^{alpha1/(1 - alpha1)} / sin(u)^{1/(1 - alpha1)}
     / w)^{(1 - alpha1)/alpha1}
    with u uniform on (0, pi): its three sines go through _stable_power like
    the 1-d draw's, folded into [0, pi/2].
    """
    u = rng.uniform(0.0, math.pi, size)
    w = rng.standard_exponential(size)
    return _stable_power(alpha1, _fold(alpha1 * u), _fold(u), _fold((1.0 - alpha1) * u), w)


def unit_isotropic_stable(alpha, dim, rng, size, out=None):
    """size draws of the unit isotropic stable law, CF exp(-|xi|^alpha),
    written into out, a C-contiguous float64 (size, dim) array (a new one
    when out is None), and returned."""
    if out is None:
        out = np.empty((size, dim))
    if alpha == 2.0:
        # CF exp(-|xi|^2): Gaussian with variance 2 per coordinate
        rng.standard_normal(out=out)
        out *= math.sqrt(2.0)
    elif dim == 1:
        _unit_stable_1d(alpha, rng, size, out[:, 0])
    else:
        s = _positive_stable(alpha / 2.0, rng, size)
        rng.standard_normal(out=out)
        out *= np.sqrt(2.0 * s)[:, None]
    return out


def sample_increment(spec, dt, rng, size=1, out=None):
    """size increments of the driving process over a window of length dt,
    written into out, a C-contiguous float64 (size, dim) array (a new one
    when out is None), and returned.

    Every kind draws the same numbers in the same order whether out is
    given or not.  Pure stable kinds use exact self-similar increments
    scale * dt^{1/alpha} * unit draw for alpha < 2.
    alpha = 2 is scale times standard Brownian motion, with variance
    scale^2 dt per coordinate; it is not the alpha -> 2- stable limit (or
    unit_isotropic_stable(2, ...)), whose variance is 2 scale^2 dt.
    float32 enters the stable kinds in two places, each far below Monte
    Carlo error: alpha = 2 draws its normals in float32, and alpha not in
    {1, 2} evaluates its sines in float32 on reduced float64 angles, within
    1.2e-7 (1 + (1 + |1 - alpha|)/alpha) relative of the float64 formula
    (about 2.4e-7/alpha for alpha < 1; see _unit_stable_1d).
    The truncated kind is compound-Poisson big jumps above delta = cutoff/100
    plus a variance-matched Gaussian for the small jumps (documented bias).
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    d = spec.dim
    if out is None:
        out = np.empty((size, d))
    if spec.kind == STABLE:
        if spec.alpha == 2.0:
            # float32 draws: quantization ~1e-7 sits far below Monte Carlo
            # error at any feasible sample size, and generation is 2x faster
            out[:] = rng.standard_normal((size, d), dtype=np.float32)
            out *= spec.scale * math.sqrt(dt)
            return out
        unit_isotropic_stable(spec.alpha, d, rng, size, out)
        out *= spec.scale * dt ** (1.0 / spec.alpha)
        return out
    if spec.kind == TRUNCATED:
        a, R = spec.alpha, spec.cutoff
        delta = 0.01 * R
        c = spec.density_constant * sphere_area(d)
        lam = c * (delta ** -a - R ** -a) / a
        small_var = c * delta ** (2.0 - a) / ((2.0 - a) * d)  # per coordinate
        rng.standard_normal(out=out)
        out *= math.sqrt(small_var * dt)

        def jumps(n):
            # sizes by inverting the radial law's tail on [delta, R]
            u = rng.uniform(0.0, 1.0, n)
            return _spread((delta ** -a - u * (delta ** -a - R ** -a)) ** (-1.0 / a), rng, d)
        return _add_jumps(out, lam * dt, rng, jumps)
    name, params = spec.jump_dist[0], spec.jump_dist[1:]

    def jumps(n):
        if name == "gaussian":
            return params[0] * rng.standard_normal((n, d))
        return _spread(rng.uniform(*params, n), rng, d)
    out[:] = 0.0
    return _add_jumps(out, spec.rate * dt, rng, jumps)


def _add_jumps(out, mean, rng, jumps):
    """Add to each row of out, in place, a Poisson(mean) number of the
    jumps drawn by jumps(n), an (n, dim) array; returns out."""
    n_jumps = rng.poisson(mean, len(out))
    total = int(n_jumps.sum())
    if total:
        rows = np.flatnonzero(n_jumps)
        np.add.at(out, np.repeat(rows, n_jumps[rows]), jumps(total))
    return out


def _spread(radii, rng, d):
    """Jumps of lengths radii in uniform random directions of R^d."""
    dirs = rng.standard_normal((radii.size, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return radii[:, None] * dirs


# ---------------------------------------------------------------------------
# piecewise-linear sigma for the contraction constants


@dataclass(frozen=True)
class SigmaSpec:
    """Piecewise-linear function on [0, 2 l0]: positive, non-decreasing,
    concave, and dominated by r -> (1/(2r)) J(kappa ^ r) (kappa ^ r)^2."""

    knots: tuple  # ((r0, v0), (r1, v1), ...), r increasing

    def __post_init__(self):
        if any(len(k) != 2 for k in self.knots):
            raise SigmaViolatesH2("each knot must be a pair (r, sigma)")
        rs = [k[0] for k in self.knots]
        vs = [k[1] for k in self.knots]
        if len(self.knots) < 2:
            raise SigmaViolatesH2("need at least two knots")
        if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
            raise SigmaViolatesH2("knot radii must increase")
        if any(v <= 0 for v in vs):
            raise SigmaViolatesH2("sigma must be positive")
        slopes = [(v2 - v1) / (r2 - r1)
                  for (r1, v1), (r2, v2) in zip(self.knots, self.knots[1:])]
        if any(s < -1e-12 for s in slopes):
            raise SigmaViolatesH2("sigma must be non-decreasing")
        if any(s2 > s1 + 1e-12 for s1, s2 in zip(slopes, slopes[1:])):
            raise SigmaViolatesH2("sigma must be concave")

    def __call__(self, r):
        rs = np.array([k[0] for k in self.knots])
        vs = np.array([k[1] for k in self.knots])
        return np.interp(r, rs, vs)

    def integral_inverse(self, r):
        """g1(r) = int_0^r 1/sigma(s) ds by per-segment closed form."""
        if r < self.knots[0][0] - 1e-15:
            raise ValueError("r below sigma domain")
        total = 0.0
        for (r1, v1), (r2, v2) in zip(self.knots, self.knots[1:]):
            hi = min(r, r2)
            if hi <= r1:
                break
            b = (v2 - v1) / (r2 - r1)
            if abs(b) < 1e-300:
                total += (hi - r1) / v1
            else:
                total += math.log((v1 + b * (hi - r1)) / v1) / b
            if hi >= r:
                break
        if r > self.knots[-1][0] + 1e-12:
            raise ValueError("r beyond sigma domain")
        return total

    def validate_domination(self, levy, kappa):
        """Check sigma(r) <= (1/(2r)) J(kappa ^ r) (kappa ^ r)^2 on a grid
        of 32 radii."""
        r_lo, r_hi = self.knots[0][0], self.knots[-1][0]
        grid = np.linspace(max(r_lo, 1e-3), r_hi, 32)
        for r in grid:
            kr = min(kappa, r)
            bound = J(levy, kr) * kr ** 2 / (2.0 * r)
            if float(self(r)) > bound * (1.0 + 1e-9):
                raise SigmaViolatesH2(
                    f"sigma({r:.4g}) = {float(self(r)):.4g} exceeds bound {bound:.4g}")
