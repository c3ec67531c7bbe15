"""Explicit condition formulas: moment-bound machinery, invariant-set
thresholds, the double-well and two-well multiplicity criteria, and the
ergodicity/coupling constants.

Notation follows the dissipativity bundle in drift.A1Params:
beta_star = beta + theta1 - 1, gamma1, gamma2 its derived exponents,
h(r) = r/(1+r), and nu-functionals come from levy.tail_moment.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (CaseViolation, NotInTheta, QuadratureFailure, ZeroOverlap,
                     _check_types)
from .levy import BALL, COMPLEMENT, STABLE, J, SigmaSpec, tail_moment


@dataclass(frozen=True)
class ThetaTuple:
    """Candidate index tuple (eps1, eps2, r0, l); admissibility is a
    computed property, not a constructor constraint."""

    eps1: float
    eps2: float
    r0: float
    l: float

    def __post_init__(self):
        if min(self.eps1, self.eps2, self.r0) <= 0:
            raise ValueError("eps1, eps2, r0 must be positive")
        if self.l < 1:
            raise ValueError("l must be >= 1")


def gamma_fn(gamma, a, eps):
    """(1-eps) * (1 if gamma = 0 else a^{eps/(1-eps)})."""
    if not (0.0 <= gamma < 1.0) or not (0.0 <= eps < 1.0):
        raise ValueError("gamma and eps must lie in [0, 1)")
    if gamma == 0.0:
        return 1.0 - eps
    if a <= 0:
        raise ValueError("a must be positive when gamma > 0")
    return (1.0 - eps) * a ** (eps / (1.0 - eps))


def phi_fn(params, levy, eps2, r, l):
    """The drift-plus-noise aggregate entering every moment bound.

    beta C_b
    + beta Gamma((beta-1)^+, gamma2/eps2, gamma2) |nu(z 1_{1<|z|<=l})|^{1/(1-gamma2)}
    + beta lam1 h(r^2)^{(1+theta1)/2} (1+r^2)^{beta_star/2}
    + (beta/2) nu(|.|^2 1_{<=l}) + nu(|.|^beta 1_{>l})
    """
    p = params
    b = p.beta
    # the Gamma term is 0: nu(z 1_{1<|z|<=l}) = 0 for every supported (symmetric) nu
    small = tail_moment(levy, 2.0, BALL, l)
    big = tail_moment(levy, b, COMPLEMENT, l)
    return (b * p.C_b
            + b * p.lam1 * p.h(r ** 2) ** ((1.0 + p.theta1) / 2.0)
            * (1.0 + r ** 2) ** (p.beta_star / 2.0)
            + (b / 2.0) * small + big)


def _theta_lhs(params, levy, t):
    p = params
    ind = 1.0 if 0.0 < p.gamma1 < 1.0 else 0.0
    tail = tail_moment(levy, p.beta / 2.0, COMPLEMENT, t.l)
    return (p.beta * (p.lam1 * p.h(t.r0 ** 2) ** ((1.0 + p.theta1) / 2.0)
                      - t.eps1 * p.lam2 * ind - t.eps2)
            - 2.0 ** (p.beta / 2.0) * tail)


def theta_member(params, levy, t):
    """True iff the tuple makes the moment-bound denominator positive."""
    return _theta_lhs(params, levy, t) > 0.0


def moment_bound(params, levy, t, mu_theta3_moment):
    """Explicit bound on the beta_star-th moment of the invariant measure
    of the frozen equation, given mu(|.|^{theta3})."""
    if mu_theta3_moment < 0:
        raise ValueError("moment must be nonnegative")
    denom = _theta_lhs(params, levy, t)
    if denom <= 0.0:
        raise NotInTheta("tuple outside the admissible index set")
    p = params
    g1 = p.gamma1
    if g1 > 0.0:
        gam = gamma_fn(g1, g1 / t.eps1, g1)
        mu_term = (p.beta * p.lam2 * gam
                   * mu_theta3_moment ** (p.theta4 / (1.0 - g1)))
    else:
        mu_term = p.beta * p.lam2 * mu_theta3_moment ** p.theta4
    return (phi_fn(params, levy, t.eps2, t.r0, t.l) + mu_term) / denom


def _select_l(levy, beta, cap):
    """Smallest doubling-grid l with 2^{beta/2} nu(|.|^{beta/2} 1_{>l}) <= cap."""
    l = 2.0
    while l <= 2.0 ** 20:
        tail = 2.0 ** (beta / 2.0) * tail_moment(levy, beta / 2.0, COMPLEMENT, l)
        if tail <= cap:
            return l
        l *= 2.0
    raise QuadratureFailure("no l on the doubling grid meets the tail cap")


def m_star(params, levy):
    """Invariant-set moment threshold M* with its chosen tuple.

    Case (i): tail cap delta/2 with delta = 2^{-(7+theta1)/2} beta lam1
    (half the threshold's own cap, so the self-map property survives the
    boundary), eps1 = lam1/(2^{(3+theta1)/2} lam2), eps2 = delta/beta,
    r0 = 1.  Case (ii): tail cap (1/8) beta (lam1-lam2), eps1 = gamma1,
    eps2 = (lam1-lam2)/8, r0 chosen so h(r0^2)^{(1+theta1)/2} equals
    (lam1+lam2)/(2 lam1).
    """
    p = params
    case = p.case
    if case is None:
        raise CaseViolation("parameters satisfy neither threshold case")
    b, l1, l2, t1 = p.beta, p.lam1, p.lam2, p.theta1
    if case == "i":
        delta = 2.0 ** (-(7.0 + t1) / 2.0) * b * l1
        l = _select_l(levy, b, delta / 2.0)
        eps1 = l1 / (2.0 ** ((3.0 + t1) / 2.0) * l2) if l2 > 0 else 1.0
        eps2 = delta / b
        ThetaTuple(eps1, eps2, 1.0, l)  # raises unless eps1, eps2 > 0
        g1 = p.gamma1
        g3 = p.theta3 * p.theta4 / (p.beta_star * (1.0 - g1))
        if l2 > 0:
            A = b * l2 * (gamma_fn(g1, g1 / eps1, g1) if g1 > 0 else 1.0)
        else:
            A = 0.0
        if A > 0:
            C1 = ((1.0 - g3) * A ** (1.0 / (1.0 - g3))
                  * (2.0 ** ((7.0 + t1) / 2.0) * g3 / (b * l1)) ** (g3 / (1.0 - g3)))
        else:
            C1 = 0.0
        phi = phi_fn(p, levy, eps2, 1.0, l)
        M1 = 2.0 ** (2.0 + (5.0 + t1) / 2.0) * (phi + C1) / (3.0 * b * l1)
        return {"M1": M1, "M2": None, "M_star": M1, "chosen_l": l,
                "chosen_eps": (eps1, eps2), "r0": 1.0, "case": "i"}
    # case (ii)
    cap = b * (l1 - l2) / 8.0
    l = _select_l(levy, b, cap)
    g1 = p.gamma1
    eps1 = g1 if g1 > 0 else 1.0
    eps2 = (l1 - l2) / 8.0
    lam_mid = (l1 + l2) / 2.0
    u = (lam_mid / l1) ** (2.0 / (1.0 + t1))
    r0 = math.sqrt(u / (1.0 - u))
    ThetaTuple(eps1, eps2, r0, l)  # raises unless eps1, eps2, r0 > 0
    phi = phi_fn(p, levy, eps2, r0, l)
    M2 = 4.0 * phi / (b * (l1 - l2))
    return {"M1": None, "M2": M2, "M_star": M2, "chosen_l": l,
            "chosen_eps": (eps1, eps2), "r0": r0, "case": "ii"}


def chosen_tuple(report):
    """ThetaTuple recorded in an m_star report."""
    e1, e2 = report["chosen_eps"]
    return ThetaTuple(e1, e2, report["r0"], report["chosen_l"])


# ---------------------------------------------------------------------------
# multiplicity criteria: the shared jump-noise term and witness search


def _jump_noise(levy, beta, eps):
    """The jump-noise term shared by the multiplicity criteria, as a
    function of the radius r:
        2^{beta/2} nu_half r^{beta/2} + nu_beta + (beta/2) eps^{beta/2-1} nu_small
    with nu_half = nu(|.|^{beta/2} 1_{>1}), nu_beta = nu(|.|^beta 1_{>1}) and
    nu_small = nu(|.|^2 1_{<=1}); eps and r may be arrays that broadcast.
    Checks beta > 1, eps > 0 at every element and, for stable noise,
    beta < alpha (below 2, nu_beta diverges from beta = alpha on);
    truncated and compound Poisson noise have every moment finite."""
    if not beta > 1.0:
        raise ValueError("need beta > 1")
    if levy.kind == STABLE and not beta < levy.alpha:
        raise ValueError("need beta in (1, alpha)")
    if not np.all(eps > 0):
        raise ValueError("eps must be positive")
    nu_half = tail_moment(levy, beta / 2.0, COMPLEMENT, 1.0)
    nu_beta = tail_moment(levy, beta, COMPLEMENT, 1.0)
    nu_small = tail_moment(levy, 2.0, BALL, 1.0)
    const = nu_beta + (beta / 2.0) * eps ** (beta / 2.0 - 1.0) * nu_small
    return lambda r: 2.0 ** (beta / 2.0) * nu_half * r ** (beta / 2.0) + const


def _verdict(ok):
    """ok as a Python bool, which json.dump writes, unless it is an array."""
    return ok if np.ndim(ok) else bool(ok)


def _witness(check, ok_key, r0_max):
    """First (eps, r0) on a 25 x 40 grid, 25 eps logarithmic in [1e-4, 1]
    and 40 r0 linear below its ceiling r0_max, where check(eps, r0)[ok_key]
    holds; None if none.  One check call takes eps as a column and r0 as a
    row; the first hit in row-major order has the least eps, then the
    largest r0."""
    eps = np.logspace(-4, 0, 25)
    r0 = np.linspace(r0_max * 0.999, r0_max / 40, 40)
    hits = np.argwhere(check(eps[:, None], r0)[ok_key])
    return (float(eps[hits[0, 0]]), float(r0[hits[0, 1]])) if len(hits) else None


# ---------------------------------------------------------------------------
# double-well multiplicity criteria (three wells in d = 1)


def ex14_check(lam, kappa, beta, eps, r0, a1, a2, levy):
    """Multiplicity criteria for the cubic double-well drift with centers
    a1 < 0 < a2 (up to order).

    we_ok:  the interaction-strength lower bound.
    we2_ok: the small-noise feasibility inequality at (eps, r0).
    convex_ok: the quadratic-form criterion at all six (a, b) pairs,
    which makes r1 -> g(a, b, r1, r2) convex.
    g(a, b, r1, r2): the bracketing function from the well analysis.
    eps and r0 may be arrays that broadcast; we2_ok is then an array.
    """
    if a1 * a2 >= 0:
        raise ValueError("need a1 * a2 < 0")
    noise = _jump_noise(levy, beta, eps)
    amin = min(abs(a1), abs(a2))
    if not np.all((0.0 < r0) & (r0 < amin / 4.0)):
        raise ValueError("need r0 in (0, min(|a1|, |a2|)/4)")
    ratio = kappa / lam
    we_ok = ratio >= 1.0 + 2.0 * (a1 ** 2 - a1 * a2 + a2 ** 2) / ((beta - 1.0) * (2.0 + beta))

    lhs = (1.0 / (lam * beta)) * (
        kappa * beta * r0 ** beta
        + eps ** (beta / 2.0) * beta * (lam * (max(a1 ** 2, a2 ** 2) - a1 * a2) + kappa)
        + noise(r0))
    rhs = r0 ** beta * ((r0 - amin) * (r0 - abs(a1 - a2)) + (ratio - 1.0))
    we2_ok = lhs <= rhs

    pairs = [(a1, a2), (a2, a1), (0.0, a1), (a1, 0.0), (0.0, a2), (a2, 0.0)]

    def convex_form(a, b):
        return ((a * (a - b) + ratio - 1.0) * beta * (beta - 1.0)
                / ((2.0 + beta) * (1.0 + beta))
                - beta ** 2 * (2.0 * a - b) ** 2 / (4.0 * (2.0 + beta) ** 2))

    convex_ok = all(convex_form(a, b) >= 0.0 for a, b in pairs)

    def g(a, b, r1, r2):
        return (lam * beta * r1 ** beta
                * (r1 ** 2 - abs(2.0 * a - b) * r1 + a * (a - b) + ratio - 1.0)
                - kappa * beta * r1 ** (beta - 1.0) * r2
                - eps ** (beta / 2.0) * beta * (lam * a * (a - b) + kappa)
                - noise(r1))

    return {"we_ok": bool(we_ok), "we2_ok": _verdict(we2_ok),
            "convex_ok": bool(convex_ok), "g": g, "pairs": pairs}


def ex14_feasibility(lam, kappa, beta, a1, a2, levy):
    """Search an (eps, r0) grid for a witness making we2_ok true.

    Returns (eps, r0) or None; the 25 x 40 grid of _witness is logarithmic
    in eps and linear in r0 below its admissible ceiling.
    """
    return _witness(lambda eps, r0: ex14_check(lam, kappa, beta, eps, r0, a1, a2, levy),
                    "we2_ok", min(abs(a1), abs(a2)) / 4.0)


# ---------------------------------------------------------------------------
# symmetric two-well criteria (two wells, any dimension)


def ex15_check(lam, kappa, beta, eps, r0, y1, y2, levy):
    """Two-well multiplicity criteria with centers y1, y2.  eps and r0 may
    be arrays that broadcast; eq1_ok and wq2_ok are then arrays."""
    y1 = np.atleast_1d(np.asarray(y1, dtype=float))
    y2 = np.atleast_1d(np.asarray(y2, dtype=float))
    delta = float(np.linalg.norm(y1 - y2))
    if delta == 0.0:
        raise ValueError("y1 and y2 must differ")
    if not np.all((0.0 < r0) & (r0 < delta / 4.0)):
        raise ValueError("need r0 in (0, |y1-y2|/4)")
    noise = _jump_noise(levy, beta, eps)
    ratio = kappa / lam
    eq1_ok = ratio >= eps + (beta ** 2 + beta + 16.0) * delta ** 2 / (
        16.0 * (beta + 2.0) * (beta - 1.0))

    lhs = (1.0 / (lam * beta)) * (
        lam * beta * eps * r0 ** beta
        + lam * beta * eps ** (beta / 2.0) * (0.5 * delta ** 2 + ratio)
        + noise(r0))
    rhs = r0 ** beta * (r0 - delta) * (r0 - delta / 2.0)
    wq2_ok = lhs <= rhs

    def g(r1, r2):
        return (lam * beta * (
            r1 ** (beta + 2.0)
            - 1.5 * r1 ** (beta + 1.0) * delta
            + (0.5 * delta ** 2 + ratio - eps) * r1 ** beta
            - (0.5 * delta ** 2 + ratio) * eps ** (beta / 2.0)
            - ratio * r1 ** (beta - 1.0) * r2)
            - noise(r1))

    return {"eq1_ok": _verdict(eq1_ok), "wq2_ok": _verdict(wq2_ok), "g": g,
            "delta": delta}


def ex15_feasibility(lam, kappa, beta, y1, y2, levy):
    """(eps, r0) witness search on the 25 x 40 grid of _witness for the
    two-well feasibility inequality."""
    delta = float(np.linalg.norm(np.asarray(y1, float) - np.asarray(y2, float)))
    return _witness(lambda eps, r0: ex15_check(lam, kappa, beta, eps, r0, y1, y2, levy),
                    "wq2_ok", delta / 4.0)


# ---------------------------------------------------------------------------
# ergodicity and coupling constants


def ct_fn(K1, nu_tail_mass, t):
    """Interlacing constant
    2^{1/2} m t^{1/2} e^{(K1-m)t} (1 + m t e^{K1 t}) e^{m t e^{K1 t}}."""
    if K1 < 0 or nu_tail_mass < 0 or t < 0:
        raise ValueError("inputs must be nonnegative")
    m = nu_tail_mass
    e1 = math.exp(K1 * t)
    return (math.sqrt(2.0) * m * math.sqrt(t) * math.exp((K1 - m) * t)
            * (1.0 + m * t * e1) * math.exp(m * t * e1))


@dataclass(frozen=True)
class AppendixParams:
    """Inputs for the coupling/contraction constants."""

    K1: float
    K2: float
    K3: float
    kappa: float
    l0: float
    C_V: float
    lambda_V: float
    beta0: float = 1.0
    sigma: SigmaSpec = None

    def __post_init__(self):
        _check_types(self)
        if min(self.K1, self.K2, self.K3) <= 0:
            raise ValueError("K constants must be positive")
        if not (0.0 < self.kappa <= 1.0):
            raise ValueError("kappa must lie in (0, 1]")
        if self.l0 < 1.0:
            raise ValueError("l0 must be >= 1")
        if self.C_V <= 0 or self.lambda_V <= 0 or self.beta0 <= 0:
            raise ValueError("C_V, lambda_V, beta0 must be positive")


@dataclass(frozen=True)
class AppendixConstants:
    c: float
    a: float
    eps: float
    lambda0: float
    C_contr: float = None
    lambda_contr: float = None
    c1: float = None
    c2: float = None


def appendix_constants(ap, levy):
    """Closed-form coupling constants plus, when a sigma profile is given,
    the weighted-TV contraction constants built from g1 = int 1/sigma.
    OverflowError when c1 = exp(-c2 g(2 l0)) is so small that
    C_contr = (1 + 1/c1)/2 is not a finite float."""
    Jk = J(levy, ap.kappa)
    if Jk <= 0.0:
        raise ZeroOverlap("J(kappa) = 0")
    K1, kap, l0 = ap.K1, ap.kappa, ap.l0
    c = 1.0 + 16.0 * K1 * l0 / (Jk * kap ** 2)
    ecl = math.exp(-c * l0)
    a = 8.0 * K1 * c * (1.0 + kap) / Jk + kap ** 2 * c ** 2 * ecl
    eps = kap ** 2 * c ** 2 * ecl * Jk / (16.0 * ap.C_V)
    lambda0 = 0.25 * min(Jk * kap ** 2 * c ** 2 * ecl / (2.0 * (2.0 + a)),
                         3.0 * ap.lambda_V)
    if ap.sigma is None:
        return AppendixConstants(c=c, a=a, eps=eps, lambda0=lambda0)
    ap.sigma.validate_domination(levy, kap)
    g1_2l0 = ap.sigma.integral_inverse(2.0 * l0)
    c2 = min(2.0 * ap.K2, 1.0 / g1_2l0)
    # g = g1 + (2/c2) g2 with g2 = K1 g1
    g_2l0 = g1_2l0 * (1.0 + 2.0 * K1 / c2)
    c1 = math.exp(-c2 * g_2l0)
    C_contr = (1.0 + 1.0 / c1) / 2.0 if c1 > 0.0 else math.inf
    if math.isinf(C_contr):
        raise OverflowError(f"C_contr = (1 + 1/c1)/2 overflows: c1 = exp(-{c2 * g_2l0:.6g})")
    # c2 / (1 + e^{2g}) written with e^{-2g}, which cannot overflow
    e = math.exp(-2.0 * g_2l0)
    lambda_contr = c2 * e / (1.0 + e)
    return AppendixConstants(c=c, a=a, eps=eps, lambda0=lambda0,
                             C_contr=C_contr, lambda_contr=lambda_contr,
                             c1=c1, c2=c2)
