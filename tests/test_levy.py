"""Noise-measure functionals: normalization, tail moments, overlap, J,
increment samplers, and the piecewise-linear sigma profile."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma as Gamma
from scipy.special import gammainc, gammaincc
from scipy.stats import ks_2samp

from mvlevy import rng as mvrng
from mvlevy.errors import (DivergentMoment, InfiniteOverlap, InvalidRegion,
                           QuadratureFailure, SigmaViolatesH2)
from mvlevy.levy import (BALL, COMPLEMENT, STABLE_BLOCK, J, LevyMeasureSpec,
                         SigmaSpec, _positive_stable, _unit_stable_1d,
                         overlap_mass, sample_increment, sphere_area,
                         stable_constant, tail_moment, unit_isotropic_stable)


def test_normalization_matches_characteristic_exponent():
    # int (1 - cos(xi z)) c |z|^{-1-a} dz must equal |xi|^a in d = 1
    cut = 50.0
    for alpha in (0.7, 1.3, 1.8):
        c = stable_constant(1, alpha)
        for xi in (0.5, 1.0, 2.0):
            head, _ = integrate.quad(
                lambda z: 2.0 * (1.0 - math.cos(xi * z)) * c * z ** (-1.0 - alpha),
                0.0, cut, limit=2000)
            # split the tail into its monotone and oscillatory parts
            flat = 2.0 * c * cut ** -alpha / alpha
            osc, _ = integrate.quad(lambda z: 2.0 * c * z ** (-1.0 - alpha),
                                    cut, np.inf, weight="cos", wvar=xi)
            assert head + flat - osc == pytest.approx(xi ** alpha, rel=1e-6)


def test_sphere_area_values():
    assert sphere_area(1) == pytest.approx(2.0, rel=1e-14)
    assert sphere_area(2) == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert sphere_area(3) == pytest.approx(4.0 * math.pi, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gamma_factors_match_scipy(dim):
    assert sphere_area(dim) == pytest.approx(
        2.0 * math.pi ** (dim / 2.0) / Gamma(dim / 2.0), rel=1e-14)
    for alpha in np.linspace(0.01, 1.99, 45):
        ref = (alpha * 2.0 ** (alpha - 1.0) * Gamma((dim + alpha) / 2.0)
               / (math.pi ** (dim / 2.0) * Gamma(1.0 - alpha / 2.0)))
        assert stable_constant(dim, alpha) == pytest.approx(ref, rel=1e-14)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_stable_constant_vanishes_at_alpha_two(dim):
    # the pole of Gamma(1 - alpha/2): Brownian motion has no jump part
    assert stable_constant(dim, 2.0) == 0.0


def test_tail_moment_quadrature_oracle():
    gen = mvrng.stream(101)
    for _ in range(25):
        alpha = float(gen.uniform(0.6, 1.9))
        scale = float(gen.uniform(0.5, 2.0))
        dim = int(gen.integers(1, 4))
        l = float(gen.uniform(0.5, 4.0))
        spec = LevyMeasureSpec(alpha=alpha, scale=scale, dim=dim)
        p_far = float(gen.uniform(0.0, 0.95 * alpha))
        want, _ = integrate.quad(lambda r: r ** p_far * spec.radial_density(r),
                                 l, np.inf, limit=400)
        assert tail_moment(spec, p_far, COMPLEMENT, l) == pytest.approx(want, rel=1e-8)
        p_near = float(gen.uniform(1.05 * alpha, alpha + 1.5))
        want, _ = integrate.quad(lambda r: r ** p_near * spec.radial_density(r),
                                 0.0, l, limit=400)
        assert tail_moment(spec, p_near, BALL, l) == pytest.approx(want, rel=1e-8)


def test_tail_moment_annulus_additivity():
    # stable far tail minus a farther tail equals the truncated-spec tail
    spec = LevyMeasureSpec(alpha=1.5, scale=1.3)
    trunc = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=1.3, cutoff=4.0)
    for p in (0.0, 0.7, 1.2):
        whole = tail_moment(spec, p, COMPLEMENT, 1.0)
        far = tail_moment(spec, p, COMPLEMENT, 4.0)
        annulus = tail_moment(trunc, p, COMPLEMENT, 1.0)
        assert abs((whole - far) - annulus) < 1e-10


def _compound_total_moment(spec, p):
    """nu(|.|^p) of a compound spec in closed form: rate E|jump|^p."""
    name, *params = spec.jump_dist
    if name == "gaussian":
        (std,), d = params, spec.dim
        return (spec.rate * std ** p * 2.0 ** (p / 2.0) * math.gamma((d + p) / 2.0)
                / math.gamma(d / 2.0))
    lo, hi = params
    return spec.rate * (hi ** (p + 1.0) - lo ** (p + 1.0)) / ((p + 1.0) * (hi - lo))


@st.composite
def _compound_specs(draw):
    rate = draw(st.floats(0.1, 5.0))
    if draw(st.booleans()):
        return LevyMeasureSpec(kind="compound_poisson", rate=rate, dim=draw(st.integers(1, 3)),
                               jump_dist=("gaussian", draw(st.floats(0.1, 3.0))))
    lo = draw(st.floats(0.0, 2.0))
    return LevyMeasureSpec(kind="compound_poisson", rate=rate,
                           jump_dist=("uniform", lo, lo + draw(st.floats(0.1, 3.0))))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_compound_specs(), st.floats(0.0, 3.0), st.floats(0.05, 6.0))
def test_compound_ball_plus_complement_is_the_whole_moment(spec, p, l):
    whole = tail_moment(spec, p, BALL, l) + tail_moment(spec, p, COMPLEMENT, l)
    assert whole == pytest.approx(_compound_total_moment(spec, p), rel=1e-7)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(0.3, 1.9), st.floats(0.05, 2.0), st.floats(0.2, 5.0),
       st.floats(0.02, 2.0), st.integers(1, 3))
def test_truncated_ball_plus_complement_is_the_whole_moment(alpha, dp, cutoff, frac, dim):
    # the truncated measure lives on |z| <= cutoff: the ball of that radius
    # holds the whole moment, wherever the split radius l falls
    spec = LevyMeasureSpec(kind="truncated_stable", alpha=alpha, dim=dim, cutoff=cutoff)
    p, l = alpha + dp, frac * cutoff
    whole = tail_moment(spec, p, BALL, l) + tail_moment(spec, p, COMPLEMENT, l)
    assert whole == pytest.approx(tail_moment(spec, p, BALL, cutoff), rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
def test_truncated_far_tail_at_p_alpha_is_a_log(dim):
    # nu(|.|^alpha 1_{l < |.| <= R}) = C |S^{d-1}| log(R / l), against the
    # quadrature of r^alpha times the radial density written out here
    alpha, R, l = 1.3, 3.0, 0.4
    spec = LevyMeasureSpec(kind="truncated_stable", alpha=alpha, dim=dim, cutoff=R)
    area = 2.0 * math.pi ** (dim / 2.0) / Gamma(dim / 2.0)
    C = (alpha * 2.0 ** (alpha - 1.0) * Gamma((dim + alpha) / 2.0)
         / (math.pi ** (dim / 2.0) * Gamma(1.0 - alpha / 2.0)))
    want, _ = integrate.quad(lambda r: r ** alpha * C * area * r ** (-1.0 - alpha), l, R)
    assert want == pytest.approx(C * area * math.log(R / l), rel=1e-12)
    assert tail_moment(spec, alpha, COMPLEMENT, l) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_brownian_densities_vanish_everywhere(dim):
    # alpha = 2 has no jump part: both densities are 0, at the origin too
    spec = LevyMeasureSpec(alpha=2.0, dim=dim)
    r = np.array([0.0, 1e-8, 0.5, 3.0])
    assert np.array_equal(spec.radial_density(r), np.zeros(4))
    z = np.zeros((4, dim))
    z[:, 0] = r
    assert np.array_equal(spec.levy_density(z), np.zeros(4))


def test_tail_moment_scale_covariance():
    base = LevyMeasureSpec(alpha=1.4)
    for sigma in (0.5, 2.0):
        scaled = LevyMeasureSpec(alpha=1.4, scale=sigma)
        for p, region, l in ((0.8, COMPLEMENT, 2.0), (2.0, BALL, 1.5)):
            a = tail_moment(scaled, p, region, l)
            # density constant carries sigma^alpha
            assert abs(a - sigma ** 1.4 * tail_moment(base, p, region, l)) < 1e-10
            # substitution z = sigma y moves the radius instead
            assert abs(a - sigma ** p * tail_moment(base, p, region, l / sigma)) < 1e-10


def test_tail_moment_rejects_divergent_requests():
    spec = LevyMeasureSpec(alpha=1.5)
    with pytest.raises(DivergentMoment):
        tail_moment(spec, 1.5, COMPLEMENT, 1.0)
    with pytest.raises(DivergentMoment):
        tail_moment(spec, 1.7, COMPLEMENT, 1.0)
    with pytest.raises(DivergentMoment):
        tail_moment(spec, 1.2, BALL, 1.0)
    with pytest.raises(InvalidRegion):
        tail_moment(spec, 0.5, "shell", 1.0)
    with pytest.raises(InvalidRegion):
        tail_moment(spec, 0.5, COMPLEMENT, -1.0)


def test_brownian_case_has_no_jump_part():
    spec = LevyMeasureSpec(alpha=2.0)
    assert tail_moment(spec, 1.0, COMPLEMENT, 1.0) == 0.0
    assert tail_moment(spec, 3.0, BALL, 1.0) == 0.0
    assert overlap_mass(spec, [1.0]) == 0.0
    assert overlap_mass(spec, [0.0]) == 0.0


def test_overlap_closed_form_1d():
    # the stable kind returns 2 C (|x|/2)^{-a} / a in d = 1 (A = 1)
    for alpha, scale, x in ((1.2, 1.0, 1.0), (1.7, 0.5, 2.5), (0.8, 2.0, 0.7)):
        spec = LevyMeasureSpec(alpha=alpha, scale=scale)
        want = 2.0 * spec.density_constant * (x / 2.0) ** (-alpha) / alpha
        assert overlap_mass(spec, [x]) == pytest.approx(want, rel=1e-6)


def test_overlap_2d_against_riemann_sum():
    spec = LevyMeasureSpec(alpha=1.5, dim=2)
    x = np.array([1.2, 0.0])
    # brute-force min(nu(z), nu(z-x)) on a polar-refined grid
    gs = np.linspace(-12.0, 12.0, 1201)
    dz = gs[1] - gs[0]
    Z = np.stack(np.meshgrid(gs, gs, indexing="ij"), axis=-1).reshape(-1, 2)
    lhs = spec.levy_density(Z)
    rhs = spec.levy_density(Z - x)
    riemann = float(np.sum(np.minimum(lhs, rhs)) * dz * dz)
    assert overlap_mass(spec, x) == pytest.approx(riemann, rel=2e-2)


def test_overlap_truncated_1d_against_riemann_sum():
    # the halfspace power law cut at R: truncation at R = 3 cuts the
    # support of the min to [x - R, R], with jumps at both ends and a kink
    # at x/2
    spec = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=1.0, cutoff=3.0)
    x = 1.2
    lo, hi = x - 3.0, 3.0
    n = 400000
    z = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    dens = np.minimum(spec.levy_density(z[:, None]), spec.levy_density(z[:, None] - x))
    riemann = float(dens.sum() * (hi - lo) / n)
    assert overlap_mass(spec, [x]) == pytest.approx(riemann, rel=1e-4)
    # truncation only removes mass from the stable overlap
    stable = overlap_mass(LevyMeasureSpec(alpha=1.5, scale=1.0), [x])
    assert overlap_mass(spec, [x]) < stable


def _riemann_overlap_1d(spec, x, lo, hi, n):
    """Midpoint sum of min(nu(z), nu(z - x)) over [lo, hi] in n cells."""
    z = lo + (np.arange(n) + 0.5) * (hi - lo) / n
    dens = np.minimum(spec.levy_density(z[:, None]), spec.levy_density(z[:, None] - x))
    return float(dens.sum() * (hi - lo) / n)


@pytest.mark.parametrize("x", [0.3, 1.1, 3.0])
def test_overlap_gaussian_1d_against_riemann_sum(x):
    spec = LevyMeasureSpec(kind="compound_poisson", rate=2.0,
                           jump_dist=("gaussian", 0.8))
    riemann = _riemann_overlap_1d(spec, x, -8.0, 8.0 + x, 400000)
    assert overlap_mass(spec, [x]) == pytest.approx(riemann, rel=1e-8)


def test_overlap_gaussian_2d_against_riemann_sum():
    # rate erfc(|x| / (2 sqrt(2) std)) in every dimension
    spec = LevyMeasureSpec(kind="compound_poisson", rate=2.0, dim=2,
                           jump_dist=("gaussian", 0.8))
    x = np.array([0.9, 0.6])
    gs = np.linspace(-6.0, 6.0, 1201)
    dz = gs[1] - gs[0]
    Z = np.stack(np.meshgrid(gs, gs, indexing="ij"), axis=-1).reshape(-1, 2)
    riemann = float(np.sum(np.minimum(spec.levy_density(Z), spec.levy_density(Z - x)))
                    * dz * dz)
    assert overlap_mass(spec, x) == pytest.approx(riemann, rel=1e-5)


@pytest.mark.parametrize("lo, hi, x", [
    (0.5, 1.5, 0.001), (0.5, 1.5, 0.3), (0.5, 1.5, 1.2), (0.5, 1.5, 2.0),
    (0.5, 1.5, 2.6), (0.5, 1.5, 3.5), (1.0, 1.2, 0.001), (0.0, 1.0, 0.001)])
def test_overlap_uniform_1d_against_riemann_sum(lo, hi, x):
    # the shifted copy of [-hi, -lo] u [lo, hi] meets the same arm (small
    # x), the opposite one (x = 1.2, 2.0, 2.6 on [0.5, 1.5]) or neither
    # (x = 3.5); a narrow law, or arms that touch at 0, is where adaptive
    # quadrature over the half-lines can miss an arm
    spec = LevyMeasureSpec(kind="compound_poisson", rate=3.0,
                           jump_dist=("uniform", lo, hi))
    riemann = _riemann_overlap_1d(spec, x, -hi - 0.5, hi + 0.5 + x, 800000)
    assert overlap_mass(spec, [x]) == pytest.approx(riemann, rel=1e-4, abs=1e-12)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gaussian_tail_moment_against_incomplete_gamma(dim):
    # |z|^2 / (2 std^2) ~ Gamma(d/2): the moment is rate (sqrt(2) std)^p
    # Gamma(k) / Gamma(d/2) times P(k, l^2 / (2 std^2)) on the ball and Q
    # outside it, k = (p + d)/2; l = 10 std is the far tail
    std, rate = 0.7, 2.5
    spec = LevyMeasureSpec(kind="compound_poisson", rate=rate, dim=dim,
                           jump_dist=("gaussian", std))
    for p in (0.0, 0.5, 1.5, 3.0):
        k = (p + dim) / 2.0
        whole = rate * (math.sqrt(2.0) * std) ** p * Gamma(k) / Gamma(dim / 2.0)
        for l in std * np.array([0.05, 0.5, 1.0, 2.0, 4.0, 10.0]):
            y = l * l / (2.0 * std * std)
            assert tail_moment(spec, p, BALL, l) == pytest.approx(
                whole * gammainc(k, y), rel=1e-12)
            assert tail_moment(spec, p, COMPLEMENT, l) == pytest.approx(
                whole * gammaincc(k, y), rel=1e-12)


def test_overlap_at_zero():
    assert overlap_mass(LevyMeasureSpec(kind="compound_poisson", rate=3.0,
                                        jump_dist=("gaussian", 1.0)), [0.0]) == 3.0
    with pytest.raises(InfiniteOverlap):
        overlap_mass(LevyMeasureSpec(alpha=1.5), [0.0])


def test_J_non_increasing_and_power_decay():
    spec = LevyMeasureSpec(alpha=1.5)
    rs = np.linspace(0.2, 4.0, 10)
    vals = [J(spec, float(r)) for r in rs]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # pure stable overlap scales like r^{-alpha}
    assert J(spec, 1.0) / J(spec, 2.0) == pytest.approx(2.0 ** 1.5, rel=1e-6)


def test_J_uniform_jumps_takes_the_exact_infimum():
    # at |x| = 1 the arms [-1.5, -0.5] and [0.5, 1.5] shifted by x only
    # touch, so the overlap, and J over any r >= 1, is 0; at |x| = 1.2 it
    # is rate 0.2 / (2 (hi - lo)) = 0.3
    spec = LevyMeasureSpec(kind="compound_poisson", rate=3.0,
                           jump_dist=("uniform", 0.5, 1.5))
    assert overlap_mass(spec, [1.0]) == 0.0
    assert overlap_mass(spec, [1.2]) == pytest.approx(0.3, rel=1e-12)
    assert J(spec, 2.0) == 0.0
    assert J(spec, 1.0) == 0.0
    # below the first touch the overlap falls linearly down to r
    assert J(spec, 0.8) == overlap_mass(spec, [0.8])


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.floats(0.0, 2.0), st.floats(0.1, 3.0), st.floats(0.05, 6.0))
def test_J_uniform_jumps_below_every_grid_value(lo, width, r):
    # J is the infimum over (0, r]: no point of a fine grid lies below it,
    # and the grid comes within the overlap's Lipschitz constant times the
    # spacing of it
    spec = LevyMeasureSpec(kind="compound_poisson", rate=2.0,
                           jump_dist=("uniform", lo, lo + width))
    grid = np.linspace(r / 2000.0, r, 2000)
    vals = np.array([overlap_mass(spec, [x]) for x in grid])
    got = J(spec, r)
    slope = 2.0 * 4.0 / (2.0 * width)  # rate 2, four arm pairs
    assert got <= vals.min() + 1e-12
    assert got >= vals.min() - slope * (grid[1] - grid[0]) - 1e-12


def test_sampler_characteristic_function():
    gen = mvrng.stream(55)
    spec = LevyMeasureSpec(alpha=1.5)
    draws = sample_increment(spec, 1.0, gen, size=100000)[:, 0]
    for t in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.cos(t * draws)))
        assert abs(emp - math.exp(-t ** 1.5)) < 0.01


def test_sampler_self_similarity():
    gen = mvrng.stream(56)
    spec = LevyMeasureSpec(alpha=1.5)
    a = sample_increment(spec, 2.0, gen, size=40000)[:, 0]
    b = sample_increment(spec, 1.0, gen, size=40000)[:, 0] * 2.0 ** (1.0 / 1.5)
    assert ks_2samp(a, b).pvalue > 0.01


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.one_of(st.floats(0.3, 1.99), st.just(2.0)), st.floats(0.1, 5.0),
       st.sampled_from([1, 2]), st.floats(1e-4, 10.0), st.integers(0, 2 ** 40))
def test_sampler_scales_exactly_with_dt(alpha, scale, dim, dt, seed):
    # on one stream a window of length dt is dt^{1/alpha} times the unit
    # window: the stable increments are self-similar, sqrt(dt) at alpha = 2
    spec = LevyMeasureSpec(alpha=alpha, scale=scale, dim=dim)
    a = sample_increment(spec, dt, mvrng.stream(seed), size=64)
    b = sample_increment(spec, 1.0, mvrng.stream(seed), size=64)
    assert np.allclose(a, dt ** (1.0 / alpha) * b, rtol=1e-12, atol=0.0)


def test_stream_key_words():
    def draws(*words):
        seq = np.random.SeedSequence(list(words))
        return np.random.Generator(np.random.PCG64(seq)).random(4)

    # the seed is two 32-bit words (low, high); a key-less stream keeps the
    # stream it had when the seed was one word
    assert np.array_equal(mvrng.stream(5).random(4), draws(5, 0))
    assert np.array_equal(mvrng.stream(5, 7).random(4), draws(5, 0, 7))
    assert np.array_equal(mvrng.stream(5, 7, 1).random(4), draws(5, 0, 7, 1))
    assert np.array_equal(mvrng.stream(2**32 + 5, 7).random(4), draws(5, 1, 7))
    # so a seed of 2^32 or more does not spill into the key words
    assert not np.array_equal(mvrng.stream(2**32 + 5).random(4),
                              mvrng.stream(5, 1).random(4))
    # a nonzero extra word gives a new stream; a trailing zero word would not
    assert not np.array_equal(mvrng.stream(5, 7, 1).random(4), draws(5, 0, 7))
    assert np.array_equal(mvrng.stream(5, 7, 0).random(4), draws(5, 0, 7))


def test_sampler_gaussian_branch_variance():
    gen = mvrng.stream(57)
    spec = LevyMeasureSpec(alpha=2.0, scale=0.5)
    draws = sample_increment(spec, 0.01, gen, size=200000)
    assert float(draws.var()) == pytest.approx(0.5 ** 2 * 0.01, rel=0.02)


def test_alpha_two_convention():
    # sample_increment at alpha = 2 is scale times standard Brownian motion
    # (variance scale^2 dt, CF exp(-scale^2 dt |xi|^2 / 2)); the unit stable
    # law at alpha = 2 has CF exp(-|xi|^2), variance 2 per coordinate
    gen = mvrng.stream(59)
    scale, dt, n = 0.5, 0.04, 200000
    inc = sample_increment(LevyMeasureSpec(alpha=2.0, scale=scale, dim=2), dt, gen, size=n)
    unit = unit_isotropic_stable(2.0, 2, gen, n)
    assert inc.var(axis=0) == pytest.approx([scale ** 2 * dt] * 2, rel=0.02)
    assert unit.var(axis=0) == pytest.approx([2.0, 2.0], rel=0.02)
    xi = np.array([0.6, 0.8])  # |xi| = 1
    assert np.cos(unit @ xi).mean() == pytest.approx(math.exp(-1.0), abs=0.01)
    assert np.cos(inc @ xi / (scale * math.sqrt(dt))).mean() == pytest.approx(
        math.exp(-0.5), abs=0.01)


def test_sampler_isotropy_d2():
    gen = mvrng.stream(58)
    draws = unit_isotropic_stable(1.5, 2, gen, 60000)
    # projections on two fixed directions share the 1-d stable law
    u = np.array([1.0, 0.0])
    v = np.array([1.0, 1.0]) / math.sqrt(2.0)
    assert ks_2samp(draws @ u, draws @ v).pvalue > 0.01


def _cms_float64(alpha, u, w):
    """The Chambers-Mallows-Stuck draw written out in float64: the oracle."""
    return (np.sin(alpha * u) / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha))


def _kanter_float64(alpha1, u, w):
    """Kanter's positive-stable draw written out in float64: the oracle."""
    a_u = (np.sin((1.0 - alpha1) * u)
           * np.sin(alpha1 * u) ** (alpha1 / (1.0 - alpha1))
           / np.sin(u) ** (1.0 / (1.0 - alpha1)))
    return (a_u / w) ** ((1.0 - alpha1) / alpha1)


def _float32_sine_rtol(alpha):
    # each float32 sine is within 1.2e-7 relative; the draw raises the three
    # to the powers 1, -1/alpha and (1 - alpha)/alpha
    return 1.2e-7 * (1.0 + (1.0 + abs(1.0 - alpha)) / alpha)


class _FixedAngles:
    """Generator stand-in that returns the given u and w arrays."""

    def __init__(self, u, w):
        self.u, self.w = np.asarray(u, dtype=float), np.asarray(w, dtype=float)

    def uniform(self, low, high, size):
        assert size == self.u.size
        return self.u

    def standard_exponential(self, size=None, out=None):
        if out is None:
            assert size == self.w.size
            return self.w
        assert out.size == self.w.size
        out[:] = self.w
        return out


def _angle_grid(near):
    """(u, w) pairs: u within 1e-16 of each point in near, through the
    interior and within 1e-12 of 0; w from 1e-8 to 40."""
    gaps = np.concatenate([np.geomspace(1e-16, 1.5, 300), np.linspace(0.01, 1.5, 60)])
    u = np.concatenate([np.abs(c - gaps) for c in near] + [np.geomspace(1e-12, 1.0, 40)])
    u, w = np.meshgrid(u, np.geomspace(1e-8, 40.0, 31))
    return u.ravel(), w.ravel()


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.2, 1.5, 1.8, 1.99])
def test_unit_stable_1d_matches_float64_formula(alpha):
    u, w = _angle_grid([math.pi / 2.0])
    u = np.concatenate([u, -u])
    w = np.concatenate([w, w])
    got = _unit_stable_1d(alpha, _FixedAngles(u, w), u.size)
    ref = _cms_float64(alpha, u, w)
    assert np.all(np.isfinite(ref)) and np.all(ref != 0.0)
    assert np.max(np.abs(got / ref - 1.0)) <= _float32_sine_rtol(alpha)
    # the left end of uniform(-pi/2, pi/2), where cos u is pi/2's rounding error
    edge = _unit_stable_1d(alpha, _FixedAngles([-math.pi / 2.0], [1.0]), 1)
    assert np.isfinite(edge[0]) and edge[0] < 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.8])
def test_unit_stable_1d_blocks_do_not_shift_values(alpha):
    u, w = _angle_grid([math.pi / 2.0])
    u, w = u[:STABLE_BLOCK + 1], w[:STABLE_BLOCK + 1]
    whole = _unit_stable_1d(alpha, _FixedAngles(u, w), u.size)
    one_by_one = [_unit_stable_1d(alpha, _FixedAngles(u[i:i + 1], w[i:i + 1]), 1)[0]
                  for i in range(u.size)]
    assert np.array_equal(whole, one_by_one)


@pytest.mark.parametrize("alpha", [0.2, 0.5, 0.9, 1.2, 1.5, 1.8])
def test_positive_stable_matches_float64_formula(alpha):
    alpha1 = alpha / 2.0
    u, w = _angle_grid([0.0, math.pi])
    got = _positive_stable(alpha1, _FixedAngles(u, w), u.size)
    ref = _kanter_float64(alpha1, u, w)
    assert np.all(np.isfinite(ref)) and np.all(ref > 0.0)
    assert np.max(np.abs(got / ref - 1.0)) <= _float32_sine_rtol(alpha1)


def test_isotropic_stable_near_alpha_two_is_finite():
    # the float64 powers sin(u)^{-1/(1 - alpha/2)} overflow for u near 0 and
    # pi once alpha is close to 2; the logs do not
    draws = unit_isotropic_stable(1.99, 2, mvrng.stream(63), 200000)
    assert np.all(np.isfinite(draws))


@pytest.mark.parametrize("alpha", [1.2, 1.8])
def test_unit_stable_extreme_tail(alpha):
    from scipy.stats import levy_stable

    n = 2 * 10 ** 6
    x = np.abs(unit_isotropic_stable(alpha, 1, mvrng.stream(62), n)[:, 0])
    for level in (10.0, 100.0):
        p = 2.0 * levy_stable.sf(level, alpha, 0.0)
        se = math.sqrt(p * (1.0 - p) / n)
        assert abs(np.mean(x > level) - p) <= 4.0 * se, (level, np.mean(x > level), p)


def test_stable_increment_draws_uniforms_then_exponentials():
    # one uniform and one exponential per row, in that order: a stream's
    # position after a call does not depend on how the sampler is written
    n = 2 * STABLE_BLOCK + 3
    gen, twin = mvrng.stream(64), mvrng.stream(64)
    sample_increment(LevyMeasureSpec(alpha=1.8), 0.01, gen, size=n)
    twin.uniform(size=n)
    twin.standard_exponential(n)
    assert np.array_equal(gen.random(8), twin.random(8))


def test_sampler_determinism():
    spec = LevyMeasureSpec(alpha=1.5)
    a = sample_increment(spec, 0.1, mvrng.stream(9, 3), size=1000)
    b = sample_increment(spec, 0.1, mvrng.stream(9, 3), size=1000)
    c = sample_increment(spec, 0.1, mvrng.stream(9, 4), size=1000)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_truncated_increments_respect_cutoff_scale():
    gen = mvrng.stream(60)
    spec = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=0.5, cutoff=2.0)
    draws = sample_increment(spec, 0.01, gen, size=50000)
    # no single window should exceed cutoff plus Gaussian dust by much
    assert float(np.abs(draws).max()) < 3.0 * 2.0


@st.composite
def _any_specs(draw):
    """Specs of every kind and jump law in d = 1, 2, 3."""
    dim = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["stable", "truncated_stable", "gaussian", "uniform"]))
    if kind == "gaussian":
        return LevyMeasureSpec(kind="compound_poisson", rate=draw(st.floats(0.1, 5.0)),
                               dim=dim, jump_dist=("gaussian", draw(st.floats(0.1, 3.0))))
    if kind == "uniform":
        lo = draw(st.floats(0.0, 2.0))
        return LevyMeasureSpec(kind="compound_poisson", rate=draw(st.floats(0.1, 5.0)),
                               dim=dim, jump_dist=("uniform", lo,
                                                   lo + draw(st.floats(0.1, 3.0))))
    return LevyMeasureSpec(kind=kind, alpha=draw(st.floats(0.3, 1.99)),
                           scale=draw(st.floats(0.2, 3.0)), dim=dim,
                           cutoff=draw(st.floats(0.5, 4.0)) if kind != "stable" else 0.0)


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_any_specs(), st.lists(st.floats(0.01, 6.0), min_size=1, max_size=8),
       st.integers(0, 2 ** 32 - 1))
def test_pointwise_density_spreads_radial_density_over_the_sphere(spec, radii, seed):
    # every kind is isotropic: nu(r u) |S^{d-1}| r^{d-1} = radial_density(r)
    r = np.array(radii)
    u = np.random.default_rng(seed).standard_normal((r.size, spec.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    shell = sphere_area(spec.dim) * r ** (spec.dim - 1)
    got = spec.levy_density(r[:, None] * u) * shell
    assert np.allclose(got, spec.radial_density(r), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_density_at_the_origin(dim):
    zero = np.zeros((1, dim))
    for spec in (LevyMeasureSpec(alpha=1.5, dim=dim),
                 LevyMeasureSpec(kind="truncated_stable", alpha=0.7, cutoff=2.0, dim=dim)):
        assert spec.levy_density(zero)[0] == np.inf
    # the normal density's peak, finite although the radial density is 0
    # there in d >= 2
    gauss = LevyMeasureSpec(kind="compound_poisson", rate=2.0, dim=dim,
                            jump_dist=("gaussian", 0.7))
    assert gauss.levy_density(zero)[0] == 2.0 * (2.0 * math.pi * 0.7 ** 2) ** (-dim / 2.0)
    # the uniform law has density only where its sizes reach
    for lo, want in ((0.0, 0.5 if dim == 1 else np.inf), (0.5, 0.0)):
        unif = LevyMeasureSpec(kind="compound_poisson", rate=1.0, dim=dim,
                               jump_dist=("uniform", lo, lo + 1.0))
        assert unif.levy_density(zero)[0] == want


_EVERY_KIND = [LevyMeasureSpec(alpha=a, scale=0.7, dim=d)
               for a in (1.0, 1.5, 2.0) for d in (1, 2)] + [
    LevyMeasureSpec(kind="truncated_stable", alpha=1.2, scale=0.8, cutoff=2.0),
    LevyMeasureSpec(kind="compound_poisson", rate=3.0, jump_dist=("gaussian", 0.7)),
    LevyMeasureSpec(kind="compound_poisson", rate=3.0, jump_dist=("uniform", 0.5, 1.5))]


@pytest.mark.parametrize("spec", _EVERY_KIND, ids=lambda s: f"{s.kind}-{s.alpha}-d{s.dim}")
def test_increments_into_a_buffer_match_a_fresh_array(spec):
    # out only says where the draws go: the same draws, in the same order,
    # into the caller's buffer, which is returned; a slice of a bigger
    # buffer, as the integrator passes it, is filled the same way
    n = 2 * STABLE_BLOCK + 5
    want = sample_increment(spec, 0.3, mvrng.stream(11), size=n)
    buf = np.full((n + 7, spec.dim), np.nan)
    gen = mvrng.stream(11)
    got = sample_increment(spec, 0.3, gen, size=n, out=buf[:n])
    assert np.shares_memory(got, buf) and got.shape == (n, spec.dim)
    assert np.array_equal(got, want)
    assert np.all(np.isnan(buf[n:]))
    twin = mvrng.stream(11)
    sample_increment(spec, 0.3, twin, size=n)
    assert np.array_equal(gen.random(4), twin.random(4))
    whole = np.empty((n, spec.dim))
    assert sample_increment(spec, 0.3, mvrng.stream(11), size=n, out=whole) is whole


# sha256 of sample_increment(spec, 0.3, mvrng.stream(2024, dim), size=500),
# recorded before the jump samplers shared one routine: the draws and their
# order are pinned
_DRAW_DIGESTS = {
    ("truncated", 1): "79031a5fd9de2d59cfa1abea0039362726792127f430142267664660886ab95f",
    ("truncated", 2): "a450fda2988c8bbe0091e6ce795579ed570385abd46612a43a157a4eaebc9303",
    ("gaussian", 1): "0cff42f0408838281862d30d00fb55ba6ee71acddfe3ca5ea82c9382a67e6e0d",
    ("gaussian", 2): "4c7adfa3bedb988852db8f4784dcfac3739cb85f8d40c4462853b0bc6223ce4b",
    ("uniform", 1): "b2b1ec3aa97b7aaca06d669a737394e0076e38707a1ad6214b9f3327dba847d3",
    ("uniform", 2): "50957e95746c9bdc4af8a1f522441fff2f71f477448040784aa30576bbaeba5f",
}


@pytest.mark.parametrize("law, dim", sorted(_DRAW_DIGESTS))
def test_jump_sampler_draws_are_pinned(law, dim):
    spec = LevyMeasureSpec(dim=dim, **{
        "truncated": dict(kind="truncated_stable", alpha=1.2, scale=0.8, cutoff=2.0),
        "gaussian": dict(kind="compound_poisson", rate=3.0, jump_dist=("gaussian", 0.7)),
        "uniform": dict(kind="compound_poisson", rate=3.0,
                        jump_dist=("uniform", 0.5, 1.5))}[law])
    draws = sample_increment(spec, 0.3, mvrng.stream(2024, dim), size=500)
    assert draws.shape == (500, dim) and draws.dtype == np.float64
    assert hashlib.sha256(draws.tobytes()).hexdigest() == _DRAW_DIGESTS[law, dim]


def test_sigma_spec_validation():
    SigmaSpec(((0.0, 1.0), (1.0, 2.0), (2.0, 2.5)))
    with pytest.raises(SigmaViolatesH2):
        SigmaSpec(((0.0, 1.0),))
    with pytest.raises(SigmaViolatesH2):
        SigmaSpec(((0.0, 1.0), (1.0, 0.5)))  # decreasing
    with pytest.raises(SigmaViolatesH2):
        SigmaSpec(((0.0, 1.0), (1.0, 1.5), (2.0, 2.5)))  # convex kink
    with pytest.raises(SigmaViolatesH2):
        SigmaSpec(((0.0, -1.0), (1.0, 1.0)))


def test_sigma_integral_inverse_matches_quadrature():
    sig = SigmaSpec(((0.0, 1.0), (1.0, 3.0), (4.0, 4.5)))
    for r in (0.5, 1.0, 2.7, 4.0):
        want, _ = integrate.quad(lambda s: 1.0 / float(sig(s)), 0.0, r,
                                 points=[k for k, _ in sig.knots if 0.0 < k < r],
                                 limit=200)
        assert sig.integral_inverse(r) == pytest.approx(want, rel=1e-10)


@st.composite
def _sigma_specs(draw):
    """Positive, non-decreasing, concave piecewise-linear profiles."""
    n = draw(st.integers(2, 6))
    gaps = draw(st.lists(st.floats(0.05, 2.0), min_size=n - 1, max_size=n - 1))
    slopes = sorted(draw(st.lists(st.floats(0.0, 3.0), min_size=n - 1, max_size=n - 1)),
                    reverse=True)
    r, v = draw(st.floats(0.0, 1.0)), draw(st.floats(0.05, 2.0))
    knots = [(r, v)]
    for gap, slope in zip(gaps, slopes):
        r, v = r + gap, v + slope * gap
        knots.append((r, v))
    return SigmaSpec(tuple(knots))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_sigma_specs(), st.floats(0.0, 1.0))
def test_sigma_integral_inverse_matches_quadrature_property(sig, frac):
    r0, r1 = sig.knots[0][0], sig.knots[-1][0]
    r = r0 + frac * (r1 - r0)
    want, _ = integrate.quad(lambda s: 1.0 / float(sig(s)), r0, r,
                             points=[k for k, _ in sig.knots if r0 < k < r] or None,
                             limit=200, epsabs=1e-13, epsrel=1e-12)
    assert sig.integral_inverse(r) == pytest.approx(want, rel=1e-10, abs=1e-12)


def test_sigma_domination_check():
    levy = LevyMeasureSpec(alpha=1.5)
    kappa = 1.0
    bound = J(levy, kappa) * kappa ** 2 / (2.0 * 2.0)  # value of the bound at r = 2
    ok = SigmaSpec(((0.0, 0.1 * bound), (2.0, 0.1 * bound)))
    ok.validate_domination(levy, kappa)
    bad = SigmaSpec(((0.0, 100.0 * bound), (2.0, 100.0 * bound)))
    with pytest.raises(SigmaViolatesH2):
        bad.validate_domination(levy, kappa)


def test_spec_json_round_trip():
    for spec in (LevyMeasureSpec(alpha=1.5, scale=2.0, dim=3),
                 LevyMeasureSpec(kind="truncated_stable", alpha=1.2, cutoff=3.0),
                 LevyMeasureSpec(kind="compound_poisson", rate=2.0,
                                 jump_dist=("uniform", 0.5, 1.5))):
        assert LevyMeasureSpec.from_json(spec.to_json()) == spec


def test_spec_rejects_bad_parameters():
    with pytest.raises(ValueError):
        LevyMeasureSpec(alpha=2.5)
    with pytest.raises(ValueError):
        LevyMeasureSpec(scale=0.0)
    with pytest.raises(ValueError):
        LevyMeasureSpec(kind="truncated_stable", cutoff=0.0)
    with pytest.raises(ValueError):
        LevyMeasureSpec(kind="tempered")


def test_truncated_spec_needs_alpha_below_two():
    # at alpha = 2 the small-jump variance divides by 2 - alpha = 0
    with pytest.raises(ValueError, match="alpha = 2 has no jumps to truncate"):
        LevyMeasureSpec(kind="truncated_stable", alpha=2.0, cutoff=1.0)
    LevyMeasureSpec(kind="truncated_stable", alpha=float(np.nextafter(2.0, 0.0)), cutoff=1.0)


@pytest.mark.parametrize("jump_dist", [
    (), ("uniform", 1.0), ("uniform", 2.0, 1.0), ("uniform", -1.0, 1.0),
    ("gaussian",), ("gaussian", 0.0), ("gaussian", 1.0, 2.0), ("gaussian", "1"),
    ("gaussian", True), ("cauchy", 1.0), (["gaussian"], 1.0),
])
def test_compound_spec_checks_jump_dist_at_construction(jump_dist):
    # a bad jump law used to fail only when sampled
    with pytest.raises(ValueError, match="jump_dist"):
        LevyMeasureSpec(kind="compound_poisson", rate=1.0, jump_dist=jump_dist)


_BAD_INPUTS = {
    "dim below 1": (lambda: LevyMeasureSpec(dim=0), ValueError, "dim must be >= 1"),
    "compound rate <= 0": (
        lambda: LevyMeasureSpec(kind="compound_poisson", rate=0.0,
                                jump_dist=("gaussian", 1.0)),
        ValueError, "compound spec needs a positive rate"),
    "tail moment p < 0": (lambda: tail_moment(LevyMeasureSpec(), -0.5, COMPLEMENT, 1.0),
                          ValueError, "p must be nonnegative"),
    "truncated ball p <= alpha": (
        lambda: tail_moment(LevyMeasureSpec(kind="truncated_stable", alpha=1.5, cutoff=2.0),
                            1.5, BALL, 1.0),
        DivergentMoment, "near the origin"),
    "truncated overlap in d = 2": (
        lambda: overlap_mass(LevyMeasureSpec(kind="truncated_stable", alpha=1.5,
                                             cutoff=2.0, dim=2), [1.0, 0.0]),
        QuadratureFailure, "d >= 2"),
    "J at r <= 0": (lambda: J(LevyMeasureSpec(), 0.0), ValueError, "r must be positive"),
    "increment dt <= 0": (
        lambda: sample_increment(LevyMeasureSpec(), 0.0, mvrng.stream(1)),
        ValueError, "dt must be positive"),
    "sigma radii not increasing": (lambda: SigmaSpec(((1.0, 1.0), (1.0, 2.0))),
                                   SigmaViolatesH2, "knot radii must increase"),
    "sigma integral below domain": (
        lambda: SigmaSpec(((0.5, 1.0), (2.0, 2.0))).integral_inverse(0.1),
        ValueError, "r below sigma domain"),
    "sigma integral beyond domain": (
        lambda: SigmaSpec(((0.5, 1.0), (2.0, 2.0))).integral_inverse(3.0),
        ValueError, "r beyond sigma domain"),
}


@pytest.mark.parametrize("call, error, match", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
