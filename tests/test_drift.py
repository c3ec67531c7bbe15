"""Tests for the drift families, their closures, and the Lyapunov bundles."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlevy import (
    A1Params,
    DimensionMismatch,
    DriftSpec,
    EmpiricalMeasure,
    UnsupportedFamily,
    eval_drift,
    lyapunov_params,
    verify_E12,
)
from mvlevy import drift
from mvlevy.drift import (affine_coefficients, field_closure, lyapunov_exponents,
                          measure_stats)


def _uniform_cloud(gen, n, d=1, scale=1.0):
    return EmpiricalMeasure.from_samples(gen.normal(size=(n, d)) * scale)


class TestEvalDrift:
    def test_double_well_hand_values(self):
        spec = DriftSpec("double_well", lam=2.0, kappa=0.5, a1=-1.0, a2=1.0)
        mu = EmpiricalMeasure.dirac(0.5)
        # b(x) = -2 x (x+1)(x-1) - 0.5 (x - 0.5)
        x = 2.0
        expect = -2.0 * 2.0 * 3.0 * 1.0 - 0.5 * 1.5
        assert np.isclose(eval_drift(spec, x, mu)[0], expect, rtol=1e-14)

    def test_mean_field_ou_hand_values(self):
        spec = DriftSpec("mean_field_ou", lam=3.0)
        mu = EmpiricalMeasure.dirac(-2.0)
        assert np.isclose(eval_drift(spec, 1.0, mu)[0], -3.0 - 2.0, rtol=1e-14)

    def test_asymmetric_cubic_hand_values(self):
        spec = DriftSpec(
            "asymmetric_cubic", lam=1.0, kappa=0.3, beta=1.5,
            g_kind="tanh_scaled", g_params=(0.5, 1.0),
        )
        mu = EmpiricalMeasure(np.array([[1.0], [-2.0]]), np.array([0.5, 0.5]))
        x = 0.5
        abs_m = 0.5 * 1.0 + 0.5 * 2.0
        g_m = 0.5 * 0.5 * np.tanh(1.0) + 0.5 * 0.5 * np.tanh(-2.0)
        expect = (-1.0 * x * (x - 1.0) * (x + 2.0)
                  + 0.3 * ((1.0 + x * x) ** 0.25 * abs_m + g_m))
        assert np.isclose(eval_drift(spec, x, mu)[0], expect, rtol=1e-14)

    def test_two_well_hand_values(self):
        spec = DriftSpec("symmetric_two_well", lam=2.0, kappa=1.0,
                         y1=(1.0, 0.0), y2=(-1.0, 0.0))
        mu = EmpiricalMeasure.dirac([0.0, 0.0])
        x = np.array([0.5, 0.5])
        d1 = x - np.array([1.0, 0.0])
        d2 = x - np.array([-1.0, 0.0])
        expect = (-(2.0 / 2.0) * (d1 * (d2 @ d2) + d2 * (d1 @ d1))
                  - 1.0 * x)
        assert np.allclose(eval_drift(spec, x, mu), expect, rtol=1e-14)

    def test_dimension_checks(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        with pytest.raises(DimensionMismatch):
            eval_drift(spec, [1.0, 2.0], EmpiricalMeasure.dirac(0.0))
        with pytest.raises(DimensionMismatch):
            eval_drift(spec, 1.0, EmpiricalMeasure.dirac([0.0, 0.0]))


class TestSpecValidation:
    def test_bad_family(self):
        with pytest.raises(UnsupportedFamily):
            DriftSpec("quartic", lam=1.0)

    def test_bad_lambda(self):
        with pytest.raises(UnsupportedFamily):
            DriftSpec("mean_field_ou", lam=0.0)

    def test_double_well_roots_must_straddle(self):
        with pytest.raises(UnsupportedFamily):
            DriftSpec("double_well", lam=1.0, a1=1.0, a2=2.0)

    def test_asym_cubic_beta_floor(self):
        with pytest.raises(UnsupportedFamily):
            DriftSpec("asymmetric_cubic", lam=1.0, beta=0.5)

    def test_two_well_dims(self):
        with pytest.raises(DimensionMismatch):
            DriftSpec("symmetric_two_well", lam=1.0, y1=(1.0,), y2=(1.0, 0.0))

    def test_unknown_g_kind(self):
        # checked at construction, not when .g is first read
        with pytest.raises(UnsupportedFamily, match="unknown g kind 'sine'"):
            DriftSpec("asymmetric_cubic", lam=1.0, beta=1.5, g_kind="sine",
                      g_params=(1.0, 1.0))

    @pytest.mark.parametrize("family, extra", [
        ("mean_field_ou", {}), ("double_well", {"a1": -1.0, "a2": 1.0}),
        ("symmetric_two_well", {"y1": (1.0,), "y2": (-1.0,)})])
    def test_g_kind_checked_for_every_family(self, family, extra):
        # families that never read g still reject a misspelt g_kind
        with pytest.raises(UnsupportedFamily, match="unknown g kind 'sine'"):
            DriftSpec(family, lam=1.0, g_kind="sine", g_params=(1.0, 1.0), **extra)

    @pytest.mark.parametrize("g_kind, g_params", [
        ("tanh_scaled", (0.5,)), ("cosine", (0.3, 2.0, 1.0)), ("constant", ()),
        ("constant", (0.0, 1.0))])
    def test_g_params_of_wrong_length(self, g_kind, g_params):
        with pytest.raises(UnsupportedFamily, match=f"g kind '{g_kind}' takes"):
            DriftSpec("asymmetric_cubic", lam=1.0, beta=1.5, g_kind=g_kind,
                      g_params=g_params)

    def test_json_round_trip(self):
        specs = [
            DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0),
            DriftSpec("mean_field_ou", lam=2.0),
            DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.05, beta=1.2,
                      g_kind="tanh_scaled", g_params=(0.5, 1.0)),
            DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2,
                      y1=(1.0, 1.0), y2=(-1.0, -1.0)),
        ]
        for s in specs:
            assert DriftSpec.from_json(s.to_json()) == s


class TestFieldConsistency:
    def test_closure_matches_field_all_families(self):
        # the closure on a (30, d) block against the family formulas written
        # out row by row, with the measure integrals as plain averages
        gen = np.random.default_rng(7)
        y1, y2 = np.array([1.0, 0.5]), np.array([-1.0, -0.5])

        def two_well(x, mean):
            n1, n2 = np.sum((x - y1) ** 2), np.sum((x - y2) ** 2)
            return -0.5 * ((x - y1) * n2 + (x - y2) * n1) - 0.2 * (x - mean)

        cases = [
            (DriftSpec("double_well", lam=1.5, kappa=0.7, a1=-2.0, a2=1.0),
             lambda x, pts: -1.5 * x * (x + 2.0) * (x - 1.0) - 0.7 * (x - pts.mean(0))),
            (DriftSpec("mean_field_ou", lam=2.0),
             lambda x, pts: -2.0 * x + pts.mean(0)),
            (DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.4, beta=1.3,
                       g_kind="cosine", g_params=(0.3, 2.0)),
             lambda x, pts: (-x * (x - 1.0) * (x + 2.0)
                             + 0.4 * ((1.0 + x ** 2) ** 0.15 * np.abs(pts).mean()
                                      + (0.3 * np.cos(2.0 * pts)).mean()))),
            (DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2,
                       y1=tuple(y1), y2=tuple(y2)),
             lambda x, pts: two_well(x, pts.mean(0))),
        ]
        for spec, formula in cases:
            mu = _uniform_cloud(gen, 40, d=spec.dim)
            X = gen.normal(size=(30, spec.dim)) * 3.0
            stats = measure_stats(spec, mu.points, mu.weights)
            got = field_closure(spec, stats)(X, np.empty_like(X))
            want = np.array([formula(x, mu.points) for x in X])
            assert got.shape == (30, spec.dim)
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12), spec.family

    def test_affine_coefficients(self):
        gen = np.random.default_rng(9)
        spec = DriftSpec("mean_field_ou", lam=2.5)
        mu = _uniform_cloud(gen, 25)
        stats = measure_stats(spec, mu.points, mu.weights)
        rate, shift = affine_coefficients(spec, stats)
        X = gen.normal(size=(10, 1))
        got = field_closure(spec, stats)(X, np.empty_like(X))
        assert np.allclose(shift - rate * X, got, atol=1e-14)
        cubic = DriftSpec("double_well", lam=1.0, a1=-1.0, a2=1.0)
        assert affine_coefficients(cubic, measure_stats(cubic, mu.points, mu.weights)) is None

    def test_measure_affinity_of_interaction(self):
        # the double-well interaction term is affine in mean(mu): evaluating
        # at a mixture equals the mixture of evaluations
        gen = np.random.default_rng(13)
        spec = DriftSpec("double_well", lam=1.0, kappa=2.0, a1=-1.0, a2=1.0)
        a = _uniform_cloud(gen, 20)
        b = _uniform_cloud(gen, 30)
        mix = EmpiricalMeasure.mixture([a, b], [0.35, 0.65])
        x = 0.8
        val = eval_drift(spec, x, mix)[0]
        expect = 0.35 * eval_drift(spec, x, a)[0] + 0.65 * eval_drift(spec, x, b)[0]
        assert np.isclose(val, expect, atol=1e-12)

    def test_two_well_translation_covariance(self):
        gen = np.random.default_rng(17)
        c = np.array([0.7, -0.4])
        s1 = DriftSpec("symmetric_two_well", lam=1.2, kappa=0.6,
                       y1=(1.0, 0.0), y2=(-1.0, 0.0))
        s2 = DriftSpec("symmetric_two_well", lam=1.2, kappa=0.6,
                       y1=tuple(np.array(s1.y1) + c), y2=tuple(np.array(s1.y2) + c))
        mu = _uniform_cloud(gen, 40, d=2)
        for _ in range(10):
            x = gen.normal(size=2) * 2.0
            v1 = eval_drift(s1, x, mu)
            v2 = eval_drift(s2, x + c, mu.shifted(c))
            assert np.allclose(v1, v2, atol=1e-12)


class TestA1Params:
    def test_derived_exponents(self):
        p = A1Params(1.0, 1.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.5)
        assert np.isclose(p.beta_star, 3.5)
        assert np.isclose(p.gamma1, 0.5 / 3.5)
        assert np.isclose(p.gamma2, 0.5 / 3.5)
        assert p.case == "i"

    def test_case_ii(self):
        # beta_star (1 - gamma1) = theta3 theta4 exactly, lam1 > lam2
        beta, theta1, theta2 = 1.5, 1.0, 1.0
        bs = beta + theta1 - 1.0
        g1 = max(beta + theta2 - 2.0, 0.0) / bs
        theta3 = 1.0
        theta4 = bs * (1.0 - g1) / theta3
        p = A1Params(1.0, 2.0, 0.5, theta1, theta2, theta3, theta4, beta)
        assert p.case == "ii"

    def test_case_none(self):
        beta, theta1, theta2 = 1.5, 1.0, 1.0
        bs = beta + theta1 - 1.0
        g1 = max(beta + theta2 - 2.0, 0.0) / bs
        theta4 = bs * (1.0 - g1) / 1.0
        # equality but lam1 <= lam2: neither case applies
        p = A1Params(1.0, 0.5, 2.0, theta1, theta2, 1.0, theta4, beta)
        assert p.case is None

    def test_validation(self):
        with pytest.raises(ValueError):
            A1Params(-1.0, 1.0, 1.0, 3.0, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            A1Params(1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            A1Params(1.0, 1.0, 1.0, 3.0, 4.5, 1.0, 1.0, 1.5)
        with pytest.raises(ValueError):
            A1Params(1.0, 1.0, 1.0, 3.0, 1.0, 5.0, 1.0, 1.5)

    def test_gamma1_below_one_check(self):
        # theta2 < 1 + theta1 keeps gamma1 below 1 in exact arithmetic; at
        # beta = 1e16 rounding makes beta + theta2 - 2 equal beta_star
        with pytest.raises(ValueError, match=r"need gamma1 in \[0, 1\)"):
            A1Params(0.0, 1.0, 1.0, 1.0, 1.5, 1.0, 1.0, 1e16)

    def test_h_function(self):
        assert A1Params.h(0.0) == 0.0
        assert np.isclose(A1Params.h(1.0), 0.5)
        assert np.isclose(A1Params.h(3.0), 0.75)


class TestLyapunovParams:
    def test_ou_values(self):
        spec = DriftSpec("mean_field_ou", lam=4.0)
        p = lyapunov_params(spec, beta=1.5)
        assert np.isclose(p.lam1, 2.0)
        assert p.lam2 == 1.0
        assert p.theta1 == 1.0 and p.theta3 == 1.0 and p.theta4 == 1.0

    def test_beta_default_from_alpha(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        assert np.isclose(lyapunov_params(spec, alpha=1.8).beta, 1.4)
        assert np.isclose(lyapunov_params(spec).beta, 1.5)

    def test_cubic_families_case_i(self):
        dw = DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0)
        p = lyapunov_params(dw, beta=1.5)
        assert p.theta1 == 3.0 and p.case == "i"
        ac = DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.05, beta=1.2,
                       g_kind="tanh_scaled", g_params=(0.5, 1.0))
        q = lyapunov_params(ac, beta=1.2)
        assert q.theta2 == 1.2 and q.case == "i"

    def test_inequality_holds_on_grid(self):
        gen = np.random.default_rng(23)
        specs = [
            DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0),
            DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.05, beta=1.2,
                      g_kind="tanh_scaled", g_params=(0.5, 1.0)),
            DriftSpec("mean_field_ou", lam=2.0),
            DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2,
                      y1=(1.0,), y2=(-1.0,)),
        ]
        mus = [_uniform_cloud(gen, 50), _uniform_cloud(gen, 50, scale=3.0),
               EmpiricalMeasure.dirac(0.0)]
        grid = np.linspace(-20.0, 20.0, 81)
        for spec in specs:
            p = lyapunov_params(spec, beta=1.5)
            rep = verify_E12(spec, p, grid, mus)
            assert rep["ok"], (spec.family, rep["violations"][:3])
            assert rep["worst_slack"] >= 0.0

    @pytest.mark.parametrize("spec, sup", [
        # double well at a = -1, 1: sup of -(lam/2) x^4 + (lam - kappa) x^2
        (DriftSpec("double_well", lam=2.0, kappa=0.5, a1=-1.0, a2=1.0), 1.5 ** 2 / 4.0),
        # the two-well residual keeps its -kappa |x|^2 term: same form
        (DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2, y1=(1.0,), y2=(-1.0,)),
         0.8 ** 2 / 2.0),
        (DriftSpec("mean_field_ou", lam=2.0), 0.0),
    ], ids=["double_well", "two_well", "mean_field_ou"])
    def test_C_b_closed_form(self, spec, sup):
        C_b = lyapunov_params(spec, beta=1.5).C_b
        assert C_b == pytest.approx(max(1.05 * sup, 1e-9), rel=1e-9)

    def test_two_well_d3_off_ray_maximum(self):
        # the residual peaks near (3.06, 0.05, 0.44), between the fixed
        # search rays; ray maxima alone gave C_b = 16.9 and slack -14
        spec = DriftSpec("symmetric_two_well", lam=1.0, kappa=0.0,
                         y1=(2.0, 0.0, 0.0), y2=(0.0, 0.0, 0.0))
        grid = np.random.default_rng(3).uniform(-5.0, 5.0, (20000, 3))
        rep = verify_E12(spec, lyapunov_params(spec, beta=1.5), grid,
                         [EmpiricalMeasure.dirac([0.0, 0.0, 0.0])])
        assert rep["ok"], rep["worst_slack"]

    def test_inflated_rate_fails(self):
        spec = DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0)
        p = lyapunov_params(spec, beta=1.5)
        bad = replace(p, lam1=p.lam1 * 50.0)
        grid = np.linspace(-20.0, 20.0, 81)
        rep = verify_E12(spec, bad, grid, [EmpiricalMeasure.dirac(0.0)])
        assert not rep["ok"]
        assert rep["worst_slack"] < 0.0


SPECS = {
    "double_well": DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0),
    "asymmetric_cubic": DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.05, beta=1.2,
                                  g_kind="tanh_scaled", g_params=(0.5, 1.0)),
    "mean_field_ou": DriftSpec("mean_field_ou", lam=2.0),
    "two_well_d1": DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2,
                             y1=(1.0,), y2=(-1.0,)),
    "two_well_d2": DriftSpec("symmetric_two_well", lam=1.0, kappa=0.2,
                             y1=(1.0, 1.0), y2=(-1.0, -0.5)),
    "two_well_d3": DriftSpec("symmetric_two_well", lam=1.0, kappa=0.0,
                             y1=(2.0, 0.0, 0.0), y2=(0.0, 0.0, 0.0)),
}


class TestLyapunovExponents:
    @pytest.mark.parametrize("alpha", [None, 1.2, 1.8, 2.0])
    @pytest.mark.parametrize("name", SPECS)
    def test_is_the_bundle_without_C_b(self, name, alpha):
        spec = SPECS[name]
        full = lyapunov_params(spec, alpha=alpha)
        assert lyapunov_exponents(spec, alpha=alpha) == replace(full, C_b=0.0)
        assert lyapunov_exponents(spec, alpha=alpha).beta_star == full.beta_star


def _e12_per_point(spec, params, grid, mus):
    """verify_E12 written point by point, the drift taken by eval_drift at
    each point: (ok, worst slack, violations)."""
    worst, violations = math.inf, []
    for mi, mu in enumerate(mus):
        m3 = float(mu.weights @ np.linalg.norm(mu.points, axis=1) ** params.theta3)
        for x in np.asarray(grid, dtype=float).reshape(len(grid), spec.dim):
            nx2 = float(x @ x)
            slack = (params.C_b - params.lam1 * nx2 ** ((1.0 + params.theta1) / 2.0)
                     + params.lam2 * (1.0 + nx2) ** (params.theta2 / 2.0) * m3 ** params.theta4
                     - float(x @ eval_drift(spec, x, mu)))
            worst = min(worst, slack)
            if slack < 0:
                violations.append((tuple(x), mi, slack))
    return not violations, worst, violations


@pytest.mark.parametrize("lam1_scale", [1.0, 50.0])
@pytest.mark.parametrize("name", ["double_well", "two_well_d2"])
def test_verify_E12_matches_per_point_transcription(name, lam1_scale):
    # the same verdict, worst slack and violations, in order; a slack may
    # differ from the scalar one in its last bits, where numpy's array
    # power rounds differently from the C library's pow
    spec = SPECS[name]
    p = lyapunov_params(spec, beta=1.5)
    params = replace(p, lam1=p.lam1 * lam1_scale)
    gen = np.random.default_rng(11)
    d = spec.dim
    grid = gen.uniform(-8.0, 8.0, (400, d))
    mus = [EmpiricalMeasure.dirac(np.zeros(d)), _uniform_cloud(gen, 40, d),
           EmpiricalMeasure.dirac(np.full(d, 3.0))]
    rep = verify_E12(spec, params, grid, mus)
    ok, worst, violations = _e12_per_point(spec, params, grid, mus)
    assert rep["ok"] is ok is (lam1_scale == 1.0)
    assert rep["worst_slack"] == pytest.approx(worst, rel=1e-13)
    assert len(rep["violations"]) == len(violations)
    assert ok or len(violations) > 1000
    for (x, mi, slack), (x_want, mi_want, slack_want) in zip(rep["violations"], violations):
        assert (x, mi) == (x_want, mi_want)
        assert type(slack) is float and slack == pytest.approx(slack_want, rel=1e-13, abs=1e-9)


def _bfgs_sup(fn, dim):
    """Reference supremum: the best of BFGS runs started from every point
    of a grid on [-6, 6]^dim."""
    from scipy import optimize

    axis = np.linspace(-6.0, 6.0, {1: 25, 2: 13, 3: 7}[dim])
    starts = np.stack(np.meshgrid(*[axis] * dim), axis=-1).reshape(-1, dim)
    return max(-optimize.minimize(lambda v: -fn(v[None, :])[0], x, method="BFGS").fun
               for x in starts)


@pytest.mark.parametrize("name", SPECS)
def test_C_b_matches_bfgs_reference(monkeypatch, name):
    # the residual lyapunov_params hands to _sup, polished by BFGS instead
    seen = []
    sup = drift._sup
    monkeypatch.setattr(drift, "_sup", lambda fn, dim: seen.append((fn, dim)) or sup(fn, dim))
    C_b = lyapunov_params(SPECS[name], beta=1.5).C_b
    (fn, dim), = seen
    assert C_b == pytest.approx(max(1.05 * _bfgs_sup(fn, dim), 1e-9), rel=1e-9)


_coef = st.floats(0.2, 3.0)
_well = st.floats(0.1, 3.0)


@st.composite
def _cubic_specs(draw):
    """Random double-well, asymmetric-cubic and two-well specs, the last
    in d = 1, 2 and 3."""
    lam, kappa = draw(_coef), draw(st.floats(0.0, 5.0))
    family = draw(st.sampled_from(["double_well", "asymmetric_cubic",
                                   "symmetric_two_well"]))
    if family == "double_well":
        return DriftSpec(family, lam=lam, kappa=kappa, a1=-draw(_well), a2=draw(_well))
    if family == "asymmetric_cubic":
        g_kind = draw(st.sampled_from(["tanh_scaled", "cosine", "constant"]))
        c = draw(st.floats(-2.0, 2.0))
        g_params = (c,) if g_kind == "constant" else (c, draw(_coef))
        return DriftSpec(family, lam=lam, kappa=kappa, beta=draw(st.floats(1.0, 2.0)),
                         g_kind=g_kind, g_params=g_params)
    d = draw(st.integers(1, 3))
    well = st.tuples(*[st.floats(-2.0, 2.0)] * d)
    return DriftSpec(family, lam=lam, kappa=kappa, y1=draw(well), y2=draw(well))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(_cubic_specs())
def test_dissipativity_holds_for_random_specs(spec):
    gen = np.random.default_rng(8)
    d = spec.dim
    grid = gen.uniform(-8.0, 8.0, (3000, d))
    mus = [EmpiricalMeasure.dirac(np.zeros(d)), _uniform_cloud(gen, 40, d),
           EmpiricalMeasure.dirac(np.full(d, 3.0))]
    rep = verify_E12(spec, lyapunov_params(spec, beta=1.5), grid, mus)
    assert rep["ok"], rep["violations"][:3]
