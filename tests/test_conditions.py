"""Tests for the explicit condition formulas.

Every closed-form output is checked against an independent transcription
written directly in this file (including the jump-measure tail integrals),
so an error in the library formulas cannot hide in a shared helper.
"""

import math

import numpy as np
import pytest
from scipy.special import gamma as sp_gamma

from mvlevy import (
    A1Params,
    AppendixParams,
    CaseViolation,
    LevyMeasureSpec,
    NotInTheta,
    SigmaSpec,
    SigmaViolatesH2,
    ThetaTuple,
    ZeroOverlap,
    appendix_constants,
    ct_fn,
    ex14_check,
    ex14_feasibility,
    ex15_check,
    ex15_feasibility,
    gamma_fn,
    m_star,
    moment_bound,
    phi_fn,
    theta_member,
)
from mvlevy import conditions
from mvlevy.conditions import _jump_noise, _select_l, chosen_tuple
from mvlevy.errors import QuadratureFailure
from mvlevy.levy import tail_moment


# --- independent closed forms for the 1-d stable jump measure -------------

def _density_const(alpha, scale):
    return (scale ** alpha * alpha * 2.0 ** (alpha - 1.0)
            * sp_gamma((1.0 + alpha) / 2.0)
            / (math.sqrt(math.pi) * sp_gamma(1.0 - alpha / 2.0)))


def _tail(alpha, scale, p, l):
    """nu(|.|^p 1_{|.|>l}) for the 1-d isotropic stable measure."""
    return 2.0 * _density_const(alpha, scale) * l ** (p - alpha) / (alpha - p)


def _ball(alpha, scale, p, l):
    """nu(|.|^p 1_{|.|<=l})."""
    return 2.0 * _density_const(alpha, scale) * l ** (p - alpha) / (p - alpha)


def _overlap_inf(alpha, scale, r):
    """J(r): smallest overlap mass over |x| <= r (attained at |x| = r)."""
    return 2.0 * _density_const(alpha, scale) * (r / 2.0) ** (-alpha) / alpha


def _h(r):
    return r / (1.0 + r)


def _rand_params(rng, case):
    """Random admissible Lyapunov bundle in the requested threshold case."""
    while True:
        beta = rng.uniform(1.1, 1.7)
        t1 = rng.uniform(1.0, 3.0)
        bs = beta + t1 - 1.0
        t2cap = min(1.0 + t1, 2.0 - beta + 0.7 * bs)
        t2 = rng.uniform(0.0, t2cap - 1e-6)
        g1 = max(beta + t2 - 2.0, 0.0) / bs
        t3 = rng.uniform(0.1, bs)
        if case == "i":
            t4 = rng.uniform(0.2, 0.8) * bs * (1.0 - g1) / t3
            l1 = rng.uniform(0.5, 3.0)
            l2 = rng.uniform(0.0, 2.0)
        else:
            t4 = bs * (1.0 - g1) / t3
            l1 = rng.uniform(1.0, 3.0)
            l2 = rng.uniform(0.0, 0.9) * l1
        try:
            p = A1Params(rng.uniform(0.1, 2.0), l1, l2, t1, t2, t3, t4, beta)
        except ValueError:
            continue
        if p.case == case:
            return p


class TestGammaFn:
    def test_values(self):
        assert gamma_fn(0.0, 5.0, 0.25) == 0.75
        assert np.isclose(gamma_fn(0.5, 2.0, 0.25), 0.75 * 2.0 ** (1.0 / 3.0))
        assert gamma_fn(0.3, 1.0, 0.0) == 1.0

    def test_errors(self):
        with pytest.raises(ValueError):
            gamma_fn(1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            gamma_fn(0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            gamma_fn(0.5, 0.0, 0.5)


class TestThetaTuple:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThetaTuple(0.0, 0.1, 1.0, 2.0)
        with pytest.raises(ValueError):
            ThetaTuple(0.1, 0.1, 1.0, 0.5)
        t = ThetaTuple(0.1, 0.2, 1.0, 4.0)
        assert t.l == 4.0


class TestPhiAndMomentBound:
    def _dual_phi(self, p, alpha, scale, eps2, r, l):
        b = p.beta
        return (b * p.C_b
                + b * p.lam1 * _h(r ** 2) ** ((1.0 + p.theta1) / 2.0)
                * (1.0 + r ** 2) ** (p.beta_star / 2.0)
                + (b / 2.0) * _ball(alpha, scale, 2.0, l)
                + _tail(alpha, scale, b, l))

    def _dual_denom(self, p, alpha, scale, t):
        ind = 1.0 if 0.0 < p.gamma1 < 1.0 else 0.0
        return (p.beta * (p.lam1 * _h(t.r0 ** 2) ** ((1.0 + p.theta1) / 2.0)
                          - t.eps1 * p.lam2 * ind - t.eps2)
                - 2.0 ** (p.beta / 2.0) * _tail(alpha, scale, p.beta / 2.0, t.l))

    def test_phi_against_transcription(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            case = "i" if rng.uniform() < 0.5 else "ii"
            p = _rand_params(rng, case)
            alpha, scale = 1.8, float(rng.uniform(0.2, 1.5))
            levy = LevyMeasureSpec(alpha=alpha, scale=scale)
            eps2 = float(rng.uniform(0.01, 0.2))
            r = float(rng.uniform(0.5, 3.0))
            l = float(rng.choice([2.0, 8.0, 64.0]))
            want = self._dual_phi(p, alpha, scale, eps2, r, l)
            assert np.isclose(phi_fn(p, levy, eps2, r, l), want, rtol=1e-10)

    def test_moment_bound_against_transcription(self):
        rng = np.random.default_rng(43)
        checked = 0
        while checked < 50:
            case = "i" if rng.uniform() < 0.5 else "ii"
            p = _rand_params(rng, case)
            alpha, scale = 1.8, 0.5
            levy = LevyMeasureSpec(alpha=alpha, scale=scale)
            t = ThetaTuple(float(rng.uniform(0.01, 0.1)),
                           float(rng.uniform(0.001, 0.05)), 2.0, 64.0)
            denom = self._dual_denom(p, alpha, scale, t)
            if denom <= 0:
                continue
            M = float(rng.uniform(0.1, 5.0))
            g1 = p.gamma1
            if g1 > 0:
                gam = (1.0 - g1) * (g1 / t.eps1) ** (g1 / (1.0 - g1))
                mu_term = p.beta * p.lam2 * gam * M ** (p.theta4 / (1.0 - g1))
            else:
                mu_term = p.beta * p.lam2 * M ** p.theta4
            want = (self._dual_phi(p, alpha, scale, t.eps2, t.r0, t.l)
                    + mu_term) / denom
            assert np.isclose(moment_bound(p, levy, t, M), want, rtol=1e-10)
            checked += 1

    def test_not_in_theta(self):
        p = A1Params(1.0, 1.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.5)
        levy = LevyMeasureSpec(alpha=1.8, scale=0.5)
        bad = ThetaTuple(0.01, 100.0, 2.0, 64.0)
        assert not theta_member(p, levy, bad)
        with pytest.raises(NotInTheta):
            moment_bound(p, levy, bad, 1.0)

    def test_negative_moment_rejected(self):
        p = A1Params(1.0, 1.0, 0.5, 3.0, 1.0, 1.0, 1.0, 1.5)
        levy = LevyMeasureSpec(alpha=1.8, scale=0.5)
        t = ThetaTuple(0.01, 0.001, 2.0, 64.0)
        with pytest.raises(ValueError):
            moment_bound(p, levy, t, -1.0)


class TestMStar:
    def test_self_map_property(self):
        # the threshold is a moment self-bound: plugging M*^{theta3/beta_star}
        # back into the bound must return at most M*
        rng = np.random.default_rng(47)
        levy = LevyMeasureSpec(alpha=1.8, scale=1.0)
        for case in ("i", "ii"):
            for _ in range(10):
                p = _rand_params(rng, case)
                rep = m_star(p, levy)
                assert rep["case"] == case
                t = chosen_tuple(rep)
                M = rep["M_star"]
                assert M > 0
                mb = moment_bound(p, levy, t, M ** (p.theta3 / p.beta_star))
                assert mb <= M

    def test_case_ii_radius_identity(self):
        rng = np.random.default_rng(53)
        levy = LevyMeasureSpec(alpha=1.8, scale=1.0)
        p = _rand_params(rng, "ii")
        rep = m_star(p, levy)
        r0 = rep["r0"]
        lhs = _h(r0 ** 2) ** ((1.0 + p.theta1) / 2.0)
        assert abs(lhs - (p.lam1 + p.lam2) / (2.0 * p.lam1)) < 1e-12

    def test_tail_cap_is_tight_on_doubling_grid(self):
        p = A1Params(1.0, 1.0, 0.5, 3.0, 1.0, 1.0, 0.5, 1.5)
        assert p.case == "i"
        levy = LevyMeasureSpec(alpha=1.8, scale=1.0)
        rep = m_star(p, levy)
        l = rep["chosen_l"]
        delta = 2.0 ** (-(7.0 + p.theta1) / 2.0) * p.beta * p.lam1
        cap = delta / 2.0
        b2 = p.beta / 2.0
        assert 2.0 ** b2 * _tail(1.8, 1.0, b2, l) <= cap
        if l > 2.0:
            assert 2.0 ** b2 * _tail(1.8, 1.0, b2, l / 2.0) > cap

    def test_zero_lam2_is_case_i(self):
        p = A1Params(1.0, 1.0, 0.0, 3.0, 1.0, 1.0, 1.0, 1.5)
        levy = LevyMeasureSpec(alpha=1.8, scale=1.0)
        rep = m_star(p, levy)
        assert rep["case"] == "i" and rep["M_star"] > 0

    def test_no_case_raises(self):
        bs = 1.5 + 1.0 - 1.0
        p = A1Params(1.0, 0.5, 2.0, 1.0, 1.0, 1.0, bs, 1.5)
        assert p.case is None
        with pytest.raises(CaseViolation):
            m_star(p, LevyMeasureSpec(alpha=1.8))


def _search_grid(r0_max):
    """The witness search grid: 25 eps logarithmic in [1e-4, 1] and 40 r0
    linear from 0.999 r0_max down to r0_max / 40."""
    return np.logspace(-4, 0, 25), np.linspace(0.999 * r0_max, r0_max / 40, 40)


class TestDoubleWellCriteria:
    LEVY = LevyMeasureSpec(alpha=1.8, scale=0.025)

    def test_interaction_threshold(self):
        # with wells at -1, 1 and beta = 1.5 the bound is kappa/lam >= 4.4286
        res = ex14_check(1.0, 4.5, 1.5, 1e-4, 0.24, -1.0, 1.0, self.LEVY)
        assert res["we_ok"]
        res = ex14_check(1.0, 4.4, 1.5, 1e-4, 0.24, -1.0, 1.0, self.LEVY)
        assert not res["we_ok"]

    def test_feasibility_witness(self):
        w = ex14_feasibility(1.0, 4.5, 1.5, -1.0, 1.0, self.LEVY)
        assert w is not None
        eps, r0 = w
        res = ex14_check(1.0, 4.5, 1.5, eps, r0, -1.0, 1.0, self.LEVY)
        assert res["we_ok"] and res["we2_ok"] and res["convex_ok"]
        g = res["g"]
        assert g(-1.0, 1.0, r0, r0) > 0.0
        assert g(1.0, -1.0, r0, r0) > 0.0

    def test_bracketing_convexity(self):
        eps, r0 = 1e-4, 0.24975
        res = ex14_check(1.0, 4.5, 1.5, eps, r0, -1.0, 1.0, self.LEVY)
        g = res["g"]
        r1s = np.linspace(0.02, r0, 60)
        for a, b in res["pairs"]:
            vals = np.array([g(a, b, r, r0) for r in r1s])
            assert np.diff(vals, 2).min() >= -1e-8

    def test_infeasible_at_large_scale(self):
        loud = LevyMeasureSpec(alpha=1.8, scale=0.2)
        assert ex14_feasibility(1.0, 4.5, 1.5, -1.0, 1.0, loud) is None

    @pytest.mark.parametrize("scale, witness", [
        (0.1, None), (0.05, None), (0.025, (1e-4, 0.24975))])
    def test_witness_by_noise_scale(self, scale, witness):
        # the noise scales the conditions step of criterion 5 halves
        # through after 0.2 (test_infeasible_at_large_scale)
        levy = LevyMeasureSpec(alpha=1.8, scale=scale)
        assert ex14_feasibility(1.0, 4.5, 1.5, -1.0, 1.0, levy) == witness

    def test_search_takes_the_noise_moments_once(self, monkeypatch):
        # the moments depend on (levy, beta) alone, and a search checks its
        # whole grid in one call; it used to make a call, and take three
        # moments, at each of its 1000 grid points
        calls, checks = [], []

        def counted(*args):
            calls.append(args)
            return tail_moment(*args)

        monkeypatch.setattr(conditions, "tail_moment", counted)
        monkeypatch.setattr(conditions, "ex14_check",
                            lambda *args: checks.append(args) or ex14_check(*args))
        loud = LevyMeasureSpec(alpha=1.8, scale=0.2)
        assert ex14_feasibility(1.0, 4.5, 1.5, -1.0, 1.0, loud) is None
        assert 0 < len(calls) <= 3
        assert len(checks) == 1

    @pytest.mark.parametrize("scale, feasible", [(0.025, 136), (0.05, 0)])
    def test_grid_call_matches_scalar_calls(self, scale, feasible):
        levy = LevyMeasureSpec(alpha=1.8, scale=scale)
        eps, r0 = _search_grid(0.25)
        grid = ex14_check(1.0, 4.5, 1.5, eps[:, None], r0, -1.0, 1.0, levy)["we2_ok"]
        scalar = [[ex14_check(1.0, 4.5, 1.5, e, r, -1.0, 1.0, levy)["we2_ok"]
                   for r in r0.tolist()] for e in eps.tolist()]
        assert {type(v) for row in scalar for v in row} == {bool}
        assert grid.shape == (25, 40) and grid.tolist() == scalar
        assert grid.sum() == feasible

    def test_witness_below_the_first_r0_is_pinned(self):
        # the witness is on the first eps row, three r0 steps below the top
        levy = LevyMeasureSpec(alpha=1.5, scale=0.01)
        assert ex14_feasibility(1.0, 3.0, 1.1, -1.0, 1.0, levy) == (0.0001, 0.23101923076923075)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ex14_check(1.0, 4.5, 1.5, 1e-4, 0.24, 1.0, 2.0, self.LEVY)
        with pytest.raises(ValueError):
            ex14_check(1.0, 4.5, 1.9, 1e-4, 0.24, -1.0, 1.0, self.LEVY)
        with pytest.raises(ValueError):
            ex14_check(1.0, 4.5, 1.5, 1e-4, 0.3, -1.0, 1.0, self.LEVY)
        with pytest.raises(ValueError, match="need r0"):
            ex14_check(1.0, 4.5, 1.5, 1e-4, np.array([0.24, 0.3]), -1.0, 1.0, self.LEVY)


class TestTwoWellCriteria:
    LEVY = LevyMeasureSpec(alpha=1.8, scale=0.1)

    def test_feasibility_witness(self):
        w = ex15_feasibility(1.0, 3.0, 1.5, (1.0,), (-1.0,), self.LEVY)
        assert w is not None
        eps, r0 = w
        res = ex15_check(1.0, 3.0, 1.5, eps, r0, (1.0,), (-1.0,), self.LEVY)
        assert res["eq1_ok"] and res["wq2_ok"]
        assert res["delta"] == 2.0
        assert res["g"](r0, r0) > 0.0

    def test_witness_is_pinned(self):
        assert ex15_feasibility(1.0, 3.0, 1.5, (1.0,), (-1.0,), self.LEVY) == (1e-4, 0.4995)

    def test_bracketing_convexity(self):
        res = ex15_check(1.0, 3.0, 1.5, 1e-4, 0.4995, (1.0,), (-1.0,), self.LEVY)
        g = res["g"]
        r1s = np.linspace(0.05, 0.4995, 60)
        vals = np.array([g(r, 0.4995) for r in r1s])
        assert np.diff(vals, 2).min() >= -1e-8

    def test_infeasible_at_large_scale(self):
        loud = LevyMeasureSpec(alpha=1.8, scale=0.2)
        assert ex15_feasibility(1.0, 3.0, 1.5, (1.0,), (-1.0,), loud) is None

    @pytest.mark.parametrize("scale, feasible", [(0.1, 302), (0.2, 0)])
    def test_grid_call_matches_scalar_calls(self, scale, feasible):
        levy = LevyMeasureSpec(alpha=1.8, scale=scale)
        eps, r0 = _search_grid(0.5)
        res = ex15_check(1.0, 3.0, 1.5, eps[:, None], r0, (1.0,), (-1.0,), levy)
        scalar = [[ex15_check(1.0, 3.0, 1.5, e, r, (1.0,), (-1.0,), levy)
                   for r in r0.tolist()] for e in eps.tolist()]
        for key, shape in (("eq1_ok", (25, 1)), ("wq2_ok", (25, 40))):
            want = [[s[key] for s in row] for row in scalar]
            assert {type(v) for row in want for v in row} == {bool}
            assert res[key].shape == shape
            assert np.broadcast_to(res[key], (25, 40)).tolist() == want
        assert res["wq2_ok"].sum() == feasible

    def test_witness_past_the_first_eps_is_pinned(self):
        # the witness is on the fourth eps row, one r0 step below the top
        levy = LevyMeasureSpec(alpha=1.5, scale=0.05)
        assert (ex15_feasibility(1.0, 4.5, 1.1, (1.0,), (-1.0,), levy)
                == (0.00031622776601683794, 0.4870128205128205))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            ex15_check(1.0, 3.0, 1.5, 1e-4, 0.4, (1.0,), (1.0,), self.LEVY)
        with pytest.raises(ValueError):
            ex15_check(1.0, 3.0, 1.5, 1e-4, 0.6, (1.0,), (-1.0,), self.LEVY)


class TestCtFn:
    def test_zero_time(self):
        assert ct_fn(1.0, 0.5, 0.0) == 0.0

    def test_transcription(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            K1 = float(rng.uniform(0.1, 3.0))
            m = float(rng.uniform(0.0, 2.0))
            t = float(rng.uniform(0.0, 2.0))
            e1 = math.exp(K1 * t)
            want = (math.sqrt(2.0) * m * math.sqrt(t)
                    * math.exp((K1 - m) * t)
                    * (1.0 + m * t * e1) * math.exp(m * t * e1))
            assert np.isclose(ct_fn(K1, m, t), want, rtol=1e-12)

    def test_monotone_in_time(self):
        ts = np.linspace(0.0, 3.0, 40)
        vals = [ct_fn(1.0, 0.5, t) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ct_fn(-1.0, 0.5, 1.0)


class TestAppendixConstants:
    def test_transcription(self):
        alpha, scale = 1.5, 1.0
        levy = LevyMeasureSpec(alpha=alpha, scale=scale)
        ap = AppendixParams(K1=1.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0,
                            C_V=2.0, lambda_V=0.5)
        out = appendix_constants(ap, levy)
        Jk = _overlap_inf(alpha, scale, ap.kappa)
        c = 1.0 + 16.0 * ap.K1 * ap.l0 / (Jk * ap.kappa ** 2)
        ecl = math.exp(-c * ap.l0)
        a = 8.0 * ap.K1 * c * (1.0 + ap.kappa) / Jk + ap.kappa ** 2 * c ** 2 * ecl
        eps = ap.kappa ** 2 * c ** 2 * ecl * Jk / (16.0 * ap.C_V)
        lam0 = 0.25 * min(Jk * ap.kappa ** 2 * c ** 2 * ecl / (2.0 * (2.0 + a)),
                          3.0 * ap.lambda_V)
        assert np.isclose(out.c, c, rtol=1e-10)
        assert np.isclose(out.a, a, rtol=1e-10)
        assert np.isclose(out.eps, eps, rtol=1e-10)
        assert np.isclose(out.lambda0, lam0, rtol=1e-10)
        assert out.lambda0 > 0
        assert out.C_contr is None

    def test_sigma_branch_transcription(self):
        alpha = 1.5
        levy = LevyMeasureSpec(alpha=alpha, scale=1.0)
        Jk = _overlap_inf(alpha, 1.0, 1.0)
        sval = 0.5 * Jk / 4.0  # flat profile well under the domination bound
        sig = SigmaSpec(((0.0, sval), (2.0, sval)))
        ap = AppendixParams(K1=1.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0,
                            C_V=2.0, lambda_V=0.5, sigma=sig)
        out = appendix_constants(ap, levy)
        g1 = 2.0 * ap.l0 / sval
        c2 = min(2.0 * ap.K2, 1.0 / g1)
        g = g1 * (1.0 + 2.0 * ap.K1 / c2)
        c1 = math.exp(-c2 * g)
        assert np.isclose(out.c2, c2, rtol=1e-10)
        assert np.isclose(out.c1, c1, rtol=1e-10)
        assert np.isclose(out.C_contr, (1.0 + 1.0 / c1) / 2.0, rtol=1e-10)
        expect_rate = (c2 * math.exp(-2.0 * g) if 2.0 * g > 700.0
                       else c2 / (1.0 + math.exp(2.0 * g)))
        assert np.isclose(out.lambda_contr, expect_rate, rtol=1e-10, atol=0.0)

    def test_sigma_branch_ordinary_rate(self):
        # K1 = 0.1 keeps 2 g near 109, where e^{2g} is a finite float, so
        # lambda_contr is compared with c2 / (1 + e^{2g}) as written
        levy = LevyMeasureSpec(alpha=1.5, scale=1.0)
        sval = 0.5 * _overlap_inf(1.5, 1.0, 1.0) / 4.0
        ap = AppendixParams(K1=0.1, K2=0.5, K3=1.0, kappa=1.0, l0=1.0, C_V=2.0,
                            lambda_V=0.5, sigma=SigmaSpec(((0.0, sval), (2.0, sval))))
        out = appendix_constants(ap, levy)
        g1 = 2.0 / sval
        c2 = min(1.0, 1.0 / g1)
        two_g = 2.0 * g1 * (1.0 + 0.2 / c2)
        assert 100.0 < two_g < 120.0
        assert out.lambda_contr == pytest.approx(c2 / (1.0 + math.exp(two_g)), rel=1e-10)
        assert out.lambda_contr > 0.0

    def test_sigma_branch_rate_underflows_to_zero(self):
        # flat sigma = 2: g1(2 l0) = 1, c2 = 1 and 2 g = 2 (1 + 2 K1) = 802,
        # so e^{-2g} underflows to 0.0, and so does the rate
        levy = LevyMeasureSpec(alpha=1.5, scale=20.0)
        ap = AppendixParams(K1=200.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0, C_V=2.0,
                            lambda_V=0.5, sigma=SigmaSpec(((0.0, 2.0), (2.0, 2.0))))
        out = appendix_constants(ap, levy)
        assert out.c2 == 1.0 and out.lambda_contr == 0.0

    def test_domination_violation_raises(self):
        levy = LevyMeasureSpec(alpha=1.5)
        Jk = _overlap_inf(1.5, 1.0, 1.0)
        big = SigmaSpec(((0.0, 100.0 * Jk), (2.0, 100.0 * Jk)))
        ap = AppendixParams(K1=1.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0,
                            C_V=2.0, lambda_V=0.5, sigma=big)
        with pytest.raises(SigmaViolatesH2):
            appendix_constants(ap, levy)

    def test_no_jumps_raises(self):
        ap = AppendixParams(K1=1.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0,
                            C_V=2.0, lambda_V=0.5)
        with pytest.raises(ZeroOverlap):
            appendix_constants(ap, LevyMeasureSpec(alpha=2.0))

    def test_uniform_jumps_that_only_touch_raise(self):
        # uniform sizes on [0.5, 1.5]: at |x| = 1 the arms only touch, so
        # J(kappa) = 0 for kappa >= 1
        levy = LevyMeasureSpec(kind="compound_poisson", rate=3.0,
                               jump_dist=("uniform", 0.5, 1.5))
        ap = AppendixParams(K1=1.0, K2=0.5, K3=1.0, kappa=1.0, l0=1.0,
                            C_V=2.0, lambda_V=0.5)
        with pytest.raises(ZeroOverlap):
            appendix_constants(ap, levy)

    def test_param_validation(self):
        with pytest.raises(ValueError):
            AppendixParams(K1=0.0, K2=1.0, K3=1.0, kappa=1.0, l0=1.0,
                           C_V=1.0, lambda_V=1.0)
        with pytest.raises(ValueError):
            AppendixParams(K1=1.0, K2=1.0, K3=1.0, kappa=1.5, l0=1.0,
                           C_V=1.0, lambda_V=1.0)
        with pytest.raises(ValueError):
            AppendixParams(K1=1.0, K2=1.0, K3=1.0, kappa=1.0, l0=0.5,
                           C_V=1.0, lambda_V=1.0)


_STABLE = LevyMeasureSpec(alpha=1.8, scale=0.1)
_BAD_INPUTS = {
    "jump noise beta <= 1": (lambda: _jump_noise(_STABLE, 1.0, 0.1),
                             ValueError, "need beta > 1"),
    "jump noise eps <= 0": (lambda: _jump_noise(_STABLE, 1.5, 0.0),
                            ValueError, "eps must be positive"),
    "jump noise eps array with an element <= 0": (
        lambda: _jump_noise(_STABLE, 1.5, np.array([0.1, 0.0])),
        ValueError, "eps must be positive"),
    "jump noise eps nan": (lambda: _jump_noise(_STABLE, 1.5, math.nan),
                           ValueError, "eps must be positive"),
    "no l meets the tail cap": (lambda: _select_l(_STABLE, 1.5, 0.0),
                                QuadratureFailure, "no l on the doubling grid"),
    "C_V <= 0": (lambda: AppendixParams(K1=1.0, K2=1.0, K3=1.0, kappa=1.0, l0=1.0,
                                        C_V=0.0, lambda_V=1.0),
                 ValueError, "C_V, lambda_V, beta0 must be positive"),
}


@pytest.mark.parametrize("call, error, match", _BAD_INPUTS.values(), ids=_BAD_INPUTS.keys())
def test_bad_input_raises_its_error(call, error, match):
    with pytest.raises(error, match=match):
        call()
