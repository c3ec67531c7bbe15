"""Acceptance suite: one test per criterion, each printing a single
[criterion NN] PASS/FAIL line.  Statistical items use fixed seeds; every
criterion also enforces its runtime budget."""

import math
import time
import warnings

import numpy as np
import pytest
from scipy import integrate
from scipy.special import gamma as sp_gamma
from scipy.stats import ks_2samp

from mvlevy import (
    A1Params,
    AppendixParams,
    DriftSpec,
    EmpiricalMeasure,
    FixedPointConfig,
    LevyMeasureSpec,
    SimConfig,
    appendix_constants,
    beta_c,
    ct_fn,
    ex14_feasibility,
    gamma_fn,
    h_fn,
    iterate_lambda,
    lyapunov_params,
    m_star,
    moment_bound,
    multiplicity_search,
    phi_fn,
    root_count,
    tail_moment,
    w1,
    weighted_tv,
)
from mvlevy import rng as mvrng
from mvlevy.conditions import ThetaTuple, chosen_tuple
from mvlevy.levy import BALL, COMPLEMENT, J, sample_increment
from mvlevy.selfconsistent import GradientCase


def _verdict(num, checks, elapsed, budget):
    checks = list(checks) + [(f"runtime {elapsed:.1f}s within {budget}s",
                              elapsed < budget)]
    failed = [name for name, ok in checks if not ok]
    print(f"[criterion {num:02d}] {'PASS' if not failed else 'FAIL'}",
          flush=True)
    assert not failed, f"failed subchecks: {failed}"


# --- independent transcriptions used by criteria 7, 9, 10 ------------------

def _density_const(alpha, scale, d=1):
    return (scale ** alpha * alpha * 2.0 ** (alpha - 1.0)
            * sp_gamma((d + alpha) / 2.0)
            / (math.pi ** (d / 2.0) * sp_gamma(1.0 - alpha / 2.0)))


def _tail(alpha, scale, p, l):
    return 2.0 * _density_const(alpha, scale) * l ** (p - alpha) / (alpha - p)


def _ball(alpha, scale, p, l):
    return 2.0 * _density_const(alpha, scale) * l ** (p - alpha) / (p - alpha)


def _h(r):
    return r / (1.0 + r)


def _w1_oracle_1d(mu, nu):
    xs = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    order = np.argsort(xs)
    xs = xs[order]
    jumps = np.concatenate([mu.weights, -nu.weights])[order]
    return float(np.sum(np.abs(np.cumsum(jumps)[:-1]) * np.diff(xs)))


def _random_measure(gen, n):
    pts = gen.normal(size=(n, 1)) * gen.uniform(0.5, 3.0)
    wts = gen.uniform(0.1, 1.0, size=n)
    return EmpiricalMeasure(pts, wts / wts.sum())


def _rand_params(rng, case):
    while True:
        beta = rng.uniform(1.1, 1.7)
        t1 = rng.uniform(1.0, 3.0)
        bs = beta + t1 - 1.0
        t2 = rng.uniform(0.0, min(1.0 + t1, 2.0 - beta + 0.7 * bs) - 1e-6)
        g1 = max(beta + t2 - 2.0, 0.0) / bs
        t3 = rng.uniform(0.1, bs)
        if case == "i":
            t4 = rng.uniform(0.2, 0.8) * bs * (1.0 - g1) / t3
            l1, l2 = rng.uniform(0.5, 3.0), rng.uniform(0.0, 2.0)
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


# ---------------------------------------------------------------------------


def test_criterion_01_quartic_phase_transition():
    t0 = time.time()
    checks = []
    bc = float(beta_c(2.0, 0.01))
    checks.append((f"beta_c(2) = {bc:.4f} in [1.95, 2.05]",
                   1.95 <= bc <= 2.05))
    c21 = root_count(GradientCase(2.0, 1.0), 6.0, 1000)["count"]
    checks.append((f"count(gamma=2, beta=1) = {c21}, expected 1", c21 == 1))
    c23 = root_count(GradientCase(2.0, 3.0), 6.0, 1000)["count"]
    checks.append((f"count(gamma=2, beta=3) = {c23}, expected 3", c23 == 3))
    for b in (0.5, 1.0, 2.0):
        c4 = root_count(GradientCase(4.0, b), 6.0, 1000)["count"]
        checks.append((f"count(gamma=4, beta={b}) = {c4}, expected 3",
                       c4 == 3))
    _verdict(1, checks, time.time() - t0, 10.0)


def test_criterion_02_h_oddness():
    t0 = time.time()
    checks = []
    case = GradientCase(2.0, 3.0)
    worst = max(abs(h_fn(case, float(m)) + h_fn(case, float(-m)))
                for m in np.linspace(0.25, 3.0, 12))
    checks.append((f"max |h(m)+h(-m)| = {worst:.2e} < 1e-8", worst < 1e-8))
    h0 = abs(h_fn(case, 0.0))
    checks.append((f"|h(0)| = {h0:.2e} < 1e-10", h0 < 1e-10))
    _verdict(2, checks, time.time() - t0, 5.0)


def test_criterion_03_ou_dichotomy():
    t0 = time.time()
    checks = []
    levy = LevyMeasureSpec(alpha=2.0, scale=1.0)
    ou2 = DriftSpec("mean_field_ou", lam=2.0)
    ou1 = DriftSpec("mean_field_ou", lam=1.0)
    sim = SimConfig(dt=1e-3, T=100.0, n_chains=2000, thin=100, seed=21)

    def run(drift, m0, tol, k):
        cfg = FixedPointConfig(max_iter=14, w1_tol=tol, sim=sim)
        rep = iterate_lambda(drift, levy, EmpiricalMeasure.dirac(m0), cfg,
                             key=(k,))
        pts = rep.final.points[:, 0]
        chain_means = pts.reshape(-1, sim.n_chains).mean(axis=0)
        se = float(chain_means.std(ddof=1) / math.sqrt(sim.n_chains))
        return rep, pts, se

    for k, m0 in enumerate((-1.0, 0.0, 1.0)):
        rep, pts, se = run(ou2, m0, 0.004, k)
        dev = abs(pts.mean())
        checks.append((f"lam=2 m0={m0} converged", rep.converged))
        checks.append((f"lam=2 m0={m0} |mean|={dev:.4f} <= 3SE+tol",
                       dev <= 3.0 * se + 0.004))
        v = float(pts.var())
        checks.append((f"lam=2 m0={m0} var={v:.4f} in 0.25 +- 10%",
                       abs(v - 0.25) <= 0.025))
    for k, m0 in enumerate((-1.0, 0.0, 1.0)):
        rep, pts, se = run(ou1, m0, 0.006, k + 3)
        dev = abs(pts.mean() - m0)
        checks.append((f"lam=1 m0={m0} converged", rep.converged))
        checks.append((f"lam=1 m0={m0} |mean-m0|={dev:.4f} <= 3SE+tol",
                       dev <= 3.0 * se + 0.006))
    _verdict(3, checks, time.time() - t0, 120.0)


def test_criterion_04_moment_threshold_replay():
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(2024)
    levy = LevyMeasureSpec(alpha=1.8, scale=1.0)
    for case in ("i", "ii"):
        for k in range(10):
            p = _rand_params(rng, case)
            rep = m_star(p, levy)
            t = chosen_tuple(rep)
            M = rep["M_star"]
            mb = moment_bound(p, levy, t, M ** (p.theta3 / p.beta_star))
            ok = mb <= M * (1.0 + 1e-10)
            checks.append((f"case {case} draw {k}: bound {mb:.4g} <= "
                           f"M* {M:.4g}", ok))
    _verdict(4, checks, time.time() - t0, 10.0)


def test_criterion_05_double_well_multiplicity():
    t0 = time.time()
    checks = []
    drift = DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0)
    sigma, witness = 0.2, None
    while sigma >= 1e-4:
        levy = LevyMeasureSpec(alpha=1.8, scale=sigma)
        witness = ex14_feasibility(drift.lam, drift.kappa, 1.5,
                                   drift.a1, drift.a2, levy)
        if witness is not None:
            break
        sigma /= 2.0
    checks.append((f"feasibility witness found at sigma={sigma}",
                   witness is not None))
    levy = LevyMeasureSpec(alpha=1.8, scale=sigma)
    params = lyapunov_params(drift, beta=1.5)
    ms = m_star(params, levy)
    checks.append(("threshold computed, case " + str(ms["case"]),
                   ms["M_star"] > 0))
    sim = SimConfig(dt=0.002, T=500.0, n_chains=300, thin=100, seed=7)
    cfg = FixedPointConfig(max_iter=10, w1_tol=0.02, sim=sim)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = multiplicity_search(drift, levy, [[-1.0], [0.0], [1.0]],
                                  ms["M_star"], cfg)
    checks.append(("no per-seed errors", not rep.errors))
    for (i, j), ev in rep.separation_evidence.items():
        checks.append((f"pair ({i},{j}) concentrations < 1/2",
                       ev["conc_i"] < 0.5 and ev["conc_j"] < 0.5))
        checks.append((f"pair ({i},{j}) w1 {ev['w1']:.3f} > 2*floor",
                       ev["w1"] > 2.0 * ev["noise_floor"]))
        checks.append((f"pair ({i},{j}) distinct", bool(rep.distinct_pairs[i, j])))
    _verdict(5, checks, time.time() - t0, 900.0)


def test_criterion_06_uniqueness_evidence():
    t0 = time.time()
    checks = []
    drift = DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.05, beta=1.2,
                      g_kind="tanh_scaled", g_params=(0.5, 1.0))
    levy = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=0.5,
                           cutoff=4.0)
    sim = SimConfig(dt=0.002, T=400.0, n_chains=300, thin=50, seed=17)
    cfg = FixedPointConfig(max_iter=8, w1_tol=0.1, sim=sim)
    inits = (-3.0, -1.0, 0.0, 1.0, 3.0)
    reports = []
    for k, m0 in enumerate(inits):
        rep = iterate_lambda(drift, levy, EmpiricalMeasure.dirac(m0), cfg,
                             key=(k,))
        checks.append((f"init {m0} converged", rep.converged))
        reports.append(rep)
    for i in range(len(inits)):
        for j in range(i + 1, len(inits)):
            allow = max(2.0 * max(reports[i].noise_floor,
                                  reports[j].noise_floor), 0.05)
            gap = w1(reports[i].final, reports[j].final)
            checks.append((f"pair ({inits[i]},{inits[j]}) w1 {gap:.3f} "
                           f"< {allow:.3f}", gap < allow))
    _verdict(6, checks, time.time() - t0, 600.0)


def test_criterion_07_condition_formula_oracles():
    t0 = time.time()
    checks = []
    rng = np.random.default_rng(77)
    ok_gamma = True
    for _ in range(50):
        g = float(rng.uniform(0.0, 0.95))
        a = float(rng.uniform(0.1, 5.0))
        e = float(rng.uniform(0.0, 0.9))
        want = (1.0 - e) if g == 0.0 else (1.0 - e) * a ** (e / (1.0 - e))
        ok_gamma &= np.isclose(gamma_fn(g, a, e), want, rtol=1e-8)
    checks.append(("gamma_fn matches transcription", ok_gamma))

    ok_phi = ok_mb = True
    done = 0
    while done < 50:
        p = _rand_params(rng, "i" if rng.uniform() < 0.5 else "ii")
        alpha, scale = 1.8, float(rng.uniform(0.2, 1.5))
        levy = LevyMeasureSpec(alpha=alpha, scale=scale)
        eps2 = float(rng.uniform(0.001, 0.05))
        r = float(rng.uniform(0.5, 3.0))
        l = 64.0
        want_phi = (p.beta * p.C_b
                    + p.beta * p.lam1
                    * _h(r ** 2) ** ((1.0 + p.theta1) / 2.0)
                    * (1.0 + r ** 2) ** (p.beta_star / 2.0)
                    + (p.beta / 2.0) * _ball(alpha, scale, 2.0, l)
                    + _tail(alpha, scale, p.beta, l))
        ok_phi &= np.isclose(phi_fn(p, levy, eps2, r, l), want_phi, rtol=1e-8)
        t = ThetaTuple(float(rng.uniform(0.01, 0.1)), eps2, 2.0, l)
        ind = 1.0 if 0.0 < p.gamma1 < 1.0 else 0.0
        denom = (p.beta * (p.lam1 * _h(4.0) ** ((1.0 + p.theta1) / 2.0)
                           - t.eps1 * p.lam2 * ind - t.eps2)
                 - 2.0 ** (p.beta / 2.0) * _tail(alpha, scale, p.beta / 2.0, l))
        if denom <= 0:
            continue
        M = float(rng.uniform(0.1, 5.0))
        g1 = p.gamma1
        if g1 > 0:
            mu_term = (p.beta * p.lam2 * (1.0 - g1)
                       * (g1 / t.eps1) ** (g1 / (1.0 - g1))
                       * M ** (p.theta4 / (1.0 - g1)))
        else:
            mu_term = p.beta * p.lam2 * M ** p.theta4
        want_phi2 = (p.beta * p.C_b
                     + p.beta * p.lam1
                     * _h(4.0) ** ((1.0 + p.theta1) / 2.0)
                     * 5.0 ** (p.beta_star / 2.0)
                     + (p.beta / 2.0) * _ball(alpha, scale, 2.0, l)
                     + _tail(alpha, scale, p.beta, l))
        ok_mb &= np.isclose(moment_bound(p, levy, t, M),
                            (want_phi2 + mu_term) / denom, rtol=1e-8)
        done += 1
    checks.append(("phi_fn matches transcription", ok_phi))
    checks.append(("moment_bound matches transcription", ok_mb))

    ok_ct = True
    for _ in range(50):
        K1 = float(rng.uniform(0.1, 3.0))
        m = float(rng.uniform(0.0, 2.0))
        tt = float(rng.uniform(0.0, 2.0))
        e1 = math.exp(K1 * tt)
        want = (math.sqrt(2.0) * m * math.sqrt(tt) * math.exp((K1 - m) * tt)
                * (1.0 + m * tt * e1) * math.exp(m * tt * e1))
        ok_ct &= np.isclose(ct_fn(K1, m, tt), want, rtol=1e-8)
    checks.append(("ct_fn matches transcription", ok_ct))
    checks.append(("ct_fn vanishes at t = 0", ct_fn(1.7, 0.9, 0.0) == 0.0))

    ok_app = ok_lam0 = True
    for _ in range(50):
        alpha = float(rng.uniform(0.8, 1.9))
        scale = float(rng.uniform(0.5, 2.0))
        levy = LevyMeasureSpec(alpha=alpha, scale=scale)
        ap = AppendixParams(K1=float(rng.uniform(0.1, 2.0)),
                            K2=float(rng.uniform(0.1, 2.0)),
                            K3=float(rng.uniform(0.1, 2.0)),
                            kappa=float(rng.uniform(0.2, 1.0)),
                            l0=float(rng.uniform(1.0, 3.0)),
                            C_V=float(rng.uniform(0.5, 3.0)),
                            lambda_V=float(rng.uniform(0.1, 2.0)))
        out = appendix_constants(ap, levy)
        Jk = (2.0 * _density_const(alpha, scale) * (ap.kappa / 2.0) ** (-alpha)
              / alpha)
        c = 1.0 + 16.0 * ap.K1 * ap.l0 / (Jk * ap.kappa ** 2)
        ecl = math.exp(-c * ap.l0)
        a = (8.0 * ap.K1 * c * (1.0 + ap.kappa) / Jk
             + ap.kappa ** 2 * c ** 2 * ecl)
        eps = ap.kappa ** 2 * c ** 2 * ecl * Jk / (16.0 * ap.C_V)
        lam0 = 0.25 * min(Jk * ap.kappa ** 2 * c ** 2 * ecl
                          / (2.0 * (2.0 + a)), 3.0 * ap.lambda_V)
        ok_app &= (np.isclose(out.c, c, rtol=1e-8)
                   and np.isclose(out.a, a, rtol=1e-8)
                   and np.isclose(out.eps, eps, rtol=1e-8)
                   and np.isclose(out.lambda0, lam0, rtol=1e-8))
        ok_lam0 &= out.lambda0 > 0
    checks.append(("appendix constants match transcription", ok_app))
    checks.append(("lambda0 positive on all valid inputs", ok_lam0))
    _verdict(7, checks, time.time() - t0, 30.0)


def test_criterion_08_sampler_fidelity():
    t0 = time.time()
    checks = []
    spec = LevyMeasureSpec(alpha=1.5)
    draws = sample_increment(spec, 1.0, mvrng.stream(55), size=100000)[:, 0]
    for t in (0.5, 1.0, 2.0):
        emp = float(np.mean(np.cos(t * draws)))
        err = abs(emp - math.exp(-t ** 1.5))
        checks.append((f"CF error {err:.4f} < 0.01 at t={t}", err < 0.01))
    gen = mvrng.stream(56)
    a = sample_increment(spec, 2.0, gen, size=40000)[:, 0]
    b = sample_increment(spec, 1.0, gen, size=40000)[:, 0] * 2.0 ** (1.0 / 1.5)
    pv = ks_2samp(a, b).pvalue
    checks.append((f"self-similarity KS p={pv:.3f} > 0.01", pv > 0.01))
    _verdict(8, checks, time.time() - t0, 30.0)


def test_criterion_09_metric_correctness():
    t0 = time.time()
    checks = []
    gen = np.random.default_rng(11)
    ok_w1 = True
    for _ in range(200):
        mu = _random_measure(gen, int(gen.integers(1, 7)))
        nu = _random_measure(gen, int(gen.integers(1, 7)))
        ok_w1 &= abs(w1(mu, nu) - _w1_oracle_1d(mu, nu)) < 1e-12
    checks.append(("w1 equals brute-force coupling on 200 pairs", ok_w1))
    ok_ax = True
    for _ in range(100):
        a = _random_measure(gen, int(gen.integers(2, 8)))
        b = _random_measure(gen, int(gen.integers(2, 8)))
        c = _random_measure(gen, int(gen.integers(2, 8)))
        ok_ax &= abs(w1(a, b) - w1(b, a)) < 1e-12
        ok_ax &= w1(a, b) <= w1(a, c) + w1(c, b) + 1e-12
        ok_ax &= w1(a, a) == 0.0
    checks.append(("metric axioms on 100 triples", ok_ax))
    mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
    nu = EmpiricalMeasure(np.array([[2.0], [-1.0]]), np.array([0.7, 0.3]))
    b0 = 1.5

    def U(x):
        return (1.0 + x * x) ** (b0 / 2.0)

    want = 0.4 * U(0.0) + 0.6 * U(1.0) + 0.7 * U(2.0) + 0.3 * U(-1.0)
    checks.append(("weighted_tv discrete closed form",
                   weighted_tv(mu, nu, b0) == pytest.approx(want, rel=1e-12)))
    _verdict(9, checks, time.time() - t0, 10.0)


def test_criterion_10_levy_functional_suite():
    t0 = time.time()
    checks = []
    gen = mvrng.stream(101)
    ok_tail = True
    for _ in range(10):
        alpha = float(gen.uniform(0.6, 1.9))
        scale = float(gen.uniform(0.5, 2.0))
        l = float(gen.uniform(0.5, 4.0))
        spec = LevyMeasureSpec(alpha=alpha, scale=scale)
        p_far = float(gen.uniform(0.0, 0.95 * alpha))
        want, _ = integrate.quad(lambda r: r ** p_far * spec.radial_density(r),
                                 l, np.inf, limit=400)
        ok_tail &= np.isclose(tail_moment(spec, p_far, COMPLEMENT, l), want,
                              rtol=1e-8)
        p_near = float(gen.uniform(1.05 * alpha, alpha + 1.5))
        want, _ = integrate.quad(lambda r: r ** p_near * spec.radial_density(r),
                                 0.0, l, limit=400)
        ok_tail &= np.isclose(tail_moment(spec, p_near, BALL, l), want,
                              rtol=1e-8)
    checks.append(("tail_moment matches quadrature oracle", ok_tail))

    spec = LevyMeasureSpec(alpha=1.5, scale=1.3)
    trunc = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=1.3,
                            cutoff=4.0)
    ok_add = all(
        abs(tail_moment(spec, p, COMPLEMENT, 1.0)
            - tail_moment(spec, p, COMPLEMENT, 4.0)
            - tail_moment(trunc, p, COMPLEMENT, 1.0)) < 1e-10
        for p in (0.0, 0.7, 1.2))
    checks.append(("annulus additivity to 1e-10", ok_add))

    base = LevyMeasureSpec(alpha=1.4)
    ok_cov = True
    for sigma in (0.5, 2.0):
        scaled = LevyMeasureSpec(alpha=1.4, scale=sigma)
        for p, region, l in ((0.8, COMPLEMENT, 2.0), (2.0, BALL, 1.5)):
            a = tail_moment(scaled, p, region, l)
            ok_cov &= abs(a - sigma ** 1.4 * tail_moment(base, p, region, l)) < 1e-10
            ok_cov &= abs(a - sigma ** p
                          * tail_moment(base, p, region, l / sigma)) < 1e-10
    checks.append(("scale covariance to 1e-10", ok_cov))

    rs = np.linspace(0.2, 4.0, 10)
    vals = [J(LevyMeasureSpec(alpha=1.5), float(r)) for r in rs]
    checks.append(("J non-increasing on 10-point grid",
                   all(x >= y for x, y in zip(vals, vals[1:]))))
    _verdict(10, checks, time.time() - t0, 30.0)
