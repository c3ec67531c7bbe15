"""Tests for the Euler integrator and occupation measures.  Statistical
checks target laws with known moments and use three-standard-error bands."""

import numpy as np
import pytest
from scipy import stats

from mvlevy import (
    Blowup,
    DimensionMismatch,
    DriftSpec,
    EmpiricalMeasure,
    LevyMeasureSpec,
    SimConfig,
    frozen_trajectory,
    sample_increment,
)
from mvlevy import rng as mvrng
from mvlevy.drift import measure_stats
from mvlevy.simulate import INCREMENT_CHUNK, _affine_jump, _kept_steps, _run_euler


def _brownian(scale=1.0):
    return LevyMeasureSpec(kind="stable", alpha=2.0, scale=scale, dim=1)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(dt=0.02, T=100.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=100.0, burn_in_fraction=1.0)
        with pytest.raises(ValueError):
            SimConfig(dt=0.01, T=100.0, thin=0)

    def test_json_round_trip(self):
        cfg = SimConfig(dt=0.005, T=50.0, n_chains=8, thin=4, seed=99)
        assert SimConfig.from_json(cfg.to_json()) == cfg

    @pytest.mark.parametrize("obj", [
        {"dt": 0.01, "T": 20.0, "bogus": 1},  # not a field
        {"T": 20.0},                          # dt has no default
        [0.01, 20.0],                         # not an object
    ])
    def test_from_json_rejects_bad_sections(self, obj):
        with pytest.raises(ValueError):
            SimConfig.from_json(obj)


class TestFrozenTrajectory:
    def test_deterministic_replay(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, n_chains=4, seed=5)
        mu0 = EmpiricalMeasure.dirac(0.0)
        a = frozen_trajectory(spec, mu0, _brownian(), 0.0, cfg)
        b = frozen_trajectory(spec, mu0, _brownian(), 0.0, cfg)
        assert np.array_equal(a.points, b.points)
        c = frozen_trajectory(spec, mu0, _brownian(), 0.0,
                              SimConfig(dt=0.01, T=20.0, n_chains=4, seed=6))
        assert not np.array_equal(a.points, c.points)

    def test_ou_stationary_moments(self):
        # frozen at delta_0 the chain is dX = -X dt + dB: mean 0, var 1/2
        spec = DriftSpec("mean_field_ou", lam=1.0)
        cfg = SimConfig(dt=0.01, T=200.0, n_chains=64, thin=20, seed=42)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                                _brownian(), 0.0, cfg)
        pts = occ.points[:, 0]
        chain_means = pts.reshape(-1, cfg.n_chains).mean(axis=0)
        se = chain_means.std(ddof=1) / np.sqrt(cfg.n_chains)
        assert abs(pts.mean()) <= 3.0 * se
        assert abs(pts.var() - 0.5) <= 0.05

    def test_near_zero_noise_contracts_to_mean(self):
        spec = DriftSpec("mean_field_ou", lam=2.0)
        mu0 = EmpiricalMeasure.dirac(1.5)  # fixed drift target mean 1.5
        cfg = SimConfig(dt=0.01, T=30.0, n_chains=2, seed=1)
        occ = frozen_trajectory(spec, mu0, _brownian(scale=1e-10), 3.0, cfg)
        # stationary point of -2x + 1.5 is 0.75
        assert np.allclose(occ.points, 0.75, atol=1e-6)

    def test_double_well_metastability(self):
        # weak noise, start in the left well: occupation mass stays near a1
        spec = DriftSpec("double_well", lam=1.0, kappa=0.0, a1=-1.0, a2=1.0)
        cfg = SimConfig(dt=0.01, T=50.0, n_chains=16, seed=3)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(-1.0),
                                _brownian(scale=0.1), -1.0, cfg)
        near_left = occ.weights[np.abs(occ.points[:, 0] + 1.0) < 0.5].sum()
        assert near_left > 0.9

    def test_blowup_raises(self):
        spec = DriftSpec("double_well", lam=1.0, kappa=0.0, a1=-1.0, a2=1.0)
        cfg = SimConfig(dt=0.01, T=10.0, n_chains=2, seed=0)
        with pytest.raises(Blowup):
            frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                              _brownian(scale=0.1), 50.0, cfg)

    def test_blowup_retry_at_half_step(self):
        # x0 just beyond the overshoot threshold sqrt(2/dt) for dt = 0.01
        # but inside it for dt = 0.005: the retry should succeed and report
        # the halved step
        spec = DriftSpec("double_well", lam=1.0, kappa=0.0, a1=-1.0, a2=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, n_chains=2, seed=0)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                                _brownian(scale=0.01), 14.65, cfg)
        assert occ.dt == 0.005
        assert np.all(np.abs(occ.points) < 3.0)

    @pytest.mark.parametrize("x0, dt", [(25.0, 0.0025), (35.0, 0.00125)])
    def test_blowup_retries_halve_again(self, x0, dt):
        # Euler overshoots from x past sqrt(2/dt + 1): 14.2, 20.0, 28.3 and
        # 40.0 for dt = 0.01 halved up to three times
        spec = DriftSpec("double_well", lam=1.0, kappa=0.0, a1=-1.0, a2=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, n_chains=2, seed=0)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                                _brownian(scale=0.01), x0, cfg)
        assert occ.dt == dt
        assert np.all(np.abs(occ.points) < 3.0)

    def test_retry_draws_fresh_increments(self):
        # the double-well multiplicity shape: on the increment stream of seed
        # 394 an increment of size 118 overflows the dt = 0.002 run at step
        # 6182; a retry that replayed the stream would meet the same jump
        # (about 80 at dt/2, past the new stability radius of 45) and
        # overflow again
        spec = DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0)
        levy = LevyMeasureSpec(alpha=1.8, scale=0.025)
        frozen = EmpiricalMeasure.dirac(-1.0)
        cfg = SimConfig(dt=0.002, T=20.0, n_chains=300, thin=100, seed=394)
        with pytest.raises(Blowup):  # the premise: the first attempt fails
            _run_euler(spec, measure_stats(spec, frozen.points, frozen.weights), levy,
                       np.full((cfg.n_chains, 1), -1.0), cfg, _kept_steps(cfg),
                       mvrng.INCREMENTS)
        occ = frozen_trajectory(spec, frozen, levy, -1.0, cfg)
        assert occ.dt == 0.001
        assert abs(float(occ.mean()[0]) + 1.0) < 0.05

    def test_measure_dimension_check(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, seed=0)
        with pytest.raises(DimensionMismatch):
            frozen_trajectory(spec, EmpiricalMeasure.dirac([0.0, 0.0]),
                              _brownian(), 0.0, cfg)
        with pytest.raises(DimensionMismatch):
            frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                              LevyMeasureSpec(alpha=1.5, dim=2), 0.0, cfg)

    def test_x0_dimension_check(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, seed=0)
        with pytest.raises(DimensionMismatch, match="x0 has dim 2, expected 1"):
            frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0), _brownian(),
                              np.zeros(2), cfg)

    def test_occupation_metadata(self):
        spec = DriftSpec("mean_field_ou", lam=1.0)
        cfg = SimConfig(dt=0.01, T=20.0, n_chains=3, thin=10, seed=0)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(0.0),
                                _brownian(), 0.0, cfg)
        # 2000 steps, burn 1000, every 10th collected, 3 chains
        assert occ.ess == 100 * 3
        assert occ.n_chains == 3
        assert np.isclose(occ.weights.sum(), 1.0)


def _stepwise_kept(levy, lam, mean, x0, cfg, seed):
    """Kept states of X <- X + (mean - lam X) dt + dZ taken one Euler step
    at a time, with the kept schedule of SimConfig: shape (kept, n, d)."""
    gen = np.random.default_rng(seed)
    n_steps = int(round(cfg.T / cfg.dt))
    burn = int(round(cfg.burn_in_fraction * n_steps))
    X = np.tile(np.atleast_1d(x0).astype(float), (cfg.n_chains, 1))
    kept = []
    for step in range(1, n_steps + 1):
        dZ = sample_increment(levy, cfg.dt, gen, size=cfg.n_chains)
        X = X + (mean - lam * X) * cfg.dt + dZ
        if step > burn and (step - burn) % cfg.thin == 0:
            kept.append(X)
    return np.array(kept)


class TestAffineJumpInLaw:
    """Affine drift with stable noise jumps between kept states in one
    update; each kept state must have the law of the step-by-step Euler
    chain.  Two-sample KS at every kept time, Bonferroni-split level."""

    # kept at steps 300, 500, 700, 900: the first jump covers burn + thin
    CFG = SimConfig(dt=0.01, T=10.0, n_chains=8000, burn_in_fraction=0.1,
                    thin=200, seed=31)
    P_MIN = 0.01 / 20  # family-wise 1% over the 20 KS tests of this class

    def _compare(self, jumped, stepped):
        assert jumped.shape == stepped.shape == (4, self.CFG.n_chains, jumped.shape[2])
        for a, b in zip(jumped, stepped):
            assert stats.ks_2samp(a[:, 0], b[:, 0]).pvalue > self.P_MIN
            if a.shape[1] > 1:
                assert stats.ks_2samp(np.linalg.norm(a, axis=1),
                                      np.linalg.norm(b, axis=1)).pvalue > self.P_MIN

    @pytest.mark.parametrize("rate_dt", [0.2, 1.0, 1.5, 2.0, 3.0])
    def test_jump_coefficients_match_direct_sums(self, rate_dt):
        # D = 1 - rate dt runs through (0, 1), 0, (-1, 0), -1 and below -1
        k, alpha, D = 7, 1.5, 1.0 - rate_dt
        want = (D ** k, sum(D ** j for j in range(k)),
                sum(abs(D) ** (j * alpha) for j in range(k)))
        assert np.allclose(_affine_jump(rate_dt, 1.0, alpha, k), want,
                           rtol=1e-12, atol=0.0)

    def test_jump_coefficients_tiny_rate_dt(self):
        # sum_{j<k} (1 - e)^{j p} = k - p e k (k - 1)/2 + O(e^2)
        e, k, alpha = 1e-14, 100, 1.5
        decay_k, drift_sum, noise_sum = _affine_jump(1.0, e, alpha, k)
        assert decay_k == pytest.approx(1.0 - k * e, rel=1e-14)
        assert drift_sum == pytest.approx(k - e * k * (k - 1) / 2.0, rel=1e-14)
        assert noise_sum == pytest.approx(k - alpha * e * k * (k - 1) / 2.0, rel=1e-14)

    @pytest.mark.parametrize("alpha, lam", [
        (2.0, 1.0),
        (1.5, 1.0),
        (1.5, 150.0),  # lam dt = 1.5: D = -0.5 alternates in sign
    ])
    def test_frozen_trajectory_matches_stepwise(self, alpha, lam):
        spec = DriftSpec("mean_field_ou", lam=lam)
        levy = LevyMeasureSpec(kind="stable", alpha=alpha, scale=0.5)
        mean, x0 = 0.5, 2.0  # start off the stationary mean: laws vary in time
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(mean), levy, x0,
                                self.CFG)
        jumped = occ.points.reshape(-1, self.CFG.n_chains, 1)
        self._compare(jumped, _stepwise_kept(levy, lam, mean, x0, self.CFG, 1))

    def test_isotropic_d2_matches_stepwise(self):
        # mean_field_ou specs are one-dimensional, but the integrator is not:
        # drive it directly with a 2-d state and isotropic 2-d noise
        spec = DriftSpec("mean_field_ou", lam=1.0)
        levy = LevyMeasureSpec(kind="stable", alpha=1.5, scale=0.5, dim=2)
        mean, x0 = np.array([0.5, -0.5]), np.array([2.0, 1.0])
        st = {"mean": mean}
        X = np.tile(x0, (self.CFG.n_chains, 1))
        jumped = np.array(_run_euler(spec, st, levy, X, self.CFG,
                                     _kept_steps(self.CFG), 0))
        self._compare(jumped, _stepwise_kept(levy, 1.0, mean, x0, self.CFG, 2))

    def test_truncated_noise_stationary_mean(self):
        # truncated noise has no closed-form aggregation and takes every
        # Euler step; frozen at mean 1 the chain dX = (1 - 2X) dt + dZ has
        # stationary mean 1/2
        spec = DriftSpec("mean_field_ou", lam=2.0)
        levy = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=0.5,
                               cutoff=4.0)
        cfg = SimConfig(dt=0.01, T=100.0, n_chains=64, thin=20, seed=8)
        occ = frozen_trajectory(spec, EmpiricalMeasure.dirac(1.0), levy, 0.0, cfg)
        pts = occ.points[:, 0]
        chain_means = pts.reshape(-1, cfg.n_chains).mean(axis=0)
        se = chain_means.std(ddof=1) / np.sqrt(cfg.n_chains)
        assert abs(pts.mean() - 0.5) <= 3.0 * se


def _reference_euler(b, levy, X, cfg, key):
    """Kept states of X <- X + b(X) dt + dZ taken one Euler step at a time,
    on the increments _run_euler draws from stream (cfg.seed, *key), in
    chunks of INCREMENT_CHUNK steps: shape (kept, n, d)."""
    gen = mvrng.stream(cfg.seed, *key)
    n, d = X.shape
    n_steps = int(round(cfg.T / cfg.dt))
    keep = set(_kept_steps(cfg))
    kept = []
    for start in range(0, n_steps, INCREMENT_CHUNK):
        m = min(INCREMENT_CHUNK, n_steps - start)
        dZ = sample_increment(levy, cfg.dt, gen, size=n * m).reshape(m, n, d)
        for j in range(m):
            X = X + b(X) * cfg.dt + dZ[j]
            if start + j + 1 in keep:
                kept.append(X)
    return np.array(kept)


class TestSteppedLoop:
    """The stepwise path against Euler steps written out here, drift in
    product form, on the same increments.  1100 steps cross four increment
    chunk boundaries; the Horner drifts agree to rounding, the others are
    evaluated by the same operations and agree bit for bit."""

    CFG = SimConfig(dt=0.002, T=2.2, n_chains=64, burn_in_fraction=0.2, thin=50, seed=5)

    def _both(self, spec, st, levy, b):
        X0 = np.linspace(-1.6, 1.6, self.CFG.n_chains * spec.dim).reshape(-1, spec.dim)
        got = _run_euler(spec, st, levy, X0.copy(), self.CFG, _kept_steps(self.CFG), 3)
        want = _reference_euler(b, levy, X0, self.CFG, (3,))
        assert got.shape == want.shape == (len(_kept_steps(self.CFG)),) + X0.shape
        return got, want

    @pytest.mark.parametrize("alpha", [1.8, 2.0])
    def test_double_well_matches_product_form(self, alpha):
        spec = DriftSpec("double_well", lam=1.0, kappa=4.5, a1=-1.0, a2=1.0)
        m = 0.3
        got, want = self._both(spec, {"mean": np.array([m])},
                               LevyMeasureSpec(alpha=alpha, scale=0.1),
                               lambda x: -x * (x + 1.0) * (x - 1.0) - 4.5 * (x - m))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_asymmetric_cubic_matches_product_form(self):
        spec = DriftSpec("asymmetric_cubic", lam=1.0, kappa=0.4, beta=1.3,
                         g_kind="cosine", g_params=(0.3, 2.0))
        am, gm = 0.8, 0.1
        st = {"mean": np.array([0.2]), "abs_moment": am, "g_moment": gm}
        levy = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=0.2, cutoff=2.0)
        got, want = self._both(
            spec, st, levy,
            lambda x: -x * (x - 1.0) * (x + 2.0) + 0.4 * ((1.0 + x ** 2) ** 0.15 * am + gm))
        assert np.max(np.abs(got - want)) <= 1e-12

    def test_two_well_d2_is_bit_identical(self):
        y1, y2, mean = np.array([1.0, 0.5]), np.array([-1.0, 0.0]), np.array([0.1, -0.2])
        spec = DriftSpec("symmetric_two_well", lam=1.0, kappa=0.7,
                         y1=tuple(y1), y2=tuple(y2))

        def b(x):
            d1, d2 = x - y1, x - y2
            n1 = np.sum(d1 ** 2, axis=1, keepdims=True)
            n2 = np.sum(d2 ** 2, axis=1, keepdims=True)
            return -(1.0 / 2.0) * (d1 * n2 + d2 * n1) - 0.7 * (x - mean[None, :])

        got, want = self._both(spec, {"mean": mean},
                               LevyMeasureSpec(alpha=1.5, scale=0.1, dim=2), b)
        assert np.array_equal(got, want)

    def test_ou_truncated_noise_is_bit_identical(self):
        spec = DriftSpec("mean_field_ou", lam=2.0)
        levy = LevyMeasureSpec(kind="truncated_stable", alpha=1.5, scale=0.5, cutoff=4.0)
        mean = np.array([0.4])
        got, want = self._both(spec, {"mean": mean}, levy,
                               lambda x: mean[None, :] - 2.0 * x)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("levy", [LevyMeasureSpec(alpha=1.5, scale=0.1),
                                      LevyMeasureSpec(kind="truncated_stable", alpha=1.5,
                                                      scale=0.1, cutoff=2.0)])
    def test_kept_states_do_not_share_memory(self, levy):
        # the stepwise loop writes each state over the state before last:
        # a kept state must be a copy, not one of those two blocks (the
        # stable OU case is the affine jump, the truncated one is stepped)
        spec = DriftSpec("mean_field_ou", lam=1.0)
        X0 = np.zeros((self.CFG.n_chains, 1))
        kept = _run_euler(spec, {"mean": np.array([0.5])}, levy, X0, self.CFG,
                          _kept_steps(self.CFG), 3)
        assert np.all(X0 == 0.0)
        assert not any(np.shares_memory(kept[i], kept[j])
                       for i in range(len(kept)) for j in range(i))
        assert all(not np.array_equal(kept[i], kept[i - 1]) for i in range(1, len(kept)))
