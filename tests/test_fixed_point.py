"""Tests for the measure fixed-point iteration and the multiplicity search.

Cheap Brownian configurations keep each run under a second while still
exercising convergence, noise-floor accounting, and the separation verdicts.
"""

import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from mvlevy import (
    A1Params,
    Blowup,
    DimensionMismatch,
    DriftSpec,
    EmpiricalMeasure,
    FixedPointConfig,
    FixedPointReport,
    LevyMeasureSpec,
    NoiseFloorExceedsTol,
    SimConfig,
    invariance_check,
    iterate_lambda,
    lyapunov_params,
    m_star,
    moment,
    multiplicity_search,
    w1,
)
from mvlevy import drift, fixed_point, simulate
from mvlevy import rng as mvrng
from mvlevy.simulate import OccupationMeasure, frozen_trajectory

BM = LevyMeasureSpec(alpha=2.0, scale=0.1)
BM1 = LevyMeasureSpec(alpha=2.0, scale=1.0)
SIM = SimConfig(dt=0.01, T=10.0, n_chains=200, seed=11)
DW = DriftSpec("double_well", lam=1.0, kappa=0.0, a1=-1.0, a2=1.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FixedPointConfig(max_iter=0, w1_tol=0.1, sim=SIM)
        with pytest.raises(ValueError):
            FixedPointConfig(max_iter=2, w1_tol=0.0, sim=SIM)
        with pytest.raises(ValueError):
            FixedPointConfig(max_iter=2, w1_tol=0.1, sim=SIM, damping=1.0)

    def test_one_chain_rejected(self):
        # the noise floor splits the chains of a run into two halves
        with pytest.raises(ValueError, match="n_chains >= 2"):
            FixedPointConfig(max_iter=2, w1_tol=0.1, sim=replace(SIM, n_chains=1))
        FixedPointConfig(max_iter=2, w1_tol=0.1, sim=replace(SIM, n_chains=2))


class TestIterateLambda:
    def test_interaction_free_map_converges_immediately(self):
        # kappa = 0 makes the map constant in mu, so the first iterate is
        # already the fixed point
        cfg = FixedPointConfig(max_iter=4, w1_tol=0.05, sim=SIM)
        rep = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        assert rep.converged
        assert rep.iterations <= 2
        assert abs(rep.final.mean()[0] + 1.0) < 0.05
        assert rep.noise_floor < 0.05
        assert rep.moment_beta_star > 0

    def test_default_beta_star_skips_the_sup_search(self, monkeypatch):
        # beta_star does not depend on C_b, so no supremum is searched for
        calls = []
        sup = drift._sup
        monkeypatch.setattr(drift, "_sup", lambda *a: calls.append(a) or sup(*a))
        cfg = FixedPointConfig(max_iter=2, w1_tol=0.05, sim=SIM)
        rep = iterate_lambda(DW, LevyMeasureSpec(alpha=1.8, scale=0.1),
                             EmpiricalMeasure.dirac(1.0), cfg)
        assert calls == []
        beta_star = lyapunov_params(DW, alpha=1.8).beta_star
        assert len(calls) == 1
        assert rep.moment_beta_star == moment(rep.final, beta_star)

    def test_independent_of_initial_measure(self):
        cfg = FixedPointConfig(max_iter=4, w1_tol=0.05, sim=SIM)
        a = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        b = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(-0.8), cfg,
                           key=(55,))
        floor = max(a.noise_floor, b.noise_floor)
        assert w1(a.final, b.final) <= 2.0 * floor

    def test_ou_mean_contraction(self):
        # lam = 2 halves the mean each pass: dirac(-1) flows toward 0
        ou = DriftSpec("mean_field_ou", lam=2.0)
        cfg = FixedPointConfig(max_iter=10, w1_tol=0.03, sim=SIM)
        rep = iterate_lambda(ou, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        assert rep.converged
        assert abs(rep.final.mean()[0]) < 0.1
        steps = rep.history
        assert steps[0] > steps[-1]

    def test_noise_floor_guard(self):
        cfg = FixedPointConfig(max_iter=1, w1_tol=1e-9, sim=SIM)
        with pytest.raises(NoiseFloorExceedsTol):
            iterate_lambda(DW, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        rep = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(-1.0), cfg,
                             check_noise_floor=False)
        assert not rep.converged
        assert rep.noise_floor > 1e-9

    def test_deterministic_replay(self):
        cfg = FixedPointConfig(max_iter=2, w1_tol=0.05, sim=SIM)
        a = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(1.0), cfg)
        b = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(1.0), cfg)
        assert np.array_equal(a.final.points, b.final.points)
        assert a.history == b.history

    def test_damping_slows_steps(self):
        ou = DriftSpec("mean_field_ou", lam=2.0)
        base = FixedPointConfig(max_iter=3, w1_tol=1e-9, sim=SIM)
        damped = FixedPointConfig(max_iter=3, w1_tol=1e-9, sim=SIM, damping=0.7)
        a = iterate_lambda(ou, BM, EmpiricalMeasure.dirac(-1.0), base,
                           check_noise_floor=False)
        b = iterate_lambda(ou, BM, EmpiricalMeasure.dirac(-1.0), damped,
                           check_noise_floor=False)
        assert b.history[0] < a.history[0]


def _recording(monkeypatch):
    """Route iterate_lambda's frozen runs through a recorder; returns the
    list of occupation measures they produced."""
    runs = []

    def record(*args, **kwargs):
        runs.append(frozen_trajectory(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(fixed_point, "frozen_trajectory", record)
    return runs


class TestSplitNoiseFloor:
    OU = DriftSpec("mean_field_ou", lam=2.0)

    def test_one_frozen_run_per_iteration(self, monkeypatch):
        runs = _recording(monkeypatch)
        cfg = FixedPointConfig(max_iter=10, w1_tol=0.03, sim=SIM)
        rep = iterate_lambda(self.OU, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        assert rep.iterations >= 2
        assert len(runs) == rep.iterations

    def test_iterates_do_not_depend_on_the_floor(self):
        # the iteration computed by hand, iteration it with key (5, it) at
        # the same seed, and the floor taken separately from its last run
        cfg = FixedPointConfig(max_iter=3, w1_tol=1e-9, sim=SIM)
        rep = iterate_lambda(self.OU, BM, EmpiricalMeasure.dirac(-1.0), cfg,
                             key=(5,), check_noise_floor=False)
        mu, history = EmpiricalMeasure.dirac(-1.0), []
        for it in range(1, 4):
            occ = frozen_trajectory(self.OU, mu, BM, mu, SIM, key=(5, it))
            history.append(w1(occ, mu))
            mu = occ
        assert np.array_equal(rep.final.points, mu.points)
        assert rep.history == history
        assert rep.noise_floor == fixed_point._split_floor(mu)

    def test_identical_chains_give_zero_floor(self, monkeypatch):
        one = frozen_trajectory(DW, EmpiricalMeasure.dirac(1.0), BM, 1.0,
                                replace(SIM, n_chains=1))
        n = 6
        copies = np.repeat(one.points, n, axis=0)  # row = kept step * n + chain
        occ = OccupationMeasure(copies, np.full(len(copies), 1.0 / len(copies)),
                                T=one.T, dt=one.dt, n_chains=n, ess=len(copies))
        monkeypatch.setattr(fixed_point, "frozen_trajectory", lambda *a, **k: occ)
        cfg = FixedPointConfig(max_iter=3, w1_tol=0.01, sim=replace(SIM, n_chains=n))
        rep = iterate_lambda(DW, BM, EmpiricalMeasure.dirac(1.0), cfg)
        assert rep.noise_floor == 0.0
        assert rep.converged and rep.history[-1] == 0.0

    @pytest.mark.parametrize("n_chains", [3, 201])
    def test_odd_chain_count(self, monkeypatch, n_chains):
        runs = _recording(monkeypatch)
        cfg = FixedPointConfig(max_iter=2, w1_tol=0.5,
                               sim=replace(SIM, n_chains=n_chains))
        rep = iterate_lambda(self.OU, BM, EmpiricalMeasure.dirac(-1.0), cfg)
        assert runs[-1].n_chains == n_chains
        assert 0.0 < rep.noise_floor < 0.5

    def test_damped_run_splits_last_occupation_run(self, monkeypatch):
        runs = _recording(monkeypatch)
        cfg = FixedPointConfig(max_iter=3, w1_tol=1e-9, sim=SIM, damping=0.5)
        rep = iterate_lambda(self.OU, BM, EmpiricalMeasure.dirac(-1.0), cfg,
                             check_noise_floor=False)
        assert len(runs) == 3
        assert rep.final.size > runs[-1].size  # the final iterate is a mixture
        assert rep.noise_floor == fixed_point._split_floor(runs[-1])

    def test_calibrated_against_two_independent_runs(self):
        # mean-field OU at alpha = 2: over a fixed seed set, the median split
        # floor of one run matches the median W1 between two independent runs
        mu = EmpiricalMeasure.dirac(0.0)
        split, pair = [], []
        for seed in range(200):
            sim = SimConfig(dt=1e-3, T=10.0, n_chains=200, thin=100, seed=seed)
            a = frozen_trajectory(self.OU, mu, BM1, mu, sim, key=(1,))
            b = frozen_trajectory(self.OU, mu, BM1, mu, sim, key=(2,))
            split.append(fixed_point._split_floor(a))
            pair.append(w1(a, b))
        assert abs(np.median(split) / np.median(pair) - 1.0) <= 0.25


class TestMultiplicitySearch:
    CFG = FixedPointConfig(max_iter=4, w1_tol=0.05, sim=SIM)

    def test_same_well_seeds_not_distinct(self):
        rep = multiplicity_search(DW, BM, [[-1.2], [-0.8], [1.0]], 0.05, self.CFG)
        assert not rep.distinct_pairs[0, 1]
        assert rep.distinct_pairs[0, 2] and rep.distinct_pairs[1, 2]
        assert not rep.errors
        ev = rep.separation_evidence[(0, 2)]
        assert ev["w1"] > 1.5 and ev["conc_i"] < 0.5 and ev["conc_j"] < 0.5
        assert ev["M_star_ok"]

    def test_symmetric_matrix_and_permutation_invariance(self):
        a = multiplicity_search(DW, BM, [[-1.0], [1.0]], 0.05, self.CFG)
        b = multiplicity_search(DW, BM, [[1.0], [-1.0]], 0.05, self.CFG)
        assert np.array_equal(a.distinct_pairs, a.distinct_pairs.T)
        assert a.distinct_pairs[0, 1] == b.distinct_pairs[0, 1]

    def test_separation_hypothesis_warning(self):
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always")
            multiplicity_search(DW, BM, [[-1.0], [1.0]], 1.0, self.CFG)
        assert any("separation hypothesis" in str(w.message) for w in wlist)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ValueError):
            multiplicity_search(DW, BM, [[1.0], [1.0]], 0.05, self.CFG)

    @pytest.mark.parametrize("levy, seeds", [
        (BM, [[1.0, 0.0], [-1.0, 2.0]]),
        (LevyMeasureSpec(alpha=2.0, scale=0.1, dim=2), [[1.0], [-1.0]]),
        (BM, [[1.0], [1.0, 2.0]]),  # broadcasts through the gap check
    ])
    def test_dimension_mismatch_raises_before_any_run(self, monkeypatch, levy, seeds):
        def run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(fixed_point, "iterate_lambda", run)
        with pytest.raises(DimensionMismatch):
            multiplicity_search(DW, levy, seeds, 0.05, self.CFG)

    def test_partial_errors_recorded(self):
        # an impossible tolerance fails every branch but the report survives
        bad = FixedPointConfig(max_iter=1, w1_tol=1e-9, sim=SIM)
        rep = multiplicity_search(DW, BM, [[-1.0], [1.0]], 0.05, bad)
        assert set(rep.errors) == {0, 1}
        assert not rep.distinct_pairs.any()

    def test_only_package_errors_are_recorded(self, monkeypatch):
        def fail_with(exc):
            def iterate(*args, **kwargs):
                raise exc
            return iterate

        monkeypatch.setattr(fixed_point, "iterate_lambda", fail_with(Blowup(3, 1e9)))
        rep = multiplicity_search(DW, BM, [[-1.0], [1.0]], 0.05, self.CFG)
        assert all(isinstance(e, Blowup) for e in rep.errors.values())
        assert set(rep.errors) == {0, 1}
        monkeypatch.setattr(fixed_point, "iterate_lambda", fail_with(TypeError("bug")))
        with pytest.raises(TypeError):
            multiplicity_search(DW, BM, [[-1.0], [1.0]], 0.05, self.CFG)


class TestStreamKeys:
    def _search(self, monkeypatch, seed):
        """Run a two-iteration multiplicity search from three centers and
        return (words, first draws) of every stream its simulations open,
        in the order they are opened.  The noise-floor splits share one
        fixed stream by design and are not recorded."""
        opened = []

        def stream(*words):
            opened.append((words, mvrng.stream(*words).random(4)))
            return mvrng.stream(*words)

        monkeypatch.setattr(simulate, "_rng", SimpleNamespace(**{
            **vars(mvrng), "stream": stream}))
        cfg = FixedPointConfig(max_iter=2, w1_tol=1e-9,
                               sim=SimConfig(dt=0.01, T=10.0, n_chains=20, seed=seed))
        rep = multiplicity_search(DW, BM, [[-1.5], [0.3], [1.5]], 0.05, cfg)
        # the tolerance undercuts every floor, so each center runs both
        # iterations and only the final floor check fails
        assert all(isinstance(e, NoiseFloorExceedsTol) for e in rep.errors.values())
        assert len(rep.errors) == 3
        return opened

    def test_no_two_runs_share_a_stream(self, monkeypatch):
        s = 101
        first, second = self._search(monkeypatch, s), self._search(monkeypatch, s + 1)
        # per seed: 3 centers x 2 iterations x (init, increments), no retries
        assert len(first) == len(second) == 12
        opened = first + second
        words = [w for w, _ in opened]
        assert len(set(words)) == len(words)
        draws = {tuple(d) for _, d in opened}
        assert len(draws) == len(opened)
        # iteration 2 from center 0 at seed s against iteration 1 from
        # center 0 at seed s + 1: no stream, init or increments, in common
        it2 = {tuple(d) for _, d in first[2:4]}
        it1 = {tuple(d) for _, d in second[0:2]}
        assert not it2 & it1


class TestInvarianceCheck:
    PARAMS = A1Params(1e-9, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.5)

    def _report(self, x):
        return FixedPointReport(converged=True, iterations=1,
                                final=EmpiricalMeasure.dirac(x),
                                history=[0.0], moment_beta_star=0.0,
                                noise_floor=0.0)

    def test_threshold_with_slack(self):
        assert self.PARAMS.case == "ii"
        thr = m_star(self.PARAMS, BM)["M_star"]
        inside = (1.9 * thr) ** (1.0 / self.PARAMS.beta_star)
        outside = (2.1 * thr) ** (1.0 / self.PARAMS.beta_star)
        assert invariance_check(self._report(inside), self.PARAMS, BM)
        assert not invariance_check(self._report(outside), self.PARAMS, BM)
        assert not invariance_check(self._report(1e6), self.PARAMS, BM)

    def test_requires_convergence(self):
        rep = FixedPointReport(converged=False, iterations=1,
                               final=EmpiricalMeasure.dirac(0.0),
                               history=[1.0], moment_beta_star=0.0,
                               noise_floor=0.0)
        with pytest.raises(ValueError):
            invariance_check(rep, self.PARAMS, BM)
