"""Tests for the scalar self-consistency analysis of the quartic gradient
case and the mean-field Ornstein-Uhlenbeck dichotomy."""

import tracemalloc

import numpy as np
import pytest

from mvlevy import (
    GridTooCoarse,
    QuadratureFailure,
    beta_c,
    h_fn,
    ou_classify,
    root_count,
    stationary_density,
)
from mvlevy import selfconsistent
from mvlevy.selfconsistent import GAMMA_C, BetaCResult, GradientCase, _h_scan, _support


def _h_scan_whole_matrix(case, ms):
    """The whole-matrix trapezoid rule that the blocked scan reproduces."""
    m_abs = float(np.abs(ms).max())
    lo, hi, _ = _support(case, m_abs)
    lo2, hi2, _ = _support(case, -m_abs)
    xs = np.linspace(min(lo, lo2), max(hi, hi2), 6001)
    expo = case.gamma * np.outer(ms, xs) - xs ** 4 + case.beta * xs ** 2
    expo -= expo.max(axis=1, keepdims=True)
    dens = np.exp(expo)
    return np.trapezoid((xs[None, :] - ms[:, None]) * dens, xs, axis=1)


def _scan_grid(beta, grid_n):
    m_max = max(6.0, 1.6 * np.sqrt(max(beta, 1.0)))
    return np.linspace(-m_max, m_max, grid_n)


class TestHFunction:
    def test_odd_in_m(self):
        case = GradientCase(2.0, 3.0)
        for m in (0.3, 0.8, 1.3, 2.0):
            assert abs(h_fn(case, m) + h_fn(case, -m)) < 1e-8

    def test_zero_at_origin(self):
        for gamma, beta in ((2.0, 0.5), (2.0, 3.0), (1.0, 1.0)):
            assert abs(h_fn(GradientCase(gamma, beta), 0.0)) < 1e-10

    def test_sign_pattern_multiwell(self):
        # above the transition h is positive just right of 0 and negative
        # beyond the outer root
        case = GradientCase(2.0, 3.0)
        assert h_fn(case, 0.3) > 0
        assert h_fn(case, 3.0) < 0

    def test_invalid_gamma(self):
        with pytest.raises(ValueError):
            GradientCase(0.0, 1.0)


class TestRootCount:
    def test_single_root_below_transition(self):
        res = root_count(GradientCase(2.0, 0.5), 6.0, 1000)
        assert res["count"] == 1
        assert abs(res["roots"][0]) < 1e-8

    def test_three_roots_above_transition(self):
        res = root_count(GradientCase(2.0, 3.0), 6.0, 1000)
        assert res["count"] == 3
        r = res["roots"]
        assert abs(r[1]) < 1e-8
        assert np.isclose(r[2], -r[0], atol=1e-7)
        assert r[2] > 1.0
        # refined roots are actual zeros of h
        assert abs(h_fn(GradientCase(2.0, 3.0), r[2])) < 1e-6

    def test_grid_too_coarse_near_transition(self):
        # just above the transition the outer roots sit within three cells
        # of the middle one on a 1000-point grid
        with pytest.raises(GridTooCoarse):
            root_count(GradientCase(2.0, 0.911), 6.0, 1000, refine=False)

    def test_fine_grid_resolves(self):
        res = root_count(GradientCase(2.0, 0.95), 6.0, 20000, refine=False)
        assert res["count"] == 3

    def test_grid_floor(self):
        with pytest.raises(ValueError):
            root_count(GradientCase(2.0, 1.0), 6.0, 500)

    def test_scan_memory_is_bounded(self):
        # the whole-matrix scan held several (grid_n, 6001) float64 arrays,
        # about 4.5 GB at grid_n = 20000
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            res = root_count(GradientCase(2.0, 0.95), 6.0, 20000, refine=False)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if started:
                tracemalloc.stop()
        assert res["count"] == 3
        assert peak - base < 64 * 2 ** 20


class TestHScan:
    @pytest.mark.parametrize("grid_n", [1000, 1003])
    @pytest.mark.parametrize("gamma, beta", [(1.0, 0.001), (2.0, 0.91), (2.0, 3.0),
                                             (2.5, 50.0), (4.0, 100.0)])
    def test_bit_identical_to_whole_matrix(self, gamma, beta, grid_n):
        # 1003 is not a multiple of the block size: the last block is partial
        case = GradientCase(gamma, beta)
        ms = _scan_grid(beta, grid_n)
        assert np.array_equal(_h_scan(case, ms), _h_scan_whole_matrix(case, ms))

    @pytest.mark.parametrize("block", [1, 13, 2000])
    def test_block_size_does_not_change_bits(self, monkeypatch, block):
        case = GradientCase(2.0, 0.95)
        ms = _scan_grid(0.95, 1000)
        monkeypatch.setattr(selfconsistent, "SCAN_BLOCK", block)
        assert np.array_equal(_h_scan(case, ms), _h_scan_whole_matrix(case, ms))


class TestBetaC:
    def test_two_sided_bracket(self):
        b = beta_c(2.0, 1e-3)
        assert not b.supercritical
        val = float(b)
        assert root_count(GradientCase(2.0, val - 0.05), 6.0, 4000)["count"] == 1
        assert root_count(GradientCase(2.0, val + 0.05), 6.0, 4000)["count"] == 3

    def test_supercritical_shortcut(self):
        b = beta_c(4.0, 1e-3)
        assert b.supercritical
        assert float(b) == 0.0
        assert GAMMA_C == pytest.approx(2.0 * np.sqrt(3.0))

    def test_float_protocol(self):
        r = BetaCResult(1.25, False)
        assert float(r) == 1.25

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            beta_c(-1.0, 1e-3)
        with pytest.raises(ValueError):
            beta_c(2.0, 0.0)


class TestStationaryDensity:
    def test_normalized_with_consistent_mean(self):
        case = GradientCase(2.0, 3.0)
        res = root_count(case, 6.0, 1000)
        m = res["roots"][-1]
        grid = np.linspace(-7.0, 7.0, 4001)
        dens = stationary_density(case, m, grid)
        assert np.isclose(np.trapezoid(dens, grid), 1.0, atol=1e-8)
        assert np.isclose(np.trapezoid(grid * dens, grid), m, atol=1e-6)

    def test_symmetric_at_zero_mean(self):
        case = GradientCase(2.0, 3.0)
        grid = np.linspace(-7.0, 7.0, 4001)
        dens = stationary_density(case, 0.0, grid)
        assert np.allclose(dens, dens[::-1], atol=1e-12)

    def test_grid_must_cover_support(self):
        case = GradientCase(2.0, 3.0)
        with pytest.raises(QuadratureFailure):
            stationary_density(case, 1.0, np.linspace(-0.5, 0.5, 101))


class TestOuClassify:
    def test_dichotomy(self):
        u = ou_classify(2.0)
        assert u["kind"] == "unique"
        assert np.isclose(u["variance"], 0.25)
        c = ou_classify(1.0)
        assert c["kind"] == "continuum"
        assert np.isclose(c["variance"], 0.5)

    def test_invalid(self):
        with pytest.raises(ValueError):
            ou_classify(0.0)
