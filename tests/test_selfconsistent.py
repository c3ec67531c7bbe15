"""Tests for the scalar self-consistency analysis of the quartic gradient
case and the mean-field Ornstein-Uhlenbeck dichotomy."""

import math
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
from mvlevy.selfconsistent import (GAMMA_C, BetaCResult, GradientCase, _count_at,
                                   _moments, _pieces)


def _quad_reference(case, m, k=1):
    """(int (x - m)^k p, mass) by adaptive quadrature over h_fn's support,
    with the density's modes and m as break points; k = 1 gives h."""
    from scipy import integrate

    a, b, fmax = _pieces(case, m)
    lo, hi = a[0], b[-1]
    modes = np.roots([4.0, 0.0, -2.0 * case.beta, -case.gamma * m])
    pts = sorted({float(x.real) for x in modes if abs(x.imag) < 1e-9} | {m})
    pts = [x for x in pts if lo < x < hi] or None

    def quad(fn):
        return integrate.quad(lambda x: fn(x) * np.exp(case.exponent(x, m) - fmax),
                              lo, hi, points=pts, limit=1000, epsabs=1e-12,
                              epsrel=1e-12)[0]

    return quad(lambda x: (x - m) ** k), quad(lambda x: 1.0)


def _variance(beta):
    """Var_beta by the rule _count_at reads: the law at m = 0 is centred."""
    s2, mass = _moments(GradientCase(1.0, beta), 0.0, 2)
    return s2 / mass


def _m_max(beta):
    return max(6.0, 1.6 * np.sqrt(max(beta, 1.0)))


def _sign_count(gamma, beta):
    """Root count of h from the sign changes of one batched h_fn over a
    geometric grid of m > 0 that reaches past the outer roots, near
    +-sqrt(gamma/4 + beta/2): h is odd, so 0 is a root and each positive
    root has a negative twin.  It reads neither _count_at nor root_count.
    Its first point, 1e-3, lies below the positive root at beta_c + 2e-4."""
    m_max = max(6.0, 1.6 * np.sqrt(max(beta, 1.0)), np.sqrt(gamma))
    hs = h_fn(GradientCase(gamma, beta), np.geomspace(1e-3, m_max, 400))
    return 1 + 2 * int(np.count_nonzero(np.diff(np.sign(hs))))


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

    @pytest.mark.parametrize("gamma, beta", [(-1.0, 1.0), (np.inf, 1.0), (np.nan, 1.0),
                                             (2.0, np.inf), (2.0, np.nan)])
    def test_non_finite_or_negative(self, gamma, beta):
        with pytest.raises(ValueError, match="gamma" if beta == 1.0 else "beta"):
            GradientCase(gamma, beta)


class TestQuadrature:
    # beta = 50 is bimodal: at gamma = 0.5, m = -6 a rule of 8 panels per
    # side failed its own error check
    @pytest.mark.parametrize("beta", [0.001, 0.5, 0.91, 3.0, 50.0, 100.0])
    @pytest.mark.parametrize("gamma", [0.5, 2.0, 4.0])
    def test_h_fn_matches_adaptive_quadrature(self, gamma, beta):
        case = GradientCase(gamma, beta)
        for m in np.linspace(-6.0, 6.0, 25):
            h, mass = _quad_reference(case, m)
            assert abs(h_fn(case, m) - h) <= 1e-10 * mass, m

    @pytest.mark.parametrize("gamma, beta, m", [(2.0, 3.0, 1.2), (0.5, 50.0, -6.0),
                                                (4.0, 0.001, 0.3)])
    def test_stationary_density_matches_adaptive_quadrature(self, gamma, beta, m):
        case = GradientCase(gamma, beta)
        a, b, fmax = _pieces(case, m)
        grid = np.linspace(a[0], b[-1], 2001)
        want = np.exp(case.exponent(grid, m) - fmax) / _quad_reference(case, m)[1]
        assert np.allclose(stationary_density(case, m, grid), want, rtol=1e-10, atol=0)

    @pytest.mark.parametrize("beta", [1e3, 1e4, 1e5])
    @pytest.mark.parametrize("m", [0.0, 0.3, 5.0])
    def test_peaked_density_raises_or_agrees(self, beta, m):
        # peaks of width beta^-1/2 that the support grid and the panels may
        # not resolve: a value that comes back is right, else it raises
        case = GradientCase(2.0, beta)
        try:
            got = h_fn(case, m)
        except QuadratureFailure:
            return
        h, mass = _quad_reference(case, m)
        assert abs(got - h) <= 1e-8 * mass


    @pytest.mark.parametrize("gamma, beta, m", [
        (0.5, 100.0, -8.0), (0.5, 100.0, 8.0), (0.5, 100.0, 7.2), (0.5, 100.0, 7.5),
        (0.5, 100.0, 8.45), (2.0, 1e3, 0.0), (2.0, 1e3, 0.3), (2.0, 1e3, 5.0)])
    def test_separated_modes_integrate(self, gamma, beta, m):
        # two modes on one side of m (gamma = 0.5) or modes about beta^-1/2
        # wide (beta = 1e3): the support grid and the panels around m used
        # to miss them and raise.  At beta = 1e3 the exponent's terms reach
        # 5e5, so rounding them moves h by about 1e-10 of the mass
        case = GradientCase(gamma, beta)
        h, mass = _quad_reference(case, m)
        assert abs(h_fn(case, m) - h) <= 1e-9 * mass


class TestBatchedH:
    # the m-grid of the CLI's h_values.csv; (2, 1) and (0.5, 50) between
    # them have rows of one, two and three pieces
    MS = np.linspace(-6.0, 6.0, 241)
    CASES = [(2.0, 1.0), (0.5, 50.0)]

    def test_grid_has_every_piece_count_and_zero(self):
        counts = set()
        for gamma, beta in self.CASES:
            a, b, _ = _pieces(GradientCase(gamma, beta), self.MS)
            counts |= set((a < b).sum(axis=1).tolist())
        assert counts == {1, 2, 3}
        assert self.MS[120] == 0.0

    @pytest.mark.parametrize("gamma, beta", CASES)
    def test_row_alone_equals_row_in_batch(self, gamma, beta):
        case = GradientCase(gamma, beta)
        alone = np.array([h_fn(case, m) for m in self.MS])
        assert np.array_equal(alone.view(np.int64), h_fn(case, self.MS).view(np.int64))

    @pytest.mark.parametrize("block", [1, 5, 2000])
    def test_any_block_size_gives_the_same_bits(self, monkeypatch, block):
        case = GradientCase(0.5, 50.0)
        want = h_fn(case, self.MS)
        monkeypatch.setattr(selfconsistent, "SCAN_BLOCK", block)
        assert np.array_equal(want.view(np.int64), h_fn(case, self.MS).view(np.int64))

    @pytest.mark.parametrize("gamma, beta", CASES + [(0.5, 100.0)])
    def test_table_matches_adaptive_quadrature(self, gamma, beta):
        case = GradientCase(gamma, beta)
        for m, got in zip(self.MS, h_fn(case, self.MS)):
            h, mass = _quad_reference(case, m)
            assert abs(got - h) <= 1e-10 * mass, m

    def test_failing_row_is_named(self):
        # at beta = 1e4 rounding the exponent's terms moves h by more than
        # 1e-8 of the mass at every m; the first row fails first
        with pytest.raises(QuadratureFailure, match=r"too large at m = -6\.0$"):
            h_fn(GradientCase(2.0, 1e4), self.MS)


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

    def test_large_gamma_outer_roots_are_refined(self):
        # the scan that placed the roots before spread its nodes over
        # [-63, 63], put the outer sign change a cell off h_fn's root near
        # 50 and raised QuadratureFailure; h_fn raises from m ~ 75 on, so
        # the search must not probe there
        gamma, beta = 1e4, 1.0
        res = root_count(GradientCase(gamma, beta), 100.0, 1000)
        assert res["count"] == 3
        outer = math.sqrt(gamma / 4.0 + beta / 2.0)
        assert res["roots"][0] == pytest.approx(-outer, rel=1e-6)
        assert res["roots"][1] == 0.0
        assert res["roots"][2] == pytest.approx(outer, rel=1e-6)

    def test_search_probes_logarithmically(self, monkeypatch):
        # a full scan of the grid's positive half evaluates 500 rows
        calls = []
        h = selfconsistent.h_fn
        monkeypatch.setattr(selfconsistent, "h_fn",
                            lambda case, m: calls.append(m) or h(case, m))
        res = root_count(GradientCase(2.0, 1.0), 6.0, 1000, refine=False)
        assert res["count"] == 3
        assert 0 < len(calls) <= 2 * math.ceil(math.log2(1000))
        assert all(np.ndim(m) == 0 and 0.0 < m < 2.0 * res["roots"][-1] + 0.05
                   for m in calls)

    def test_count_one_probes_nothing(self, monkeypatch):
        monkeypatch.setattr(selfconsistent, "h_fn", None)
        assert root_count(GradientCase(2.0, 0.5), 6.0, 1000) == {"roots": [0.0], "count": 1}

    def test_root_beyond_range_is_not_counted(self):
        # the outer roots near +-7.1 lie outside [-6, 6]
        assert root_count(GradientCase(2.0, 100.0), 6.0, 1000)["roots"] == [0.0]

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
    # root_count's search against a sign scan of h_fn over every grid point
    # m > 0 in one batched call: the same cell and, interpolated in it
    # from the same h values, the same root
    def _assert_matches_grid_scan(self, gamma, beta, grid_n):
        case = GradientCase(gamma, beta)
        m_max = _m_max(beta)
        ms = np.linspace(-m_max, m_max, grid_n)[(grid_n + 1) // 2:]
        hs = h_fn(case, ms)
        got = root_count(case, m_max, grid_n, refine=False)["roots"]
        change = np.flatnonzero(np.diff(np.sign(hs)))
        assert len(got) == 1 + 2 * change.size
        if change.size:
            i, = change
            want = float(ms[i] - hs[i] * (ms[i + 1] - ms[i]) / (hs[i + 1] - hs[i]))
            assert got == [-want, 0.0, want]

    @pytest.mark.parametrize("grid_n", [1000, 1003])
    @pytest.mark.parametrize("gamma, beta", [(1.0, 0.001), (2.0, 0.91), (2.0, 3.0),
                                             (2.5, 50.0), (4.0, 100.0)])
    def test_matches_whole_matrix(self, gamma, beta, grid_n):
        # 1003 is odd: its middle point is not a positive grid point
        self._assert_matches_grid_scan(gamma, beta, grid_n)

    @pytest.mark.parametrize("block", [1, 13, 2000])
    def test_any_block_size_matches_whole_matrix(self, monkeypatch, block):
        monkeypatch.setattr(selfconsistent, "SCAN_BLOCK", block)
        self._assert_matches_grid_scan(2.0, 0.95, 1000)

    @pytest.mark.parametrize("m_max, grid_n", [(6.0, 1000), (6.0, 1003), (16.0, 1003)])
    def test_grid_is_odd_symmetric(self, monkeypatch, m_max, grid_n):
        # linspace(-16, 16, 1003) puts its middle point at -1.8e-15, not 0;
        # no grid's search probes its middle point, and every grid gives
        # the same refined roots, mirrored about an exact 0
        calls = []
        h = selfconsistent.h_fn
        monkeypatch.setattr(selfconsistent, "h_fn",
                            lambda case, m: calls.append(m) or h(case, m))
        roots = root_count(GradientCase(2.0, 3.0), m_max, grid_n)["roots"]
        half_cell = m_max / (grid_n - 1)
        assert min(calls) > 0.99 * half_cell
        ref = root_count(GradientCase(2.0, 3.0), 6.0, 1000)["roots"]
        assert roots[0] == -roots[2] and roots[1] == 0.0
        assert roots == pytest.approx(ref, rel=0, abs=1e-8)


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

    @pytest.mark.parametrize("gamma", [2.97, 3.0, 3.5, 4.0, 1e4])
    def test_supercritical_through_the_probe(self, gamma):
        # the count at beta = 1e-3 is what flags these: 2.97 and 3.0 lie
        # below the formula's threshold 2 sqrt(3), yet above
        # Gamma(1/4)/Gamma(3/4) ~ 2.96, where beta_c of the density is 0
        assert _count_at(gamma, 1e-3) == 3
        assert beta_c(gamma, 0.02) == BetaCResult(0.0, True)

    def test_float_protocol(self):
        r = BetaCResult(1.25, False)
        assert float(r) == 1.25

    def test_invalid_inputs(self):
        for gamma in (-1.0, 0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="gamma"):
                beta_c(gamma, 1e-3)
        for tol in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="tol"):
                beta_c(2.0, tol)

    @pytest.mark.parametrize("gamma, tol, value", [
        (1.0, 0.02, 2.3996576538085934), (1.5, 0.02, 1.5329671020507811),
        (2.0, 0.02, 0.9104147338867186), (2.5, 0.02, 0.4099314575195312),
        (2.0, 1e-3, 0.9107961997985838)])
    def test_pinned_values(self, gamma, tol, value):
        # the bisection's exact midpoints: a scan that moves any count it
        # takes moves these bits
        assert beta_c(gamma, tol).value == value


class TestVariance:
    def test_closed_form_at_zero_beta(self):
        # int x^2 exp(-x^4) / int exp(-x^4) = Gamma(3/4) / Gamma(1/4)
        want = math.gamma(0.75) / math.gamma(0.25)
        assert abs(_variance(0.0) - want) <= 1e-13 * want

    @pytest.mark.parametrize("beta", [-5.0, 0.5, 0.91, 3.0, 50.0, 100.0])
    def test_matches_adaptive_quadrature(self, beta):
        s2, mass = _quad_reference(GradientCase(1.0, beta), 0.0, k=2)
        assert abs(_variance(beta) - s2 / mass) <= 1e-10 * (s2 / mass)

    def test_increases_with_beta(self):
        # dVar/dbeta = Var(X^2) > 0: one crossing of gamma Var = 1, which is
        # what makes beta_c's bisection on the count valid
        betas = np.concatenate((np.linspace(-5.0, 100.0, 211),
                                np.linspace(0.3, 2.5, 221)))
        var = [_variance(b) for b in np.unique(betas)]
        assert np.all(np.diff(var) > 0.0)


class TestCountAt:
    # the outer roots sit near +-sqrt(gamma/4 + beta/2); a scan range set
    # from beta alone, max(6, 1.6 sqrt(beta)), missed them once that passed 6
    @pytest.mark.parametrize("beta", [0.001, 1.0, 10.0])
    @pytest.mark.parametrize("gamma", [150.0, 200.0, 500.0, 1e3, 1e4])
    def test_large_gamma_counts_three(self, gamma, beta):
        assert _count_at(gamma, beta) == 3

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 1.5, 2.0, 2.5, 2.9])
    def test_coarse_scan_counts_what_finer_grids_count(self, gamma):
        # just above the transition a 1000-point root_count raises
        # GridTooCoarse; a 4000-point grid (16000 where that is still too
        # coarse) separates the roots, and h_fn changes sign across the
        # positive one
        bc = beta_c(gamma, 1e-3).value
        betas = np.concatenate((np.linspace(bc - 0.01, bc + 0.02, 31),
                                np.linspace(bc - 0.001, bc + 0.002, 31)))
        coarse = []
        for beta in map(float, betas):
            case = GradientCase(gamma, beta)
            m_max = max(6.0, 1.6 * np.sqrt(max(beta, 1.0)), np.sqrt(gamma))
            try:
                root_count(case, m_max, 1000, refine=False)
                continue
            except GridTooCoarse:
                coarse.append(beta)
            try:
                roots = root_count(case, m_max, 4000)["roots"]
            except GridTooCoarse:
                roots = root_count(case, m_max, 16000)["roots"]
            lo, mid, hi = roots
            assert lo == -hi and mid == 0.0, beta
            assert h_fn(case, hi - 1e-6) > 0.0 > h_fn(case, hi + 1e-6), beta
        assert coarse, "no beta near beta_c where the 1000-point grid is too coarse"

    def test_matches_scan_count(self):
        # the sign of h'(0) against the sign changes of h_fn over m > 0, on a
        # (gamma, beta) grid whose betas cross beta_c, close by and far off
        for gamma in (0.3, 0.8, 1.3, 1.8, 2.3, 2.8, 3.3):
            betas = [1e-3, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0]
            if gamma < 2.9:
                bc = beta_c(gamma, 1e-6).value
                betas += [bc + d for d in (-0.05, -0.01, -1e-3, 2e-4, 1e-3, 0.01, 0.05)]
            for beta in betas:
                assert _count_at(gamma, beta) == _sign_count(gamma, beta), (gamma, beta)

    @pytest.mark.parametrize("gamma, beta", [(150.0, 1.0), (1e4, 1.0)])
    def test_outer_root_near_its_estimate(self, gamma, beta):
        roots = root_count(GradientCase(gamma, beta), np.sqrt(gamma), 1000,
                           refine=False)["roots"]
        assert len(roots) == 3
        assert roots[-1] == pytest.approx(np.sqrt(gamma / 4.0 + beta / 2.0), rel=0.01)


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
