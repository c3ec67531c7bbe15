"""Tests for empirical measures and the distances built on them.

The W1 oracle integrates |F_mu - F_nu| directly from the sorted union
support, independently of the quantile-coupling implementation.
"""

import csv
import math
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.stats import wasserstein_distance

from mvlevy import (
    EmpiricalMeasure,
    DimensionMismatch,
    EmptyMeasure,
    concentration,
    moment,
    w1,
    weighted_tv,
)
from mvlevy.measures import CSV_BLOCK, _w1_1d, _write_csv


def _w1_oracle_1d(mu, nu):
    """Integral of |F_mu(t) - F_nu(t)| over the real line, computed exactly
    on the union of atoms."""
    xs = np.concatenate([mu.points[:, 0], nu.points[:, 0]])
    order = np.argsort(xs)
    xs = xs[order]
    jumps = np.concatenate([mu.weights, -nu.weights])[order]
    cdf_diff = np.cumsum(jumps)
    return float(np.sum(np.abs(cdf_diff[:-1]) * np.diff(xs)))


def _random_measure(gen, n, d=1):
    pts = gen.normal(size=(n, d)) * gen.uniform(0.5, 3.0)
    w = gen.uniform(0.1, 1.0, size=n)
    return EmpiricalMeasure(pts, w / w.sum())


class TestEmpiricalMeasure:
    def test_validation(self):
        with pytest.raises(EmptyMeasure):
            EmpiricalMeasure(np.zeros((0, 1)), np.zeros(0))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([0.5, 0.4]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.5, -0.5]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.array([[np.inf]]), np.array([1.0]))
        with pytest.raises(ValueError):
            EmpiricalMeasure(np.zeros((2, 1)), np.array([1.0]))

    def test_dirac_and_shapes(self):
        d = EmpiricalMeasure.dirac(2.5)
        assert d.dim == 1 and d.size == 1
        assert d.points[0, 0] == 2.5
        d2 = EmpiricalMeasure.dirac([1.0, -1.0])
        assert d2.dim == 2

    def test_from_samples_1d(self):
        m = EmpiricalMeasure.from_samples([1.0, 2.0, 3.0])
        assert m.dim == 1 and m.size == 3
        assert np.allclose(m.weights, 1.0 / 3.0)

    def test_mean(self):
        m = EmpiricalMeasure(np.array([[0.0], [2.0]]), np.array([0.25, 0.75]))
        assert np.allclose(m.mean(), [1.5])

    def test_mixture(self):
        a = EmpiricalMeasure.dirac(0.0)
        b = EmpiricalMeasure.dirac(1.0)
        m = EmpiricalMeasure.mixture([a, b], [0.3, 0.7])
        assert np.isclose(m.weights.sum(), 1.0)
        assert np.allclose(m.mean(), [0.7])

    def test_shifted(self):
        m = _random_measure(np.random.default_rng(0), 20, d=2)
        s = m.shifted([1.0, -2.0])
        assert np.allclose(s.mean(), m.mean() + np.array([1.0, -2.0]))

    def test_csv_round_trip(self, tmp_path):
        gen = np.random.default_rng(3)
        m = _random_measure(gen, 37, d=3)
        path = tmp_path / "m.csv"
        m.to_csv(path)
        back = EmpiricalMeasure.from_csv(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    def test_header_only_csv_is_empty_measure(self, tmp_path):
        # a file with a header and no rows raised IndexError
        path = tmp_path / "m.csv"
        path.write_bytes(b"weight,x_1\r\n")
        with pytest.raises(EmptyMeasure):
            EmpiricalMeasure.from_csv(path)

    def test_one_row_csv_round_trip(self, tmp_path):
        m = EmpiricalMeasure.dirac([0.25, -3.0])
        m.to_csv(tmp_path / "m.csv")
        back = EmpiricalMeasure.from_csv(tmp_path / "m.csv")
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    @staticmethod
    def _assert_csv_writer_bytes(tmp_path, m):
        """m.to_csv writes what csv.writer writes from %.17g strings, and
        reads back bit for bit."""
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["weight"] + [f"x_{i+1}" for i in range(m.dim)])
            for wi, x in zip(m.weights, m.points):
                wr.writerow([f"{wi:.17g}"] + [f"{xi:.17g}" for xi in x])
        path = tmp_path / "m.csv"
        m.to_csv(path)
        assert path.read_bytes() == ref.read_bytes()
        back = EmpiricalMeasure.from_csv(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_bytes_match_csv_writer(self, tmp_path, d):
        # more rows than one write block, with signed zeros and wide exponents
        n = 9000
        gen = np.random.default_rng(4 + d)
        pts = gen.normal(size=(n, d)) * 10.0 ** gen.integers(-30, 30, size=(n, d))
        pts[:3, 0] = [-0.0, 0.0, 1.0]
        w = gen.uniform(0.1, 1.0, size=n)
        self._assert_csv_writer_bytes(tmp_path, EmpiricalMeasure(pts, w / w.sum()))

    @pytest.mark.parametrize("d", [1, 2])
    def test_uniform_csv_bytes_match_csv_writer(self, tmp_path, d):
        # the weight column of from_samples holds one value, written once
        gen = np.random.default_rng(40 + d)
        m = EmpiricalMeasure.from_samples(gen.normal(size=(9000, d)))
        assert np.all(m.weights == m.weights[0])
        self._assert_csv_writer_bytes(tmp_path, m)

    @staticmethod
    def _assert_row_format_bytes(tmp_path, header, data):
        """_write_csv writes the header, then each row through one %.17g
        row format."""
        row = ",".join(["%.17g"] * len(header)) + "\r\n"
        ref = ",".join(header) + "\r\n" + "".join(row % tuple(r) for r in data.tolist())
        path = tmp_path / "t.csv"
        _write_csv(path, header, data)
        assert path.read_bytes() == ref.encode()

    @pytest.mark.parametrize("n", [4096, 2 * 4096, 4096 + 7, 5])
    def test_block_format_matches_row_format(self, tmp_path, n):
        specials = [-0.0, 5e-324, 1e308, 1.0 / 3.0, -1e308, 0.0, -5e-324]
        gen = np.random.default_rng(n)
        data = gen.normal(size=(n, 3)) * 10.0 ** gen.integers(-300, 300, size=(n, 3))
        flat = data.ravel()
        flat[:len(specials)] = specials
        flat[-len(specials):] = specials
        self._assert_row_format_bytes(tmp_path, ["a", "b", "c"], data)

    @staticmethod
    def _constant_case(name):
        """A 9000 x 3 table of the named case, set in the middle column
        unless the name is about the whole table."""
        data = np.random.default_rng(9000).normal(size=(9000, 3))
        col = data[:, 1]
        if name == "negative zeros":
            col[:] = -0.0
        elif name == "signed zeros":  # equal as floats, printed apart
            col[:] = 0.0
            col[1::3] = -0.0
        elif name == "differs after one block":
            col[:] = 1.0 / 3.0
            col[4096] = np.nextafter(1.0 / 3.0, 1.0)
        elif name == "all constant":
            data[:] = [-0.0, 1.0 / 3.0, 5e-324]
        elif name == "no rows":
            data = data[:0]
        return data

    @pytest.mark.parametrize("name", ["negative zeros", "signed zeros",
                                      "differs after one block", "all constant",
                                      "no rows"])
    def test_constant_columns_match_row_format(self, tmp_path, name):
        self._assert_row_format_bytes(tmp_path, ["a", "b", "c"], self._constant_case(name))


def _assert_percent_g_bytes(tmp_path, data):
    """_write_csv writes every value of data (rows x columns) as "%.17g"."""
    header = [f"c{j}" for j in range(data.shape[1])]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    path = tmp_path / "t.csv"
    _write_csv(path, header, data)
    got = path.read_bytes().split(b"\r\n")
    ref = (",".join(header) + "\r\n" + "".join(row % tuple(r) for r in data.tolist())).encode()
    bad = [(g, r) for g, r in zip(got, ref.split(b"\r\n")) if g != r]
    assert not bad, bad[:5]
    assert path.read_bytes() == ref


def _halfway_values():
    """Doubles with exactly 18 significant digits, the last a 5: rounding
    them to 17 digits is a tie, which %.17g breaks to even."""
    gen = np.random.default_rng(61)
    out = []
    for digits, bits in ((16, 2), (15, 3), (14, 4), (13, 5), (12, 6)):
        whole = gen.integers(10 ** (digits - 1), 10 ** digits, 4000).astype(float)
        odd = 2 * gen.integers(0, 2 ** (bits - 1), 4000) + 1
        out.append(whole + odd / 2.0 ** bits)
    # odd m / 2^j = m 5^j / 10^j, with 18 digits for 10^17 <= m 5^j < 10^18
    for j in range(17, 24):
        m = gen.integers(-(-10 ** 17 // 5 ** j), 10 ** 18 // 5 ** j, 4000)
        out.append((m | 1) / 2.0 ** j)
    v = np.concatenate(out)
    keep = []
    for x in v.tolist():
        t = Decimal(x).as_tuple()
        if len(t.digits) == 18 and t.digits[-1] == 5:
            keep.append(x)
    return np.array(keep)


class TestCsvFormatter:
    """_write_csv against "%.17g" byte for byte: its exact fast path
    (1e-4 <= |v| < 1e16) and the values it leaves to "%.17g"."""

    def test_random_doubles_of_every_exponent(self, tmp_path):
        # random 64-bit patterns: every exponent, subnormals included
        gen = np.random.default_rng(67)
        v = gen.integers(-2 ** 63, 2 ** 63, 10 ** 6, dtype=np.int64, endpoint=False).view(float)
        v = v[np.isfinite(v)]
        exps = np.frexp(v)[1]
        assert exps.min() < -1000 and exps.max() > 1000
        _assert_percent_g_bytes(tmp_path, v[:, None])

    def test_random_decimal_magnitudes(self, tmp_path):
        # the fast path's range, with some of every decade on both sides
        gen = np.random.default_rng(71)
        v = gen.uniform(1.0, 10.0, 400000) * 10.0 ** gen.integers(-6, 18, 400000)
        v *= gen.choice([-1.0, 1.0], v.size)
        _assert_percent_g_bytes(tmp_path, v.reshape(-1, 2))

    def test_powers_of_ten_and_neighbours(self, tmp_path):
        p = np.array([float(f"1e{j}") for j in range(-5, 18)])
        v = [p, -p]
        for direction in (np.inf, -np.inf):
            q = p
            for _ in range(3):
                q = np.nextafter(q, direction)
                v += [q, -q]
        _assert_percent_g_bytes(tmp_path, np.concatenate(v)[:, None])

    def test_fast_range_bounds(self, tmp_path):
        bounds = []
        for b in (1e-4, 1e16):
            bounds += [b, np.nextafter(b, 0.0), np.nextafter(b, np.inf)]
        v = np.array(bounds + [9999999999999998.0, 0.0001000000000000001, 99.999999999999986])
        _assert_percent_g_bytes(tmp_path, np.concatenate([v, -v])[:, None])

    def test_exact_halfway_products(self, tmp_path):
        v = _halfway_values()
        assert v.size > 5000 and (v < 1e-4).sum() < (v < 1).sum() > 1000
        # the tie goes up (an odd 17th digit) and down
        odd = [Decimal(x).as_tuple().digits[16] % 2 for x in v.tolist()]
        assert 0 < sum(odd) < v.size
        _assert_percent_g_bytes(tmp_path, np.concatenate([v, -v])[:, None])

    def test_signed_zeros_subnormals_and_non_finite(self, tmp_path):
        tiny = np.nextafter(0.0, 1.0)
        v = np.array([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1e-300, 1.7976931348623157e308, np.inf, -np.inf, np.nan, 1.0, -1.0])
        _assert_percent_g_bytes(tmp_path, np.tile(v, 300)[:, None])

    @pytest.mark.parametrize("varying", [0, 1, 2])
    def test_tables_with_varying_columns(self, tmp_path, varying):
        # constant columns around the varying ones, over several blocks
        n = 2 * CSV_BLOCK + 3
        gen = np.random.default_rng(73 + varying)
        data = np.empty((n, 4))
        data[:] = [1.0 / 3.0, -0.0, 2.5e-7, 12345.678]
        for j in (1, 3)[:varying]:
            data[:, j] = gen.normal(size=n) * 10.0 ** gen.integers(-5, 17, n)
        _assert_percent_g_bytes(tmp_path, data)

    # tracemalloc peaks of the row-at-a-time writer this replaced, on the
    # same tables: 474 KB and 577 KB (numpy 2.4, Python 3.11)
    @pytest.mark.parametrize("weights, bound_kb", [("uniform", 474), ("varying", 577)])
    def test_peak_memory(self, tmp_path, weights, bound_kb):
        gen = np.random.default_rng(79)
        n = 10 ** 5
        w = np.full(n, 1.0 / n) if weights == "uniform" else gen.random(n)
        data = np.column_stack([w, gen.normal(size=n)])
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", ["weight", "x_1"], data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_kb * 1024


class TestMoment:
    def test_against_direct_sum(self):
        gen = np.random.default_rng(5)
        for d in (1, 2, 3):
            m = _random_measure(gen, 50, d=d)
            for p in (0.5, 1.0, 1.7, 2.0):
                direct = sum(
                    wi * np.linalg.norm(xi) ** p
                    for wi, xi in zip(m.weights, m.points)
                )
                assert np.isclose(moment(m, p), direct, rtol=1e-12)

    def test_centered(self):
        m = EmpiricalMeasure(np.array([[1.0], [3.0]]), np.array([0.5, 0.5]))
        assert np.isclose(moment(m, 2.0, center=2.0), 1.0)

    def test_invalid_p(self):
        m = EmpiricalMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            moment(m, 0.0)


class TestW1:
    def test_against_cdf_oracle(self):
        gen = np.random.default_rng(11)
        for _ in range(200):
            n1, n2 = gen.integers(1, 7, size=2)
            mu = _random_measure(gen, int(n1))
            nu = _random_measure(gen, int(n2))
            assert np.isclose(w1(mu, nu), _w1_oracle_1d(mu, nu), atol=1e-12)

    def test_uniform_fast_path_matches_oracle(self):
        gen = np.random.default_rng(13)
        for _ in range(30):
            mu = EmpiricalMeasure.from_samples(gen.normal(size=40))
            nu = EmpiricalMeasure.from_samples(gen.normal(size=40) + 0.5)
            assert np.isclose(w1(mu, nu), _w1_oracle_1d(mu, nu), atol=1e-12)

    def test_metric_axioms(self):
        gen = np.random.default_rng(17)
        for _ in range(100):
            a = _random_measure(gen, int(gen.integers(2, 10)))
            b = _random_measure(gen, int(gen.integers(2, 10)))
            c = _random_measure(gen, int(gen.integers(2, 10)))
            dab, dba = w1(a, b), w1(b, a)
            assert np.isclose(dab, dba, atol=1e-12)
            assert dab >= 0
            assert w1(a, b) <= w1(a, c) + w1(c, b) + 1e-12
        m = _random_measure(gen, 6)
        assert w1(m, m) == 0.0

    def test_dirac_pair(self):
        a = EmpiricalMeasure.dirac(-1.0)
        b = EmpiricalMeasure.dirac(2.5)
        assert np.isclose(w1(a, b), 3.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            w1(EmpiricalMeasure.dirac(0.0), EmpiricalMeasure.dirac([0.0, 0.0]))

    def test_sliced_translation_bounds(self):
        # sliced W1 of mu vs mu shifted by c is E|u.c| <= |c|, and it is
        # bounded below by (a positive fraction of) |c| for 64 directions
        gen = np.random.default_rng(19)
        mu = _random_measure(gen, 100, d=2)
        c = np.array([0.6, -0.8])
        val = w1(mu, mu.shifted(c))
        assert val <= 1.0 + 1e-10
        assert val >= 0.5  # E|u.c| = 2/pi for unit c in d = 2, minus noise

    def test_sliced_deterministic(self):
        gen = np.random.default_rng(23)
        mu = _random_measure(gen, 50, d=3)
        nu = _random_measure(gen, 60, d=3)
        assert w1(mu, nu) == w1(mu, nu)


def _w1_mergesort_reference(x, wx, y, wy):
    """_w1_1d's CDF rule with the merged grid sorted stably."""
    grid = np.sort(np.concatenate([x, y]), kind="mergesort")
    cdfs = []
    for v, w in ((x, wx), (y, wy)):
        order = np.argsort(v)
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        cdfs.append(cum[v[order].searchsorted(grid[:-1], "right")] / cum[-1])
    return float(np.abs(cdfs[0] - cdfs[1]) @ np.diff(grid))


class TestW1GridSort:
    def test_equals_mergesort_reference(self):
        # the merged grid's order among equal values (ties, -0.0 beside
        # 0.0) is the only thing the sort kind can change; W1 does not move
        gen = np.random.default_rng(29)
        values = np.array([-2.0, -0.5, -0.0, 0.0, 0.5, 1.0])
        # one atom takes the Dirac form (see test_dirac_against_large_cloud)
        for n1, n2 in ((2, 1000), (7, 5), (300, 301), (64, 64)):
            x, y = gen.choice(values, n1), gen.choice(values, n2) + gen.choice([0.0, 0.25], n2)
            wx, wy = gen.random(n1) + 0.1, gen.random(n2) + 0.1
            assert _w1_1d(x, wx, y, wy) == _w1_mergesort_reference(x, wx, y, wy)

    def test_dirac_against_large_cloud(self):
        # W1(nu, delta_a) = sum_i w_i |y_i - a| / sum_i w_i: against that sum
        # in exact arithmetic over the rounded terms (math.fsum), within the
        # rounding of n subtractions, products and additions
        gen = np.random.default_rng(31)
        y = np.round(gen.standard_normal(10 ** 5), 2)
        y[::7] = -0.0
        wy = np.full(y.size, 1e-5)
        for a in (0.0, 0.37):
            got = _w1_1d(np.array([a]), np.ones(1), y, wy)
            ref = math.fsum(abs(v - a) * w for v, w in zip(y.tolist(), wy.tolist())) / math.fsum(wy)
            assert abs(got - ref) <= (y.size + 2) * 2.0 ** -53 * ref
        # two atoms still take the CDF rule: the sort kind leaves it alone
        args = (np.array([0.0, -0.0]), np.array([0.5, 0.5]), y, wy)
        assert _w1_1d(*args) == _w1_mergesort_reference(*args)


def _scipy_close(x, wx, y, wy):
    ref = wasserstein_distance(x, y, wx, wy)
    got = _w1_1d(x, wx / wx.sum(), y, wy / wy.sum())
    assert abs(got - ref) <= 1e-12 * ref, (got, ref)


class TestW1AgainstScipy:
    """The weighted 1-d path against scipy.stats.wasserstein_distance."""

    def test_random_unequal_sizes(self):
        gen = np.random.default_rng(29)
        for _ in range(200):
            n1, n2 = gen.integers(1, 300, size=2)
            n2 += n1 == n2
            x = gen.normal(size=n1) * gen.uniform(0.1, 10.0)
            y = gen.standard_cauchy(size=n2)
            _scipy_close(x, gen.uniform(0.1, 1.0, n1), y, gen.uniform(0.1, 1.0, n2))

    def test_dirac_against_cloud(self):
        gen = np.random.default_rng(31)
        y = gen.normal(size=1000)
        for a in (-3.0, 0.0, float(y[17]), 2.5):
            _scipy_close(np.array([a]), np.array([1.0]), y, gen.uniform(0.1, 1.0, 1000))

    def test_ties(self):
        gen = np.random.default_rng(37)
        for _ in range(50):
            x = gen.integers(-5, 6, size=200).astype(float)
            y = gen.integers(-3, 8, size=150).astype(float)
            _scipy_close(x, gen.uniform(0.1, 1.0, 200), y, gen.uniform(0.1, 1.0, 150))

    def test_zero_weight_atoms(self):
        gen = np.random.default_rng(41)
        for _ in range(50):
            x, y = gen.normal(size=80), gen.normal(size=80) + 0.3
            wx, wy = gen.uniform(0.1, 1.0, 80), gen.uniform(0.1, 1.0, 80)
            wx[gen.uniform(size=80) < 0.3] = 0.0
            wy[:40] = 0.0
            wx[0] = 1.0
            _scipy_close(x, wx, y, wy)

    def test_large_clouds(self):
        gen = np.random.default_rng(43)
        n = 10 ** 5
        _scipy_close(gen.normal(size=n), gen.uniform(0.1, 1.0, n),
                     gen.normal(0.2, 1.5, size=n // 3), gen.uniform(0.1, 1.0, n // 3))


_coord = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _weighted_clouds(draw, points=_coord, min_size=1, dim=1):
    """A measure with non-uniform weights, so w1 takes the weighted path;
    integer weights give zero-weight atoms and exact ties in mass."""
    n = draw(st.integers(min_size, 12))
    pts = draw(st.lists(points, min_size=n * dim, max_size=n * dim))
    w = np.array(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)), dtype=float)
    assume(w.sum() > 0 and np.ptp(w) > 0)
    return EmpiricalMeasure(np.reshape(pts, (n, dim)), w / w.sum())


_props = settings(derandomize=True, max_examples=150, deadline=None)


def _scale(mu):
    return 1.0 + np.abs(mu.points).max()


class TestW1WeightedProperties:
    @_props
    @given(_weighted_clouds(), _weighted_clouds())
    def test_symmetric(self, mu, nu):
        assert w1(mu, nu) == w1(nu, mu)

    @_props
    @given(_weighted_clouds())
    def test_zero_on_the_diagonal(self, mu):
        assert w1(mu, mu) == 0.0

    @_props
    @given(_weighted_clouds(), _weighted_clouds(), st.floats(-1e3, 1e3))
    def test_translation_invariant(self, mu, nu, c):
        tol = 1e-11 * (_scale(mu) + _scale(nu) + abs(c))
        assert w1(mu.shifted(c), nu.shifted(c)) == pytest.approx(w1(mu, nu), abs=tol)

    @_props
    @given(_weighted_clouds(), _weighted_clouds(),
           st.floats(-10.0, 10.0).filter(lambda c: abs(c) > 1e-3))
    def test_scales_with_absolute_factor(self, mu, nu, c):
        scaled = w1(EmpiricalMeasure(c * mu.points, mu.weights),
                    EmpiricalMeasure(c * nu.points, nu.weights))
        tol = 1e-11 * abs(c) * (_scale(mu) + _scale(nu))
        assert scaled == pytest.approx(abs(c) * w1(mu, nu), abs=tol)

    @_props
    @given(_weighted_clouds(), _weighted_clouds(), _weighted_clouds())
    def test_triangle_inequality(self, a, b, c):
        tol = 1e-11 * (_scale(a) + _scale(b) + _scale(c))
        assert w1(a, c) <= w1(a, b) + w1(b, c) + tol

    @_props
    @given(_weighted_clouds(dim=2), _weighted_clouds(dim=2), _weighted_clouds(dim=2))
    def test_sliced_triangle_inequality(self, a, b, c):
        # each fixed direction gives a 1-d W1, so their mean obeys the triangle
        # inequality too
        tol = 1e-11 * (_scale(a) + _scale(b) + _scale(c))
        assert w1(a, c) <= w1(a, b) + w1(b, c) + tol

    @_props
    @given(_weighted_clouds(points=st.just(0.0), min_size=2), _coord, _coord)
    def test_diracs_are_their_distance(self, atoms, a, b):
        # delta_a and delta_b as several atoms of unequal mass at one point
        assert w1(atoms.shifted(a), atoms.shifted(b)) == pytest.approx(
            abs(a - b), rel=1e-12)


class TestWeightedTV:
    def test_disjoint_atoms_closed_form(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.4, 0.6]))
        nu = EmpiricalMeasure(np.array([[2.0], [-1.0]]), np.array([0.7, 0.3]))
        beta0 = 1.5

        def U(x):
            return (1.0 + x * x) ** (beta0 / 2.0)

        expect = (0.4 * U(0.0) + 0.6 * U(1.0)
                  + 0.7 * U(2.0) + 0.3 * U(-1.0))
        assert np.isclose(weighted_tv(mu, nu, beta0), expect, rtol=1e-12)

    def test_shared_atom(self):
        mu = EmpiricalMeasure(np.array([[0.0], [1.0]]), np.array([0.5, 0.5]))
        nu = EmpiricalMeasure(np.array([[0.0], [2.0]]), np.array([0.2, 0.8]))
        beta0 = 1.0

        def U(x):
            return (1.0 + x * x) ** 0.5

        expect = abs(0.5 - 0.2) * U(0.0) + 0.5 * U(1.0) + 0.8 * U(2.0)
        assert np.isclose(weighted_tv(mu, nu, beta0), expect, rtol=1e-12)

    def test_identical_measures_zero(self):
        gen = np.random.default_rng(29)
        m = _random_measure(gen, 30, d=2)
        assert weighted_tv(m, m, 1.2) == 0.0

    def test_binned_estimator_close_laws(self):
        # two large clouds from the same law: binned estimate should be small,
        # and far-apart laws should give a much larger value
        gen = np.random.default_rng(31)
        a = EmpiricalMeasure.from_samples(gen.normal(size=20000))
        b = EmpiricalMeasure.from_samples(gen.normal(size=20000))
        c = EmpiricalMeasure.from_samples(gen.normal(size=20000) + 5.0)
        near = weighted_tv(a, b, 1.0)
        far = weighted_tv(a, c, 1.0)
        assert near < 0.2
        assert far > 1.5

    def test_invalid_beta0(self):
        m = EmpiricalMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            weighted_tv(m, m, 0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            weighted_tv(EmpiricalMeasure.dirac(0.0), EmpiricalMeasure.dirac([0.0, 0.0]), 1.0)

    def test_binned_estimator_needs_d_at_most_3(self):
        # more than 4096 distinct atoms take the binned estimator
        gen = np.random.default_rng(37)
        a = EmpiricalMeasure.from_samples(gen.normal(size=(2500, 4)))
        b = EmpiricalMeasure.from_samples(gen.normal(size=(2500, 4)))
        with pytest.raises(DimensionMismatch, match="d <= 3"):
            weighted_tv(a, b, 1.0)


class TestConcentration:
    def test_counts_mass_outside_ball(self):
        m = EmpiricalMeasure(
            np.array([[0.0], [1.0], [3.0]]), np.array([0.2, 0.3, 0.5])
        )
        assert np.isclose(concentration(m, 0.0, 2.0), 0.5)
        assert np.isclose(concentration(m, 0.0, 0.5), 0.8)
        assert np.isclose(concentration(m, 3.0, 1.5), 0.5)

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            concentration(EmpiricalMeasure.dirac(0.0), 0.0, 0.0)
