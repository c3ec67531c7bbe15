"""Tests for empirical measures and the distances built on them.

The W1 oracle integrates |F_mu - F_nu| directly from the sorted union
support, independently of the quantile-coupling implementation.
"""

import csv

import numpy as np
import pytest

from mvlevy import (
    EmpiricalMeasure,
    DimensionMismatch,
    EmptyMeasure,
    concentration,
    moment,
    w1,
    weighted_tv,
)


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

    @pytest.mark.parametrize("d", [1, 2])
    def test_csv_bytes_match_csv_writer(self, tmp_path, d):
        # more rows than one write block, with signed zeros and wide exponents
        n = 9000
        gen = np.random.default_rng(4 + d)
        pts = gen.normal(size=(n, d)) * 10.0 ** gen.integers(-30, 30, size=(n, d))
        pts[:3, 0] = [-0.0, 0.0, 1.0]
        w = gen.uniform(0.1, 1.0, size=n)
        m = EmpiricalMeasure(pts, w / w.sum())
        ref = tmp_path / "ref.csv"
        with open(ref, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["weight"] + [f"x_{i+1}" for i in range(d)])
            for wi, x in zip(m.weights, m.points):
                wr.writerow([f"{wi:.17g}"] + [f"{xi:.17g}" for xi in x])
        path = tmp_path / "m.csv"
        m.to_csv(path)
        assert path.read_bytes() == ref.read_bytes()
        back = EmpiricalMeasure.from_csv(path)
        assert np.array_equal(back.points, m.points)
        assert np.array_equal(back.weights, m.weights)


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
        near = weighted_tv(a, b, 1.0, max_exact=100)
        far = weighted_tv(a, c, 1.0, max_exact=100)
        assert near < 0.2
        assert far > 1.5

    def test_invalid_beta0(self):
        m = EmpiricalMeasure.dirac(0.0)
        with pytest.raises(ValueError):
            weighted_tv(m, m, 0.0)


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
