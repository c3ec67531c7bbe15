"""Weighted point clouds and the distances used to monitor convergence.

EmpiricalMeasure is the single container for input laws, occupation
measures, and fixed-point iterates.  Distances: exact 1-d Wasserstein-1 via
the quantile coupling, sliced W1 for d >= 2, and a binned weighted total
variation estimator with weight U(x) = (1 + |x|^2)^{beta0/2}.
"""

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMeasure
from . import rng as _rng

SLICE_COUNT = 64
SLICE_SEED = 987654321


def _write_csv(path, header, rows):
    """Write header and rows, a table of numbers, to path: every value %.17g
    (exact round trip), in csv.writer's default dialect.  Rows are
    formatted a block at a time, so the text in memory stays small.

    A column whose values all have the first row's 64-bit pattern (say the
    weight column of a uniform measure) is formatted once, into the row
    template.  Columns are compared by bits, not by value, because -0.0 and
    0.0 are equal but print differently."""
    data = np.reshape(np.asarray(rows, dtype=float), (-1, len(header)))
    first = data[:1]
    same = (data.view(np.int64) == first.view(np.int64)).all(axis=0) & (len(data) > 0)
    row = ",".join("%.17g" % first[0, j] if s else "%.17g"
                   for j, s in enumerate(same)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for i in range(0, len(data), 4096):
            block = data[i:i + 4096, ~same]
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


@dataclass(frozen=True)
class EmpiricalMeasure:
    """Probability measure sum_i w_i delta_{x_i} with w summing to one."""

    points: np.ndarray  # (n, d)
    weights: np.ndarray  # (n,)

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        w = np.asarray(self.weights, dtype=float)
        if pts.shape[0] == 0:
            raise EmptyMeasure("measure needs at least one point")
        if w.shape != (pts.shape[0],):
            raise ValueError("weights must match point count")
        if not np.all(np.isfinite(pts)) or not np.all(np.isfinite(w)):
            raise ValueError("points and weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if abs(w.sum() - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {w.sum()}, expected 1")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self):
        return self.points.shape[1]

    @property
    def size(self):
        return self.points.shape[0]

    @staticmethod
    def dirac(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return EmpiricalMeasure(x[None, :], np.array([1.0]))

    @staticmethod
    def from_samples(samples):
        pts = np.atleast_2d(np.asarray(samples, dtype=float))
        if pts.shape[0] == 1 and pts.shape[1] > 1 and np.ndim(samples) == 1:
            pts = pts.T
        n = pts.shape[0]
        return EmpiricalMeasure(pts, np.full(n, 1.0 / n))

    @staticmethod
    def mixture(measures, coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        pts = np.vstack([m.points for m in measures])
        w = np.concatenate([c * m.weights for m, c in zip(measures, coeffs)])
        return EmpiricalMeasure(pts, w / w.sum())

    def mean(self):
        return self.weights @ self.points

    def shifted(self, c):
        c = np.atleast_1d(np.asarray(c, dtype=float))
        return EmpiricalMeasure(self.points + c, self.weights)

    def to_csv(self, path):
        """Write a weight column and one column per coordinate (see _write_csv)."""
        _write_csv(path, ["weight"] + [f"x_{i+1}" for i in range(self.dim)],
                   np.column_stack([self.weights, self.points]))

    @staticmethod
    def from_csv(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        data = np.array([[float(v) for v in row] for row in rows[1:]])
        return EmpiricalMeasure(data[:, 1:], data[:, 0])


def moment(mu, p, center=None):
    """mu(|. - center|^p), center defaulting to the origin."""
    if p <= 0:
        raise ValueError("p must be positive")
    pts = mu.points
    if center is not None:
        pts = pts - np.atleast_1d(np.asarray(center, dtype=float))
    return float(mu.weights @ np.linalg.norm(pts, axis=1) ** p)


def _w1_1d(x, wx, y, wy):
    if len(x) == len(y) and np.ptp(wx) == 0.0 and np.ptp(wy) == 0.0:
        # equal-size uniform clouds: quantile coupling is a sorted matching
        return float(np.mean(np.abs(np.sort(x) - np.sort(y))))
    # otherwise scipy's CDF rule: integrate |F_x - F_y| over the gaps of the
    # merged support, each CDF divided by its cloud's total mass
    grid = np.concatenate([x, y])
    grid.sort()
    cdfs = []
    for v, w in ((x, wx), (y, wy)):
        order = np.argsort(v)
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        cdfs.append(cum[v[order].searchsorted(grid[:-1], "right")] / cum[-1])
    return float(np.abs(cdfs[0] - cdfs[1]) @ np.diff(grid))


def w1(mu, nu):
    """Wasserstein-1 distance; exact quantile coupling in d = 1, sliced
    average over fixed random projections for d >= 2."""
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    if mu.dim == 1:
        return _w1_1d(mu.points[:, 0], mu.weights, nu.points[:, 0], nu.weights)
    gen = _rng.stream(SLICE_SEED)
    dirs = gen.standard_normal((SLICE_COUNT, mu.dim))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    vals = [_w1_1d(mu.points @ u, mu.weights, nu.points @ u, nu.weights) for u in dirs]
    return float(np.mean(vals))


def _weight_fn(x, beta0):
    return (1.0 + np.sum(np.atleast_2d(x) ** 2, axis=-1)) ** (beta0 / 2.0)


def weighted_tv(mu, nu, beta0):
    """Weighted total variation estimate with weight U = (1+|x|^2)^{beta0/2}.

    Exact when the union support has at most 4096 distinct atoms; otherwise
    a binned estimator with Freedman-Diaconis widths (d <= 3 only).
    """
    if beta0 <= 0:
        raise ValueError("beta0 must be positive")
    if mu.dim != nu.dim:
        raise DimensionMismatch(f"dims {mu.dim} vs {nu.dim}")
    allpts = np.vstack([mu.points, nu.points])
    uniq, inv = np.unique(allpts, axis=0, return_inverse=True)
    if uniq.shape[0] <= 4096:
        p = np.zeros(uniq.shape[0])
        q = np.zeros(uniq.shape[0])
        np.add.at(p, inv[: mu.size], mu.weights)
        np.add.at(q, inv[mu.size:], nu.weights)
        return float(np.sum(np.abs(p - q) * _weight_fn(uniq, beta0)))
    if mu.dim > 3:
        raise DimensionMismatch("binned weighted TV supports d <= 3 only")
    edges = []
    for ax in range(mu.dim):
        col = allpts[:, ax]
        iqr = np.subtract(*np.percentile(col, [75, 25]))
        width = 2.0 * iqr / len(col) ** (1.0 / 3.0) if iqr > 0 else 1.0
        lo, hi = col.min(), col.max() + 1e-12
        n_bins = max(1, int(math.ceil((hi - lo) / width)))
        edges.append(np.linspace(lo, hi, n_bins + 1))
    hp, _ = np.histogramdd(mu.points, bins=edges, weights=mu.weights)
    hq, _ = np.histogramdd(nu.points, bins=edges, weights=nu.weights)
    centers = np.meshgrid(*[(e[:-1] + e[1:]) / 2.0 for e in edges], indexing="ij")
    ctr = np.stack([c.ravel() for c in centers], axis=-1)
    return float(np.sum(np.abs(hp - hq).ravel() * _weight_fn(ctr, beta0)))


def concentration(mu, y, r):
    """Mass at distance >= r from y."""
    if r <= 0:
        raise ValueError("r must be positive")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    dist = np.linalg.norm(mu.points - y, axis=1)
    return float(mu.weights[dist >= r].sum())
