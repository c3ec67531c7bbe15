"""Weighted point clouds and the distances used to monitor convergence.

EmpiricalMeasure is the single container for input laws, occupation
measures, and fixed-point iterates.  Distances: exact 1-d Wasserstein-1 via
the quantile coupling, sliced W1 for d >= 2, and a binned weighted total
variation estimator with weight U(x) = (1 + |x|^2)^{beta0/2}.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyMeasure
from . import rng as _rng

SLICE_COUNT = 64
SLICE_SEED = 987654321


# _write_csv lays each row out in a buffer of 8-byte words: the text that
# is the same in every row, NUL-padded to whole words, and for each other
# column a slot of 4 words with one value's %.17g text.  Deleting the NUL
# bytes from the buffer leaves the rows; a slot holds few runs of NULs,
# which keeps that deletion fast.  With E = floor(log10|v|), the bytes of
# a slot are:
#   0      the sign, "-" or NUL
#   1-5    for E < 0 the lead "0.000" cut to 1 - E characters, else NUL
#   6      the leading digit
#   7      "." when E = 0 and a fraction follows, else NUL
#   8-24   the other 16 digits, the trailing zeros of the fraction NUL; for
#          E >= 1, "." after the first E of them when a fraction follows
#   25-31  NUL
CSV_BLOCK = 2048  # rows formatted at a time


def _least_power_of_ten(e):
    """The least double >= 10^e, for -22 <= e <= 22."""
    t = float(f"1e{e}")
    num, den = t.as_integer_ratio()
    return math.nextafter(t, math.inf) if e < 0 and num * 10 ** -e < den else t


def _binades():
    """For the binades [2^p, 2^(p + 1)) that meet [1e-4, 1e16), from
    p = -14: E + 4 at 2^p, E = floor(log10 2^p), and the least double
    >= 10^(E + 1), or inf when that power of ten lies above the binade."""
    e4, ten = [], []
    for p in range(-14, 54):
        # the largest e with 10^e <= 2^p, compared in integers
        e = math.floor(p * math.log10(2.0)) + 1
        while 10 ** max(e, 0) * 2 ** max(-p, 0) > 2 ** max(p, 0) * 10 ** max(-e, 0):
            e -= 1
        t = _least_power_of_ten(e + 1)
        e4.append(e + 4)
        ten.append(t if t < 2.0 ** (p + 1) else math.inf)
    return np.array(e4, np.intp), np.array(ten)


def _veltkamp(x):
    """(hi, lo) with x = hi + lo and hi, lo of at most 26 significant bits."""
    c = x * 134217729.0  # 2^27 + 1
    hi = c - (c - x)
    return hi, x - hi


# The tables below are built by assignment alone: the first call of a
# ufunc loop maps its code into memory, and these builds would otherwise
# raise a run's peak memory by a few hundred KB before any CSV is written.

def _group_words():
    """For each 4-digit group 0000..9999 a word with its digits in bytes
    0-3 and its count of trailing zeros (4 for 0000) in byte 4."""
    t = np.zeros((10, 10, 10, 10, 8), np.uint8)
    chars = np.frombuffer(b"0123456789", np.uint8)
    for j in range(4):
        t[..., j] = chars.reshape((10,) + (1,) * (3 - j))  # digit j on axis j
    for tz in range(1, 5):
        t[(slice(None),) * (4 - tz) + (0,) * tz + (4,)] = tz
    return t.view(np.uint64).reshape(10000)


def _slot_keys():
    """For the key 20 (kept digits) + E + 4, a (7, 360) array of words:
    word 0 of the slot without the sign and the leading digit; the masks
    A0, A1 and B0, B1 of the kept digits of bytes 8-23 before and after
    the "." of E >= 1 (A all of them for E <= 0); and the words 1 and 2
    that hold that "."."""
    t = np.zeros((18, 20, 7, 8), np.uint8)
    for kept in range(18):
        digits = max(kept - 1, 0)  # kept digits among bytes 8-23
        for e in range(-4, 16):
            lead, a, b, dot = t[kept, e + 4, 0], *t[kept, e + 4, 1:].reshape(3, 16)
            if e < 0:
                lead[1:2 - e] = np.frombuffer(b"0.000"[:1 - e], np.uint8)
            elif e == 0 and kept > 1:
                lead[7] = ord(".")
            a[:digits if e <= 0 else min(digits, e)] = 255
            if e >= 1:
                b[e:digits] = 255
                if kept > e + 1:
                    dot[e] = ord(".")
    return t.view(np.uint64).reshape(360, 7).T.copy()


_BINADE_E, _BINADE_TEN = _binades()
_TEN_MIN = _least_power_of_ten(-4)
_SCALE = 10.0 ** (16 - np.arange(-4, 16))  # 10^(16 - E), exact doubles
_SCALE_HI = _veltkamp(_SCALE)[0]
_GROUPS = _group_words()
_KEYS = _slot_keys()


def _digits(a):
    """(E + 4, the 17 significant digits as an integer) of each a with
    1e-4 <= a < 1e16, E = floor(log10 a).

    %.17g writes a rounded to 17 significant digits, and this computes
    them exactly.  E comes from the binary exponent and one comparison.
    The product a 10^(16 - E) is hi + lo exactly (Dekker's two-product;
    10^(16 - E) is an exact double).  hi >= 2^53 is an even integer, so
    hi + rint(lo) is the product rounded half to even.  The rounding never
    carries into E + 1: the largest double below each power of ten in the
    range lies more than 8 units of the 17th digit below it."""
    binade = a.view(np.int64) >> 52
    binade -= 1023 - 14
    e = _BINADE_E.take(binade)
    e += a >= _BINADE_TEN.take(binade)
    s_lo = _SCALE.take(e)
    hi = a * s_lo
    s_hi = _SCALE_HI.take(e)
    s_lo -= s_hi
    a_hi, a_lo = _veltkamp(a)
    lo = a_hi * s_hi
    lo -= hi
    a_hi *= s_lo
    lo += a_hi
    s_hi *= a_lo
    lo += s_hi
    a_lo *= s_lo
    lo += a_lo
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return e, d


def _format_column(v, out):
    """Write the %.17g text of each value of v into a column of out, a
    (4, len(v)) uint64 array: row j holds word j of each value's slot (see
    CSV_BLOCK).  Values with 1e-4 <= |v| < 1e16 are written from _digits;
    every other value (0, -0.0, subnormals, |v| < 1e-4, |v| >= 1e16, inf,
    nan) by "%.17g" % v."""
    a = np.abs(v)
    slow = ~((a >= _TEN_MIN) & (a < 1e16))
    np.putmask(a, slow, 1.0)
    e, d = _digits(a)
    del a
    # the leading digit, then the words of digits 1-4, 5-8, 9-12, 13-16
    q = d // 10 ** 8
    d -= q * 10 ** 8
    lead = q // 10 ** 8
    q -= lead * 10 ** 8
    groups = []
    for g in (q, d):
        g_hi = g // 10 ** 4
        g -= g_hi * 10 ** 4
        groups += [_GROUPS.take(g_hi), _GROUPS.take(g)]
    del q, d
    # the kept digits: 17 less the trailing zeros, but all of the integer part
    tz = groups[0].view(np.uint8)[4::8].copy()
    for g in groups[1:]:
        z = g.view(np.uint8)[4::8]
        tz *= z == 4
        tz += z
    key = np.subtract(17, tz, dtype=np.intp)
    np.maximum(key, e - 3, out=key)
    key *= 20
    key += e
    del tz, e
    lead0, a0, a1, b0, b1, dot1, dot2 = _KEYS.take(key, axis=1)
    lead += 48
    np.left_shift(lead.view(np.uint64), 48, out=out[0])
    out[0] |= lead0
    out[0] |= np.signbit(v) * np.uint64(ord("-"))
    words = []
    for g_hi, g_lo in (groups[:2], groups[2:]):
        g_hi &= 0xFFFFFFFF
        g_lo <<= 32
        g_lo |= g_hi
        words.append(g_lo)
    # for E >= 1 the digits after the first E (the B masks) move up one
    # byte, past the "."
    b0 &= words[0]
    b1 &= words[1]
    np.bitwise_and(words[0], a0, out=out[1])
    out[1] |= b0 << 8
    out[1] |= dot1
    np.bitwise_and(words[1], a1, out=out[2])
    out[2] |= b1 << 8
    out[2] |= b0 >> 56
    out[2] |= dot2
    np.right_shift(b1, 56, out=out[3])
    slow = np.flatnonzero(slow)
    if slow.size:
        text = np.array(["%.17g" % x for x in v[slow].tolist()], dtype="S32")
        out[:, slow] = text.view(np.uint64).reshape(-1, 4).T


def _write_csv(path, header, rows):
    """Write header and rows, a table of numbers, to path: every value %.17g
    (exact round trip), in csv.writer's default dialect.

    A column whose values all have the first row's 64-bit pattern (say the
    weight column of a uniform measure) is formatted once, into the text
    that every row shares.  Columns are compared by bits, not by value,
    because -0.0 and 0.0 are equal but print differently.  The other
    columns are formatted by _format_column, CSV_BLOCK rows at a time, into
    a reused row buffer, so the memory in use stays small."""
    data = np.reshape(np.asarray(rows, dtype=float), (-1, len(header)))
    n = len(data)
    same = [n > 0 and bool((c == c[0]).all()) for c in data.view(np.int64).T]
    # the shared text before, between and after the varying columns
    shared = ",".join("%.17g" % data[0, j] if s else "\0"
                      for j, s in enumerate(same)).split("\0")
    shared[-1] += "\r\n"
    varying = [j for j, s in enumerate(same) if not s]
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\r\n").encode())
        if not (n and varying):
            fh.write(shared[0].encode() * n)
            return
        block = min(CSV_BLOCK, n)
        words = [np.frombuffer(t.encode().ljust(-(-len(t) // 8) * 8, b"\0"), np.uint64)
                 for t in shared]
        buf = bytearray(8 * block * (sum(map(len, words)) + 4 * len(varying)))
        table = np.frombuffer(buf, np.uint64).reshape(block, -1)
        slots, at = [], 0
        for w in words:  # the slot after the last shared text is empty
            table[:, at:at + len(w)] = w
            at += len(w)
            slots.append(table[:, at:at + 4].T)
            at += 4
        for i in range(0, n, block):
            k = min(block, n - i)
            for j, slot in zip(varying, slots):
                _format_column(data[i:i + k, j], slot[:, :k])
            table[k:] = 0  # a short last block: its unused rows are all NUL
            fh.write(buf.translate(None, b"\0"))


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
        with warnings.catch_warnings():
            # a file with no rows is an EmptyMeasure, raised below
            warnings.simplefilter("ignore", UserWarning)
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
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
    if len(x) == 1 or len(y) == 1:
        # to a Dirac delta_a all mass moves to a: sum_i w_i |v_i - a| / sum_i w_i
        (a,), v, w = (x, y, wy) if len(x) == 1 else (y, x, wx)
        return float(np.abs(v - a) @ w / w.sum())
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
