"""Iteration of the measure map mu -> invariant law of the frozen equation,
plus the multi-well multiplicity search with its separation verdicts.

Each iterate replaces mu by the occupation measure of a fresh frozen run
(optionally damped), monitored in Wasserstein-1.  Every report carries the
Monte Carlo noise floor, so distinctness claims stay honest.  The floor is
taken from the chains of the last frozen run (split-chain, in the spirit of
split-R-hat): split the chains into two equal halves, take
W1(half A, half B) / sqrt(2), and average over SPLIT_COUNT fixed splits.
The chains of one run are exchangeable, so each half is a run of n/2
chains.  W1 between two independent clouds scales like sqrt(1/n_a + 1/n_b)
in their chain counts, so the sqrt(2) maps two halves of n/2 chains onto
the scale of two independent runs of n chains.  The splits come from a
fixed stream of their own and leave the run's streams untouched.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .drift import lyapunov_exponents
from .errors import DimensionMismatch, MvLevyError, NoiseFloorExceedsTol, _check_types
from .measures import EmpiricalMeasure, concentration, moment, w1
from .simulate import SimConfig, frozen_trajectory
from . import rng as _rng

SPLIT_COUNT = 16
SPLIT_SEED = 246813579


@dataclass(frozen=True)
class FixedPointConfig:
    max_iter: int
    w1_tol: float
    sim: SimConfig
    damping: float = 0.0

    def __post_init__(self):
        _check_types(self)
        if self.max_iter < 1:
            raise ValueError("max_iter must be positive")
        if self.w1_tol <= 0:
            raise ValueError("w1_tol must be positive")
        if not (0.0 <= self.damping < 1.0):
            raise ValueError("damping must lie in [0, 1)")
        if self.sim.n_chains < 2:
            raise ValueError("fixed-point runs need sim.n_chains >= 2: "
                             "the noise floor splits the chains in two")


@dataclass(frozen=True)
class FixedPointReport:
    converged: bool
    iterations: int
    final: EmpiricalMeasure
    history: list
    moment_beta_star: float
    noise_floor: float


def iterate_lambda(drift, levy, mu0, cfg, key=(), check_noise_floor=True):
    """Iterate the frozen-measure map from mu0 until the W1 step falls
    below w1_tol or max_iter is hit.

    Every iteration runs on seed cfg.sim.seed: iteration it is the frozen
    run with key (*key, it), so distinct seeds, replica keys and iterations
    draw from distinct streams.  The report records the final measure's
    beta_star-th moment, beta_star being the drift family's Lyapunov
    exponent, read from lyapunov_exponents without the sup search for C_b.
    The noise floor is the split-chain floor of the last frozen run
    (the occupation measure, not the damped mixture), so it costs no run of
    its own.  Raises NoiseFloorExceedsTol when the tolerance undercuts that
    floor (the configuration cannot certify convergence).
    """
    beta_star = lyapunov_exponents(drift, alpha=levy.alpha).beta_star
    mu = mu0
    history = []
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        occ = frozen_trajectory(drift, mu, levy, mu, cfg.sim, key=(*key, it))
        if cfg.damping > 0.0:
            nxt = EmpiricalMeasure.mixture([occ, mu], [1.0 - cfg.damping, cfg.damping])
        else:
            nxt = occ
        step = w1(nxt, mu)
        history.append(step)
        mu = nxt
        if step <= cfg.w1_tol:
            converged = True
            break
    noise_floor = _split_floor(occ)
    if check_noise_floor and cfg.w1_tol < noise_floor:
        raise NoiseFloorExceedsTol(
            f"w1_tol {cfg.w1_tol:g} is below the noise floor {noise_floor:g}")
    return FixedPointReport(converged=converged, iterations=it, final=mu,
                            history=history,
                            moment_beta_star=moment(mu, beta_star),
                            noise_floor=noise_floor)


def _split_floor(occ):
    """Mean over SPLIT_COUNT fixed chain splits of W1(half A, half B) /
    sqrt(2); with an odd chain count each split leaves one chain out."""
    n = occ.n_chains
    paths = occ.points.reshape(-1, n, occ.dim)  # (kept step, chain, d)
    half = n // 2
    gen = _rng.stream(SPLIT_SEED)
    total = 0.0
    for _ in range(SPLIT_COUNT):
        perm = gen.permutation(n)
        a = paths[:, perm[:half]].reshape(-1, occ.dim)
        b = paths[:, perm[half:2 * half]].reshape(-1, occ.dim)
        total += w1(EmpiricalMeasure.from_samples(a), EmpiricalMeasure.from_samples(b))
    return total / (SPLIT_COUNT * math.sqrt(2.0))


@dataclass(frozen=True)
class MultiplicityReport:
    seeds: list
    fixed_points: list
    distinct_pairs: np.ndarray
    separation_evidence: dict
    errors: dict


def multiplicity_search(drift, levy, seeds, M_star, cfg):
    """Run the fixed-point iteration from a Dirac at each seed center and
    test pairwise distinctness.  The run from center i has key (i,).

    A pair (i, j) is distinct when both final measures keep more than half
    their mass within |y_i - y_j|/2 of their own center and their W1 gap
    exceeds max(2 * noise floor, w1_tol), where the floor is the larger of
    the two runs' split-chain floors (see iterate_lambda).  Raises
    DimensionMismatch before any run when the noise or a seed does not have
    the drift's dimension.
    """
    seeds = [np.atleast_1d(np.asarray(s, dtype=float)) for s in seeds]
    if levy.dim != drift.dim:
        raise DimensionMismatch(f"noise has dim {levy.dim}, drift wants {drift.dim}")
    for s in seeds:
        if s.shape != (drift.dim,):
            raise DimensionMismatch(f"seed {s.tolist()} has shape {s.shape}, "
                                    f"drift wants ({drift.dim},)")
    k = len(seeds)
    if k >= 2:
        min_gap = min(float(np.linalg.norm(a - b))
                      for i, a in enumerate(seeds) for b in seeds[i + 1:])
        if min_gap == 0.0:
            raise ValueError("seeds must be pairwise distinct")
        if M_star >= min_gap / 4.0:
            warnings.warn("M_star is not below a quarter of the seed gap; "
                          "the separation hypothesis is violated", stacklevel=2)
    reports = [None] * k
    errors = {}
    for i, y in enumerate(seeds):
        try:
            reports[i] = iterate_lambda(drift, levy, EmpiricalMeasure.dirac(y), cfg,
                                        key=(i,))
        except MvLevyError as exc:  # partial reports allowed
            errors[i] = exc
    distinct = np.zeros((k, k), dtype=bool)
    evidence = {}
    for i in range(k):
        for j in range(i + 1, k):
            if reports[i] is None or reports[j] is None:
                continue
            gap = float(np.linalg.norm(seeds[i] - seeds[j]))
            ci = concentration(reports[i].final, seeds[i], gap / 2.0)
            cj = concentration(reports[j].final, seeds[j], gap / 2.0)
            dist = w1(reports[i].final, reports[j].final)
            floor = max(reports[i].noise_floor, reports[j].noise_floor)
            ok = (ci < 0.5 and cj < 0.5
                  and dist > max(2.0 * floor, cfg.w1_tol))
            distinct[i, j] = distinct[j, i] = ok
            evidence[(i, j)] = {"w1": dist, "conc_i": ci, "conc_j": cj,
                                "noise_floor": floor, "gap": gap,
                                "M_star_ok": M_star < gap / 4.0}
    return MultiplicityReport(seeds=seeds, fixed_points=reports,
                              distinct_pairs=distinct,
                              separation_evidence=evidence, errors=errors)


def invariance_check(report, params, levy):
    """True when the converged measure's beta_star-th moment respects the
    invariant-set threshold, with a factor-2 Monte Carlo slack."""
    from .conditions import m_star

    if not report.converged:
        raise ValueError("invariance check needs a converged report")
    threshold = m_star(params, levy)["M_star"]
    return moment(report.final, params.beta_star) <= 2.0 * threshold
