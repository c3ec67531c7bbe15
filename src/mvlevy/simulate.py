"""Euler integration of the frozen-measure SDE, with time-averaged
occupation measures as output.

Chains advance as one vectorized block drawing from one stream keyed by
(seed, *key, purpose) (see rng), so the result is independent of how the
work is scheduled.  With pure stable noise and an affine drift the Euler
chain is an AR(1) process, and it jumps from one kept state to the next
in a single update that is exact in law (stable laws are closed under
weighted sums); every other combination is stepped one Euler step at a
time.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import Blowup, DimensionMismatch, _check_types, _from_json, _to_json
from .drift import affine_coefficients, field_closure, measure_stats
from .levy import STABLE, sample_increment
from .measures import EmpiricalMeasure
from . import rng as _rng

BLOWUP_GUARD = 1e8
# a jump past the Euler stability radius (about sqrt(2/dt) for a cubic
# drift) overflows the run; each halving widens that radius by sqrt(2)
MAX_HALVINGS = 3


@dataclass(frozen=True)
class SimConfig:
    dt: float
    T: float
    n_chains: int = 1
    burn_in_fraction: float = 0.5
    thin: int = 10
    seed: int = 0

    def __post_init__(self):
        _check_types(self)
        if self.dt <= 0 or self.dt > 0.01:
            raise ValueError("dt must lie in (0, 0.01]")
        if not (0.0 <= self.burn_in_fraction < 1.0):
            raise ValueError("burn_in_fraction must lie in [0, 1)")
        if self.T / self.dt < 1e3:
            raise ValueError("need at least 10^3 steps (T/dt >= 1000)")
        if self.thin < 1 or self.n_chains < 1:
            raise ValueError("thin and n_chains must be positive")

    to_json = _to_json
    from_json = classmethod(_from_json)


@dataclass(frozen=True)
class OccupationMeasure(EmpiricalMeasure):
    """Time-averaged empirical measure of thinned post-burn-in states."""

    T: float = 0.0
    dt: float = 0.0
    n_chains: int = 0
    ess: int = 0


def _initial_states(x0, n, d, gen):
    if isinstance(x0, EmpiricalMeasure):
        idx = gen.choice(x0.size, size=n, p=x0.weights)
        return x0.points[idx].copy()
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    if x0.shape[0] != d:
        raise DimensionMismatch(f"x0 has dim {x0.shape[0]}, expected {d}")
    return np.tile(x0, (n, 1))


INCREMENT_CHUNK = 256


def _check_blowup(X, step):
    amax = np.abs(X).max()
    if not np.isfinite(amax) or amax > BLOWUP_GUARD:
        raise Blowup(step, amax if np.isfinite(amax) else math.inf)


def _affine_jump(rate, dt, alpha, k):
    """(D^k, sum_{j<k} D^j, sum_{j<k} |D|^{j alpha}) for D = 1 - rate dt.

    The sums go through log1p/expm1, so a tiny rate dt keeps its precision;
    D <= 0 (rate dt >= 1) enters the noise weight through |D|.
    """
    decay = 1.0 - np.float64(rate) * dt
    with np.errstate(divide="ignore", over="ignore"):
        # log|D|, -inf at D = 0 where only the j = 0 terms survive
        log_abs = np.log1p(-rate * dt) if decay > 0 else np.log(-decay)

        def power_sum(log_r):
            # sum_{j<k} exp(j log_r); log_r = 0 at D = -1
            return np.expm1(k * log_r) / np.expm1(log_r) if log_r else float(k)

        noise = power_sum(alpha * log_abs)
        if decay >= 0:
            return np.exp(k * log_abs), power_sum(log_abs), noise
        dk = decay ** k
        return dk, (1.0 - dk) / (1.0 - decay), noise


def _kept_steps(cfg):
    """Steps after which a frozen run keeps its state: every thin-th step
    after burn-in."""
    n_steps = int(round(cfg.T / cfg.dt))
    burn = int(round(cfg.burn_in_fraction * n_steps))
    return range(burn + cfg.thin, n_steps + 1, cfg.thin)


def _run_euler(spec, stats, levy, X, cfg, keep, *key):
    """Advance all chains by T/dt Euler steps of size dt under the drift
    with the frozen measure stats; returns the states after each step in
    keep (increasing) as one (len(keep), n, d) array, a fresh copy of each
    kept state.

    Pure stable noise and an affine drift b(x) = shift - rate x make the
    Euler chain X <- D X + shift dt + dZ with D = 1 - rate dt, and k of
    its steps add up to
        X <- D^k X + shift dt sum_j D^j + sum_j D^{k-1-j} dZ_j   (j < k).
    The increments are symmetric stable with index alpha, so the noise sum
    has the law of one increment over the window dt sum_j |D|^{j alpha}
    (exact self-similar scaling of sample_increment; at alpha = 2 this is
    the Euler variance dt sum_j D^{2j}).  The chain then jumps from one
    kept step to the next, with one draw per chain and kept step.

    Every other case takes the Euler steps one by one.  Increments are
    drawn INCREMENT_CHUNK steps at a time into one buffer made once per
    run, and two state blocks take turns: the new state
    F = field(X, F); F *= dt; F += X; F += dZ is written over the state
    before last, so a step allocates nothing beyond the temporaries of the
    asymmetric cubic's remainder and the two-well's vector formula.
    Either way the draw order is fixed by the stream key (cfg.seed, *key)
    alone.
    """
    n, d = X.shape
    if levy.dim != d:
        raise DimensionMismatch(f"noise has dim {levy.dim}, drift wants {d}")
    dt = cfg.dt
    n_steps = int(round(cfg.T / dt))
    gen = _rng.stream(cfg.seed, *key)
    aff = affine_coefficients(spec, stats)
    kept = np.empty((len(keep), n, d))
    # overflow in the updates is the blowup signal, not an error; the guard
    # turns it into a Blowup exception
    if aff is not None and levy.kind == STABLE:
        rate, shift = aff
        # one jump per window length: after the first, every window is thin
        jumps = {k: _affine_jump(rate, dt, levy.alpha, k)
                 for k in set(np.diff(keep, prepend=0).tolist())}
        prev = 0
        with np.errstate(over="ignore", invalid="ignore"):
            for i, step in enumerate(keep):
                decay_k, drift_sum, noise_sum = jumps[step - prev]
                X = (decay_k * X + shift * (dt * drift_sum)
                     + sample_increment(levy, dt * noise_sum, gen, size=n))
                _check_blowup(X, step)
                kept[i] = X
                prev = step
        return kept
    field = field_closure(spec, stats)
    slot = {step: i for i, step in enumerate(keep)}
    dZ = np.empty((INCREMENT_CHUNK * n, d))
    X, F = X.copy(), np.empty_like(X)  # the caller's block is not written
    step = 0
    while step < n_steps:
        m = min(INCREMENT_CHUNK, n_steps - step)
        chunk = sample_increment(levy, dt, gen, size=n * m,
                                 out=dZ[:n * m]).reshape(m, n, d)
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(m):
                step += 1
                F = field(X, F)
                np.multiply(F, dt, F)
                np.add(F, X, F)
                np.add(F, chunk[j], F)
                X, F = F, X
                if step in slot:
                    kept[slot[step]] = X
        _check_blowup(X, step)
    return kept


def frozen_trajectory(spec, frozen, levy, x0, cfg, key=()):
    """Occupation measure of the SDE with the measure argument frozen.

    Euler scheme with exact stable increments (for an affine drift under
    stable noise, jumps between kept states that are exact in law); the
    frozen measure is never updated during the run.  The run draws its
    initial states from stream (cfg.seed, *key, INIT) and its increments
    from (cfg.seed, *key, INCREMENTS).  On a blowup the step size is halved
    and the run retried, up to MAX_HALVINGS times, before the Blowup
    propagates.  Every attempt draws fresh initial states from the INIT
    stream; the retry at dt / 2^h draws its increments from
    (cfg.seed, *key, h, RETRY).
    """
    if frozen.dim != spec.dim:
        raise DimensionMismatch("frozen measure dimension mismatch")
    if not _kept_steps(cfg):
        raise ValueError("no state is kept: the burn-in plus thin steps exceed T/dt")
    stats = measure_stats(spec, frozen.points, frozen.weights)
    gen0 = _rng.stream(cfg.seed, *key, _rng.INIT)
    for h in range(MAX_HALVINGS + 1):
        run = replace(cfg, dt=cfg.dt / 2 ** h, thin=cfg.thin * 2 ** h)
        # each retry draws fresh increments, so the jump that blew up the
        # attempt before does not come back
        purpose = (h, _rng.RETRY) if h else (_rng.INCREMENTS,)
        X = _initial_states(x0, cfg.n_chains, spec.dim, gen0)
        try:
            kept = _run_euler(spec, stats, levy, X, run, _kept_steps(run), *key, *purpose)
            break
        except Blowup:
            if h == MAX_HALVINGS:
                raise
    pts = kept.reshape(-1, spec.dim)
    n = pts.shape[0]
    return OccupationMeasure(pts, np.full(n, 1.0 / n),
                             T=cfg.T, dt=run.dt, n_chains=cfg.n_chains, ess=n)
