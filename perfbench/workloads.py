"""The benchmark's workloads: what one job runs and how its outputs are checked.

Each job drives the user-facing entry point mvlevy.cli.main (plus, for
double_well_multiplicity, the library's condition formulas that choose the
noise scale).  For a workload w:

- w.config(seed) gives the job's inputs;
- w.solve(cfg, out) is the timed part.  It writes into the directory out
  and returns a context dict holding "rc", the exit code of every CLI call;
- w.load(cfg, out, ctx) reads the outputs back into ctx, untimed;
- w.checks are (name, predicate(cfg, ctx)) pairs.  Each compares an output
  with a reference that does not come from the code path under test;
- w.entry_points are the spans a traced job must reach.

README.md in this directory explains the choices.
"""

import json
import math
import os
import warnings
from collections import namedtuple

import numpy as np

from mvlevy import cli, conditions, drift, levy, selfconsistent

Workload = namedtuple("Workload", "config solve load checks entry_points")


def _cli(command, out, cfg=None, extra=()):
    """mvlevy <command> with every config section passed as a --set override."""
    argv = [command, "--out", out, *extra]
    for key, value in (cfg or {}).items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    return cli.main(argv)


def _report(out):
    with open(os.path.join(out, "report.json")) as fh:
        return json.load(fh)


def _csv_column(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]


# ---------------------------------------------------------------------------
# ou_fixpoint: criterion 3's shape with a shorter horizon T.  At T = 10 the
# W1 step between iterates is 2^-k +- 0.01 (the mean halves each time) and
# the noise floor reaches 0.02, so criterion 3's w1_tol = 0.004 would fail.
# w1_tol = 0.18 lies between 2^-2 and 2^-3 with margins of more than five
# standard deviations, so every seed stops after exactly 3 iterations.

def ou_config(seed):
    return {"levy": {"kind": "stable", "alpha": 2.0, "scale": 1.0},
            "drift": {"family": "mean_field_ou", "lam": 2.0},
            "sim": {"dt": 1e-3, "T": 10.0, "n_chains": 2000, "thin": 100,
                    "seed": seed},
            "fixed_point": {"max_iter": 14, "w1_tol": 0.18},
            "mu0_mean": [1.0]}


def ou_solve(cfg, out):
    return {"rc": [_cli("fixpoint", out, cfg)]}


def ou_load(cfg, out, ctx):
    ctx["report"] = _report(out)
    ctx["pts"] = _csv_column(os.path.join(out, "fixed_point.csv"))


def _ou_mean(cfg, ctx):
    # standard error from per-chain means, as criterion 3 computes it
    pts, n = ctx["pts"], cfg["sim"]["n_chains"]
    se = pts.reshape(-1, n).mean(axis=0).std(ddof=1) / math.sqrt(n)
    return abs(pts.mean()) <= 3.0 * se + cfg["fixed_point"]["w1_tol"]


def _ou_var(cfg, ctx):
    # stationary variance of the Euler chain X <- (1 - lam dt) X + sqrt(dt) xi
    dt, lam = cfg["sim"]["dt"], cfg["drift"]["lam"]
    ref = dt / (1.0 - (1.0 - lam * dt) ** 2)
    return abs(ctx["pts"].var() - ref) <= 0.1 * ref


OU_CHECKS = (
    ("converged", lambda cfg, ctx: ctx["report"]["converged"] is True),
    ("|mean| <= 3 SE + tol", _ou_mean),
    ("variance within 10% of the Euler-exact value", _ou_var),
    ("noise floor < w1_tol", lambda cfg, ctx:
     ctx["report"]["noise_floor"] < cfg["fixed_point"]["w1_tol"]),
)


# ---------------------------------------------------------------------------
# double_well_multiplicity: criterion 5's conditions step and seed search

def dw_config(seed):
    return {"drift": {"family": "double_well", "lam": 1.0, "kappa": 4.5,
                      "a1": -1.0, "a2": 1.0},
            "alpha": 1.8, "sigma0": 0.2, "beta": 1.5,
            "sim": {"dt": 0.002, "T": 20.0, "n_chains": 300, "thin": 100,
                    "seed": seed},
            "fixed_point": {"max_iter": 10, "w1_tol": 0.02},
            "seeds": [[-1.0], [0.0], [1.0]]}


def dw_solve(cfg, out):
    spec = drift.DriftSpec.from_json(cfg["drift"])
    sigma, witness = cfg["sigma0"], None
    while sigma >= 1e-4:
        noise = levy.LevyMeasureSpec(alpha=cfg["alpha"], scale=sigma)
        witness = conditions.ex14_feasibility(spec.lam, spec.kappa, cfg["beta"],
                                              spec.a1, spec.a2, noise)
        if witness is not None:
            break
        sigma /= 2.0
    noise = levy.LevyMeasureSpec(alpha=cfg["alpha"], scale=sigma)
    m = conditions.m_star(drift.lyapunov_params(spec, beta=cfg["beta"]), noise)["M_star"]
    with warnings.catch_warnings():
        # criterion 5 also runs with M_star above a quarter of the seed gap
        warnings.simplefilter("ignore")
        rc = _cli("multiplicity", out, {
            "levy": noise.to_json(), "drift": cfg["drift"], "sim": cfg["sim"],
            "fixed_point": cfg["fixed_point"], "seeds": cfg["seeds"], "M_star": m})
    return {"rc": [rc], "witness": witness, "M_star": m}


def dw_load(cfg, out, ctx):
    ctx["report"] = _report(out)


def _dw_pair(i, j, test):
    return lambda cfg, ctx: test(ctx["report"]["evidence"][f"{i},{j}"],
                                 ctx["report"]["distinct_pairs"][i][j])


DW_CHECKS = (
    ("feasibility witness found", lambda cfg, ctx: ctx["witness"] is not None),
    ("M_star > 0", lambda cfg, ctx: ctx["M_star"] > 0),
    ("no per-seed errors", lambda cfg, ctx: ctx["report"]["errors"] == {}),
) + tuple(
    check for i, j in ((0, 1), (0, 2), (1, 2)) for check in (
        (f"pair ({i},{j}) concentrations < 1/2", _dw_pair(
            i, j, lambda ev, d: ev["conc_i"] < 0.5 and ev["conc_j"] < 0.5)),
        (f"pair ({i},{j}) w1 > 2 noise floor", _dw_pair(
            i, j, lambda ev, d: ev["w1"] > 2.0 * ev["noise_floor"])),
        (f"pair ({i},{j}) distinct", _dw_pair(i, j, lambda ev, d: d is True)),
    ))


# ---------------------------------------------------------------------------
# selfconsistent_sweep: the closed-form path, no Monte Carlo

SC_GAMMAS = (1.0, 1.5, 2.0, 2.5, 3.0)


def sc_config(seed):
    # deterministic numerics: the seed has nothing to draw
    return {"gammas": list(SC_GAMMAS), "tol": 0.02, "beta_run": [2.0, 1.0]}


def sc_solve(cfg, out):
    rcs = [_cli("selfconsistent", os.path.join(out, f"gamma{k}"),
                {"tol": cfg["tol"]}, ("--gamma", repr(g)))
           for k, g in enumerate(cfg["gammas"])]
    g, b = cfg["beta_run"]
    rcs.append(_cli("selfconsistent", os.path.join(out, "beta"), {"tol": cfg["tol"]},
                    ("--gamma", repr(g), "--beta", repr(b))))
    return {"rc": rcs}


def sc_load(cfg, out, ctx):
    ctx["reports"] = [_report(os.path.join(out, f"gamma{k}"))
                      for k in range(len(cfg["gammas"]))]
    ctx["subcritical"] = [(g, r["beta_c"]) for g, r in zip(cfg["gammas"], ctx["reports"])
                          if not r["supercritical"]]
    ctx["h"] = _csv_column(os.path.join(out, "beta", "h_values.csv"))


def _decreasing(cfg, ctx):
    bcs = [bc for _, bc in ctx["subcritical"]]
    return len(bcs) == 4 and all(a > b for a, b in zip(bcs, bcs[1:]))


def _sign_flip(k):
    """h(0.05) < 0 just below beta_c and > 0 just above it for the k-th
    subcritical gamma: the sign of h near m = 0 flips at the transition."""
    def check(cfg, ctx):
        g, bc = ctx["subcritical"][k]
        d = 3.0 * cfg["tol"]
        return (selfconsistent.h_fn(selfconsistent.GradientCase(g, bc - d), 0.05) < 0.0
                < selfconsistent.h_fn(selfconsistent.GradientCase(g, bc + d), 0.05))
    return check


def _odd(cfg, ctx):
    # h(-m) = -h(m) on the symmetric m-grid, by the x -> -x symmetry of the
    # density exponent
    h = ctx["h"]
    return len(h) == 241 and np.allclose(h, -h[::-1], rtol=1e-6,
                                         atol=1e-9 * np.abs(h).max())


SC_CHECKS = (
    ("beta_c strictly decreasing over the subcritical gammas", _decreasing),
    ("supercritical at gamma=3.0", lambda cfg, ctx:
     ctx["reports"][SC_GAMMAS.index(3.0)]["supercritical"] is True),
) + tuple(
    (f"h sign flips across beta_c at subcritical gamma {k}", _sign_flip(k))
    for k in range(4)
) + (
    ("h values of the --beta run odd in m", _odd),
)


WORKLOADS = {
    "ou_fixpoint": Workload(
        ou_config, ou_solve, ou_load, OU_CHECKS,
        ("cli.main", "fixed_point.iterate_lambda", "simulate.frozen_trajectory",
         "levy.sample_increment", "drift.measure_stats", "measures.w1",
         "cli.to_csv")),
    "double_well_multiplicity": Workload(
        dw_config, dw_solve, dw_load, DW_CHECKS,
        ("conditions.ex14_feasibility", "conditions.m_star", "cli.main",
         "fixed_point.multiplicity_search", "fixed_point.iterate_lambda",
         "simulate.frozen_trajectory", "levy.sample_increment", "drift.field",
         "drift.measure_stats", "measures.w1", "cli.to_csv")),
    "selfconsistent_sweep": Workload(
        sc_config, sc_solve, sc_load, SC_CHECKS,
        ("cli.main", "selfconsistent.beta_c", "selfconsistent.root_count",
         "selfconsistent.h_fn")),
}
