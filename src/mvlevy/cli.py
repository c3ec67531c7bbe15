"""Command-line front end.

Subcommands: sample, simulate, fixpoint, multiplicity, check,
selfconsistent, constants.  Every run reads a JSON config (plus --set
overrides), writes a resolved config, a JSON report, and CSV data into the
output directory.  Exit codes: 0 success, 2 validation error, 3 numerical
failure, 4 failed condition check under --strict.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import astuple, make_dataclass

import numpy as np

from . import conditions, fixed_point, measures, selfconsistent, simulate
from . import levy as levy_mod
from . import drift as drift_mod
from . import rng as _rng
from .errors import (Blowup, GridTooCoarse, MvLevyError, NoiseFloorExceedsTol,
                     NoTransition, QuadratureFailure, _check_types, _config_kwargs,
                     _is_kind, _kind_name)
from .measures import _write_csv

NUMERICAL_ERRORS = (Blowup, QuadratureFailure, NoiseFloorExceedsTol, NoTransition,
                    GridTooCoarse, OverflowError)


# the ex14 and ex15 sections: the arguments of conditions.ex14_check and
# ex15_check other than levy
_WELLS = [(k, float) for k in ("lam", "kappa", "beta", "eps", "r0")]
_Ex14 = make_dataclass("_Ex14", _WELLS + [("a1", float), ("a2", float)], frozen=True,
                       namespace={"__post_init__": _check_types})
_Ex15 = make_dataclass("_Ex15", _WELLS + [("y1", tuple[float, ...]),
                                          ("y2", tuple[float, ...])], frozen=True,
                       namespace={"__post_init__": _check_types})


def _load_config(path, overrides):
    cfg = {}
    if path:
        with open(path) as fh:
            cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError("config must be a JSON object")
    for item in overrides or []:
        key, _, raw = item.partition("=")
        try:
            val = json.loads(raw)
        except json.JSONDecodeError:
            val = raw
        node = cfg
        parts = key.split(".")
        for p in parts[:-1]:
            node = node.setdefault(p, {})
            if not isinstance(node, dict):
                raise ValueError(f"--set {key}: {p!r} is not an object")
        node[parts[-1]] = val
    return cfg


def _resolve_out(args, cfg):
    out = args.out or cfg.get("output_dir") or os.environ.get("MVLEVY_OUT", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _dump(out, name, obj):
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _section(cfg, key, cls, **given):
    """The config section cfg[key] as the dataclass cls; given holds the
    fields that hold a dataclass (see errors._config_kwargs)."""
    return cls(**_config_kwargs(cls, cfg[key], key), **given)


def _value(cfg, key, kind, default=None):
    """cfg[key], or default when given and key is absent, checked to be of
    kind (see errors._is_kind)."""
    v = cfg[key] if default is None else cfg.get(key, default)
    if not _is_kind(v, kind):
        raise ValueError(f"config value {key!r} must be {_kind_name(kind)}, got {v!r}")
    return v


def _specs(cfg):
    return (_section(cfg, "levy", levy_mod.LevyMeasureSpec),
            _section(cfg, "drift", drift_mod.DriftSpec))


def _fp_config(cfg):
    return _section(cfg, "fixed_point", fixed_point.FixedPointConfig,
                    sim=_section(cfg, "sim", simulate.SimConfig))


def cmd_sample(args, cfg, out):
    levy = _section(cfg, "levy", levy_mod.LevyMeasureSpec)
    n = _value(cfg, "n", int, 10000)
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    dt = _value(cfg, "dt", float, 1.0)
    gen = _rng.stream(_value(cfg, "seed", int))
    draws = levy_mod.sample_increment(levy, dt, gen, size=n)
    _write_csv(os.path.join(out, "samples.csv"),
               [f"x_{i+1}" for i in range(levy.dim)], draws)
    report = {"n": n, "dt": dt, "mean": [float(v) for v in draws.mean(axis=0)]}
    if levy.kind == levy_mod.STABLE and levy.dim == 1 and levy.scale == 1.0:
        cf = {}
        for t in (0.5, 1.0, 2.0):
            emp = float(np.mean(np.cos(t * draws[:, 0])))
            # alpha = 2 draws standard Brownian motion, CF exp(-dt t^2 / 2)
            cf[str(t)] = {"empirical": emp,
                          "target": math.exp(-(dt * t ** levy.alpha)
                                             if levy.alpha < 2 else -dt * t ** 2 / 2.0)}
        report["char_fn"] = cf
    _dump(out, "report.json", report)
    return 0


def cmd_simulate(args, cfg, out):
    levy, drift = _specs(cfg)
    sim = _section(cfg, "sim", simulate.SimConfig)
    frozen = _value(cfg, "frozen_mean", [float], [0.0] * drift.dim)
    mu = measures.EmpiricalMeasure.dirac(frozen)
    x0 = _value(cfg, "x0", [float], frozen)
    occ = simulate.frozen_trajectory(drift, mu, levy, np.asarray(x0, float), sim)
    occ.to_csv(os.path.join(out, "occupation.csv"))
    report = {"mean": [float(v) for v in occ.mean()],
              "second_moment": measures.moment(occ, 2.0),
              "ess": occ.ess, "T": occ.T, "dt": occ.dt}
    _dump(out, "report.json", report)
    return 0


def cmd_fixpoint(args, cfg, out):
    levy, drift = _specs(cfg)
    fp = _fp_config(cfg)
    mu0 = measures.EmpiricalMeasure.dirac(
        _value(cfg, "mu0_mean", [float], [0.0] * drift.dim))
    rep = fixed_point.iterate_lambda(drift, levy, mu0, fp)
    rep.final.to_csv(os.path.join(out, "fixed_point.csv"))
    _dump(out, "report.json", {
        "converged": rep.converged, "iterations": rep.iterations,
        "history": rep.history, "noise_floor": rep.noise_floor,
        "moment_beta_star": rep.moment_beta_star,
        "mean": [float(v) for v in rep.final.mean()]})
    return 0


def cmd_multiplicity(args, cfg, out):
    levy, drift = _specs(cfg)
    fp = _fp_config(cfg)
    seeds = _value(cfg, "seeds", [[float]])
    rep = fixed_point.multiplicity_search(drift, levy, seeds,
                                          _value(cfg, "M_star", float, 0.0), fp)
    _dump(out, "report.json", {
        "seeds": [list(map(float, s)) for s in rep.seeds],
        "distinct_pairs": rep.distinct_pairs.tolist(),
        "evidence": {f"{i},{j}": v for (i, j), v in rep.separation_evidence.items()},
        "errors": {str(i): str(e) for i, e in rep.errors.items()}})
    for i, r in enumerate(rep.fixed_points):
        if r is not None:
            r.final.to_csv(os.path.join(out, f"fixed_point_{i}.csv"))
    return 0


def cmd_check(args, cfg, out):
    levy = _section(cfg, "levy", levy_mod.LevyMeasureSpec)
    report = {}
    ok = True
    if "ex14" in cfg:
        res = conditions.ex14_check(*astuple(_section(cfg, "ex14", _Ex14)), levy)
        report["ex14"] = {k: res[k] for k in ("we_ok", "we2_ok", "convex_ok")}
        ok = ok and all(report["ex14"].values())
    if "ex15" in cfg:
        res = conditions.ex15_check(*astuple(_section(cfg, "ex15", _Ex15)), levy)
        report["ex15"] = {k: res[k] for k in ("eq1_ok", "wq2_ok")}
        ok = ok and all(report["ex15"].values())
    if "m_star" in cfg:
        res = conditions.m_star(_section(cfg, "m_star", drift_mod.A1Params), levy)
        report["m_star"] = {k: res[k] for k in ("M_star", "chosen_l", "case")}
    report["ok"] = ok
    _dump(out, "report.json", report)
    if args.strict and not ok:
        return 4
    return 0


def cmd_selfconsistent(args, cfg, out):
    gamma = args.gamma if args.gamma is not None else _value(cfg, "gamma", float)
    selfconsistent.check_gamma(gamma)
    report = {"gamma": gamma, "formula_value":
              (12.0 - gamma ** 2) / (2.0 * gamma) if gamma < selfconsistent.GAMMA_C else 0.0}
    if args.beta_scan:
        lo, hi, step = (float(v) for v in args.beta_scan.split(":"))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi and step > 0
                and (hi + 1e-12 - lo) / step <= 1e5):
            raise ValueError(f"--beta-scan {args.beta_scan}: need LO <= HI, STEP > 0 "
                             "and at most 100000 points")
        rows = [(b, selfconsistent._count_at(gamma, float(b)))
                for b in np.arange(lo, hi + 1e-12, step)]
        _write_csv(os.path.join(out, "beta_scan.csv"), ["beta", "root_count"], rows)
        report["beta_scan"] = {str(float(b)): int(c) for b, c in rows}
    else:
        bc = selfconsistent.beta_c(gamma, _value(cfg, "tol", float, 0.02))
        report["beta_c"] = bc.value
        report["supercritical"] = bc.supercritical
    if args.beta is not None:
        case = selfconsistent.GradientCase(gamma, args.beta)
        ms = np.linspace(-6.0, 6.0, 241)
        _write_csv(os.path.join(out, "h_values.csv"), ["m", "h"],
                   np.column_stack((ms, selfconsistent.h_fn(case, ms))))
        # h is concave on m > 0 with h(0) = 0, so h(m_max) < 0 puts every
        # root inside the scan
        m_max = 6.0
        while selfconsistent.h_fn(case, m_max) > 0.0:
            m_max *= 2.0
        report["roots"] = selfconsistent.root_count(case, m_max, 1000,
                                                    refine=False)["roots"]
    _dump(out, "report.json", report)
    return 0


def cmd_constants(args, cfg, out):
    levy = _section(cfg, "levy", levy_mod.LevyMeasureSpec)
    # the section gives its sigma profile as sigma_knots, a list of [r, sigma]
    kw = _config_kwargs(conditions.AppendixParams, cfg["appendix"], "appendix",
                        extra=("sigma_knots",))
    if "sigma_knots" in kw:
        knots = _value(kw, "sigma_knots", [[float]])
        del kw["sigma_knots"]
        kw["sigma"] = levy_mod.SigmaSpec(tuple(tuple(k) for k in knots))
    res = conditions.appendix_constants(conditions.AppendixParams(**kw), levy)
    _dump(out, "report.json", {
        "c": res.c, "a": res.a, "eps": res.eps, "lambda0": res.lambda0,
        "C_contr": res.C_contr, "lambda_contr": res.lambda_contr,
        "c1": res.c1, "c2": res.c2})
    return 0


COMMANDS = {
    "sample": cmd_sample,
    "simulate": cmd_simulate,
    "fixpoint": cmd_fixpoint,
    "multiplicity": cmd_multiplicity,
    "check": cmd_check,
    "selfconsistent": cmd_selfconsistent,
    "constants": cmd_constants,
}


def build_parser():
    ap = argparse.ArgumentParser(prog="mvlevy",
                                 description="Stationary-distribution toolkit "
                                             "for jump mean-field SDEs")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", default=None, help="JSON config file")
        sp.add_argument("--out", default=None, help="output directory")
        sp.add_argument("--set", action="append", default=[], dest="overrides",
                        metavar="KEY=VALUE", help="override a config entry")
        if name == "check":
            sp.add_argument("--strict", action="store_true")
        if name == "selfconsistent":
            sp.add_argument("--gamma", type=float, default=None)
            sp.add_argument("--beta", type=float, default=None)
            sp.add_argument("--beta-scan", default=None,
                            metavar="LO:HI:STEP")
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args.config, args.overrides)
        out = _resolve_out(args, cfg)
        _dump(out, "resolved_config.json", cfg)
        return COMMANDS[args.command](args, cfg, out)
    except NUMERICAL_ERRORS as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MvLevyError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
