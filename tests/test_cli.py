"""End-to-end tests of the command-line front end: exit codes, artifact
files, overrides, and reproducibility."""

import csv
import io
import json
import math
import subprocess
import sys
from dataclasses import fields, is_dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvlevy import (A1Params, AppendixParams, DriftSpec, FixedPointConfig,
                    LevyMeasureSpec, SimConfig, selfconsistent)
from mvlevy.cli import _Ex14, _Ex15, main


def _write_cfg(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIM_BLOCK = {"dt": 0.01, "T": 10.0, "n_chains": 100, "thin": 10, "seed": 4}


class TestSample:
    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_reproducible_and_resolved_config(self, tmp_path, alpha):
        # at alpha = 2 the sampler draws standard Brownian motion, so the
        # char_fn target is exp(-dt t^2 / 2), not the stable exp(-dt t^2)
        cfg = _write_cfg(tmp_path / "c.json",
                         {"levy": {"kind": "stable", "alpha": alpha, "scale": 1.0,
                                   "dim": 1},
                          "seed": 7, "n": 2000})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sample", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_bytes() == (out2 / "samples.csv").read_bytes()
        resolved = json.loads((out1 / "resolved_config.json").read_text())
        assert resolved["seed"] == 7
        report = json.loads((out1 / "report.json").read_text())
        for t, entry in report["char_fn"].items():
            assert abs(entry["empirical"] - entry["target"]) < 0.05

    def test_set_override(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"levy": {"kind": "stable", "alpha": 1.5}, "seed": 1})
        out = tmp_path / "o"
        assert main(["sample", "--config", cfg, "--out", str(out),
                     "--set", "n=500"]) == 0
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert len(lines) == 501  # header plus draws
        assert json.loads((out / "resolved_config.json").read_text())["n"] == 500

    def test_empty_sample_is_validation_error(self, tmp_path, capsys):
        # n = 0 wrote a report.json holding NaN means (invalid JSON)
        out = tmp_path / "o"
        assert main(["sample", "--set", "seed=1", "--set", "levy={}", "--set", "n=0",
                     "--out", str(out)]) == 2
        assert "n must be at least 1" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    def test_missing_seed_is_validation_error(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {"levy": {"kind": "stable"}})
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2

    def test_unknown_config_key_is_validation_error(self, tmp_path):
        assert main(["sample", "--set", "seed=1", "--set", "levy.bogus=1",
                     "--out", str(tmp_path / "o")]) == 2

    def test_set_through_scalar_is_validation_error(self, tmp_path):
        assert main(["sample", "--set", "seed=1", "--set", "levy=3",
                     "--set", "levy.alpha=1", "--out", str(tmp_path / "o")]) == 2

    def test_non_numeric_value_is_validation_error(self, tmp_path, capsys):
        assert main(["sample", "--set", "seed=1", "--set", 'levy.alpha="abc"',
                     "--out", str(tmp_path / "o")]) == 2
        assert "LevyMeasureSpec.alpha must be a number" in capsys.readouterr().err

    def test_truncated_alpha_two_is_validation_error(self, tmp_path, capsys):
        # the small-jump variance divides by 2 - alpha: this ended in a
        # ZeroDivisionError traceback
        assert main(["sample", "--set", "seed=1", "--set",
                     'levy={"kind": "truncated_stable", "alpha": 2.0, "cutoff": 1.0}',
                     "--out", str(tmp_path / "o")]) == 2
        assert "alpha = 2 has no jumps to truncate" in capsys.readouterr().err

    def test_malformed_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert main(["sample", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2

    def test_config_array_is_validation_error(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path / "c.json", [{"seed": 1}])
        assert main(["sample", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert "config must be a JSON object" in capsys.readouterr().err


class TestSimulate:
    def test_run_and_report(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 0.1},
            "drift": {"family": "mean_field_ou", "lam": 2.0},
            "sim": SIM_BLOCK,
            "frozen_mean": [0.0], "x0": [0.0]})
        out = tmp_path / "o"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert abs(report["mean"][0]) < 0.1
        assert (out / "occupation.csv").exists()

    def test_blowup_is_numerical_error(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 0.1},
            "drift": {"family": "double_well", "lam": 1.0, "kappa": 0.0,
                      "a1": -1.0, "a2": 1.0},
            "sim": SIM_BLOCK,
            "frozen_mean": [0.0], "x0": [50.0]})
        assert main(["simulate", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3


class TestFixpoint:
    def test_converged_report(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 0.1},
            "drift": {"family": "mean_field_ou", "lam": 2.0},
            "sim": dict(SIM_BLOCK, n_chains=200),
            "fixed_point": {"max_iter": 10, "w1_tol": 0.03},
            "mu0_mean": [-1.0]})
        out = tmp_path / "o"
        assert main(["fixpoint", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["converged"]
        assert abs(rep["mean"][0]) < 0.1
        assert rep["noise_floor"] < 0.03
        assert (out / "fixed_point.csv").exists()

    def test_too_tight_tolerance_is_numerical_error(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 0.1},
            "drift": {"family": "mean_field_ou", "lam": 2.0},
            "sim": SIM_BLOCK,
            "fixed_point": {"max_iter": 1, "w1_tol": 1e-9}})
        assert main(["fixpoint", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3

    @pytest.mark.parametrize("levy", [{"alpha": 2.0},
                                      {"kind": "truncated_stable", "alpha": 1.5,
                                       "cutoff": 2.0}])
    def test_nothing_kept_is_validation_error(self, tmp_path, capsys, levy):
        # 1000 steps, burn-in 990, thin 20: no step is kept, on the affine
        # jump (stable) and on the stepwise loop (truncated) alike
        sim = dict(SIM_BLOCK, burn_in_fraction=0.99, thin=20)
        assert main(["fixpoint", *FP_RUN, "--set", f"levy={json.dumps(levy)}",
                     "--set", f"sim={json.dumps(sim)}",
                     "--out", str(tmp_path / "o")]) == 2
        assert "no state is kept" in capsys.readouterr().err

    def test_one_chain_is_validation_error(self, tmp_path, capsys):
        # the noise floor splits the chains of the last run in two
        assert main(["fixpoint", *FP_RUN, "--set", "sim.n_chains=1",
                     "--out", str(tmp_path / "o")]) == 2
        assert "n_chains >= 2" in capsys.readouterr().err


class TestMultiplicity:
    def test_two_well_verdicts(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 0.1},
            "drift": {"family": "double_well", "lam": 1.0, "kappa": 0.0,
                      "a1": -1.0, "a2": 1.0},
            "sim": dict(SIM_BLOCK, n_chains=200),
            "fixed_point": {"max_iter": 4, "w1_tol": 0.05},
            "seeds": [[-1.0], [1.0]], "M_star": 0.05})
        out = tmp_path / "o"
        assert main(["multiplicity", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["distinct_pairs"][0][1] is True
        assert rep["evidence"]["0,1"]["w1"] > 1.5
        assert (out / "fixed_point_0.csv").exists()
        assert (out / "fixed_point_1.csv").exists()

    def test_one_chain_is_validation_error(self, tmp_path, capsys):
        assert main(["multiplicity", *FP_RUN, "--set", "sim.n_chains=1",
                     "--set", "seeds=[[-1.0], [1.0]]",
                     "--out", str(tmp_path / "o")]) == 2
        assert "n_chains >= 2" in capsys.readouterr().err


    @pytest.mark.parametrize("overrides", [
        ["--set", "seeds=[[1.0, 0.0], [-1.0, 2.0]]"],
        ["--set", "seeds=[[1.0], [-1.0]]", "--set", "levy.dim=2"],
        ["--set", "seeds=[[1.0], [1.0, 2.0]]"],
    ])
    def test_dimension_mismatch_is_validation_error(self, tmp_path, capsys, overrides):
        # each seed and the noise must have the drift's dimension; no run
        # records the mismatch as a per-seed error
        assert main(["multiplicity", *FP_RUN, *overrides,
                     "--out", str(tmp_path / "o")]) == 2
        assert "drift wants" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()


class TestCheck:
    LEVY = {"kind": "stable", "alpha": 1.8, "scale": 0.025}

    def test_passing_conditions(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": self.LEVY,
            "ex14": {"lam": 1.0, "kappa": 4.5, "beta": 1.5, "eps": 1e-4,
                     "r0": 0.24975, "a1": -1.0, "a2": 1.0}})
        out = tmp_path / "o"
        assert main(["check", "--strict", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["ok"] and rep["ex14"]["we2_ok"]

    def test_strict_failure(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": self.LEVY,
            "ex14": {"lam": 1.0, "kappa": 4.4, "beta": 1.5, "eps": 1e-4,
                     "r0": 0.24975, "a1": -1.0, "a2": 1.0}})
        out = tmp_path / "o"
        assert main(["check", "--strict", "--config", cfg, "--out", str(out)]) == 4
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert not rep["ok"]

    def test_compound_noise_takes_beta_above_its_unused_alpha(self, tmp_path):
        # compound Poisson noise has every moment, and its spec's alpha
        # (default 1.5) is not read by its law
        levy = {"kind": "compound_poisson", "rate": 2.0, "jump_dist": ["gaussian", 0.3]}
        assert main(["check", "--set", f"levy={json.dumps(levy)}",
                     "--set", f"ex14={json.dumps(dict(EX14, beta=1.6))}",
                     "--out", str(tmp_path / "o")]) == 0

    def test_stable_noise_needs_beta_below_alpha(self, tmp_path, capsys):
        levy = {"kind": "stable", "alpha": 1.5, "scale": 0.025}
        assert main(["check", "--set", f"levy={json.dumps(levy)}",
                     "--set", f"ex14={json.dumps(dict(EX14, beta=1.6))}",
                     "--out", str(tmp_path / "o")]) == 2
        assert "need beta in (1, alpha)" in capsys.readouterr().err

    def test_m_star_section(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 1.8, "scale": 1.0},
            "m_star": {"C_b": 1.0, "lam1": 1.0, "lam2": 0.5, "theta1": 3.0,
                       "theta2": 1.0, "theta3": 1.0, "theta4": 1.0,
                       "beta": 1.5}})
        out = tmp_path / "o"
        assert main(["check", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["m_star"]["case"] == "i"
        assert rep["m_star"]["M_star"] > 0

    def test_unknown_m_star_key_is_validation_error(self, tmp_path):
        assert main(["check", "--set", 'levy={"alpha": 1.8}',
                     "--set", 'm_star={"C_b": 1.0, "bogus": 1.0}',
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("command, section", [
        ("check", "ex14"), ("check", "ex15"), ("constants", "appendix"),
        ("fixpoint", "fixed_point")])
    def test_non_object_section_is_validation_error(self, tmp_path, capsys,
                                                    command, section):
        assert main([command, "--set", 'levy={"alpha": 1.8}',
                     "--set", 'drift={"family": "mean_field_ou", "lam": 2.0}',
                     "--set", f"sim={json.dumps(SIM_BLOCK)}",
                     "--set", f"{section}=3", "--out", str(tmp_path / "o")]) == 2
        assert f"config section '{section}' must be an object" in capsys.readouterr().err


class TestSelfConsistent:
    def test_beta_scan_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2.0",
                     "--beta-scan", "0.5:3.0:2.5", "--out", str(out)]) == 0
        lines = (out / "beta_scan.csv").read_text().strip().splitlines()
        assert lines[0] == "beta,root_count"
        counts = [int(float(l.split(",")[1])) for l in lines[1:]]
        assert counts == [1, 3]

    def test_beta_scan_near_transition(self, tmp_path):
        # the count flips between beta = 0.909 and 0.911; at 0.911 the roots
        # sit within three cells of each other on a 1000-point scan
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2", "--beta-scan", "0.905:0.915:0.002",
                     "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert list(rep["beta_scan"].values()) == [1, 1, 1, 3, 3, 3]

    def test_beta_scan_large_gamma_finds_outer_roots(self, tmp_path):
        # the outer roots near +-sqrt(gamma/4 + beta/2) = +-6.2 lay outside
        # the scanned [-6, 6], and the scan reported 1 root
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "150", "--beta-scan", "0.5:1:0.5",
                     "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["beta_scan"] == {"0.5": 3, "1.0": 3}

    def test_supercritical_gamma(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "4.0", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["supercritical"] and rep["beta_c"] == 0.0

    def test_no_transition_is_numerical_error(self, tmp_path, capsys):
        # at gamma = 0.01 the count is still 1 at beta = 100, the top of
        # the bisection's range
        assert main(["selfconsistent", "--gamma", "0.01", "--out", str(tmp_path / "o")]) == 3
        assert "no 1 -> 3 transition" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_h_profile_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2.0", "--beta", "3.0",
                     "--beta-scan", "3.0:3.0:1.0", "--out", str(out)]) == 0
        lines = (out / "h_values.csv").read_text().strip().splitlines()
        assert lines[0] == "m,h"
        assert len(lines) == 242

    @pytest.mark.parametrize("beta", [0.5, 3.0])
    def test_beta_report_roots(self, tmp_path, beta):
        # the roots root_count finds on a 1000-point grid over the m-range of
        # h_values.csv; the count is beta_c's criterion, the sign of h'(0)
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2.0", "--beta", str(beta),
                     "--beta-scan", "1.0:1.0:1.0", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        case = selfconsistent.GradientCase(2.0, beta)
        assert rep["roots"] == selfconsistent.root_count(case, 6.0, 1000,
                                                         refine=False)["roots"]
        assert len(rep["roots"]) == selfconsistent._count_at(2.0, beta)

    def test_roots_too_close_is_numerical_error(self, tmp_path, capsys):
        # just above beta_c(2) ~ 0.9108 the outer roots of the --beta report
        # sit within three scan cells of the middle one
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2", "--beta", "0.911",
                     "--beta-scan", "1.0:1.0:1.0", "--out", str(out)]) == 3
        assert "closer than 3 cells" in capsys.readouterr().err
        assert (out / "h_values.csv").exists()
        assert not (out / "report.json").exists()

    def test_beta_report_scans_past_the_outer_roots(self, tmp_path):
        # at beta = 100 the outer roots sit near +-sqrt(gamma/4 + beta/2)
        # ~ 7.11, outside [-6, 6]: the scan widens until h(m_max) < 0
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2", "--beta", "100",
                     "--beta-scan", "1.0:1.0:1.0", "--out", str(out)]) == 0
        lo, mid, hi = json.loads((out / "report.json").read_text())["roots"]
        outer = math.sqrt(2.0 / 4.0 + 100.0 / 2.0)
        assert mid == 0.0
        assert abs(hi - outer) <= 0.01 * outer and abs(lo + outer) <= 0.01 * outer

    def test_beta_report_count_mismatch_is_numerical_error(self, tmp_path, capsys):
        # about 4e-5 above beta_c(2) the sign of h'(0) gives three roots, but
        # h_fn is already negative at the first grid point m > 0, half a cell
        # from 0, so root_count cannot place the positive root
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2", "--beta", "0.91045",
                     "--beta-scan", "1.0:1.0:1.0", "--out", str(out)]) == 3
        assert ("roots 0 and one in (0, 0.00600601] closer than 3 cells"
                in capsys.readouterr().err)
        assert not (out / "report.json").exists()

    def test_h_table_quadrature_failure_names_m(self, tmp_path, capsys):
        # at beta = 1e4 no row of the table passes the error check; the
        # message names the first failing m, and no table or report is left
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2", "--beta", "1e4",
                     "--beta-scan", "1:1:1", "--out", str(out)]) == 3
        assert "too large at m = -6.0" in capsys.readouterr().err
        assert not (out / "h_values.csv").exists()
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--gamma", "0"], ["--gamma", "-1"], ["--gamma", "inf"], ["--gamma", "nan"],
        ["--set", "gamma=0"], ["--set", "gamma=Infinity"], ["--set", "gamma=NaN"],
        ["--gamma", "0", "--beta-scan", "0.5:3.0:0.5"],
    ])
    def test_invalid_gamma_is_validation_error(self, tmp_path, capsys, argv):
        assert main(["selfconsistent", *argv, "--out", str(tmp_path / "o")]) == 2
        assert "gamma" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    @pytest.mark.parametrize("tol", ["0", "NaN", "Infinity"])
    def test_bad_tol_is_validation_error(self, tmp_path, capsys, tol):
        # a NaN or infinite tol skipped the bisection: beta_c = 50.0005; the
        # config check now turns those away as not numbers, before beta_c
        assert main(["selfconsistent", "--gamma", "2.0", "--set", f"tol={tol}",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        if tol == "0":
            assert "tol must be positive and finite" in err
        else:
            assert "config value 'tol' must be a number" in err

    @pytest.mark.parametrize("beta", ["nan", "inf"])
    def test_non_finite_beta_is_validation_error(self, tmp_path, capsys, beta):
        assert main(["selfconsistent", "--gamma", "2.0", "--beta", beta,
                     "--out", str(tmp_path / "o")]) == 2
        assert "beta must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["0.5:3.0:0", "0.5:3.0:-0.5", "3.0:0.5:0.5",
                                      "0.5:3.0:nan", "nan:3.0:0.5", "0.5:inf:0.5",
                                      "0:1:1e-12", "0:1:5e-324"])
    def test_bad_beta_scan_is_validation_error(self, tmp_path, capsys, spec):
        assert main(["selfconsistent", "--gamma", "2.0", "--beta-scan", spec,
                     "--out", str(tmp_path / "o")]) == 2
        assert "--beta-scan" in capsys.readouterr().err
        assert not (tmp_path / "o" / "beta_scan.csv").exists()


class TestConstants:
    def test_report(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 1.5, "scale": 1.0},
            "appendix": {"K1": 1.0, "K2": 0.5, "K3": 1.0, "kappa": 1.0,
                         "l0": 1.0, "C_V": 2.0, "lambda_V": 0.5}})
        out = tmp_path / "o"
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["lambda0"] > 0
        assert rep["C_contr"] is None

    def test_c_contr_overflow_is_numerical_error(self, tmp_path, capsys):
        # g(2 l0) is large, so c1 = exp(-c2 g(2 l0)) underflows to 0
        appendix = {"K1": 1, "K2": 1, "K3": 1, "kappa": 0.5, "l0": 1, "C_V": 1,
                    "lambda_V": 1, "sigma_knots": [[0.01, 0.001], [2, 0.002]]}
        assert main(["constants", "--set", 'levy={"alpha": 1.5}',
                     "--set", f"appendix={json.dumps(appendix)}",
                     "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "error: numerical failure" in err and "C_contr" in err

    def test_no_jump_part_is_numerical_error(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json", {
            "levy": {"kind": "stable", "alpha": 2.0, "scale": 1.0},
            "appendix": {"K1": 1.0, "K2": 0.5, "K3": 1.0, "kappa": 1.0,
                         "l0": 1.0, "C_V": 2.0, "lambda_V": 0.5}})
        # a vanishing overlap is a modelling error, not a numerical one
        assert main(["constants", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 2


FP_RUN = ["--set", 'levy={"alpha": 1.8}',
          "--set", 'drift={"family": "mean_field_ou", "lam": 2.0}',
          "--set", f"sim={json.dumps(SIM_BLOCK)}",
          "--set", 'fixed_point={"max_iter": 2, "w1_tol": 0.1}']
EX14 = {"lam": 1.0, "kappa": 4.5, "beta": 1.5, "eps": 1e-4, "r0": 0.24975,
        "a1": -1.0, "a2": 1.0}
EX15 = {"lam": 1.0, "kappa": 3.0, "beta": 1.5, "eps": 1e-4, "r0": 0.4,
        "y1": [1.0], "y2": [-1.0]}
APPENDIX = {"K1": 1.0, "K2": 0.5, "K3": 1.0, "kappa": 1.0, "l0": 1.0, "C_V": 2.0,
            "lambda_V": 0.5}


class TestRawConfigValues:
    """A bad config value, in a section or at the top level, exits 2, not
    with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["constants", "--set", "levy={}", "--set", "appendix.bogus=1"],
        ["constants", "--set", "levy={}", "--set", "appendix.sigma=1"],
        ["selfconsistent", "--set", 'gamma="a"'],
        ["selfconsistent", "--gamma", "2", "--set", 'tol="a"'],
        ["multiplicity", *FP_RUN, "--set", "seeds=3"],
        ["multiplicity", *FP_RUN, "--set", "seeds=[[0.0], [1.0]]",
         "--set", 'M_star="a"'],
        ["sample", "--set", "seed=1", "--set", 'levy={"alpha": 1.8}',
         "--set", 'n="a"'],
        ["sample", "--set", "seed=1", "--set", 'levy={"alpha": 1.8}',
         "--set", "dt=true"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex14={json.dumps(dict(EX14, lam='a'))}"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", 'ex15={"lam": 1, "kappa": 3, "beta": "a", "eps": 1e-4, '
                  '"r0": 0.4, "y1": [1], "y2": [-1]}'],
        ["multiplicity", *FP_RUN, "--set", "seeds=[{}]"],
        ["fixpoint", *FP_RUN, "--set", "mu0_mean={}"],
        ["simulate", *FP_RUN, "--set", "frozen_mean=3"],
        ["simulate", *FP_RUN, "--set", "x0=[[0.0]]"],
        ["constants", "--set", "levy={}", "--set", f"appendix={json.dumps(APPENDIX)}",
         "--set", "appendix.sigma_knots=3"],
        ["constants", "--set", "levy={}", "--set", f"appendix={json.dumps(APPENDIX)}",
         "--set", "appendix.sigma_knots=[[0.0], [1.0]]"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex15={json.dumps(dict(EX15, y1={}))}"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex15={json.dumps(dict(EX15, y2='-1'))}"],
        ["fixpoint", *FP_RUN, "--set", "fixed_point.dampng=0.5"],
        ["fixpoint", *FP_RUN, "--set", f"fixed_point.sim={json.dumps(SIM_BLOCK)}"],
        ["sample", "--set", "seed=[1]", "--set", "levy={}"],
        ["sample", "--set", "seed=1.5", "--set", "levy={}"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex14={json.dumps(dict(EX14, bogus=7))}"],
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex15={json.dumps(dict(EX15, bogus=7))}"],
        ["sample", "--set", "seed=1", "--set",
         'levy={"kind": "compound_poisson", "rate": 1, "jump_dist": ["uniform", 1]}'],
        ["sample", "--set", "seed=1", "--set",
         'levy={"kind": "compound_poisson", "rate": 1, "jump_dist": ["cauchy", 1]}'],
        ["fixpoint", *FP_RUN, "--set",
         'drift={"family": "asymmetric_cubic", "lam": 1, "beta": 1.2, '
         '"g_kind": "tanh_scaled", "g_params": ["a", 1]}'],
        # JSON's NaN and Infinity are not config numbers: a NaN kappa wrote
        # false verdicts and exited 0, a NaN noise scale ran into a Blowup
        # (exit 3), and an infinite w1_tol reported convergence at once
        ["check", "--set", 'levy={"alpha": 1.8}',
         "--set", f"ex14={json.dumps(dict(EX14, kappa=math.nan))}"],
        ["fixpoint", *FP_RUN, "--set", "levy.scale=NaN"],
        ["fixpoint", *FP_RUN, "--set", "fixed_point.w1_tol=Infinity"],
        ["multiplicity", *FP_RUN, "--set", "seeds=[[0.0], [1.0]]",
         "--set", "M_star=-Infinity"],
        ["sample", "--set", "seed=1", "--set", "levy={}", "--set", "dt=NaN"],
    ], ids=["appendix-unknown-key", "appendix-sigma-key", "gamma-string",
            "tol-string", "seeds-scalar", "m-star-string", "n-string",
            "dt-bool", "ex14-string", "ex15-string", "seeds-object",
            "mu0-mean-object", "frozen-mean-scalar", "x0-nested",
            "sigma-knots-scalar", "sigma-knots-single", "ex15-y1-object",
            "ex15-y2-string", "fixed-point-typo", "fixed-point-sim-key",
            "seed-list", "seed-float", "ex14-unknown-key", "ex15-unknown-key",
            "jump-dist-short", "jump-dist-unknown", "g-params-string",
            "ex14-kappa-nan", "levy-scale-nan", "w1-tol-infinity",
            "m-star-minus-infinity", "dt-nan"])
    def test_bad_value_is_validation_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "error: invalid input" in capsys.readouterr().err


M_STAR = {"C_b": 1.0, "lam1": 1.0, "lam2": 0.5, "theta1": 3.0, "theta2": 1.0,
          "theta3": 1.0, "theta4": 1.0, "beta": 1.5}
# each config dataclass the CLI reads, with the section it reads it from
# and a valid run that reads that section
SECTIONS = {
    "levy": (LevyMeasureSpec, ["sample", "--set", "seed=1", "--set", "levy={}"]),
    "drift": (DriftSpec, ["simulate", *FP_RUN]),
    "sim": (SimConfig, ["simulate", *FP_RUN]),
    "fixed_point": (FixedPointConfig, ["fixpoint", *FP_RUN]),
    "m_star": (A1Params, ["check", "--set", 'levy={"alpha": 1.8}',
                          "--set", f"m_star={json.dumps(M_STAR)}"]),
    "appendix": (AppendixParams, ["constants", "--set", "levy={}",
                                  "--set", f"appendix={json.dumps(APPENDIX)}"]),
    "ex14": (_Ex14, ["check", "--set", 'levy={"alpha": 1.8}',
                     "--set", f"ex14={json.dumps(EX14)}"]),
    "ex15": (_Ex15, ["check", "--set", 'levy={"alpha": 1.8}',
                     "--set", f"ex15={json.dumps(EX15)}"]),
}


def _wrong_kinds(tp):
    """Values that are not of the declared field type tp."""
    if tp in (float, int):
        return ["a", True, {}] + ([1.5] if tp is int else [math.nan, math.inf, -math.inf])
    return [3]


WRONG_KIND_CASES = [(section, f.name, v) for section, (cls, _) in SECTIONS.items()
                    for f in fields(cls) if not is_dataclass(f.type)
                    for v in _wrong_kinds(f.type)]


class TestWrongKind:
    """Every field of every config section, given a value of the wrong
    kind, exits 2 before a run starts."""

    def test_sections_cover_every_config_dataclass(self, config_dataclasses):
        assert {cls for cls, _ in SECTIONS.values()} == config_dataclasses

    @pytest.mark.parametrize("section, key, value", WRONG_KIND_CASES,
                             ids=[f"{s}.{k}={json.dumps(v)}" for s, k, v in WRONG_KIND_CASES])
    def test_wrong_kind_is_validation_error(self, tmp_path, capsys, section, key, value):
        argv = SECTIONS[section][1]
        assert main([*argv, "--set", f"{section}.{key}={json.dumps(value)}",
                     "--out", str(tmp_path / "o")]) == 2
        assert "error: invalid input" in capsys.readouterr().err

    @pytest.mark.parametrize("section", sorted(SECTIONS))
    def test_base_run_is_valid(self, tmp_path, section):
        # the wrong value, not the rest of the run, is what fails above
        assert main([*SECTIONS[section][1], "--out", str(tmp_path / "o")]) == 0


def _spec_strategies():
    floats = st.floats(0.1, 3.0)
    levy = st.one_of(
        st.builds(LevyMeasureSpec, alpha=st.floats(0.1, 2.0), scale=floats,
                  dim=st.integers(1, 3)),
        st.builds(LevyMeasureSpec, kind=st.just("truncated_stable"),
                  alpha=st.floats(0.1, 2.0), cutoff=floats),
        st.builds(LevyMeasureSpec, kind=st.just("compound_poisson"), rate=floats,
                  jump_dist=st.one_of(st.tuples(st.just("gaussian"), floats),
                                      st.tuples(st.just("uniform"), st.just(0.0),
                                                floats))))
    drift = st.one_of(
        st.builds(DriftSpec, family=st.just("double_well"), lam=floats, kappa=floats,
                  a1=st.floats(-3.0, -0.1), a2=floats),
        st.builds(DriftSpec, family=st.just("mean_field_ou"), lam=floats),
        st.builds(DriftSpec, family=st.just("asymmetric_cubic"), lam=floats,
                  kappa=floats, beta=st.floats(1.0, 2.0), g_kind=st.just("cosine"),
                  g_params=st.tuples(floats, floats)),
        st.integers(1, 3).flatmap(lambda d: st.builds(
            DriftSpec, family=st.just("symmetric_two_well"), lam=floats,
            y1=st.tuples(*[floats] * d), y2=st.tuples(*[floats] * d))))
    sim = st.builds(SimConfig, dt=st.floats(1e-4, 0.01), T=st.floats(10.0, 100.0),
                    n_chains=st.integers(1, 10 ** 4), burn_in_fraction=st.floats(0.0, 0.9),
                    thin=st.integers(1, 100), seed=st.integers(0, 2 ** 64 - 1))
    return st.one_of(levy, drift, sim)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_spec_strategies())
def test_spec_json_round_trip(spec):
    text = json.dumps(spec.to_json())
    assert type(spec).from_json(json.loads(text)) == spec


def _csv_writer_bytes(path):
    """The table in path written again by csv.writer, every value %.17g."""
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    buf = io.StringIO(newline="")
    wr = csv.writer(buf)
    wr.writerow(header)
    for row in rows:
        wr.writerow([f"{float(v):.17g}" for v in row])
    return buf.getvalue().encode()


@pytest.mark.parametrize("argv, name", [
    (["sample", "--set", "seed=3", "--set", 'levy={"alpha": 1.2, "dim": 2}',
      "--set", "n=5000"], "samples.csv"),
    (["selfconsistent", "--gamma", "2.0", "--beta", "3.0",
      "--beta-scan", "0.5:3.0:0.5"], "h_values.csv"),
    (["selfconsistent", "--gamma", "2.0", "--beta-scan", "0.5:3.0:0.5"],
     "beta_scan.csv"),
], ids=["samples", "h_values", "beta_scan"])
def test_cli_csv_bytes_match_csv_writer(tmp_path, argv, name):
    # samples.csv has more rows than one write block of the CSV writer
    assert main([*argv, "--out", str(tmp_path)]) == 0
    path = tmp_path / name
    assert len(path.read_text().splitlines()) > 2
    assert path.read_bytes() == _csv_writer_bytes(path)


def test_console_script_smoke(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"levy": {"kind": "stable", "alpha": 1.5},
                               "seed": 3, "n": 100}))
    proc = subprocess.run(
        [sys.executable, "-m", "mvlevy.cli", "sample", "--config", str(cfg),
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (tmp_path / "o" / "samples.csv").exists()
