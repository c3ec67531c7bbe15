"""End-to-end tests of the command-line front end: exit codes, artifact
files, overrides, and reproducibility."""

import json
import subprocess
import sys

import numpy as np
import pytest

from mvlevy.cli import main


def _write_cfg(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


SIM_BLOCK = {"dt": 0.01, "T": 10.0, "n_chains": 100, "thin": 10, "seed": 4}


class TestSample:
    def test_reproducible_and_resolved_config(self, tmp_path):
        cfg = _write_cfg(tmp_path / "c.json",
                         {"levy": {"kind": "stable", "alpha": 1.5, "scale": 1.0,
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

    def test_malformed_config_is_validation_error(self, tmp_path):
        bad = tmp_path / "c.json"
        bad.write_text("{not json")
        assert main(["sample", "--config", str(bad),
                     "--out", str(tmp_path / "o")]) == 2


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

    def test_supercritical_gamma(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "4.0", "--out", str(out)]) == 0
        rep = json.loads((out / "report.json").read_text())
        assert rep["supercritical"] and rep["beta_c"] == 0.0

    def test_h_profile_csv(self, tmp_path):
        out = tmp_path / "o"
        assert main(["selfconsistent", "--gamma", "2.0", "--beta", "3.0",
                     "--beta-scan", "3.0:3.0:1.0", "--out", str(out)]) == 0
        lines = (out / "h_values.csv").read_text().strip().splitlines()
        assert lines[0] == "m,h"
        assert len(lines) == 242


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
    """Config values read outside the spec dataclasses are type-checked
    and a bad one exits 2, not with a traceback."""

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
    ], ids=["appendix-unknown-key", "appendix-sigma-key", "gamma-string",
            "tol-string", "seeds-scalar", "m-star-string", "n-string",
            "dt-bool", "ex14-string", "ex15-string", "seeds-object",
            "mu0-mean-object", "frozen-mean-scalar", "x0-nested",
            "sigma-knots-scalar", "sigma-knots-single", "ex15-y1-object",
            "ex15-y2-string"])
    def test_bad_value_is_validation_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "error: invalid input" in capsys.readouterr().err


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
