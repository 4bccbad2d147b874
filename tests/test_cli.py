"""Command-line behavior: exit codes, file formats, reproducibility, and the
documented end-to-end selection examples."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlselect import cli
from nlselect.cli import dataset_to_csv, main, read_dataset_csv, rows_to_csv, to_json
from nlselect.glm import Dataset
from nlselect.modelspace import ModelIndex, posterior_probs


def run(argv):
    return main([str(a) for a in argv])


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--out", None, "--p", 5, "--n", 100, "--seed", 1]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args[2] = out1
        assert run(args) == 0
        args[2] = out2
        assert run(args) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.csv.truth.json").read_text() \
            .replace("a.csv", "b.csv") == (tmp_path / "b.csv.truth.json").read_text()

    def test_logistic_zero_one(self, tmp_path):
        out = tmp_path / "l.csv"
        assert run(["simulate", "--out", out, "--p", 4, "--n", 80,
                    "--family", "logistic", "--seed", 2]) == 0
        d = read_dataset_csv(str(out), "logistic", 1.0)
        assert set(np.unique(d.y)) <= {0.0, 1.0}

    def test_round_trip_lossless(self, tmp_path):
        out = tmp_path / "r.csv"
        assert run(["simulate", "--out", out, "--p", 3, "--n", 50, "--seed", 3]) == 0
        d = read_dataset_csv(str(out), "gaussian", 1.0)
        sidecar = load_json(str(out) + ".truth.json")
        # regenerate through the library and compare float-exactly
        from nlselect.experiments import ExperimentConfig, simulate_dataset
        from nlselect.modelspace import ModelIndex
        from nlselect.numerics import make_stream
        cfg = ExperimentConfig(family="gaussian", p=3, q=2,
                               true_support=ModelIndex((1, 2)),
                               n_grid=(50,), replications=1, seed=3,
                               beta0=(1.0, -0.8))
        ref, _ = simulate_dataset(cfg, 50, make_stream(3))
        np.testing.assert_array_equal(d.y, ref.y)
        np.testing.assert_array_equal(d.X, ref.X)
        assert sidecar["true_support"] == [1, 2]

    def test_invalid_config_exits_3(self, tmp_path, capsys):
        assert run(["simulate", "--out", tmp_path / "x.csv", "--p", 2,
                    "--n", 50, "--j0", "1,2,3"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error:")


class TestFit:
    def make_data(self, tmp_path, p=3, n=120, seed=0):
        out = tmp_path / "d.csv"
        assert run(["simulate", "--out", out, "--p", p, "--n", n,
                    "--seed", seed]) == 0
        return out

    def test_enumerates_seven_models(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 2, "--out", out]) == 0
        res = load_json(out)
        assert res["n_models_scored"] == 7
        total = sum(m["probability"] for m in res["models"])
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_config_echo_keys(self, tmp_path):
        data = self.make_data(tmp_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 2, "--out", out]) == 0
        assert sorted(load_json(out)["config"]) == [
            "budget", "family", "input", "prior", "q", "search", "seed",
            "sigma2", "subcommand"]

    def test_large_effect_floor_echoes_its_scale(self, tmp_path):
        # r = 1: the origin mass is exp(-2 sqrt(lambda) / delta), so 1% of
        # it inside (-1e6, 1e6) puts lambda at (5e5 ln 100)^2
        from nlselect.priors import lambda_for_origin_mass
        data = self.make_data(tmp_path)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 1, "--effect-floor", "1e6",
                    "--out", out]) == 0
        scale = load_json(out)["config"]["prior"]["scale"]
        assert scale == lambda_for_origin_mass(1e6, r=1.0)
        assert scale == pytest.approx((5e5 * math.log(100.0)) ** 2, rel=1e-12)

    @pytest.mark.parametrize("family, seed", [("logistic", 0), ("poisson", 1)])
    def test_search_prints_the_enumerated_log_marginals(self, tmp_path, family, seed):
        # every model a search visits has, to the last bit, the log marginal
        # of its row in the enumeration of the same data
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 12, "--n", 400, "--family", family,
                    "--seed", seed]) == 0
        logm = []
        for flags in ([], ["--search", "--budget", 120]):
            out = tmp_path / "fit.json"
            assert run(["fit", "--input", data, "--family", family, "--q", 3,
                        "--out", out] + flags) == 0
            logm.append({tuple(m["indices"]): m["log_marginal"]
                         for m in load_json(out)["models"]})
        enumerated, searched = logm
        assert len(enumerated) == 299 and 12 < len(searched) < 299
        assert {J: enumerated[J] for J in searched} == searched

    def test_unknown_family_exits_3(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        assert run(["fit", "--input", data, "--family", "bogus"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "bogus" in err

    def test_malformed_csv_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,y\n1.0,2.0\noops,3.0\n")
        assert run(["fit", "--input", bad]) == 2
        assert "non-numeric" in capsys.readouterr().err

    def test_missing_response_column_exits_2(self, tmp_path):
        bad = tmp_path / "noy.csv"
        bad.write_text("x1,x2\n1.0,2.0\n")
        assert run(["fit", "--input", bad]) == 2

    def test_too_many_models_without_search_exits_4(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        wide = tmp_path / "wide.csv"
        p = 200  # sum_{k<=3} C(200,k) > 1e6
        header = ",".join([f"x{j}" for j in range(1, p + 1)] + ["y"])
        rows = [",".join(f"{v:.6f}" for v in rng.normal(size=p + 1))
                for _ in range(10)]
        wide.write_text(header + "\n" + "\n".join(rows) + "\n")
        assert run(["fit", "--input", wide, "--q", 3]) == 4
        assert "--search" in capsys.readouterr().err

    def test_search_mode_handles_wide_design(self, tmp_path):
        rng = np.random.default_rng(1)
        wide = tmp_path / "wide2.csv"
        p, n = 200, 150
        X = rng.normal(size=(n, p))
        y = X[:, 0] * 1.5 - X[:, 3] * 1.2 + rng.normal(size=n)
        header = ",".join([f"x{j}" for j in range(1, p + 1)] + ["y"])
        lines = [",".join(format(v, ".17g") for v in np.append(X[i], y[i]))
                 for i in range(n)]
        wide.write_text(header + "\n" + "\n".join(lines) + "\n")
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", wide, "--q", 3, "--search",
                    "--budget", 800, "--seed", 4, "--out", out]) == 0
        res = load_json(out)
        assert res["top"] == [1, 4]

    def test_python_dash_m_entry_point(self, tmp_path):
        data = self.make_data(tmp_path)
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-m", "nlselect", "fit", "--input", str(data),
                               "--q", "2"], capture_output=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n_models_scored"] == 7

    def test_fit_reproducible(self, tmp_path):
        data = self.make_data(tmp_path, p=6, seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for flags in ([], ["--search", "--budget", 20]):
            for out in (a, b):
                assert run(["fit", "--input", data, "--q", 2, "--out", out] + flags) == 0
            assert a.read_bytes() == b.read_bytes()

    def test_simulate_then_fit_recovers_truth(self, tmp_path):
        data = tmp_path / "sim.csv"
        assert run(["simulate", "--out", data, "--p", 10, "--n", 500,
                    "--j0", "2,7", "--beta0", "1.2,-1.0", "--seed", 11]) == 0
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 3, "--out", out]) == 0
        assert load_json(out)["top"] == [2, 7]

    @pytest.mark.parametrize("out", ["missing/x.json", "outdir"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, out):
        # "outdir" is an existing directory: the temp file must not stay behind
        data = self.make_data(tmp_path)
        (tmp_path / "outdir").mkdir()
        out = tmp_path / out
        assert run(["fit", "--input", data, "--q", 1, "--out", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {out}:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.truth.json", "outdir"]

    def test_negative_budget_exits_3(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        assert run(["fit", "--input", data, "--search", "--budget", -5]) == 3
        err = capsys.readouterr().err
        assert err == "error: --budget must be nonnegative\n"
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--search", "--budget", 0, "--out", out]) == 0
        assert load_json(out)["n_models_scored"] == 1

    def test_budget_without_search_exits_3(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        assert run(["fit", "--input", data, "--q", 1, "--budget", 3,
                    "--out", tmp_path / "fit.json"]) == 3
        assert capsys.readouterr().err == "error: --budget applies to --search only\n"
        assert not (tmp_path / "fit.json").exists()

    def test_enumeration_builds_few_model_objects(self, tmp_path, monkeypatch):
        # the 4,526 models live in column arrays, not one ModelIndex each
        data = self.make_data(tmp_path, p=30, n=100)
        built = []
        post_init = ModelIndex.__post_init__

        def counting(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ModelIndex, "__post_init__", counting)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 3, "--out", out]) == 0
        assert load_json(out)["n_models_scored"] == 4526
        assert len(built) <= 5

    def test_null_truth_prefers_empty_model(self, tmp_path):
        hits = 0
        for seed in range(20):
            data = tmp_path / f"null{seed}.csv"
            assert run(["simulate", "--out", data, "--p", 5, "--n", 500,
                        "--j0", "none", "--beta0", "none", "--seed", seed]) == 0
            out = tmp_path / f"null{seed}.json"
            assert run(["fit", "--input", data, "--q", 2, "--out", out]) == 0
            hits += load_json(out)["top"] == []
        assert hits >= 15


class TestDensity:
    def test_verify_prints_unit_integral(self, tmp_path, capsys):
        out = tmp_path / "dens.csv"
        assert run(["density", "--prior", "spimom", "--r", 1, "--lambda", 1,
                    "--out", out, "--verify"]) == 0
        printed = capsys.readouterr().out
        value = float(printed.split(":")[1])
        assert value == pytest.approx(1.0, abs=1e-6)

    def test_paper_constant_prints_half(self, tmp_path, capsys):
        out = tmp_path / "dens.csv"
        assert run(["density", "--prior", "spimom", "--paper-constant",
                    "--out", out, "--verify"]) == 0
        value = float(capsys.readouterr().out.split(":")[1])
        assert value == pytest.approx(0.5, abs=1e-6)

    def test_origin_row_is_zero(self, tmp_path):
        out = tmp_path / "dens.csv"
        assert run(["density", "--prior", "pimom", "--tau", 1,
                    "--grid=-1:1:5", "--out", out]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "beta,density"
        mid = lines[1 + 2].split(",")
        assert float(mid[0]) == 0.0 and float(mid[1]) == 0.0

    def test_bad_grid_exits_3(self):
        assert run(["density", "--grid", "5:-5:100"]) == 3
        assert run(["density", "--grid", "oops"]) == 3

    def test_tau_with_spimom_exits_3(self):
        assert run(["density", "--prior", "spimom", "--tau", 2.0]) == 3

    @pytest.mark.parametrize("flags, message", [
        ("--prior pimom --effect-floor 0.3", "--effect-floor applies to spimom only"),
        ("--lambda 2 --effect-floor 0.3",
         "give either --lambda or --effect-floor, not both")])
    def test_effect_floor_conflicts_exit_3(self, tmp_path, capsys, flags, message):
        assert run(["density", *flags.split(), "--verify"]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 3, "--n", 50]) == 0
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, *flags.split(), "--out", out]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("floor", [[], ["--effect-floor", "0.3"]])
    @pytest.mark.parametrize("r", ["nan", "inf", "-1"])
    def test_bad_r_exits_3_before_effect_floor(self, tmp_path, capsys, r, floor):
        # the floor's scale rule needs a valid r, so r is checked first
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 3, "--n", 50]) == 0
        for argv in (["density", "--out", tmp_path / "dens.csv"],
                     ["fit", "--input", data, "--out", tmp_path / "fit.json"]):
            assert run([*argv, f"--r={r}", *floor]) == 3
            assert capsys.readouterr().err == "error: --r must be positive and finite\n"
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.truth.json"]

    @pytest.mark.parametrize("floor", ["-1", "0", "inf", "nan"])
    def test_effect_floor_without_scale_exits_3(self, floor, capsys):
        # not positive (nan included) or infinite: no finite positive lambda
        assert run(["density", f"--effect-floor={floor}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --effect-floor") and err.count("\n") == 1

    @pytest.mark.parametrize("flags", ["--r 0.2", "--r 0.4", "--prior pimom --r 0.2"])
    def test_verify_failure_exits_3_and_writes_nothing(self, tmp_path, capsys, flags):
        # a tail too heavy for the quadrature to converge
        out = tmp_path / "dens.csv"
        code = run(["density", *flags.split(), "--out", out, "--verify"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err.startswith("error: --verify") and captured.err.count("\n") == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flags", [
        "--lambda 5.3e12", "--effect-floor 1e6", "--prior pimom --tau 1e12",
        "--r 3 --lambda 1e20", "--lambda 1e-12"])
    def test_verify_far_scales_print_unit_integral(self, tmp_path, capsys, flags):
        # the mass sits far beyond the tail nodes in units of b, not of the mode
        out = tmp_path / "dens.csv"
        assert run(["density", *flags.split(), "--out", out, "--verify"]) == 0
        value = float(capsys.readouterr().out.split(":")[1])
        assert value == pytest.approx(1.0, abs=1e-6)


class TestStudyCommand:
    def test_scalar_mode_rate_slope_in_json(self, tmp_path):
        prefix = tmp_path / "scal"
        assert run(["study", "--study", "mode-rate", "--scalar",
                    "--prior", "spimom", "--out", prefix]) == 0
        res = load_json(str(prefix) + ".json")
        assert res["summary"]["slope"] == pytest.approx(-1.0 / 3.0, abs=0.01)
        assert res["summary"]["slope_se"] is not None

    def test_scalar_pimom_slope(self, tmp_path):
        prefix = tmp_path / "scalp"
        assert run(["study", "--study", "mode-rate", "--scalar",
                    "--prior", "pimom", "--out", prefix]) == 0
        res = load_json(str(prefix) + ".json")
        assert res["summary"]["slope"] == pytest.approx(-0.25, abs=0.01)

    def test_consistency_single_point_grid_flags_no_trend(self, tmp_path):
        prefix = tmp_path / "cons"
        assert run(["study", "--study", "consistency", "--p", 5, "--q", 2,
                    "--n-grid", "120", "--reps", 2, "--out", prefix]) == 0
        res = load_json(str(prefix) + ".json")
        assert res["summary"]["note"] == "no trend computable"
        assert os.path.exists(str(prefix) + ".csv")

    def test_negative_budget_exits_3(self, tmp_path, capsys):
        argv = ["study", "--study", "consistency", "--search", "--p", 4, "--q", 2,
                "--n-grid", "60", "--reps", 1, "--out", tmp_path / "cons"]
        assert run(argv + ["--budget", -1]) == 3
        assert capsys.readouterr().err == "error: --budget must be nonnegative\n"
        assert not (tmp_path / "cons.json").exists()
        assert run(argv + ["--budget", 0]) == 0
        assert (tmp_path / "cons.json").exists()

    def test_config_echoes_effective_prior(self, tmp_path):
        from nlselect.priors import lambda_for_origin_mass
        prefix = tmp_path / "mode"
        assert run(["study", "--study", "mode-rate", "--p", 4, "--reps", 2,
                    "--n-grid", "50,100", "--effect-floor", 0.3, "--out", prefix]) == 0
        config = load_json(str(prefix) + ".json")["config"]
        assert config["prior"] == {"kind": "spimom", "r": 1.0, "paper_constant": False,
                                   "scale": lambda_for_origin_mass(0.3, r=1.0)}
        assert not {"r", "tau", "lambda", "paper_constant"} & set(config)

    @pytest.mark.parametrize("grid", ["-5,10", "0", "100,10"])
    def test_scalar_mode_rate_checks_n_grid(self, tmp_path, capsys, grid):
        assert run(["study", "--study", "mode-rate", "--scalar", f"--n-grid={grid}",
                    "--out", tmp_path / "s"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: n_grid") and err.count("\n") == 1
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flags, message", [
        (["--family", "bogus"], "unknown family 'bogus'"),
        (["--p", 1], "need |J0| <= q <= p"),
        (["--m", 0.5], "decay exponent must lie in [0, 1/3)"),
        (["--rho", 2], "rho must lie in [0, 1)")])
    def test_scalar_mode_rate_checks_study_flags(self, tmp_path, capsys, flags, message):
        assert run(["study", "--study", "mode-rate", "--scalar", *flags,
                    "--out", tmp_path / "s"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag, value", [
        ("--family", "poisson"), ("--p", 99), ("--q", 2), ("--j0", "1,3"),
        ("--beta0", "0.5,0.5"), ("--m", 0.1), ("--decay-c", 2), ("--reps", 3),
        ("--seed", 7), ("--epsilon", 0.2), ("--nu", 0.2), ("--design", "equicorrelated"),
        ("--rho", 0.5), ("--sigma2", 2)])
    def test_scalar_mode_rate_rejects_data_flags(self, tmp_path, capsys, flag, value):
        # the table reads no data, so a data flag away from its default is a mistake
        argv = ["study", "--study", "mode-rate", "--scalar", "--n-grid", "1000,10000"]
        assert run(argv + [flag, value, "--out", tmp_path / "s"]) == 3
        assert capsys.readouterr().err == f"error: {flag} does not apply to --scalar\n"
        assert not os.listdir(tmp_path)

    def test_scalar_mode_rate_accepts_defaults_and_prior_flags(self, tmp_path):
        assert run(["study", "--study", "mode-rate", "--scalar", "--n-grid", "1000,10000",
                    "--family", "gaussian", "--p", 5, "--q", 3, "--j0", "1,2", "--reps", 50,
                    "--seed", 0, "--rho", 0, "--sigma2", 1, "--prior", "pimom", "--tau", 2,
                    "--r", 2, "--out", tmp_path / "s"]) == 0
        assert load_json(tmp_path / "s.json")["summary"]["prior"] == "pimom(r=2,scale=2)"

    @pytest.mark.parametrize("flags, label", [
        ([], "spimom(r=1,scale=1)"),
        (["--prior", "pimom", "--tau", 0.5], "pimom(r=1,scale=0.5)")])
    def test_mode_rate_json_has_one_prior_label(self, tmp_path, flags, label):
        prefix = tmp_path / "mode"
        assert run(["study", "--study", "mode-rate", "--p", 4, "--reps", 2,
                    "--n-grid", "50,100", *flags, "--out", prefix]) == 0
        res = load_json(str(prefix) + ".json")
        assert list(res["summary"]["pipeline"]) == [label]
        assert list(res["summary"]["scalar"]) == [label]
        rows = list(csv.DictReader((tmp_path / "mode.csv").read_text().splitlines()))
        reps = [r for r in rows if r["row_type"] == "replication"]
        assert len(reps) == 2 * 2
        assert {r["prior"] for r in reps} == {label}

    def test_mode_rate_keeps_every_poisson_replication(self, tmp_path):
        # n = 400, rep 0 stops where the Newton step gains less than the log
        # posterior resolves; the decrement test certifies it, so its gap
        # counts toward the median instead of being dropped.
        prefix = tmp_path / "mode"
        assert run(["study", "--study", "mode-rate", "--family", "poisson", "--p", 5,
                    "--n-grid", "100,200,400", "--reps", 6, "--prior", "pimom",
                    "--out", prefix]) == 0
        assert load_json(str(prefix) + ".json")["summary"]["excluded_replications"] == 0
        rows = list(csv.DictReader((tmp_path / "mode.csv").read_text().splitlines()))
        reps = [r for r in rows if r["row_type"] == "replication"]
        assert len(reps) == 18 and all(r["converged"] == "1" for r in reps)

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        prefix = tmp_path / "missing" / "x"
        assert run(["study", "--study", "mode-rate", "--scalar", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}.csv:") and err.count("\n") == 1
        # only the JSON is unwritable (a directory): no CSV stays behind alone
        (tmp_path / "ow" / "x.json").mkdir(parents=True)
        prefix = tmp_path / "ow" / "x"
        assert run(["study", "--study", "mode-rate", "--scalar", "--out", prefix]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {prefix}.json:") and err.count("\n") == 1
        assert os.listdir(tmp_path / "ow") == ["x.json"]

    def test_study_is_looked_up_when_the_command_runs(self, tmp_path, monkeypatch):
        from nlselect import experiments
        study, ran = experiments.consistency_study, []

        def counting(*args, **kwargs):
            ran.append(1)
            return study(*args, **kwargs)

        monkeypatch.setattr(experiments, "consistency_study", counting)
        assert run(["study", "--study", "consistency", "--p", 4, "--q", 2, "--reps", 1,
                    "--n-grid", "100,200", "--out", tmp_path / "c"]) == 0
        assert ran == [1]

    @pytest.mark.parametrize("argv, message", [
        (["--study", "mle-rate", "--search", "--p", 3, "--n-grid", "100,200,400", "--reps", 2],
         "--search applies to the consistency study only"),
        (["--study", "logm-ratio", "--scalar", "--p", 4, "--q", 3, "--n-grid", "100,200",
          "--reps", 1], "--scalar applies to the mode-rate study only"),
        (["--study", "consistency", "--budget", 3, "--p", 4, "--q", 2, "--n-grid", "100,200",
          "--reps", 1], "--budget applies to --search only")])
    def test_flag_of_another_study_exits_3(self, tmp_path, capsys, argv, message):
        assert run(["study", *argv, "--out", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not os.listdir(tmp_path)

    def test_unknown_study_exits_3(self, tmp_path):
        assert run(["study", "--study", "nope", "--out", tmp_path / "x"]) == 3

    def test_nonpositive_sigma2_exits_3(self, tmp_path, capsys):
        assert run(["study", "--study", "mle-rate", "--sigma2", 0,
                    "--out", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == "error: dispersion must be positive\n"
        assert not (tmp_path / "x.json").exists()

    def test_beta0_none_runs_a_null_truth(self, tmp_path):
        argv = ["study", "--study", "consistency", "--p", 4, "--q", 2, "--j0", "none",
                "--reps", 2, "--n-grid", "100,200"]
        assert run(argv + ["--beta0", "none", "--out", tmp_path / "a"]) == 0
        assert run(argv + ["--beta0=", "--out", tmp_path / "b"]) == 0
        summary = load_json(tmp_path / "a.json")["summary"]
        assert summary == load_json(tmp_path / "b.json")["summary"]

    def test_mode_rate_without_null_coordinate_exits_3(self, tmp_path, capsys):
        assert run(["study", "--study", "mode-rate", "--p", 3, "--j0", "1,2,3",
                    "--beta0", "1,1,1", "--out", tmp_path / "m"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert not (tmp_path / "m.json").exists()

    def test_consistency_over_cap_exits_4(self, tmp_path, capsys):
        # sum_{k<=4} C(100, k) = 4,087,976 models, and no --search
        assert run(["study", "--study", "consistency", "--p", 100, "--q", 4,
                    "--out", tmp_path / "c"]) == 4
        assert capsys.readouterr().err == (
            "error: 4087976 models exceeds the cap of 1000000; rerun with --search\n")

    def test_study_csv_has_replication_and_summary_rows(self, tmp_path):
        prefix = tmp_path / "mle"
        assert run(["study", "--study", "mle-rate", "--p", 4, "--q", 2,
                    "--n-grid", "100,200,400", "--reps", 3,
                    "--out", prefix]) == 0
        lines = (tmp_path / "mle.csv").read_text().strip().splitlines()
        assert lines[0].startswith("row_type,n,rep,")
        reps = [l for l in lines[1:] if l.startswith("replication,")]
        summaries = [l for l in lines[1:] if l.startswith("summary.")]
        assert len(reps) == 3 * 3
        assert len(summaries) >= 3  # per-n medians at least


class TestNonFiniteValues:
    @pytest.mark.parametrize("flags", [
        "fit --lambda nan", "fit --lambda inf", "fit --r nan",
        "fit --prior pimom --tau nan", "fit --sigma2 nan", "fit --sigma2 inf",
        "density --lambda nan", "study --study mle-rate --sigma2 inf",
        "simulate --p 5 --n 100 --sigma2 inf",
        "study --study logm-ratio --epsilon nan", "study --study logm-ratio --nu inf",
        "simulate --p 5 --n 100 --family logistic --beta0 nan,1",
        "simulate --p 5 --n 100 --family logistic --beta0 inf,nan",
        "study --study mle-rate --family logistic --p 4 --beta0 nan,1 --reps 1",
        "study --study consistency --family logistic --p 4 --m 0.2 --decay-c inf --reps 1"])
    def test_exits_3_and_writes_nothing(self, tmp_path, capsys, flags):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 5, "--n", 100]) == 0
        command, *rest = flags.split()
        argv = [command, "--out", tmp_path / "x", *rest]
        if command == "fit":
            argv += ["--input", data]
        assert run(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.endswith("finite\n") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.truth.json"]


class TestInputChecks:
    @pytest.mark.parametrize("flags, message", [
        ("density --prior foo", "unknown prior 'foo'"),
        ("density --prior pimom --lambda 1", "--lambda applies to spimom only"),
        ("density --prior pimom --tau -1", "prior scale must be positive"),
        ("density --prior pimom --paper-constant", "--paper-constant applies to spimom only"),
        ("fit --q -1", "--q must be nonnegative"),
        ("fit --sigma2 0", "--sigma2 must be positive"),
        ("simulate --p 0 --n 100", "need --p >= 1 and --n >= 2"),
        ("density --grid a:b:5", "cannot parse grid 'a:b:5'"),
        ("study --study mle-rate --beta0 1 --m 0.1", "give either --beta0 or --m, not both"),
        ("study --study mle-rate --n-grid ,", "empty n-grid")])
    def test_exits_3_and_writes_nothing(self, tmp_path, capsys, flags, message):
        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 3, "--n", 50]) == 0
        command, *rest = flags.split()
        argv = [command, "--out", tmp_path / "x", *rest]
        if command == "fit":
            argv += ["--input", data]
        assert run(argv) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert sorted(os.listdir(tmp_path)) == ["d.csv", "d.csv.truth.json"]


class TestTrueSupport:
    """--j0 is taken as typed: its order is the order of --beta0.  Every
    --j0 error names the flag."""

    MESSAGES = {
        "--j0 2,1 --beta0 5,0": "--j0: indices must be strictly increasing, got (2, 1)",
        "--j0 1,1 --beta0 5": "--j0: indices must be strictly increasing, got (1, 1)",
        "--j0 0 --beta0 5": "--j0: indices must be >= 1, got (0,)",
        "--j0 abc --beta0 5": "--j0: cannot parse index list 'abc'",
        "--j0 5 --beta0 1": "--j0: true support indexes beyond p"}

    @pytest.mark.parametrize("command", [
        "simulate --p 3 --n 50",
        "study --study mle-rate --p 4 --reps 1 --n-grid 100,200"])
    @pytest.mark.parametrize("truth", list(MESSAGES))
    def test_unsorted_or_repeated_j0_exits_3(self, tmp_path, capsys, command, truth):
        argv = [*command.split(), *truth.split(), "--out", tmp_path / "x"]
        assert run(argv) == 3
        assert capsys.readouterr().err == f"error: {self.MESSAGES[truth]}\n"
        assert os.listdir(tmp_path) == []


class TestSerialization:
    def test_json_17_digit_floats(self):
        text = to_json({"x": 0.1, "inf": math.inf, "ninf": -math.inf,
                        "nan": math.nan})
        assert '"x": 0.10000000000000001' in text
        assert '"inf": "inf"' in text and '"ninf": "-inf"' in text
        assert '"nan": "nan"' in text

    def test_json_sorted_keys(self):
        text = to_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_csv_cells_round_trip(self):
        vals = [0.1, 1.0 / 3.0, 1e-300, -math.pi]
        text = rows_to_csv([{"v": v} for v in vals])
        back = [float(line.split(",")[0])
                for line in text.strip().splitlines()[1:]]
        assert back == vals

    def test_unknown_flag_exits_2(self, capsys):
        assert run(["fit", "--nonsense"]) == 2
        capsys.readouterr()


class TestModelRows:
    """A fit's ``models`` rows are filled into a row template; they must be
    the bytes ``to_json`` writes for the same rows as dicts."""

    def test_template_matches_to_json_of_dicts(self):
        post = posterior_probs([(ModelIndex(()), -3.0), (ModelIndex((1,)), -math.inf),
                                (ModelIndex((2,)), -1.5), (ModelIndex((1, 2)), 0.25)])
        rows = [{"indices": m, "log_marginal": lm, "probability": prob}
                for m, lm, prob in post.entries]
        assert to_json({"models": post, "n": 4}) == to_json({"models": rows, "n": 4})

    @pytest.mark.parametrize("flags", [["--q", 2], ["--q", 0],
                                       ["--q", 3, "--search", "--budget", 8]])
    def test_fit_file_matches_to_json(self, tmp_path, flags):
        # column 3 copies column 1, so every model holding both is excluded
        rng = np.random.default_rng(5)
        X = rng.normal(size=(60, 4))
        X[:, 2] = X[:, 0]
        y = X[:, 0] - 0.7 * X[:, 1] + rng.normal(size=60)
        data = tmp_path / "dup.csv"
        data.write_text(dataset_to_csv(Dataset(y=y, X=X)))
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--out", out] + flags) == 0
        text = out.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert to_json(doc) + "\n" == text
        assert doc["models"][0]["indices"] == []
        assert doc["diagnostics"]["saddle_count"] == sum(m["log_marginal"] == "-inf"
                                                         for m in doc["models"])
        if flags[1] == 2:
            excluded = [m for m in doc["models"]
                        if m["indices"][:1] == [1] and 3 in m["indices"]]
            assert excluded and all(m["log_marginal"] == "-inf" and m["probability"] == 0
                                    for m in excluded)


class TestOneScoringPath:
    """Every command scores through ``posterior.score_models``; the scalar
    functions are the tests' reference only."""

    @pytest.mark.parametrize("family", ["gaussian", "logistic"])
    def test_commands_never_call_the_scalar_path(self, tmp_path, monkeypatch, family):
        from nlselect import glm, posterior
        from nlselect.experiments import hessian_diagnostics
        from nlselect.priors import spimom

        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 4, "--n", 150,
                    "--family", family, "--seed", 2]) == 0

        def forbidden(*args, **kwargs):
            raise AssertionError("a command called the scalar reference path")

        reference = (glm.fit_mle, glm.newton_ascent, posterior.find_posterior_mode,
                     posterior.fit_model)
        docs = []
        with monkeypatch.context() as guard:
            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "nlselect":
                    for attr, value in list(vars(mod).items()):
                        if any(value is f for f in reference):
                            guard.setattr(mod, attr, forbidden)
            for flags in ([], ["--search", "--budget", 6]):
                out = tmp_path / "fit.json"
                assert run(["fit", "--input", data, "--family", family, "--q", 2,
                            "--out", out] + flags) == 0
                docs.append(load_json(out))
            for study in ("mle-rate", "mode-rate", "logm-ratio", "consistency"):
                assert run(["study", "--study", study, "--family", family, "--p", 4,
                            "--q", 3, "--n-grid", "100,200", "--reps", 2,
                            "--out", tmp_path / study]) == 0

        d = read_dataset_csv(str(data), family, 1.0)
        for doc in docs:
            top = ModelIndex(doc["top"])
            mle = glm.fit_mle(d, top)
            pm = posterior.find_posterior_mode(d, top, spimom(), mle)
            want = hessian_diagnostics(d, top, mle.beta_hat, pm.beta_pm)
            for key, value in want._asdict().items():
                assert doc["diagnostics"][key] == pytest.approx(value, rel=1e-8, abs=0.0)

    def test_search_scores_only_the_walk(self, tmp_path, monkeypatch):
        from nlselect import posterior

        data = tmp_path / "d.csv"
        assert run(["simulate", "--out", data, "--p", 6, "--n", 150, "--seed", 2]) == 0
        score_models, rows = posterior.score_models, []

        def counting(d, models, spec):
            rows.extend(len(block) for block in models)
            return score_models(d, models, spec)

        monkeypatch.setattr(posterior, "score_models", counting)
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 3, "--search", "--budget", 12,
                    "--out", out]) == 0
        assert sum(rows) == load_json(out)["n_models_scored"]


def row_loop_reader(path, family="gaussian", dispersion=1.0):
    """The reader as it was before the one-call parse: every cell through
    ``float`` in a ``csv.reader`` loop.  The reference for ``read_dataset_csv``."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise cli.InputError(f"{path}: empty file") from None
        if "y" not in header:
            raise cli.InputError(f"{path}: no column named 'y'")
        y_pos = header.index("y")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise cli.InputError(f"{path}:{lineno}: expected {len(header)} cells")
            try:
                rows.append([float(v) for v in row])
            except ValueError:
                raise cli.InputError(f"{path}:{lineno}: non-numeric cell") from None
    if not rows:
        raise cli.InputError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    try:
        return Dataset(y=data[:, y_pos], X=np.delete(data, y_pos, axis=1),
                       family=family, dispersion=dispersion)
    except ValueError as exc:
        raise cli.ConfigError(str(exc)) from None


def assert_bitwise_equal(a, b):
    assert a.shape == b.shape and a.tobytes() == b.tobytes()


class TestReadCsv:
    """``read_dataset_csv`` parses in one ``np.loadtxt`` call and falls back
    to its row loop; either way it must read what the row loop alone read."""

    @pytest.mark.parametrize("text", [
        "x1,y\n1,2\n\n3,4\n",               # blank line in the middle
        "x1,y\n1,2\n3,4\n\n",               # blank line at the end
        "x1,y\r\n1,2\r\n\r\n3,4\r\n",       # blank CRLF line
        "x1,y\r\n1.5,2\r\n3,4\r\n",         # CRLF line endings
        "x1,y\n1.5,2\n3,4",                 # no trailing newline
        'x1,y\n"1.5",2\n3,4\n',             # quoted cell
        "x1,y\n#,2\n3,4\n",                 # a comment character is a cell
        "x1,y\n1_000,2\n3,4\n",             # underscores: only float() reads them
        "x1,y\n١.5,2\n3,4\n",          # a non-ASCII digit
        "x1,y\n 1.5 ,2\n3,\t4\n",           # padded cells
        "x1,y\n,2\n3,4\n",                  # empty cell
        "x1,x2,y\n1,2,3\n4,5\n",            # ragged row
        "x1,y\n1,2,\n3,4,\n",               # trailing comma on every row
        "x1,y\n1,2\n3,4\noops,5\n",         # bad row after good ones
        "x1,y\n1,nan\n3,4\n",               # non-finite cells exit 3
        "x1,y\n1,2\n-inf,4\n",
        "x1,y\n1,nan\n3,4\n\n",             # a blank line comes before the nan check
        "x1,y,x2\n1,2,3\n4,5,6\n7,8,9\n",   # y in a middle column
        "x1,y\n1,2\n",                      # one data row
        "x1,y\n",                           # header only
        "x1,y\n\n\n",                       # only blank lines after the header
        "",                                 # empty file
        "x1,x2\n1,2\n",                     # no y column
        "y\n1\n2\n",                        # no predictor (exit 3)
    ])
    def test_same_result_as_the_row_loop(self, tmp_path, capsys, text):
        path = tmp_path / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = row_loop_reader(str(path))
        except (cli.InputError, cli.ConfigError) as exc:
            code = 2 if isinstance(exc, cli.InputError) else 3
            assert run(["fit", "--input", path, "--q", 1]) == code
            out, err = capsys.readouterr()
            assert out == "" and err == f"error: {exc}\n"
            return
        got = read_dataset_csv(str(path), "gaussian", 1.0)
        assert_bitwise_equal(got.X, want.X)
        assert_bitwise_equal(got.y, want.y)

    @pytest.mark.parametrize("text", ["y,x1\n2,1\n4,3\n", "x1,y\n1,2\n3,4\n"])
    def test_byte_order_mark_is_ignored(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        d = read_dataset_csv(str(path), "gaussian", 1.0)
        np.testing.assert_array_equal(d.X, [[1.0], [3.0]])
        np.testing.assert_array_equal(d.y, [2.0, 4.0])
        assert run(["fit", "--input", path, "--q", 1, "--out", tmp_path / "f.json"]) == 0

    @pytest.mark.parametrize("data", [b"x1,y\n1,2\n\xff,3\n",   # bad byte in the body
                                      b"x\xff,y\n1,2\n3,4\n"])  # bad byte in the header
    def test_not_utf8_exits_2(self, tmp_path, capsys, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        assert run(["fit", "--input", path, "--q", 1]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {path}: not UTF-8 text\n"

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(1, 6), st.integers(1, 4), st.data())
    def test_round_trip_is_bitwise(self, n, p, data):
        cell = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                         st.sampled_from([-0.0, 5e-324, -2.5e-310, 1e300, -1e-300]))
        values = np.array(data.draw(st.lists(cell, min_size=n * (p + 1),
                                             max_size=n * (p + 1))))
        d = Dataset(y=values[:n], X=values[n:].reshape(n, p))
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "d.csv")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dataset_to_csv(d))
            got = read_dataset_csv(path, "gaussian", 1.0)
        assert_bitwise_equal(got.X, d.X)
        assert_bitwise_equal(got.y, d.y)

    def test_written_files_take_the_one_call_parse(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(8)
        d = Dataset(y=rng.normal(size=30), X=rng.normal(size=(30, 4)) * 1e-3)
        path = tmp_path / "d.csv"
        path.write_text(dataset_to_csv(d), encoding="utf-8")

        def no_row_loop(*args, **kwargs):
            raise AssertionError("the row loop ran on a well-formed file")

        monkeypatch.setattr(cli, "_parse_rows", no_row_loop)
        got = read_dataset_csv(str(path), "gaussian", 1.0)
        assert_bitwise_equal(got.X, d.X)
        assert_bitwise_equal(got.y, d.y)


class TestModelsJson:
    def test_missing_model_size_writes_no_empty_row(self):
        # no model of size 1: its stratum is a (0, 1) array
        post = posterior_probs([(ModelIndex(()), -2.0), (ModelIndex((1, 3)), math.nan),
                                (ModelIndex((2, 3)), -0.5)])
        assert post.strata[1].shape == (0, 1)
        rows = [{"indices": m, "log_marginal": lm, "probability": prob}
                for m, lm, prob in post.entries]
        assert to_json({"models": post}) == to_json({"models": rows})


class TestParser:
    def test_two_calls_build_the_parser_once(self, tmp_path, monkeypatch):
        # the parser is built at most once per process, however many main calls
        built = []
        real_init = argparse.ArgumentParser.__init__

        def spy(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
        for _ in range(2):
            assert run(["density", "--grid=-1:1:5", "--out", tmp_path / "dens.csv"]) == 0
        assert built.count("nlselect") <= 1
