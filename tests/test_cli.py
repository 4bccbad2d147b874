"""Command-line behavior: exit codes, file formats, reproducibility, and the
documented end-to-end selection examples."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlselect.cli import dataset_to_csv, main, read_dataset_csv, rows_to_csv, to_json
from nlselect.glm import Dataset
from nlselect.modelspace import ModelIndex, posterior_probs


def run(argv):
    return main([str(a) for a in argv])


def load_json(path):
    return json.load(open(path, encoding="utf-8"))


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
        data = self.make_data(tmp_path, seed=9)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run(["fit", "--input", data, "--q", 2, "--out", out]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_simulate_then_fit_recovers_truth(self, tmp_path):
        data = tmp_path / "sim.csv"
        assert run(["simulate", "--out", data, "--p", 10, "--n", 500,
                    "--j0", "2,7", "--beta0", "1.2,-1.0", "--seed", 11]) == 0
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--q", 3, "--out", out]) == 0
        assert load_json(out)["top"] == [2, 7]

    def test_negative_budget_exits_3(self, tmp_path, capsys):
        data = self.make_data(tmp_path)
        assert run(["fit", "--input", data, "--search", "--budget", -5]) == 3
        err = capsys.readouterr().err
        assert err == "error: --budget must be nonnegative\n"
        out = tmp_path / "fit.json"
        assert run(["fit", "--input", data, "--search", "--budget", 0, "--out", out]) == 0
        assert load_json(out)["n_models_scored"] == 1

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

    @pytest.mark.parametrize("floor", ["-1", "0", "1e6"])
    def test_effect_floor_without_scale_exits_3(self, floor, capsys):
        # not positive: origin_mass rejects it; 1e6: no lambda in the bracket
        assert run(["density", f"--effect-floor={floor}"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: --effect-floor") and err.count("\n") == 1


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

    def test_unknown_study_exits_3(self, tmp_path):
        assert run(["study", "--study", "nope", "--out", tmp_path / "x"]) == 3

    def test_nonpositive_sigma2_exits_3(self, tmp_path, capsys):
        assert run(["study", "--study", "mle-rate", "--sigma2", 0,
                    "--out", tmp_path / "x"]) == 3
        assert capsys.readouterr().err == "error: dispersion must be positive\n"
        assert not (tmp_path / "x.json").exists()

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
        if flags[1] == 2:
            excluded = [m for m in doc["models"]
                        if m["indices"][:1] == [1] and 3 in m["indices"]]
            assert excluded and all(m["log_marginal"] == "-inf" and m["probability"] == 0
                                    for m in excluded)
