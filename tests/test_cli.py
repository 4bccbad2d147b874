"""Command-line behavior: exit codes, file formats, reproducibility, and the
documented end-to-end selection examples."""

import json
import math
import os

import numpy as np
import pytest

from nlselect.cli import main, read_dataset_csv, rows_to_csv, to_json


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
