"""The benchmark's workloads: seeded inputs, the CLI calls that make one op,
and the checks every op's output must pass.

Inputs come from this file's own numpy code and never from the program, so
the program receives only the generated files.  Every input is a pure
function of the run seed and its index k.

A workload has ``inputs`` distinct inputs per run, and a run measures whole
passes over them, so every run measures the same inputs equally often.
Many inputs per run, because op time depends on the data:
at the seed commit a dataset has 0 to 6 models whose mode search stalls at
the iteration cap, each costing tens of ordinary fits, so one dataset's op
time moves by +-12% from seed to seed.  The median over a run's inputs is
steady.  The warm-up op also runs input 0, so every run repeats at least one
input, and repeated ops must write byte-identical files.

``ref/<workload>.json`` holds the seed commit's results for some run seeds,
made by ``make_reference.py``: for each input, a record of the fields that
must not change.  Where the file holds the run seed, every op's output is
compared with it field by field.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

TRUTH = (1, 2)
Q = 3
LAMBDA = 1.0
SIGMA2 = 1.0
# Absolute tolerance on a log marginal, against the re-scored or the stored
# value.  Log marginals here are of order 1e3, so this admits last-digit
# changes from a reordered computation (a batched prototype differed by
# 4.9e-8) but not a changed model fit.
LOGM_ABS_TOL = 1e-6
# Absolute tolerance on study probabilities against the stored reference.
PROB_ABS_TOL = 1e-6
# Slack for sums of probabilities that are each exact to rounding.
SUM_TOL = 1e-9
RESCORE_SAMPLE = 24

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "ref")

_FAMILY_TAG = {"gaussian": 1, "logistic": 2, "poisson": 3}


class CheckFailed(Exception):
    """An op's output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _same_logm(want: float, got: float) -> bool:
    """Equal within LOGM_ABS_TOL; an infinite value must match exactly."""
    return want == got if math.isinf(want) else abs(want - got) <= LOGM_ABS_TOL


class Workload:
    """Seeded inputs, the CLI calls of one op, and the checks of its output.

    Subclasses set ``name`` and ``inputs`` and define ``prepare``, ``calls``,
    ``summarize``, ``record`` (the fields of one input's output that the
    reference keeps) and ``check``."""

    name: str
    inputs: int
    count_models = False  # True when the output does not say how many models were scored
    _refs = None

    def ref_path(self) -> str:
        return os.path.join(REF_DIR, self.name + ".json")

    def reference(self, seed: int, k: int):
        """The seed commit's record for input k of a run seed, or None."""
        if self._refs is None:
            self._refs = {}
            if os.path.exists(self.ref_path()):
                with open(self.ref_path(), encoding="utf-8") as fh:
                    self._refs = json.load(fh)["runs"]
        records = self._refs.get(str(seed))
        return records[k] if records else None


@dataclass(frozen=True)
class FitData:
    """One simulated regression: iid N(0,1) columns, standardized, with the
    truth on columns 1 and 2."""

    family: str
    p: int
    n: int
    beta: tuple[float, float]

    def arrays(self, seed: int, k: int) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng([seed, _FAMILY_TAG[self.family], k])
        X = rng.normal(size=(self.n, self.p))
        X = (X - X.mean(axis=0)) / X.std(axis=0)
        theta = X[:, :2] @ np.asarray(self.beta)
        if self.family == "gaussian":
            y = theta + math.sqrt(SIGMA2) * rng.normal(size=self.n)
        elif self.family == "logistic":
            y = (rng.uniform(size=self.n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
        else:
            y = rng.poisson(np.exp(theta)).astype(float)
        return X, y

    def stem(self, k: int) -> str:
        return f"{self.family}-{k}"

    def model_space(self) -> list[tuple]:
        """Every model of size 0..Q, size-major then lexicographic."""
        return [c for j in range(Q + 1) for c in itertools.combinations(range(1, self.p + 1), j)]

    def sample(self, seed: int, k: int) -> set[tuple]:
        """The models re-scored and kept in the reference: the empty model,
        the truth and RESCORE_SAMPLE seed-chosen ones."""
        space = self.model_space()
        rng = np.random.default_rng([seed, _FAMILY_TAG[self.family], k, 7])
        picks = rng.choice(len(space), size=RESCORE_SAMPLE, replace=False)
        return {space[i] for i in picks.tolist()} | {(), TRUTH}


class FitWorkload(Workload):
    """``nlselect fit`` with full enumeration on one or more datasets per op."""

    def __init__(self, name: str, datasets: tuple[FitData, ...], inputs: int):
        self.name = name
        self.datasets = datasets
        self.inputs = inputs

    def prepare(self, work: str, seed: int) -> None:
        for k in range(self.inputs):
            for ds in self.datasets:
                X, y = ds.arrays(seed, k)
                header = ",".join([f"x{j}" for j in range(1, ds.p + 1)] + ["y"])
                np.savetxt(os.path.join(work, ds.stem(k) + ".csv"),
                           np.column_stack([X, y]), fmt="%.17g", delimiter=",",
                           header=header, comments="")

    def calls(self, work: str, seed: int, k: int) -> list[tuple[list[str], list[str]]]:
        out = []
        for ds in self.datasets:
            path = os.path.join(work, ds.stem(k) + ".json")
            argv = ["fit", "--input", os.path.join(work, ds.stem(k) + ".csv"),
                    "--family", ds.family, "--q", str(Q), "--prior", "spimom",
                    "--lambda", repr(LAMBDA), "--out", path]
            if ds.family == "gaussian":
                argv += ["--sigma2", repr(SIGMA2)]
            out.append((argv, [path]))
        return out

    def summarize(self, outputs: list[bytes]) -> dict:
        """Models scored and top-model hits of one op, checked or not."""
        docs = [json.loads(raw) for raw in outputs]
        return {"models": sum(len(doc["models"]) for doc in docs),
                "hits": sum(tuple(doc["top"]) == TRUTH for doc in docs),
                "trials": len(docs)}

    def record(self, seed: int, k: int, outputs: list[bytes]) -> dict:
        """Per dataset: the top model and the log marginals of the sample
        and the top."""
        out = {}
        for ds, raw in zip(self.datasets, outputs):
            doc = json.loads(raw)
            logm = _log_marginals(doc)
            top = tuple(doc["top"])
            out[ds.stem(k)] = {"top": list(top), "logm": [
                [list(key), logm[key]] for key in sorted(ds.sample(seed, k) | {top})]}
        return out

    def check(self, seed: int, k: int, outputs: list[bytes]) -> None:
        ref = self.reference(seed, k)
        for ds, raw in zip(self.datasets, outputs):
            _check_fit(ds, json.loads(raw), seed, k, ref and ref[ds.stem(k)])


def _log_marginals(doc: dict) -> dict:
    # float() also reads the CLI's non-finite strings "inf", "-inf", "nan"
    return {tuple(m["indices"]): float(m["log_marginal"]) for m in doc["models"]}


def _check_fit(ds: FitData, doc: dict, seed: int, k: int, ref) -> None:
    from nlselect.glm import Dataset
    from nlselect.modelspace import ModelIndex
    from nlselect.posterior import fit_model
    from nlselect.priors import NonlocalPriorSpec

    models = doc["models"]
    _require(doc["n"] == ds.n and doc["p"] == ds.p, "n or p differs from the input")
    _require(doc["config"]["family"] == ds.family and doc["config"]["q"] == Q,
             "config echo differs from the request")
    space = ds.model_space()
    _require(doc["n_models_scored"] == len(models) == len(space),
             f"n_models_scored {doc['n_models_scored']} != model-space size {len(space)}")
    logm = _log_marginals(doc)
    _require(sorted(logm) == sorted(space), "the models listed are not the model space")
    probs = [float(m["probability"]) for m in models]
    _require(all(0.0 <= pr <= 1.0 for pr in probs), "probability outside [0, 1]")
    _require(abs(math.fsum(probs) - 1.0) <= SUM_TOL,
             f"probabilities sum to {math.fsum(probs)!r}")
    best = max(logm.values())
    _require(math.isfinite(best), "no finite log marginal")
    top = min(key for key, lm in logm.items() if lm == best)
    _require(tuple(doc["top"]) == top, f"top {doc['top']} is not the arg-max {list(top)}")

    # Re-score the sample and the top with the scalar reference scorer.
    X, y = ds.arrays(seed, k)
    d = Dataset(y=y, X=X, family=ds.family, dispersion=SIGMA2)
    spec = NonlocalPriorSpec(kind="spimom", r=1.0, scale=LAMBDA)
    for key in sorted(ds.sample(seed, k) | {top}):
        want = fit_model(d, ModelIndex(key), spec).log_marginal
        _require(_same_logm(want, logm[key]), f"model {list(key)}: log marginal "
                 f"{logm[key]!r}, reference fit_model gives {want!r}")

    if ref is None:
        return
    for key, want in ref["logm"]:
        _require(_same_logm(want, logm[tuple(key)]), f"model {key}: log marginal "
                 f"{logm[tuple(key)]!r}, the seed commit gave {want!r}")
    ref_top = tuple(ref["top"])
    _require(top == ref_top or _same_logm(logm[ref_top], best),
             f"top {list(top)} differs from the seed commit's top {list(ref_top)}")


STUDY_N_GRID = (100, 200, 400, 800)
STUDY_REPS = 3


class StudyWorkload(Workload):
    """``nlselect study --study consistency --search``; the study seed of
    input k is derived from the run seed."""

    name = "study-consistency-search"
    count_models = True

    def __init__(self, inputs: int):
        self.inputs = inputs

    def study_seed(self, seed: int, k: int) -> int:
        return seed * self.inputs + k

    def prepare(self, work: str, seed: int) -> None:
        pass

    def calls(self, work: str, seed: int, k: int) -> list[tuple[list[str], list[str]]]:
        prefix = os.path.join(work, f"consistency-{k}")
        argv = ["study", "--study", "consistency", "--search", "--budget", "500",
                "--p", "100", "--q", str(Q),
                "--n-grid", ",".join(map(str, STUDY_N_GRID)),
                "--reps", str(STUDY_REPS), "--seed", str(self.study_seed(seed, k)),
                "--out", prefix]
        return [(argv, [prefix + ".csv", prefix + ".json"])]

    @staticmethod
    def _rows(outputs: list[bytes]) -> list[dict]:
        return [r for r in csv.DictReader(io.StringIO(outputs[0].decode("utf-8")))
                if r["row_type"] == "replication"]

    def summarize(self, outputs: list[bytes]) -> dict:
        """Top-model hits of one op, checked or not.  Models scored is not in
        the output; the worker counts it."""
        rows = self._rows(outputs)
        return {"models": None, "hits": sum(r["top_is_truth"] == "1" for r in rows),
                "trials": len(rows)}

    def record(self, seed: int, k: int, outputs: list[bytes]) -> list[list]:
        """The replication rows: n, rep, prob_truth, mass_a, mass_b, top_is_truth."""
        return [[int(r["n"]), int(r["rep"]), float(r["prob_truth"]), float(r["mass_a"]),
                 float(r["mass_b"]), int(r["top_is_truth"])] for r in self._rows(outputs)]

    def check(self, seed: int, k: int, outputs: list[bytes]) -> None:
        table = self.record(seed, k, outputs)
        want = [(n, rep) for n in STUDY_N_GRID for rep in range(STUDY_REPS)]
        got = [(row[0], row[1]) for row in table]
        _require(got == want, f"replication rows {got} != {want}")
        for row in table:
            pt, ma, mb = row[2:5]
            _require(all(0.0 <= v <= 1.0 for v in (pt, ma, mb)),
                     f"n={row[0]} rep={row[1]}: a mass lies outside [0, 1]")
            _require(pt + ma + mb <= 1.0 + SUM_TOL,
                     f"n={row[0]} rep={row[1]}: prob_truth + mass_a + mass_b > 1")
            _require(row[5] in (0, 1), "top_is_truth is not 0/1")
        ref = self.reference(seed, k)
        if ref is not None:
            for row, ref_row in zip(table, ref):
                _require(row[:2] == ref_row[:2] and row[5] == ref_row[5],
                         f"row {row} differs from the seed commit's {ref_row}")
                _require(all(abs(a - b) <= PROB_ABS_TOL for a, b in zip(row[2:5], ref_row[2:5])),
                         f"row {row} differs from the seed commit's {ref_row}")
        summary = json.loads(outputs[1])["summary"]
        for per_n in summary["per_n"]:
            grp = [row[5] for row in table if row[0] == per_n["n"]]
            _require(abs(per_n["hit_rate"] - sum(grp) / len(grp)) <= 1e-12,
                     f"summary hit_rate at n={per_n['n']} disagrees with the rows")


WORKLOADS = {
    w.name: w for w in (
        FitWorkload("fit-enum-gaussian",
                    (FitData("gaussian", p=30, n=800, beta=(1.0, -0.8)),), inputs=16),
        FitWorkload("fit-enum-glm",
                    (FitData("logistic", p=15, n=1600, beta=(1.0, -0.8)),
                     FitData("poisson", p=15, n=1600, beta=(0.5, -0.4))), inputs=20),
        StudyWorkload(inputs=20),
    )
}
