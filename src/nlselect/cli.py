"""Command-line front door: selection runs, simulation, prior density grids,
and the rate/consistency studies, all seeded and machine-readable.

Exit codes: 0 success, 2 malformed input (CSV or command line), 3 invalid
configuration, 4 model space over the enumeration cap without --search.
JSON output serializes numbers with 17 significant digits and sorted keys,
so rerunning an echoed configuration reproduces files byte-for-byte;
non-finite values appear as the strings "inf", "-inf", "nan".  Output files
are written to a temporary sibling and renamed into place.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from typing import Optional, Sequence

import numpy as np

from . import experiments, posterior
from .experiments import ExperimentConfig, hessian_diagnostics
from .glm import FAMILIES, Dataset, fit_mle
from .modelspace import (ModelIndex, ModelPosterior, TooManyModels,
                         enumerate_strata, greedy_search, normalize_strata)
from .numerics import NoBracket, adaptive_quad, make_stream
from .priors import NonlocalPriorSpec, lambda_for_origin_mass, log_density_1d

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BAD_CONFIG = 3
EXIT_TOO_MANY_MODELS = 4

DEFAULT_Q = 3
DEFAULT_BUDGET = 200
SCALAR_N_GRID = (10**3, 10**4, 10**5, 10**6, 10**7)
PIPELINE_N_GRID = (200, 800, 3200, 12800)
CONSISTENCY_N_GRID = (100, 200, 400, 800)


class ConfigError(Exception):
    """Inconsistent or unknown configuration values (exit 3)."""


class InputError(Exception):
    """Malformed input file (exit 2)."""


# =============================================================================
# Serialization helpers
# =============================================================================


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(float(x), ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats.  A
    ModelPosterior is written as its list of model rows (``_models_json``)."""
    pad = " " * indent
    inner = " " * (indent + 2)
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        import json
        return json.dumps(obj)
    if isinstance(obj, ModelIndex):
        return to_json(list(obj.indices), indent)
    if isinstance(obj, ModelPosterior):
        return _models_json(obj, indent)
    if isinstance(obj, np.ndarray):
        return to_json(obj.tolist(), indent)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + to_json(v, indent + 2) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for k in sorted(obj, key=str):
            import json
            items.append(inner + json.dumps(str(k)) + ": "
                         + to_json(obj[k], indent + 2))
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _models_json(post: ModelPosterior, indent: int) -> str:
    """What ``to_json`` writes for the list of {"indices", "log_marginal",
    "probability"} dicts of a posterior's models, filled into one row
    template per model size instead of walked value by value."""
    row_pad, field_pad = " " * (indent + 2), " " * (indent + 4)
    log_marginal = post.log_marginal.tolist()
    probability = post.probability.tolist()
    out = []
    start = 0
    for k, rows in enumerate(post.strata):
        indices = ("[\n" + ",\n".join([" " * (indent + 6) + "%d"] * k) + "\n"
                   + field_pad + "]") if k else "[]"
        template = (row_pad + "{\n" + field_pad + '"indices": ' + indices + ",\n"
                    + field_pad + '"log_marginal": %s,\n'
                    + field_pad + '"probability": %s\n' + row_pad + "}")
        stop = start + rows.shape[0]
        for row, lm, prob in zip(rows.tolist(), log_marginal[start:stop],
                                 probability[start:stop]):
            out.append(template % (*row, _format_float(lm), _format_float(prob)))
        start = stop
    return "[\n" + ",\n".join(out) + "\n" + " " * indent + "]"


def _csv_cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "1" if v else "0"
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def write_atomic(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def rows_to_csv(rows: Sequence[dict]) -> str:
    if not rows:
        return "\n"
    fields = list(rows[0].keys())
    for r in rows[1:]:
        for k in r:
            if k not in fields:
                fields.append(k)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for r in rows:
        writer.writerow([_csv_cell(r.get(k, "")) for k in fields])
    return buf.getvalue()


def dataset_to_csv(d: Dataset) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([f"x{j}" for j in range(1, d.p + 1)] + ["y"])
    for i in range(d.n):
        writer.writerow([_csv_cell(v) for v in d.X[i]] + [_csv_cell(d.y[i])])
    return buf.getvalue()


def read_dataset_csv(path: str, family: str, dispersion: float) -> Dataset:
    """Parse the documented CSV format: header row, response column ``y``,
    every other column a numeric predictor in left-to-right model order."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file") from None
            if "y" not in header:
                raise InputError(f"{path}: no column named 'y'")
            y_pos = header.index("y")
            rows = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != len(header):
                    raise InputError(f"{path}:{lineno}: expected {len(header)} cells")
                try:
                    rows.append([float(v) for v in row])
                except ValueError:
                    raise InputError(f"{path}:{lineno}: non-numeric cell") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc}") from None
    if not rows:
        raise InputError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=float)
    y = data[:, y_pos]
    X = np.delete(data, y_pos, axis=1)
    try:
        return Dataset(y=y, X=X, family=family, dispersion=dispersion)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


# =============================================================================
# Flag parsing helpers
# =============================================================================


def _parse_int_list(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"cannot parse {what} list {text!r}") from None


def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(",") if v.strip() != "")
    except ValueError:
        raise ConfigError(f"cannot parse {what} list {text!r}") from None


def _parse_support(text: str) -> ModelIndex:
    if text.strip().lower() in ("", "none"):
        return ModelIndex()
    try:
        return ModelIndex.of(_parse_int_list(text, "index"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _check_family(name: str) -> str:
    if name not in FAMILIES:
        raise ConfigError(f"unknown family {name!r}")
    return name


def _prior_from_args(args) -> NonlocalPriorSpec:
    kind = args.prior
    if kind not in ("pimom", "spimom"):
        raise ConfigError(f"unknown prior {kind!r}")
    if kind == "pimom" and args.lam is not None:
        raise ConfigError("--lambda applies to spimom only")
    if kind == "spimom" and args.tau is not None:
        raise ConfigError("--tau applies to pimom only")
    if args.r <= 0:
        raise ConfigError("--r must be positive")
    if kind == "pimom":
        scale = args.tau if args.tau is not None else 1.0
    else:
        scale = args.lam
        if scale is None:
            floor = getattr(args, "effect_floor", None)
            try:
                scale = 1.0 if floor is None else lambda_for_origin_mass(floor, r=args.r)
            except (ValueError, NoBracket) as exc:
                raise ConfigError(
                    f"--effect-floor {floor} gives no spimom scale: {exc}") from None
    if scale is None or scale <= 0:
        raise ConfigError("prior scale must be positive")
    if args.paper_constant and kind != "spimom":
        raise ConfigError("--paper-constant applies to spimom only")
    try:
        return NonlocalPriorSpec(kind=kind, r=args.r, scale=float(scale),
                                 paper_constant_mode=args.paper_constant)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _prior_echo(spec: NonlocalPriorSpec) -> dict:
    return {"kind": spec.kind, "r": spec.r, "scale": spec.scale,
            "paper_constant": spec.paper_constant_mode}


# =============================================================================
# Subcommands
# =============================================================================


def cmd_fit(args) -> int:
    family = _check_family(args.family)
    spec = _prior_from_args(args)
    if args.q < 0:
        raise ConfigError("--q must be nonnegative")
    if args.sigma2 <= 0:
        raise ConfigError("--sigma2 must be positive")
    if args.budget < 0:
        raise ConfigError("--budget must be nonnegative")
    d = read_dataset_csv(args.input, family, args.sigma2)
    q = min(args.q, d.p)
    config_echo = {
        "subcommand": "fit", "input": args.input, "family": family,
        "sigma2": args.sigma2, "prior": _prior_echo(spec), "q": q,
        "search": bool(args.search), "budget": args.budget, "seed": args.seed,
    }
    saddle_count = 0
    if args.search:
        post, top = greedy_search(d, spec, q, args.budget, make_stream(args.seed))
    else:
        try:
            strata = enumerate_strata(d.p, q)
        except TooManyModels as exc:
            print(f"error: {exc}; rerun with --search", file=sys.stderr)
            return EXIT_TOO_MANY_MODELS
        scores = posterior.score_models(d, strata, spec)
        post = normalize_strata(strata, scores.log_marginal, q)
        top = post.top
        saddle_count = int(scores.excluded.sum())
    top_mle = fit_mle(d, top)
    top_pm = posterior.find_posterior_mode(d, top, spec, top_mle)
    diag = hessian_diagnostics(d, top_mle, [top_mle.beta_hat, top_pm.beta_pm])
    result = {
        "config": config_echo,
        "n": d.n, "p": d.p, "n_models_scored": len(post.entries),
        "models": post,
        "top": top,
        "diagnostics": {
            "c_l_hat": diag.c_l_hat, "c_u_hat": diag.c_u_hat,
            "c_d_hat": diag.c_d_hat, "c1_max": diag.c1_max,
            "top_mle_converged": top_mle.converged,
            "top_mle_separation": top_mle.separation,
            "top_mode_converged": top_pm.converged,
            "saddle_count": saddle_count,
        },
    }
    text = to_json(result) + "\n"
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_simulate(args) -> int:
    family = _check_family(args.family)
    if args.p < 1 or args.n < 2:
        raise ConfigError("need --p >= 1 and --n >= 2")
    j0 = _parse_support(args.j0)
    if args.beta0.strip().lower() in ("", "none"):
        beta0: tuple[float, ...] = ()
        if j0.size:
            raise ConfigError("--beta0 none requires --j0 none")
    else:
        beta0 = _parse_float_list(args.beta0, "beta0")
    try:
        cfg = ExperimentConfig(
            family=family, p=args.p, q=max(j0.size, min(args.p, DEFAULT_Q)),
            true_support=j0, n_grid=(args.n,), replications=1, seed=args.seed,
            beta0=beta0, design=args.design, rho=args.rho,
            dispersion=args.sigma2)
        d, realized = experiments.simulate_dataset(cfg, args.n, make_stream(args.seed))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    write_atomic(args.out, dataset_to_csv(d))
    sidecar = {
        "config": {"subcommand": "simulate", "family": family, "p": args.p,
                   "n": args.n, "seed": args.seed, "design": args.design,
                   "rho": args.rho, "sigma2": args.sigma2},
        "true_support": j0,
        "beta0": list(realized),
        "csv": args.out,
    }
    write_atomic(args.out + ".truth.json", to_json(sidecar) + "\n")
    return EXIT_OK


def cmd_density(args) -> int:
    spec = _prior_from_args(args)
    parts = args.grid.split(":")
    if len(parts) != 3:
        raise ConfigError(f"grid must be lo:hi:count, got {args.grid!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"cannot parse grid {args.grid!r}") from None
    if not (lo < hi and count >= 2):
        raise ConfigError("grid needs lo < hi and count >= 2")
    grid = np.linspace(lo, hi, count)
    dens = np.exp(log_density_1d(grid, spec))
    rows = [{"beta": b, "density": v} for b, v in zip(grid, dens)]
    text = rows_to_csv(rows)
    if args.out:
        write_atomic(args.out, text)
    else:
        sys.stdout.write(text)
    if args.verify:
        integral = adaptive_quad(lambda b: np.exp(log_density_1d(b, spec)),
                                 -math.inf, math.inf, tol=1e-8)
        print(f"normalization integral: {integral:.6f}")
    return EXIT_OK


def _summary_rows(summary: dict, label: str = "summary") -> list[dict]:
    """Flatten every list-of-dicts in a study summary into labeled CSV rows."""
    rows: list[dict] = []

    def walk(node, path):
        if isinstance(node, list) and node and all(isinstance(x, dict) for x in node):
            for x in node:
                flat = {"row_type": path}
                flat.update((k, v) for k, v in x.items()
                            if not isinstance(v, (dict, list)))
                rows.append(flat)
        elif isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{path}.{k}")

    walk(summary, label)
    return rows


def _study_config(args, n_grid: tuple[int, ...]) -> ExperimentConfig:
    family = _check_family(args.family)
    j0 = _parse_support(args.j0)
    spec = _prior_from_args(args)
    beta0 = None
    decay_c = decay_m = None
    if args.m is not None:
        decay_c = args.decay_c
        decay_m = args.m
        if args.beta0 is not None:
            raise ConfigError("give either --beta0 or --m, not both")
    else:
        beta0 = _parse_float_list(args.beta0 if args.beta0 is not None
                                  else "1.0,-0.8", "beta0")
    try:
        return ExperimentConfig(
            family=family, p=args.p, q=args.q, true_support=j0,
            n_grid=n_grid, replications=args.reps, seed=args.seed,
            beta0=beta0, decay_c=decay_c, decay_m=decay_m,
            priors=(spec,), design=args.design, rho=args.rho,
            dispersion=args.sigma2, epsilon=args.epsilon, nu=args.nu)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def cmd_study(args) -> int:
    known = ("mle-rate", "mode-rate", "logm-ratio", "consistency")
    if args.study not in known:
        raise ConfigError(f"unknown study {args.study!r}; choose from {known}")
    if args.n_grid is not None:
        n_grid = _parse_int_list(args.n_grid, "n-grid")
    elif args.study == "mode-rate" and args.scalar:
        n_grid = SCALAR_N_GRID
    elif args.study == "consistency":
        n_grid = CONSISTENCY_N_GRID
    else:
        n_grid = PIPELINE_N_GRID
    if not n_grid:
        raise ConfigError("empty n-grid")
    if args.budget < 0:
        raise ConfigError("--budget must be nonnegative")

    config_echo = {
        "subcommand": "study", "study": args.study, "family": args.family,
        "p": args.p, "q": args.q, "j0": args.j0, "beta0": args.beta0,
        "m": args.m, "decay_c": args.decay_c, "n_grid": list(n_grid),
        "reps": args.reps, "seed": args.seed, "prior": args.prior,
        "r": args.r, "tau": args.tau, "lambda": args.lam,
        "paper_constant": args.paper_constant, "scalar": bool(args.scalar),
        "design": args.design, "rho": args.rho, "sigma2": args.sigma2,
        "epsilon": args.epsilon, "nu": args.nu,
        "search": bool(args.search), "budget": args.budget,
    }

    if args.study == "mode-rate" and args.scalar:
        spec = _prior_from_args(args)
        table = experiments.scalar_mode_rate_table(spec, n_grid)
        rows = [{"prior": experiments._prior_label(spec), "n": n, "mode": m}
                for n, m, _ in table.rows]
        summary = {"study": "mode-rate-scalar",
                   "prior": experiments._prior_label(spec),
                   "slope": table.slope, "slope_se": table.slope_se,
                   "note": table.note,
                   "per_n": [{"n": n, "mode": m} for n, m, _ in table.rows]}
    else:
        cfg = _study_config(args, n_grid)
        if args.study == "mle-rate":
            res = experiments.mle_rate_study(cfg)
        elif args.study == "mode-rate":
            res = experiments.mode_rate_study(cfg)
        elif args.study == "logm-ratio":
            res = experiments.logm_ratio_study(cfg)
        else:
            budget = args.budget if args.search else None
            res = experiments.consistency_study(cfg, search_budget=budget)
        rows = res.rows
        summary = res.summary()
        if len(n_grid) < 2 and not summary.get("note"):
            summary["note"] = "no trend computable"

    csv_rows = [{"row_type": "replication", **r} for r in rows]
    csv_rows.extend(_summary_rows(summary))
    out_prefix = args.out if args.out else args.study
    write_atomic(out_prefix + ".csv", rows_to_csv(csv_rows))
    write_atomic(out_prefix + ".json",
                 to_json({"config": config_echo, "summary": summary}) + "\n")
    return EXIT_OK


# =============================================================================
# Parser
# =============================================================================


def _add_prior_flags(sub) -> None:
    sub.add_argument("--prior", default="spimom", help="pimom or spimom")
    sub.add_argument("--r", type=float, default=1.0)
    sub.add_argument("--tau", type=float, default=None,
                     help="pimom scale (default 1)")
    sub.add_argument("--lambda", dest="lam", type=float, default=None,
                     help="spimom scale (default 1, or solved from --effect-floor)")
    sub.add_argument("--effect-floor", dest="effect_floor", type=float,
                     default=None,
                     help="solve the spimom scale so 1%% of prior mass falls "
                          "inside (-floor, floor)")
    sub.add_argument("--paper-constant", action="store_true",
                     help="use the halved printed spimom constant instead of "
                          "the exact mixture constant")


def _add_design_flags(sub) -> None:
    sub.add_argument("--design", default=experiments.DESIGN_IID,
                     help="iid-normal or equicorrelated")
    sub.add_argument("--rho", type=float, default=0.0,
                     help="equicorrelation of the design factor")
    sub.add_argument("--sigma2", type=float, default=1.0,
                     help="known gaussian variance")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlselect",
        description="Bayesian variable selection for GLMs with nonlocal priors.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    fit = subs.add_parser("fit", help="score models on a CSV dataset")
    fit.add_argument("--input", required=True, help="dataset CSV (column 'y' + predictors)")
    fit.add_argument("--out", default=None, help="output JSON path (default stdout)")
    fit.add_argument("--family", default="gaussian")
    fit.add_argument("--q", type=int, default=DEFAULT_Q, help="model size bound")
    fit.add_argument("--search", action="store_true",
                     help="greedy search instead of enumeration")
    fit.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                     help="search score budget")
    fit.add_argument("--seed", type=int, default=0)
    _add_prior_flags(fit)
    fit.add_argument("--sigma2", type=float, default=1.0)

    sim = subs.add_parser("simulate", help="draw a dataset and a truth sidecar")
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.add_argument("--family", default="gaussian")
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--j0", default="1,2", help="true support, e.g. 1,3 (or 'none')")
    sim.add_argument("--beta0", default="1.0,-0.8",
                     help="true coefficients on --j0 (or 'none')")
    sim.add_argument("--seed", type=int, default=0)
    _add_design_flags(sim)

    den = subs.add_parser("density", help="tabulate a prior density on a grid")
    den.add_argument("--grid", default="-5:5:1001", help="lo:hi:count")
    den.add_argument("--out", default=None, help="output CSV path (default stdout)")
    den.add_argument("--verify", action="store_true",
                     help="also print the quadrature normalization integral")
    _add_prior_flags(den)

    study = subs.add_parser("study", help="run a simulation study")
    study.add_argument("--study", required=True,
                       help="mle-rate | mode-rate | logm-ratio | consistency")
    study.add_argument("--scalar", action="store_true",
                       help="mode-rate only: data-free stationarity variant")
    study.add_argument("--family", default="gaussian")
    study.add_argument("--p", type=int, default=5)
    study.add_argument("--q", type=int, default=DEFAULT_Q)
    study.add_argument("--j0", default="1,2")
    study.add_argument("--beta0", default=None)
    study.add_argument("--m", type=float, default=None, help="signal decay exponent")
    study.add_argument("--decay-c", dest="decay_c", type=float, default=1.0,
                       help="signal decay constant used with --m")
    study.add_argument("--n-grid", dest="n_grid", default=None,
                       help="comma-separated sample sizes")
    study.add_argument("--reps", type=int, default=50)
    study.add_argument("--seed", type=int, default=0)
    study.add_argument("--epsilon", type=float, default=0.1)
    study.add_argument("--nu", type=float, default=0.1)
    study.add_argument("--search", action="store_true",
                       help="consistency only: greedy search instead of enumeration")
    study.add_argument("--budget", type=int, default=DEFAULT_BUDGET)
    study.add_argument("--out", default=None, help="output path prefix")
    _add_prior_flags(study)
    _add_design_flags(study)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse already printed a one-line message for malformed input
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {"fit": cmd_fit, "simulate": cmd_simulate,
                "density": cmd_density, "study": cmd_study}
    try:
        return handlers[args.subcommand](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
