"""Simulation harness: desk-scale empirical checks of the asymptotic claims.

Four studies, all bit-reproducible from (config, seed):

* ``mle_rate_study``      -- l2 error of the MLE on the true support.
* ``mode_rate_study``     -- distance between posterior mode and MLE on a
                             null coordinate, plus a data-free scalar variant
                             that solves the stationarity equation exactly.
* ``logm_ratio_study``    -- log marginal ratios of strict supersets against
                             the true model, decomposed into likelihood and
                             prior-kernel parts.
* ``consistency_study``   -- posterior probability of the true model and the
                             nested / non-nested masses along an n-grid.

Medians (not means) aggregate replications: the ratio statistics are heavy
tailed at small n.  Simulated designs are column-standardized so Hessian
bounds are comparable across n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .glm import FAMILIES, Dataset, GlmFit, fit_mle, log_likelihood, neg_hessian
from .modelspace import (ModelIndex, enumerate_strata, greedy_search,
                         normalize_strata)
from .numerics import (RandomStream, derive_stream, factor_logdet, make_stream,
                       root_find)
from .posterior import find_posterior_mode, fit_model, score_models
from .priors import NonlocalPriorSpec, log_prior_constant, spimom

DESIGN_IID = "iid-normal"
DESIGN_EQUICORRELATED = "equicorrelated"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study needs to be rerun bit-identically.

    The true coefficients are either the fixed vector ``beta0`` or the
    decaying rule value = decay_c * n^(-decay_m) applied to every supported
    coordinate; the decay exponent must sit in [0, 1/3) for the consistency
    regime.  (The growth exponents relating p and q to n are realized
    implicitly by the (p, q, n_grid) choices; summaries report them but
    nothing enforces them.)
    """

    family: str
    p: int
    q: int
    true_support: ModelIndex
    n_grid: tuple[int, ...]
    replications: int
    seed: int
    beta0: Optional[tuple[float, ...]] = None
    decay_c: Optional[float] = None
    decay_m: Optional[float] = None
    priors: tuple[NonlocalPriorSpec, ...] = (spimom(),)
    design: str = DESIGN_IID
    rho: float = 0.0
    dispersion: float = 1.0
    epsilon: float = 0.1
    nu: float = 0.1

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.true_support.size <= self.q <= self.p):
            raise ValueError("need |J0| <= q <= p")
        if self.true_support.size and self.true_support.indices[-1] > self.p:
            raise ValueError("true support indexes beyond p")
        if not self.n_grid or any(n <= 1 for n in self.n_grid):
            raise ValueError("n_grid entries must exceed 1")
        if any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        if self.replications < 1:
            raise ValueError("need at least one replication")
        has_fixed = self.beta0 is not None
        has_decay = self.decay_c is not None or self.decay_m is not None
        if has_fixed == has_decay:
            raise ValueError("give exactly one of beta0 or (decay_c, decay_m)")
        if has_fixed and len(self.beta0) != self.true_support.size:
            raise ValueError("beta0 length must match |J0|")
        if has_decay:
            if self.decay_c is None or self.decay_m is None:
                raise ValueError("decaying rule needs both decay_c and decay_m")
            if not (0.0 <= self.decay_m < 1.0 / 3.0):
                raise ValueError("decay exponent must lie in [0, 1/3)")
        if self.design not in (DESIGN_IID, DESIGN_EQUICORRELATED):
            raise ValueError(f"unknown design rule {self.design!r}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if not self.dispersion > 0.0:
            raise ValueError("dispersion must be positive")

    def realized_beta0(self, n: int) -> np.ndarray:
        if self.beta0 is not None:
            return np.asarray(self.beta0, dtype=float)
        value = self.decay_c * n ** (-self.decay_m)
        return np.full(self.true_support.size, value)


def simulate_dataset(cfg: ExperimentConfig, n: int,
                     stream: RandomStream) -> tuple[Dataset, np.ndarray]:
    """Draw one dataset of size ``n`` under the configured truth.

    Design columns are standardized to zero mean and unit sample variance;
    responses are drawn from the family at theta = X[:, J0] beta0.
    Deterministic given the stream.
    """
    if n < cfg.true_support.size + 1 or n < 2:
        raise ValueError(f"n = {n} too small to simulate")
    rng = stream.generator
    X = rng.normal(size=(n, cfg.p))
    if cfg.design == DESIGN_EQUICORRELATED and cfg.rho > 0.0:
        shared = rng.normal(size=(n, 1))
        X = math.sqrt(1.0 - cfg.rho) * X + math.sqrt(cfg.rho) * shared
    X = X - X.mean(axis=0)
    X = X / X.std(axis=0)
    beta0 = cfg.realized_beta0(n)
    theta = X[:, cfg.true_support.cols] @ beta0
    y = FAMILIES[cfg.family].sample(theta, cfg.dispersion, rng)
    return Dataset(y=y, X=X, family=cfg.family, dispersion=cfg.dispersion), beta0


# =============================================================================
# Rate tables
# =============================================================================


@dataclass
class RateTable:
    """Per-n medians with a least-squares log-log slope when >= 3 rows."""

    statistic: str
    rows: list[tuple[int, float, float]]  # (n, median, iqr)
    slope: Optional[float] = None
    slope_se: Optional[float] = None
    note: str = ""


def _fit_loglog(ns: Sequence[int], medians: Sequence[float]
                ) -> tuple[Optional[float], Optional[float], str]:
    usable = [(n, m) for n, m in zip(ns, medians) if m > 0 and math.isfinite(m)]
    if len(usable) < 3:
        return None, None, "no slope: fewer than 3 usable rows"
    x = np.log([n for n, _ in usable])
    y = np.log([m for _, m in usable])
    xc = x - x.mean()
    slope = float((xc @ y) / (xc @ xc))
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (intercept + slope * x)
    dof = len(usable) - 2
    se = math.sqrt(float(resid @ resid) / dof / float(xc @ xc)) if dof > 0 else float("nan")
    return slope, se, ""


def _rate_table(statistic: str, ns: Sequence[int],
                groups: Sequence[Sequence[float]]) -> RateTable:
    rows = []
    medians = []
    for n, vals in zip(ns, groups):
        arr = np.asarray(vals, dtype=float)
        if arr.size == 0:
            rows.append((n, float("nan"), float("nan")))
            medians.append(float("nan"))
            continue
        q1, med, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
        rows.append((int(n), float(med), float(q3 - q1)))
        medians.append(float(med))
    slope, se, note = _fit_loglog(ns, medians)
    return RateTable(statistic=statistic, rows=rows, slope=slope,
                     slope_se=se, note=note)


def _growth_exponents(cfg: ExperimentConfig) -> dict:
    """Realized p- and q-growth exponents along the grid (reported only)."""
    out = []
    for n in cfg.n_grid:
        out.append({
            "n": n,
            "omega_realized": math.log(math.log(cfg.p)) / math.log(n)
            if cfg.p > math.e else float("nan"),
            "psi_realized": math.log(cfg.q * math.log(cfg.p)) / math.log(n)
            if cfg.q * math.log(cfg.p) > 1.0 else float("nan"),
        })
    return {"per_n": out}


# =============================================================================
# MLE rate study
# =============================================================================


@dataclass
class MleRateResult:
    table: RateTable
    scaled_medians: list[tuple[int, float]]  # (n, n^(1/3) * median)
    rows: list[dict]
    excluded: int

    def summary(self) -> dict:
        return {
            "study": "mle-rate",
            "statistic": self.table.statistic,
            "per_n": [{"n": n, "median": m, "iqr": i}
                      for n, m, i in self.table.rows],
            "scaled_medians": [{"n": n, "value": v} for n, v in self.scaled_medians],
            "slope": self.table.slope,
            "slope_se": self.table.slope_se,
            "note": self.table.note,
            "excluded_replications": self.excluded,
        }


def mle_rate_study(cfg: ExperimentConfig) -> MleRateResult:
    """Median l2 distance of the true-support MLE from the truth, per n.

    Replications whose Newton fit did not converge are excluded from the
    medians and counted.  The scaled statistic n^(1/3) * median tracks
    whether the error decays faster than the theoretical envelope.
    """
    root = make_stream(cfg.seed)
    rows: list[dict] = []
    groups: list[list[float]] = []
    excluded = 0
    for ni, n in enumerate(cfg.n_grid):
        vals: list[float] = []
        for rep in range(cfg.replications):
            stream = derive_stream(derive_stream(root, ni), rep)
            d, beta0 = simulate_dataset(cfg, n, stream)
            fit = fit_mle(d, cfg.true_support)
            err = float(np.linalg.norm(fit.beta_hat - beta0))
            rows.append({"n": n, "rep": rep, "l2_error": err,
                         "converged": fit.converged})
            if fit.converged:
                vals.append(err)
            else:
                excluded += 1
        groups.append(vals)
    table = _rate_table("l2 error of MLE on true support", cfg.n_grid, groups)
    scaled = [(n, n ** (1.0 / 3.0) * med) for n, med, _ in table.rows]
    return MleRateResult(table=table, scaled_medians=scaled, rows=rows,
                         excluded=excluded)


# =============================================================================
# Posterior-mode rate study
# =============================================================================


def _prior_label(spec: NonlocalPriorSpec) -> str:
    return f"{spec.kind}(r={spec.r:g},scale={spec.scale:g})"


def scalar_null_mode(spec: NonlocalPriorSpec, n: float) -> float:
    """Positive mode coordinate when the MLE is zero, via the stationarity root.

    With unit per-observation information, the coordinate solves
    n b^(1+2*zeta) + (r+1) b^(2*zeta - 1) ... specialized per kind:
    spiMOM: n b^3 + (r+1) b = 2 sqrt(lambda); piMOM: n b^4 + (r+1) b^2 = 2 tau.
    No data involved; used as the exactness baseline for the full pipeline.
    """
    r, phi = spec.r, spec.scale
    if spec.kind == "spimom":
        f = lambda b: n * b**3 + (r + 1.0) * b - 2.0 * math.sqrt(phi)
    else:
        f = lambda b: n * b**4 + (r + 1.0) * b**2 - 2.0 * phi
    return root_find(f, 0.0, 2.0 * spec.prior_mode, tol=1e-12)


def scalar_mode_rate_table(spec: NonlocalPriorSpec, n_grid: Sequence[int]) -> RateTable:
    """Rate table of the analytic null-coordinate mode over an n-grid."""
    groups = [[scalar_null_mode(spec, n)] for n in n_grid]
    return _rate_table(f"scalar null-coordinate mode, {_prior_label(spec)}",
                       list(n_grid), groups)


@dataclass
class ModeRateResult:
    tables: dict[str, RateTable]
    scalar_tables: dict[str, RateTable]
    null_index: int
    rows: list[dict]

    def summary(self) -> dict:
        def tab(t: RateTable) -> dict:
            return {"statistic": t.statistic, "slope": t.slope,
                    "slope_se": t.slope_se, "note": t.note,
                    "per_n": [{"n": n, "median": m, "iqr": i}
                              for n, m, i in t.rows]}
        return {
            "study": "mode-rate",
            "null_index": self.null_index,
            "pipeline": {k: tab(t) for k, t in self.tables.items()},
            "scalar": {k: tab(t) for k, t in self.scalar_tables.items()},
        }


def mode_rate_study(cfg: ExperimentConfig) -> ModeRateResult:
    """|posterior mode - MLE| on a null coordinate, per prior spec and n.

    Fits the model consisting of the true support plus the smallest index
    outside it, so exactly one fitted coordinate is null.  The scalar
    analytic variant is computed alongside on the same n-grid.
    """
    if cfg.true_support.size >= cfg.p:
        raise ValueError("no null coordinate available: |J0| = p")
    null_index = min(set(range(1, cfg.p + 1)) - set(cfg.true_support.indices))
    model = cfg.true_support.with_added(null_index)
    null_pos = model.indices.index(null_index)
    root = make_stream(cfg.seed)
    rows: list[dict] = []
    tables: dict[str, RateTable] = {}
    for si, spec in enumerate(cfg.priors):
        label = _prior_label(spec)
        groups: list[list[float]] = []
        for ni, n in enumerate(cfg.n_grid):
            vals: list[float] = []
            for rep in range(cfg.replications):
                stream = derive_stream(derive_stream(root, ni), rep)
                d, _ = simulate_dataset(cfg, n, stream)
                mle = fit_mle(d, model)
                pm = find_posterior_mode(d, model, spec, mle)
                if not (mle.converged and pm.converged):
                    rows.append({"prior": label, "n": n, "rep": rep,
                                 "null_gap": float("nan"), "converged": False})
                    continue
                gap = abs(float(pm.beta_pm[null_pos] - mle.beta_hat[null_pos]))
                rows.append({"prior": label, "n": n, "rep": rep,
                             "null_gap": gap, "converged": True})
                vals.append(gap)
            groups.append(vals)
        tables[label] = _rate_table(
            f"null-coordinate |mode - MLE|, {label}", cfg.n_grid, groups)
    scalar_tables = {_prior_label(s): scalar_mode_rate_table(s, cfg.n_grid)
                     for s in cfg.priors}
    return ModeRateResult(tables=tables, scalar_tables=scalar_tables,
                          null_index=null_index, rows=rows)


# =============================================================================
# Log-marginal-ratio study
# =============================================================================


def _marginal_pieces(d: Dataset, J: ModelIndex, spec: NonlocalPriorSpec,
                     pm) -> dict:
    """Exact additive decomposition of one Laplace log marginal.

    total = loglik + kernel + rest, where kernel is the exact prior kernel
    -c_zeta * sum (phi/beta^2)^zeta (c = 1 for piMOM, 2 for spiMOM), and
    rest collects the per-coordinate constants, the -(r+1) sum log|beta|
    prior factor, and the (k/2) log 2pi - (1/2) logdet Laplace terms.
    """
    k = J.size
    ll = log_likelihood(d, J, pm.beta_pm)
    if k == 0:
        return {"loglik": ll, "kernel": 0.0, "kernel_dominant": 0.0,
                "rest": 0.0, "total": ll}
    dominant = float(((spec.scale / pm.beta_pm**2) ** spec.zeta).sum())
    coeff = 1.0 if spec.kind == "pimom" else 2.0
    kernel = -coeff * dominant
    _, logdet = factor_logdet(pm.neg_hessian_logpost)
    rest = (0.5 * k * math.log(2 * math.pi) - 0.5 * logdet + k * log_prior_constant(spec)
            - (spec.r + 1.0) * float(np.log(np.abs(pm.beta_pm)).sum()))
    return {"loglik": ll, "kernel": kernel, "kernel_dominant": dominant,
            "rest": rest, "total": ll + kernel + rest}


def _sample_supersets(truth: ModelIndex, p: int, q: int, per_size: int,
                      stream: RandomStream) -> list[ModelIndex]:
    """Up to ``per_size`` strict supersets of the truth for each extra size."""
    complement = sorted(set(range(1, p + 1)) - set(truth.indices))
    out: list[ModelIndex] = []
    for extra in range(1, q - truth.size + 1):
        total = math.comb(len(complement), extra)
        if total <= per_size:
            picks = list(itertools.combinations(complement, extra))
        else:
            rng = derive_stream(stream, extra).generator
            seen = set()
            while len(seen) < per_size:
                pick = tuple(sorted(rng.choice(complement, size=extra,
                                               replace=False).tolist()))
                seen.add(pick)
            picks = sorted(seen)
        out.extend(ModelIndex.of(truth.indices + pick) for pick in picks)
    return out


@dataclass
class LogmRatioResult:
    rows: list[dict]
    per_group: list[dict]  # medians per (n, extra size)
    max_identity_gap: float

    def summary(self) -> dict:
        return {
            "study": "logm-ratio",
            "per_group": self.per_group,
            "max_identity_gap": self.max_identity_gap,
        }


def logm_ratio_study(cfg: ExperimentConfig, supersets_per_size: int = 20,
                     spec: Optional[NonlocalPriorSpec] = None) -> LogmRatioResult:
    """Median log(M_J / M_J0) over strict supersets J of the truth, per n.

    Every row carries the likelihood-ratio part, the dominant prior-ratio
    part sum_J (phi/beta^2)^zeta - sum_J0 (.), and the exact-decomposition
    remainder; the three pieces must rebuild the total to 1e-10, which is
    asserted per replication.  The first-term prediction with the
    configured (epsilon, nu) knobs is reported for reference only; the
    proportionality constant is unknown, so only sign and monotonicity are
    meaningful checks.
    """
    spec = spec if spec is not None else cfg.priors[0]
    truth = cfg.true_support
    root = make_stream(cfg.seed)
    rows: list[dict] = []
    max_gap = 0.0
    for ni, n in enumerate(cfg.n_grid):
        for rep in range(cfg.replications):
            stream = derive_stream(derive_stream(root, ni), rep)
            d, _ = simulate_dataset(cfg, n, stream)
            pm0 = fit_model(d, truth, spec)
            pieces0 = _marginal_pieces(d, truth, spec, pm0)
            supersets = _sample_supersets(truth, cfg.p, cfg.q,
                                          supersets_per_size,
                                          derive_stream(stream, 10**6))
            for J in supersets:
                pm = fit_model(d, J, spec)
                if not math.isfinite(pm.log_marginal):
                    continue
                pieces = _marginal_pieces(d, J, spec, pm)
                total = pieces["total"] - pieces0["total"]
                gap = abs((pm.log_marginal - pm0.log_marginal) - total)
                max_gap = max(max_gap, gap)
                extra = J.size - truth.size
                rows.append({
                    "n": n, "rep": rep, "extra": extra,
                    "log_ratio": pm.log_marginal - pm0.log_marginal,
                    "loglik_part": pieces["loglik"] - pieces0["loglik"],
                    "prior_part_dominant":
                        pieces["kernel_dominant"] - pieces0["kernel_dominant"],
                    "prior_part_exact": pieces["kernel"] - pieces0["kernel"],
                    "rest_part": pieces["rest"] - pieces0["rest"],
                    "identity_gap": gap,
                    "predicted_first_term":
                        (1.0 + cfg.epsilon) * (cfg.nu + extra) * math.log(cfg.p),
                })
    per_group: list[dict] = []
    for n in cfg.n_grid:
        for extra in sorted({r["extra"] for r in rows}):
            grp = [r for r in rows if r["n"] == n and r["extra"] == extra]
            if not grp:
                continue
            per_group.append({
                "n": n, "extra": extra,
                "median_log_ratio": float(np.median([r["log_ratio"] for r in grp])),
                "median_loglik_part": float(np.median([r["loglik_part"] for r in grp])),
                "median_prior_part_dominant":
                    float(np.median([r["prior_part_dominant"] for r in grp])),
            })
    return LogmRatioResult(rows=rows, per_group=per_group,
                           max_identity_gap=max_gap)


# =============================================================================
# Consistency study
# =============================================================================


@dataclass
class ConsistencyResult:
    rows: list[dict]
    per_n: list[dict]
    growth: dict
    lambda_window: list[dict]

    def summary(self) -> dict:
        return {
            "study": "consistency",
            "per_n": self.per_n,
            "growth_exponents": self.growth,
            "lambda_window": self.lambda_window,
        }


def consistency_study(cfg: ExperimentConfig,
                      spec: Optional[NonlocalPriorSpec] = None,
                      search_budget: Optional[int] = None) -> ConsistencyResult:
    """Posterior mass on and around the true model along the n-grid.

    Scores the full bounded model space by enumeration, or a greedy-search
    subset when ``search_budget`` is given.  Reports, per n, the median
    probability of the truth, the median nested and non-nested masses, and
    how often the top model is exactly the truth.  The scale-window
    comparison lambda^(1/6) versus n^(2/9) is reported without assertion;
    its constants are not quantified.
    """
    spec = spec if spec is not None else cfg.priors[0]
    truth = cfg.true_support
    strata = None if search_budget is not None else enumerate_strata(cfg.p, cfg.q)
    root = make_stream(cfg.seed)
    rows: list[dict] = []
    for ni, n in enumerate(cfg.n_grid):
        for rep in range(cfg.replications):
            stream = derive_stream(derive_stream(root, ni), rep)
            d, _ = simulate_dataset(cfg, n, stream)
            if strata is not None:
                scores = score_models(d, strata, spec)
                post = normalize_strata(strata, scores.log_marginal, cfg.q)
            else:
                post, _ = greedy_search(d, spec, cfg.q, search_budget,
                                        derive_stream(stream, 10**6))
            post.set_truth(truth)
            rows.append({
                "n": n, "rep": rep,
                "prob_truth": post.probability_of(truth),
                "mass_a": post.mass_a, "mass_b": post.mass_b,
                "top_is_truth": post.top == truth,
            })
    per_n: list[dict] = []
    for n in cfg.n_grid:
        grp = [r for r in rows if r["n"] == n]
        per_n.append({
            "n": n,
            "median_prob_truth": float(np.median([r["prob_truth"] for r in grp])),
            "median_mass_a": float(np.median([r["mass_a"] for r in grp])),
            "median_mass_b": float(np.median([r["mass_b"] for r in grp])),
            "hit_rate": float(np.mean([r["top_is_truth"] for r in grp])),
        })
    window = [{"n": n, "lambda_sixth": spec.scale ** (1.0 / 6.0),
               "n_two_ninths": n ** (2.0 / 9.0)} for n in cfg.n_grid]
    return ConsistencyResult(rows=rows, per_n=per_n,
                             growth=_growth_exponents(cfg),
                             lambda_window=window)


# =============================================================================
# Hessian diagnostics
# =============================================================================


class HessianDiagnostics(NamedTuple):
    c_l_hat: float
    c_u_hat: float
    c_d_hat: float
    c1_max: float


def hessian_diagnostics(d: Dataset, mle: GlmFit,
                        points: Sequence[np.ndarray]) -> HessianDiagnostics:
    """Empirical identifiability constants of the model ``mle.model`` over
    the supplied points.

    c_l_hat / c_u_hat bound the spectrum of the scaled curvature n^-1 H over
    the points; c_d_hat is the largest spectral-norm Lipschitz ratio between
    point pairs; c1_max is the largest single-observation score contribution
    |x_ij (y_i - mean_i)| at the caller's MLE ``mle``.  Reported as
    estimates: no pass/fail threshold is claimed for c1_max.
    """
    J = mle.model
    if not points:
        raise ValueError("points must be nonempty")
    if J.size == 0:
        # eigvalsh of a 0 x 0 matrix is empty
        return HessianDiagnostics(c_l_hat=0.0, c_u_hat=0.0, c_d_hat=0.0, c1_max=0.0)
    points = [np.asarray(b, dtype=float).reshape(-1) for b in points]
    n = d.n
    hessians = [neg_hessian(d, J, b).entries for b in points]
    spectra = np.linalg.eigvalsh(np.array(hessians) / n)
    c_d = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            dist = float(np.linalg.norm(points[i] - points[j]))
            if dist == 0.0:
                continue
            norm = float(np.abs(np.linalg.eigvalsh(hessians[i] - hessians[j])).max())
            c_d = max(c_d, norm / (n * dist))
    Xj = d.X[:, J.cols]
    resid = d.y - FAMILIES[d.family].mean(Xj @ mle.beta_hat)
    c1 = float(np.abs(Xj * resid[:, None]).max())
    return HessianDiagnostics(c_l_hat=float(spectra[:, 0].min()),
                              c_u_hat=float(spectra[:, -1].max()),
                              c_d_hat=float(c_d), c1_max=c1)
