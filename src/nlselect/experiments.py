"""Simulation harness: desk-scale empirical checks of the asymptotic claims.

Five studies, each a function of one ``ExperimentConfig`` that returns a
``StudyResult``.  The four that draw data are each one pass over the same
replication loop (``_replications``), so all are bit-reproducible from the
config, seed included:

* ``mle_rate_study``      -- l2 error of the MLE on the true support.
* ``mode_rate_study``     -- distance between posterior mode and MLE on a
                             null coordinate, alongside the scalar variant.
* ``scalar_mode_rate_study`` -- the data-free null-coordinate mode that solves
                             the stationarity equation exactly.
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
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .glm import FAMILIES, Dataset, log_likelihood, model_batch, neg_hessian
from .modelspace import (ModelIndex, enumerate_strata, greedy_search,
                         normalize_strata)
from .numerics import RandomStream, derive_stream, make_stream
from .posterior import ModelScores, batch_mle, score_models
from .priors import NonlocalPriorSpec, coordinate_mode, log_prior_constant, spimom

DESIGN_IID = "iid-normal"
DESIGN_EQUICORRELATED = "equicorrelated"


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study needs to be rerun bit-identically: the truth, the
    n-grid, the prior, and the greedy-search budget of the consistency study
    (``None`` scores the full model space by enumeration).

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
    prior: NonlocalPriorSpec = spimom()
    design: str = DESIGN_IID
    rho: float = 0.0
    dispersion: float = 1.0
    epsilon: float = 0.1
    nu: float = 0.1
    search_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not (self.true_support.size <= self.q <= self.p):
            raise ValueError("need |J0| <= q <= p")
        if self.true_support.size and self.true_support.indices[-1] > self.p:
            raise ValueError("true support indexes beyond p")
        _check_n_grid(self.n_grid)
        if self.replications < 1:
            raise ValueError("need at least one replication")
        has_fixed = self.beta0 is not None
        has_decay = self.decay_c is not None or self.decay_m is not None
        if has_fixed == has_decay:
            raise ValueError("give exactly one of beta0 or (decay_c, decay_m)")
        if has_fixed and len(self.beta0) != self.true_support.size:
            raise ValueError("beta0 length must match |J0|")
        if has_fixed and not all(math.isfinite(b) for b in self.beta0):
            raise ValueError("beta0 entries must be finite")
        if has_decay:
            if self.decay_c is None or self.decay_m is None:
                raise ValueError("decaying rule needs both decay_c and decay_m")
            if not math.isfinite(self.decay_c):
                raise ValueError("decay_c must be finite")
            if not (0.0 <= self.decay_m < 1.0 / 3.0):
                raise ValueError("decay exponent must lie in [0, 1/3)")
        if self.design not in (DESIGN_IID, DESIGN_EQUICORRELATED):
            raise ValueError(f"unknown design rule {self.design!r}")
        if not (0.0 <= self.rho < 1.0):
            raise ValueError("rho must lie in [0, 1)")
        if not self.dispersion > 0.0:
            raise ValueError("dispersion must be positive")
        if math.isinf(self.dispersion):
            raise ValueError("dispersion must be finite")
        if not (math.isfinite(self.epsilon) and math.isfinite(self.nu)):
            raise ValueError("epsilon and nu must be finite")
        if self.search_budget is not None and self.search_budget < 0:
            raise ValueError("search_budget must be nonnegative")

    def realized_beta0(self, n: int) -> np.ndarray:
        if self.beta0 is not None:
            return np.asarray(self.beta0, dtype=float)
        value = self.decay_c * n ** (-self.decay_m)
        return np.full(self.true_support.size, value)


def _check_n_grid(n_grid: Sequence[int]) -> None:
    """Raise ValueError unless ``n_grid`` is nonempty, strictly increasing
    and above 1."""
    if not n_grid or any(n <= 1 for n in n_grid):
        raise ValueError("n_grid entries must exceed 1")
    if any(a >= b for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("n_grid must be strictly increasing")


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
    X -= X.mean(axis=0)  # in place: X is this call's own array
    X /= X.std(axis=0)
    beta0 = cfg.realized_beta0(n)
    theta = X[:, cfg.true_support.cols] @ beta0
    y = FAMILIES[cfg.family].sample(theta, cfg.dispersion, rng)
    return Dataset(y=y, X=X, family=cfg.family, dispersion=cfg.dispersion), beta0


def _replications(cfg: ExperimentConfig
                  ) -> Iterator[tuple[int, int, RandomStream, Dataset, np.ndarray]]:
    """``(n, rep, stream, dataset, beta0)`` for every replication, n-major.
    Replication ``rep`` at grid position ``i`` draws its dataset from the
    stream at path ``(i, rep)`` under ``cfg.seed``."""
    root = make_stream(cfg.seed)
    for ni, n in enumerate(cfg.n_grid):
        for rep in range(cfg.replications):
            stream = derive_stream(derive_stream(root, ni), rep)
            d, beta0 = simulate_dataset(cfg, n, stream)
            yield n, rep, stream, d, beta0


class StudyResult(NamedTuple):
    """A study's replication rows and the summary its JSON reports."""

    rows: list[dict]
    summary: dict


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

    def summary(self) -> dict:
        return {"statistic": self.statistic, "slope": self.slope,
                "slope_se": self.slope_se, "note": self.note,
                "per_n": [{"n": n, "median": m, "iqr": i} for n, m, i in self.rows]}


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
                values: Sequence[tuple[int, float]]) -> RateTable:
    """Rate table of the ``(n, value)`` pairs, grouped by the n of ``ns``."""
    rows = []
    medians = []
    for n in ns:
        arr = np.array([v for m, v in values if m == n], dtype=float)
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


def mle_rate_study(cfg: ExperimentConfig) -> StudyResult:
    """Median l2 distance of the true-support MLE from the truth, per n.

    Replications whose Newton fit did not converge are excluded from the
    medians and counted.  The scaled statistic n^(1/3) * median tracks
    whether the error decays faster than the theoretical envelope.  Only
    the engine's MLE stage runs, with no mode search or Laplace step.
    """
    rows: list[dict] = []
    for n, rep, _, d, beta0 in _replications(cfg):
        mle = batch_mle(model_batch(d, cfg.true_support.cols[None, :]))
        rows.append({"n": n, "rep": rep,
                     "l2_error": float(np.linalg.norm(mle.beta[0] - beta0)),
                     "converged": bool(mle.converged[0])})
    table = _rate_table("l2 error of MLE on true support", cfg.n_grid,
                        [(r["n"], r["l2_error"]) for r in rows if r["converged"]])
    return StudyResult(rows, {
        "study": "mle-rate", **table.summary(),
        "scaled_medians": [{"n": n, "value": n ** (1.0 / 3.0) * med}
                           for n, med, _ in table.rows],
        "excluded_replications": sum(not r["converged"] for r in rows),
    })


# =============================================================================
# Posterior-mode rate study
# =============================================================================


def _prior_label(spec: NonlocalPriorSpec) -> str:
    return f"{spec.kind}(r={spec.r:g},scale={spec.scale:g})"


def scalar_null_mode(spec: NonlocalPriorSpec, n: float) -> float:
    """Positive mode coordinate when the MLE is zero, via the stationarity root.

    With unit per-observation information the coordinate solves the one
    polynomial n b^(e+2) + (r+1) b^e - e c = 0 (e = 2, c = tau for piMOM;
    e = 1, c = 2 sqrt(lambda) for spiMOM): ``priors.coordinate_mode`` at
    b = 0 with curvature h = n, the rule that starts every mode search.  No
    data involved; used as the exactness baseline for the full pipeline.
    """
    return float(coordinate_mode(0.0, float(n), spec))


def scalar_mode_rate_table(spec: NonlocalPriorSpec, n_grid: Sequence[int]) -> RateTable:
    """Rate table of the analytic null-coordinate mode over an n-grid."""
    _check_n_grid(n_grid)
    return _rate_table(f"scalar null-coordinate mode, {_prior_label(spec)}", n_grid,
                       [(n, scalar_null_mode(spec, n)) for n in n_grid])


def scalar_mode_rate_study(cfg: ExperimentConfig) -> StudyResult:
    """The scalar null-coordinate mode of the configured prior along the
    n-grid, one row per n; it reads no data, so only the prior and the grid
    of ``cfg`` matter."""
    label = _prior_label(cfg.prior)
    table = scalar_mode_rate_table(cfg.prior, cfg.n_grid)
    per_n = [{"n": n, "mode": m} for n, m, _ in table.rows]
    return StudyResult([{"prior": label, **r} for r in per_n], {
        "study": "mode-rate-scalar", "prior": label, "slope": table.slope,
        "slope_se": table.slope_se, "note": table.note, "per_n": per_n,
    })


def mode_rate_study(cfg: ExperimentConfig) -> StudyResult:
    """|posterior mode - MLE| on a null coordinate under the configured
    prior, per n.

    Fits the model consisting of the true support plus the smallest index
    outside it, so exactly one fitted coordinate is null.  Replications
    whose MLE or mode did not converge are excluded from the medians and
    counted.  The scalar analytic variant is computed alongside on the same
    n-grid.
    """
    if cfg.true_support.size >= cfg.p:
        raise ValueError("no null coordinate available: |J0| = p")
    null_index = min(set(range(1, cfg.p + 1)) - set(cfg.true_support.indices))
    model = sorted(cfg.true_support.indices + (null_index,))
    null_pos = model.index(null_index)
    label = _prior_label(cfg.prior)
    rows: list[dict] = []
    for n, rep, _, d, _ in _replications(cfg):
        scores = score_models(d, [[model]], cfg.prior)
        ok = bool(scores.mle_converged[0] and scores.converged[0])
        gap = (abs(float(scores.mode[0, null_pos] - scores.mle[0, null_pos]))
               if ok else float("nan"))
        rows.append({"prior": label, "n": n, "rep": rep, "null_gap": gap,
                     "converged": ok})
    table = _rate_table(f"null-coordinate |mode - MLE|, {label}", cfg.n_grid,
                        [(r["n"], r["null_gap"]) for r in rows if r["converged"]])
    return StudyResult(rows, {
        "study": "mode-rate", "null_index": null_index,
        "pipeline": {label: table.summary()},
        "scalar": {label: scalar_mode_rate_table(cfg.prior, cfg.n_grid).summary()},
        "excluded_replications": sum(not r["converged"] for r in rows),
    })


# =============================================================================
# Log-marginal-ratio study
# =============================================================================


# strict supersets of the truth sampled per extra size and replication
SUPERSETS_PER_SIZE = 20
# substream of a replication's stream for the study's own draws, not its dataset's
STUDY_SUBSTREAM = 10**6


def _marginal_pieces(d: Dataset, J: ModelIndex, spec: NonlocalPriorSpec,
                     scores: ModelScores, i: int) -> dict:
    """Exact additive decomposition of the Laplace log marginal of model
    ``J``, from the mode and log det H* in row ``i`` of ``scores``.

    total = loglik + kernel + rest, where kernel is the exact prior kernel
    -c sum |beta|^-e, and its dominant part is sum (phi/beta^2)^zeta with
    zeta = e/2 (kernel = -dominant for piMOM, -2 dominant for spiMOM); rest
    collects the per-coordinate constants, the -(r+1) sum log|beta|
    prior factor, and the (k/2) log 2pi - (1/2) logdet Laplace terms.
    """
    k = J.size
    mode = scores.mode[i, :k]
    ll = log_likelihood(d, J, mode)
    dominant = float(((spec.scale / mode**2) ** (0.5 * spec.e)).sum())
    kernel = -float((spec.c / np.abs(mode)**spec.e).sum())
    rest = (0.5 * k * math.log(2 * math.pi) - 0.5 * scores.logdet[i]
            + k * log_prior_constant(spec)
            - (spec.r + 1.0) * float(np.log(np.abs(mode)).sum()))
    return {"loglik": ll, "kernel": kernel, "kernel_dominant": dominant,
            "rest": rest, "total": ll + kernel + rest}


def _sample_supersets(truth: ModelIndex, p: int, q: int,
                      stream: RandomStream) -> list[ModelIndex]:
    """Up to ``SUPERSETS_PER_SIZE`` strict supersets of the truth per extra size."""
    complement = sorted(set(range(1, p + 1)) - set(truth.indices))
    out: list[ModelIndex] = []
    for extra in range(1, q - truth.size + 1):
        total = math.comb(len(complement), extra)
        if total <= SUPERSETS_PER_SIZE:
            picks = list(itertools.combinations(complement, extra))
        else:
            rng = derive_stream(stream, extra).generator
            seen = set()
            while len(seen) < SUPERSETS_PER_SIZE:
                pick = tuple(sorted(rng.choice(complement, size=extra,
                                               replace=False).tolist()))
                seen.add(pick)
            picks = sorted(seen)
        out.extend(ModelIndex.of(truth.indices + pick) for pick in picks)
    return out


def logm_ratio_study(cfg: ExperimentConfig) -> StudyResult:
    """Median log(M_J / M_J0) over strict supersets J of the truth, per n.

    Every row carries the likelihood-ratio part, the dominant prior-ratio
    part sum_J (phi/beta^2)^zeta - sum_J0 (.), and the exact-decomposition
    remainder; the three pieces must rebuild the total to 1e-10.  The
    largest gap over all replications is reported as ``max_identity_gap``,
    not checked here; tests/test_experiments.py holds it to 1e-10.  The
    first-term prediction with the configured (epsilon, nu) knobs is
    reported for reference only; the proportionality constant is unknown,
    so only sign and monotonicity are meaningful checks.
    """
    spec = cfg.prior
    truth = cfg.true_support
    rows: list[dict] = []
    max_gap = 0.0
    for n, rep, stream, d, _ in _replications(cfg):
        models = [truth] + _sample_supersets(
            truth, cfg.p, cfg.q, derive_stream(stream, STUDY_SUBSTREAM))
        scores = score_models(d, [[J.indices] for J in models], spec)
        logm = scores.log_marginal.tolist()
        pieces0 = _marginal_pieces(d, truth, spec, scores, 0)
        for i, J in enumerate(models[1:], start=1):
            if not math.isfinite(logm[i]):
                continue
            pieces = _marginal_pieces(d, J, spec, scores, i)
            total = pieces["total"] - pieces0["total"]
            gap = abs((logm[i] - logm[0]) - total)
            max_gap = max(max_gap, gap)
            extra = J.size - truth.size
            rows.append({
                "n": n, "rep": rep, "extra": extra,
                "log_ratio": logm[i] - logm[0],
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
    return StudyResult(rows, {"study": "logm-ratio", "per_group": per_group,
                              "max_identity_gap": max_gap})


# =============================================================================
# Consistency study
# =============================================================================


def consistency_study(cfg: ExperimentConfig) -> StudyResult:
    """Posterior mass on and around the true model along the n-grid.

    Scores the full bounded model space by enumeration, or a greedy-search
    subset when ``cfg.search_budget`` is given.  Reports, per n, the median
    probability of the truth, the median nested and non-nested masses, and
    how often the top model is exactly the truth.  The scale-window
    comparison lambda^(1/6) versus n^(2/9) is reported without assertion;
    its constants are not quantified.
    """
    spec = cfg.prior
    truth = cfg.true_support
    strata = (None if cfg.search_budget is not None
              else enumerate_strata(cfg.p, cfg.q))
    rows: list[dict] = []
    for n, rep, stream, d, _ in _replications(cfg):
        if strata is not None:
            scores = score_models(d, strata, spec)
            post = normalize_strata(strata, scores.log_marginal)
        else:
            post, _ = greedy_search(d, spec, cfg.q, cfg.search_budget,
                                    derive_stream(stream, STUDY_SUBSTREAM))
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
    return StudyResult(rows, {"study": "consistency", "per_n": per_n,
                              "growth_exponents": _growth_exponents(cfg),
                              "lambda_window": window})


# =============================================================================
# Hessian diagnostics
# =============================================================================


class HessianDiagnostics(NamedTuple):
    c_l_hat: float
    c_u_hat: float
    c_d_hat: float
    c1_max: float


def hessian_diagnostics(d: Dataset, J: ModelIndex, mle: np.ndarray,
                        mode: np.ndarray) -> HessianDiagnostics:
    """Empirical identifiability constants of the model ``J`` at its MLE
    ``mle`` and its posterior mode ``mode``.

    c_l_hat / c_u_hat bound the spectrum of the scaled curvature n^-1 H at
    the two points; c_d_hat is the spectral-norm Lipschitz ratio
    ||H(mle) - H(mode)|| / (n ||mle - mode||) between them, 0 when they
    coincide; c1_max is the largest single-observation score contribution
    |x_ij (y_i - mean_i)| at ``mle``.  Reported as estimates: no pass/fail
    threshold is claimed for c1_max.
    """
    if J.size == 0:
        # eigvalsh of a 0 x 0 matrix is empty
        return HessianDiagnostics(c_l_hat=0.0, c_u_hat=0.0, c_d_hat=0.0, c1_max=0.0)
    h = np.array([neg_hessian(d, J, b).entries for b in (mle, mode)])
    spectra = np.linalg.eigvalsh(h / d.n)
    dist = float(np.linalg.norm(mle - mode))
    c_d = float(np.abs(np.linalg.eigvalsh(h[0] - h[1])).max()) / (d.n * dist) if dist else 0.0
    Xj = d.X[:, J.cols]
    resid = d.y - FAMILIES[d.family].mean(Xj @ mle)
    c1 = float(np.abs(Xj * resid[:, None]).max())
    return HessianDiagnostics(c_l_hat=float(spectra[:, 0].min()),
                              c_u_hat=float(spectra[:, -1].max()),
                              c_d_hat=c_d, c1_max=c1)
