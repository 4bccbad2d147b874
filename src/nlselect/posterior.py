"""Posterior-mode optimization within the MLE's orthant and the Laplace
approximation of the log marginal likelihood.

Nonlocal priors vanish on every coordinate plane, so the log posterior has
one local maximum per orthant and the global mode shares the MLE's orthant.
The mode finder therefore starts in the MLE's orthant and shortens any
Newton step that would let a coordinate cross zero.  Each coordinate starts
at least delta0 from zero, where delta0 is the scale of a null coordinate's
mode: an MLE coordinate inside (-delta0, delta0) sits deep in the prior's
barrier, where Newton steps grow it only slowly.  Exactly-zero coordinates
start at +delta0 by convention, since the two orthant-restricted optima tie
by symmetry there.

Two forms: :func:`fit_model` scores one submodel and is the readable
reference; :func:`score_models` scores many at once, grouping them by size
and running the same steps, with the same checks and constants, for all
models of a group in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .glm import (MAX_HALVINGS, MAX_NEWTON_ITER, SCORE_TOL_PER_OBS, SEPARATION_CAP,
                  Dataset, GlmFit, ModelBatch, batch_log_likelihood, batch_rows,
                  batch_score_hessian, fit_mle, log_likelihood, model_batch)
from .modelspace import ModelIndex
from .numerics import (NotPositiveDefinite, SpdMatrix, batch_cho_solve,
                       batch_cholesky, factor_logdet)
from .priors import NonlocalPriorSpec, log_prior, log_prior_grad, log_prior_neg_hessian

GRAD_TOL_PER_OBS = 1e-8
MAX_MODE_ITER = 200
MAX_RIDGE_TRIES = 60
MIN_NUDGE = 1e-4


@dataclass(frozen=True)
class PriorFuncs:
    """Callable bundle the mode finder optimizes against.

    ``mode_scale(n)`` is the asymptotic scale of a null coordinate's mode,
    the least distance from zero at which the mode search starts each
    coordinate.  ``barrier_at_origin`` disables that start rule and the
    orthant step-shortening for priors that are finite at zero (the Gaussian
    reference prior used to validate the Laplace plumbing).
    """

    log_density: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray]
    neg_hessian_diag: Callable[[np.ndarray], np.ndarray]
    mode_scale: Callable[[int], float]
    barrier_at_origin: bool = True


def _as_prior_funcs(spec: Union[NonlocalPriorSpec, PriorFuncs]) -> PriorFuncs:
    if isinstance(spec, PriorFuncs):
        return spec
    return PriorFuncs(
        log_density=lambda b: log_prior(b, spec),
        grad=lambda b: log_prior_grad(b, spec),
        neg_hessian_diag=lambda b: log_prior_neg_hessian(b, spec),
        mode_scale=lambda n: _mode_scale(spec, n),
        barrier_at_origin=True,
    )


def _mode_scale(spec: NonlocalPriorSpec, n: int) -> float:
    return (spec.scale / n) ** (1.0 / (2.0 + 2.0 * spec.zeta))


def _search_start(mle: np.ndarray, mode_scale: float) -> np.ndarray:
    """Start of the mode search under a nonlocal prior: each coordinate at
    sign(b) max(|b|, delta0), with delta0 = max(mode_scale, MIN_NUDGE), and
    exact zeros at +delta0.  Elementwise over a vector or a stack of rows."""
    delta0 = max(mode_scale, MIN_NUDGE)
    return np.where(mle < 0.0, np.minimum(mle, -delta0), np.maximum(mle, delta0))


def gaussian_reference_prior(sigma2: float) -> PriorFuncs:
    """Mean-zero Gaussian prior, for which Laplace is exact.

    Test-only plumbing hook: substituting it for a nonlocal prior makes the
    log posterior quadratic in the Gaussian family, so the Laplace marginal
    must match the conjugate closed form to rounding error.
    """
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive")

    def logd(b: np.ndarray) -> float:
        b = np.asarray(b, dtype=float)
        return float(-0.5 * b.size * math.log(2 * math.pi * sigma2)
                     - 0.5 * (b @ b) / sigma2)

    return PriorFuncs(
        log_density=logd,
        grad=lambda b: -np.asarray(b, dtype=float) / sigma2,
        neg_hessian_diag=lambda b: np.full(np.asarray(b).size, 1.0 / sigma2),
        mode_scale=lambda n: MIN_NUDGE,
        barrier_at_origin=False,
    )


@dataclass
class PosteriorFit:
    """Posterior mode, curvature there, and (once computed) the marginal."""

    model: ModelIndex
    beta_pm: np.ndarray
    log_post_unnorm: float
    neg_hessian_logpost: Optional[SpdMatrix]
    converged: bool
    iterations: int
    log_marginal: Optional[float] = None
    saddle: bool = False


def find_posterior_mode(d: Dataset, J: ModelIndex,
                        spec: Union[NonlocalPriorSpec, PriorFuncs],
                        mle: GlmFit) -> PosteriorFit:
    """Damped Newton ascent of log-likelihood + log-prior in the MLE's orthant.

    Each coordinate starts at sign(b) max(|b|, delta0), where b is its MLE
    and delta0 = max((scale/n)^(1/(2+2*zeta)), 1e-4) is the theoretical
    scale of a null coordinate's mode; zero MLE coordinates start at
    +delta0.  Any Newton step that would flip a coordinate's sign
    is shortened so the coordinate stops halfway to zero, keeping the
    iterates inside the starting orthant where the prior is smooth.  The
    search also stops when the accepted step leaves beta unchanged in
    floating point: the Newton decrement is then below the objective's
    resolution, and more iterations cannot move it.  The search takes at
    most ``MAX_MODE_ITER`` iterations.  Non-convergence (the gradient test
    unmet) is flagged on the returned fit, never raised.
    """
    funcs = _as_prior_funcs(spec)
    if J.size == 0:
        ll = log_likelihood(d, J, np.zeros(0))
        return PosteriorFit(model=J, beta_pm=np.zeros(0), log_post_unnorm=ll,
                            neg_hessian_logpost=None, converged=True, iterations=0)
    tol = GRAD_TOL_PER_OBS * d.n
    beta = np.array(mle.beta_hat, dtype=float)
    if funcs.barrier_at_origin:
        beta = _search_start(beta, funcs.mode_scale(d.n))

    batch = model_batch(d, J.cols[None, :])

    def objective(b: np.ndarray) -> float:
        return float(batch_log_likelihood(batch, b[None])[0]) + funcs.log_density(b)

    def gradient_curvature(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g, h = batch_score_hessian(batch, b[None])
        return g[0] + funcs.grad(b), h[0] + np.diag(funcs.neg_hessian_diag(b))

    value = objective(beta)
    iterations = 0
    converged = False
    eye = np.eye(J.size)
    for _ in range(MAX_MODE_ITER):
        g, h = gradient_curvature(beta)
        if float(np.abs(g).max()) <= tol:
            converged = True
            break
        step = None
        ridge = 0.0
        for _ in range(MAX_RIDGE_TRIES):
            factor, ok = batch_cholesky(h + ridge * eye)
            if ok:
                step = batch_cho_solve(factor, g)
                break
            # indefinite away from the mode; damp toward gradient ascent
            ridge = max(2.0 * ridge, 1e-8 * max(1.0, float(np.abs(h).max())))
        if step is None:
            break
        t = 1.0
        if funcs.barrier_at_origin:
            landing = beta + step
            flips = np.sign(landing) != np.sign(beta)
            if np.any(flips):
                caps = np.abs(beta[flips]) / (2.0 * np.abs(step[flips]))
                t = min(1.0, float(caps.min()))
        improved = False
        for _ in range(MAX_HALVINGS):
            cand = beta + t * step
            cand_value = objective(cand)
            if cand_value >= value:
                improved = True
                break
            t *= 0.5
        if not improved or np.array_equal(cand, beta):
            break
        beta, value = cand, cand_value
        iterations += 1
    else:
        h = gradient_curvature(beta)[1]
    # every break leaves beta where h was computed
    return PosteriorFit(model=J, beta_pm=beta, log_post_unnorm=value,
                        neg_hessian_logpost=SpdMatrix(h),
                        converged=converged, iterations=iterations)


def laplace_log_marginal(d: Dataset, J: ModelIndex,
                         spec: Union[NonlocalPriorSpec, PriorFuncs],
                         pm: PosteriorFit) -> float:
    """Laplace log marginal likelihood at the posterior mode.

    (|J|/2) log(2 pi) - (1/2) logdet(H*) + log posterior at the mode, with
    H* the negative log-posterior Hessian there.  The empty model has no
    parameters and no prior, so its marginal is the exact log-likelihood.

    Raises
    ------
    NotPositiveDefinite
        If H* fails to factor: the optimizer stopped at a saddle, the
        Laplace formula is invalid, and callers exclude the model by
        assigning it a -inf marginal.
    """
    if J.size == 0:
        return log_likelihood(d, J, np.zeros(0))
    _, logdet = factor_logdet(pm.neg_hessian_logpost)
    return (0.5 * J.size * math.log(2 * math.pi) - 0.5 * logdet
            + pm.log_post_unnorm)


def fit_model(d: Dataset, J: ModelIndex,
              spec: Union[NonlocalPriorSpec, PriorFuncs]) -> PosteriorFit:
    """MLE, posterior mode, and Laplace marginal for one submodel.

    Degenerate models (rank-deficient design, saddle curvature at the mode)
    come back with ``log_marginal = -inf`` and ``saddle`` set instead of
    raising, so model-space sweeps can score them uniformly.
    """
    try:
        mle = fit_mle(d, J)
        pm = find_posterior_mode(d, J, spec, mle)
        pm.log_marginal = laplace_log_marginal(d, J, spec, pm)
    except NotPositiveDefinite:
        return PosteriorFit(model=J, beta_pm=np.full(J.size, np.nan),
                            log_post_unnorm=-math.inf, neg_hessian_logpost=None,
                            converged=False, iterations=0,
                            log_marginal=-math.inf, saddle=True)
    return pm


# =============================================================================
# Batched scoring engine
# =============================================================================


@dataclass
class ModelScores:
    """Per-model results of :func:`score_models`, in the order given.

    ``excluded`` marks a rank-deficient design or a negative log-posterior
    Hessian at the mode that fails to factor; those models get a -inf log
    marginal (``fit_model`` sets ``saddle`` on them).  ``converged`` and
    ``iterations`` describe the mode search, which an excluded model with a
    rank-deficient design never starts.  ``separation`` is the logistic
    MLE's flag (a coefficient beyond ``SEPARATION_CAP``).
    """

    log_marginal: np.ndarray
    excluded: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    separation: np.ndarray


def score_models(d: Dataset, models: Sequence[np.ndarray],
                 spec: NonlocalPriorSpec) -> ModelScores:
    """Laplace log marginals of many submodels: :func:`fit_model` in lockstep.

    ``models`` is a sequence of blocks, each an (M, k) integer array whose
    rows are the 1-based column indices of size-k models; the strata of
    ``modelspace.enumerate_strata`` are one such sequence.  Results follow
    the blocks' rows in order.  Models are grouped by size k, each group is
    cut into batches of ``glm.batch_rows`` models, and each batch runs the
    MLE, the mode search and the Laplace step for all its models at once.
    Every per-model check of ``fit_mle`` and ``find_posterior_mode``
    applies row by row with the same constants, and a model leaves the
    batch's active set as soon as its own iteration stops.  Log marginals
    agree with ``fit_model`` to rounding (the order of floating-point
    operations differs).
    """
    blocks = [np.asarray(b, dtype=int) for b in models]
    ends = np.cumsum([b.shape[0] for b in blocks], dtype=int)
    m = int(ends[-1]) if blocks else 0
    out = ModelScores(log_marginal=np.full(m, -math.inf),
                      excluded=np.zeros(m, dtype=bool),
                      converged=np.zeros(m, dtype=bool),
                      iterations=np.zeros(m, dtype=int),
                      separation=np.zeros(m, dtype=bool))
    for k in sorted({b.shape[1] for b in blocks if b.shape[0]}):
        group = [i for i, b in enumerate(blocks) if b.shape[1] == k]
        rows = np.concatenate([np.arange(ends[i] - blocks[i].shape[0], ends[i])
                               for i in group])
        if k == 0:
            out.log_marginal[rows] = log_likelihood(d, ModelIndex(), np.zeros(0))
            out.converged[rows] = True
            continue
        cols = np.concatenate([blocks[i] for i in group]) - 1
        size = batch_rows(d, k)
        for start in range(0, rows.size, size):
            part = slice(start, start + size)
            _score_batch(model_batch(d, cols[part]), spec, out, rows[part])
    return out


def _score_batch(batch: ModelBatch, spec: NonlocalPriorSpec, out: ModelScores,
                 rows: np.ndarray) -> None:
    beta, full_rank = _batch_mle(batch)
    out.excluded[rows] = ~full_rank
    if not full_rank.all():
        batch, beta, rows = batch.take(full_rank), beta[full_rank], rows[full_rank]
        if not rows.size:
            return
    if batch.d.family == "logistic":
        out.separation[rows] = np.abs(beta).max(axis=-1) > SEPARATION_CAP
    value, h_star, converged, iterations = _batch_mode(batch, spec, beta)
    factor, ok = batch_cholesky(h_star)
    logdet = 2.0 * np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum(axis=-1)
    k = h_star.shape[-1]
    log_marginal = 0.5 * k * math.log(2 * math.pi) - 0.5 * logdet + value
    out.log_marginal[rows] = np.where(ok, log_marginal, -math.inf)
    out.excluded[rows] = ~ok
    out.converged[rows] = converged
    out.iterations[rows] = iterations


def _batch_mle(batch: ModelBatch) -> tuple[np.ndarray, np.ndarray]:
    """``fit_mle`` for every row: (beta (M, k), full-rank mask (M,))."""
    tol = SCORE_TOL_PER_OBS * batch.d.n
    m, k = batch.cols.shape
    beta = np.zeros((m, k))
    ll = batch_log_likelihood(batch, beta)
    full_rank = np.ones(m, dtype=bool)
    act, sub = np.arange(m), batch
    for _ in range(MAX_NEWTON_ITER):
        g, h = batch_score_hessian(sub, beta[act])
        factor, ok = batch_cholesky(h)
        run = np.abs(g).max(axis=-1) > tol
        full_rank[act[run & ~ok]] = False
        run &= ok
        step = np.zeros_like(g)
        step[run] = batch_cho_solve(factor[run], g[run])
        moved, cand, cand_ll = _backtrack(batch_log_likelihood, sub, beta[act], step,
                                          np.ones(act.size), ll[act], np.flatnonzero(run))
        beta[act[moved]] = cand[moved]
        ll[act[moved]] = cand_ll[moved]
        act, sub = _shrink(act, sub, moved)
        if not act.size:
            break
    return beta, full_rank


def _batch_mode(batch: ModelBatch, spec: NonlocalPriorSpec, mle: np.ndarray):
    """``find_posterior_mode`` for every row: (log posterior at the mode,
    H*, converged, iterations), with H* the negative log-posterior Hessian
    at each row's final iterate."""
    tol = GRAD_TOL_PER_OBS * batch.d.n
    m, k = mle.shape
    beta = _search_start(mle, _mode_scale(spec, batch.d.n))

    def objective(sub: ModelBatch, b: np.ndarray) -> np.ndarray:
        return batch_log_likelihood(sub, b) + log_prior(b, spec)

    def curvature(b: np.ndarray, h_lik: np.ndarray) -> np.ndarray:
        diag = np.arange(k)
        h_lik[:, diag, diag] += log_prior_neg_hessian(b, spec)
        return h_lik

    value = objective(batch, beta)
    h_star = np.empty((m, k, k))
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    act, sub = np.arange(m), batch
    for _ in range(MAX_MODE_ITER):
        b = beta[act]
        g_lik, h_lik = batch_score_hessian(sub, b)
        g = g_lik + log_prior_grad(b, spec)
        h = curvature(b, h_lik)
        h_star[act] = h  # a row that stops now keeps this iterate
        run = np.abs(g).max(axis=-1) > tol
        converged[act[~run]] = True
        step, solved = _ridged_steps(h, g, run)
        moved, cand, cand_value = _backtrack(objective, sub, b, step, _orthant_cap(b, step),
                                             value[act], np.flatnonzero(solved))
        beta[act[moved]] = cand[moved]
        value[act[moved]] = cand_value[moved]
        iterations[act[moved]] += 1
        act, sub = _shrink(act, sub, moved)
        if not act.size:
            break
    else:
        b = beta[act]
        h_star[act] = curvature(b, batch_score_hessian(sub, b)[1])
    return value, h_star, converged, iterations


def _shrink(act: np.ndarray, sub: ModelBatch, keep: np.ndarray
            ) -> tuple[np.ndarray, ModelBatch]:
    # drop the rows whose iteration stopped from the active set
    if keep.all():
        return act, sub
    return act[keep], sub.take(keep)


def _ridged_steps(h: np.ndarray, g: np.ndarray, rows: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps h^-1 g for the masked rows.  Where h does not factor,
    retry with h + ridge I, the ridge doubling from 1e-8 max(1, max|h|), up
    to ``MAX_RIDGE_TRIES`` tries.  Returns (steps, solved mask)."""
    step = np.zeros_like(g)
    solved = np.zeros(g.shape[0], dtype=bool)
    ridge = np.zeros(g.shape[0])
    floor = 1e-8 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
    eye = np.eye(g.shape[1])
    pending = np.flatnonzero(rows)
    for _ in range(MAX_RIDGE_TRIES):
        if not pending.size:
            break
        factor, ok = batch_cholesky(h[pending] + ridge[pending, None, None] * eye)
        done = pending[ok]
        step[done] = batch_cho_solve(factor[ok], g[done])
        solved[done] = True
        pending = pending[~ok]
        ridge[pending] = np.maximum(2.0 * ridge[pending], floor[pending])
    return step, solved


def _orthant_cap(beta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Per row, the largest step fraction (at most 1) that stops every
    sign-flipping coordinate halfway to zero."""
    flips = np.sign(beta + step) != np.sign(beta)
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(flips, np.abs(beta) / (2.0 * np.abs(step)), np.inf)
    return np.minimum(1.0, caps.min(axis=-1))


def _backtrack(objective: Callable, sub: ModelBatch, beta: np.ndarray,
               step: np.ndarray, t: np.ndarray, value: np.ndarray,
               pending: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Step-halving in lockstep for the rows in ``pending``.

    Each row takes the first of beta + t step, beta + (t/2) step, ... (at
    most ``MAX_HALVINGS`` tries) whose objective is >= its current value.
    Returns (moved, candidates, their values).  ``moved`` is False for a row
    with no acceptable candidate and for one whose accepted candidate equals
    beta in floating point; both stop iterating.
    """
    cand = beta.copy()
    cand_value = value.copy()
    accepted = np.zeros(beta.shape[0], dtype=bool)
    for _ in range(MAX_HALVINGS):
        if not pending.size:
            break
        trial = beta[pending] + t[pending, None] * step[pending]
        part = sub if pending.size == beta.shape[0] else sub.take(pending)
        trial_value = objective(part, trial)
        ok = trial_value >= value[pending]
        hit = pending[ok]
        cand[hit] = trial[ok]
        cand_value[hit] = trial_value[ok]
        accepted[hit] = True
        pending = pending[~ok]
        t[pending] *= 0.5
    return accepted & np.any(cand != beta, axis=-1), cand, cand_value
