"""Posterior-mode optimization within the MLE's orthant and the Laplace
approximation of the log marginal likelihood.

Nonlocal priors vanish on every coordinate plane, so the log posterior has
one local maximum per orthant and the global mode shares the MLE's orthant.
The mode finder therefore starts in the MLE's orthant and shortens any
Newton step that would let a coordinate cross zero.  Each coordinate starts
at its own stationary point, ``priors.coordinate_mode``: the root, in the
MLE coordinate b's orthant, of -h (beta - b) + d/dbeta log pi(beta) = 0, h
the diagonal entry of the negative log-likelihood Hessian at the MLE.  That
is the exact mode when the likelihood is quadratic and the coordinates are
uncorrelated, so the search starts near where it ends, and a coordinate
whose MLE sits deep in the prior's barrier starts outside it.  Exactly-zero
coordinates start on the + side by convention, since the two
orthant-restricted optima tie by symmetry there.

Two forms: :func:`score_models` scores many submodels in lockstep batches,
and every command and study reads its marginals, MLEs and modes (the
mle-rate study runs only its MLE stage, :func:`batch_mle`); :func:`fit_model`
scores one submodel and is the readable reference that the engine is tested
against.  Each form has one damped Newton loop, run once for the MLE and
once for the mode: the engine's lockstep ``_newton`` here, and
``glm.newton_ascent`` for the reference.  The two share only
``glm.batch_origin``, the MLE's start point, and ``glm.batch_evaluate``,
which gives a point's value, gradient and Hessian at once, so each loop
evaluates each point once.  In both, a fit is
``converged`` when the gradient test |g|_inf <= ``GRAD_TOL_PER_OBS`` * n
holds at the returned iterate, whichever rule stopped the loop, or when the
decrement test certified the last step as below resolution: a Newton step
whose decrement g'H^-1 g is at most ``DECREMENT_TOL`` * max(1, |objective|,
|d.log_base|) gets one trial, and if that trial is rejected the loop stops
where it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Optional, Sequence

import numpy as np

from .glm import (DECREMENT_TOL, GRAD_TOL_PER_OBS, MAX_HALVINGS, MAX_NEWTON_ITER,
                  SEPARATION_CAP, Dataset, GlmFit, ModelBatch, NewtonAscent,
                  batch_evaluate, batch_origin, batch_rows, fit_mle, model_batch,
                  newton_ascent)
from .modelspace import ModelIndex
from .numerics import (NotPositiveDefinite, SpdMatrix, batch_cho_solve,
                       batch_cholesky, factor_logdet)
from .priors import NonlocalPriorSpec, coordinate_mode, log_prior_terms

MAX_MODE_ITER = 200
MAX_RIDGE_TRIES = 60


def _orthant_cap(beta: np.ndarray, step: np.ndarray) -> np.ndarray:
    """The largest step fraction (at most 1) that stops every sign-flipping
    coordinate halfway to zero, for a vector or per row of a stack."""
    flips = np.sign(beta + step) != np.sign(beta)
    if not flips.any():
        return np.ones(beta.shape[:-1])
    with np.errstate(divide="ignore", invalid="ignore"):
        caps = np.where(flips, np.abs(beta) / (2.0 * np.abs(step)), np.inf)
    return np.minimum(1.0, caps.min(axis=-1, initial=np.inf))


@dataclass
class PosteriorFit:
    """Posterior mode, curvature H* there (0 x 0 for the empty model; None
    only on a degenerate fit from :func:`fit_model`), and the marginal."""

    beta_pm: np.ndarray
    log_post_unnorm: float
    neg_hessian_logpost: Optional[SpdMatrix]
    converged: bool
    iterations: int
    log_marginal: Optional[float] = None
    saddle: bool = False


def find_posterior_mode(d: Dataset, J: ModelIndex, spec: NonlocalPriorSpec,
                        mle: GlmFit) -> PosteriorFit:
    """Posterior mode in the MLE's orthant: :func:`glm.newton_ascent` of
    log-likelihood + log-prior, with up to ``MAX_RIDGE_TRIES`` ridge tries
    per step and at most ``MAX_MODE_ITER`` iterations.

    Each coordinate starts at ``priors.coordinate_mode(b, h, spec)``: the
    root, in the orthant of its MLE b (+ for b = 0), of
    -h (beta - b) + d/dbeta log pi(beta) = 0, with h the diagonal of the
    negative log-likelihood Hessian at the MLE.  Any Newton step that would
    flip a coordinate's sign is shortened so the coordinate stops halfway to
    zero, keeping the iterates inside the starting orthant where the prior
    is smooth.  Non-convergence (the gradient test unmet at the returned
    iterate, and the last step not certified by the decrement test) is
    flagged on the returned fit, never raised.
    """
    batch = model_batch(d, J.cols[None, :])
    beta = coordinate_mode(np.array(mle.beta_hat, dtype=float), np.diagonal(mle.neg_hessian),
                           spec)

    def evaluate(b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
        value, g, h = batch_evaluate(batch, b[None])
        prior, grad, curv = log_prior_terms(b, spec)
        return float(value[0]) + float(prior), g[0] + grad, h[0] + np.diag(curv)

    fit = newton_ascent(evaluate, beta, d, MAX_MODE_ITER,
                        ridge_tries=MAX_RIDGE_TRIES, step_cap=_orthant_cap)
    return PosteriorFit(beta_pm=fit.beta, log_post_unnorm=fit.value,
                        neg_hessian_logpost=SpdMatrix(fit.h),
                        converged=fit.converged, iterations=fit.iterations)


def laplace_log_marginal(d: Dataset, J: ModelIndex, pm: PosteriorFit) -> float:
    """Laplace log marginal likelihood at the posterior mode.

    (|J|/2) log(2 pi) - (1/2) logdet(H*) + log posterior at the mode, with
    H* the negative log-posterior Hessian there.  For the empty model H* is
    0 x 0 with log det 0, so this is exactly the log-likelihood.

    Raises
    ------
    NotPositiveDefinite
        If H* fails to factor: the optimizer stopped at a saddle, the
        Laplace formula is invalid, and callers exclude the model by
        assigning it a -inf marginal.
    """
    _, logdet = factor_logdet(pm.neg_hessian_logpost)
    return (0.5 * J.size * math.log(2 * math.pi) - 0.5 * logdet
            + pm.log_post_unnorm)


def fit_model(d: Dataset, J: ModelIndex, spec: NonlocalPriorSpec) -> PosteriorFit:
    """MLE, posterior mode, and Laplace marginal for one submodel.

    Degenerate models (rank-deficient design, saddle curvature at the mode)
    come back with ``log_marginal = -inf`` and ``saddle`` set instead of
    raising, so model-space sweeps can score them uniformly.
    """
    try:
        mle = fit_mle(d, J)
        pm = find_posterior_mode(d, J, spec, mle)
        pm.log_marginal = laplace_log_marginal(d, J, pm)
    except NotPositiveDefinite:
        return PosteriorFit(beta_pm=np.full(J.size, np.nan),
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
    marginal (``fit_model`` sets ``saddle`` on them).  ``mle`` and ``mode``
    are (M, w) arrays padded with NaN beyond each model's size, w the widest
    model; a rank-deficient design has neither, and its ``mle_converged``
    is False.  ``mle_converged`` and ``converged`` say that the gradient
    test holds at the returned MLE and mode, whether the search stopped at
    the test, at the stall stop or at its iteration cap, or that the
    decrement test certified the last step as below resolution;
    ``iterations`` and ``mle_iterations`` count the mode search's and the
    MLE's Newton steps.  ``logdet`` is
    log det H* at the mode, NaN where H* fails to factor.  ``separation``
    is the logistic MLE's flag (a coefficient beyond ``SEPARATION_CAP``).
    """

    log_marginal: np.ndarray
    excluded: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    separation: np.ndarray
    mle: np.ndarray
    mode: np.ndarray
    mle_converged: np.ndarray
    mle_iterations: np.ndarray
    logdet: np.ndarray

    @classmethod
    def gather(cls, parts: Sequence[ModelScores], rows: Sequence[int]) -> ModelScores:
        """The given ``rows`` of ``parts`` stacked in order (all of one width)."""
        rows = np.asarray(rows, dtype=int)
        return cls(**{f.name: np.concatenate([getattr(s, f.name) for s in parts])[rows]
                      for f in fields(cls)})


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
    batch's active set as soon as its own iteration stops; empty models stop
    at iteration 0 and score their exact log-likelihood.  Every field of a
    row equals the scalar functions' result bit for bit, whatever the other
    rows of its batch.
    """
    blocks = [np.asarray(b, dtype=int) for b in models]
    ends = np.cumsum([b.shape[0] for b in blocks], dtype=int)
    m = int(ends[-1]) if blocks else 0
    w = max((b.shape[1] for b in blocks), default=0)
    out = ModelScores(log_marginal=np.full(m, -math.inf),
                      excluded=np.zeros(m, dtype=bool),
                      converged=np.zeros(m, dtype=bool),
                      iterations=np.zeros(m, dtype=int),
                      separation=np.zeros(m, dtype=bool),
                      mle=np.full((m, w), math.nan), mode=np.full((m, w), math.nan),
                      mle_converged=np.zeros(m, dtype=bool),
                      mle_iterations=np.zeros(m, dtype=int), logdet=np.full(m, math.nan))
    for k in sorted({b.shape[1] for b in blocks if b.shape[0]}):
        group = [i for i, b in enumerate(blocks) if b.shape[1] == k]
        rows = np.concatenate([np.arange(ends[i] - blocks[i].shape[0], ends[i])
                               for i in group])
        cols = np.concatenate([blocks[i] for i in group]) - 1
        size = batch_rows(k)
        for start in range(0, rows.size, size):
            part = slice(start, start + size)
            _score_batch(model_batch(d, cols[part]), spec, out, rows[part])
    return out


def batch_mle(batch: ModelBatch) -> NewtonAscent:
    """:func:`glm.fit_mle` of every model of ``batch`` in lockstep; a
    rank-deficient design is ``singular``, with a NaN ``beta``."""
    mle = _newton(batch, batch_evaluate, np.zeros(batch.cols.shape), batch_origin(batch),
                  MAX_NEWTON_ITER, ridge_tries=1)
    mle.beta[mle.singular] = math.nan
    return mle


def _score_batch(batch: ModelBatch, spec: NonlocalPriorSpec, out: ModelScores,
                 rows: np.ndarray) -> None:
    k = batch.cols.shape[1]
    mle = batch_mle(batch)
    out.mle_converged[rows] = mle.converged
    out.mle_iterations[rows] = mle.iterations
    out.excluded[rows] = mle.singular  # a rank-deficient design
    out.mle[rows, :k] = mle.beta
    beta, h_diag = mle.beta, np.diagonal(mle.h, axis1=-2, axis2=-1)
    if mle.singular.any():
        full_rank = ~mle.singular
        batch, beta, h_diag, rows = (batch.take(full_rank), beta[full_rank],
                                     h_diag[full_rank], rows[full_rank])
        if not rows.size:
            return
    if batch.d.family == "logistic":
        out.separation[rows] = np.abs(beta).max(axis=-1, initial=0.0) > SEPARATION_CAP
    start = coordinate_mode(beta, h_diag, spec)
    mode = _newton(batch, lambda sub, b: _log_posterior(sub, b, spec), start,
                   _log_posterior(batch, start, spec), MAX_MODE_ITER,
                   ridge_tries=MAX_RIDGE_TRIES, step_cap=_orthant_cap)
    out.mode[rows, :k] = mode.beta
    factor, ok = batch_cholesky(mode.h)
    logdet = 2.0 * np.log(np.diagonal(factor, axis1=-2, axis2=-1)).sum(axis=-1)
    log_marginal = 0.5 * k * math.log(2 * math.pi) - 0.5 * logdet + mode.value
    out.log_marginal[rows] = np.where(ok, log_marginal, -math.inf)
    out.logdet[rows] = np.where(ok, logdet, math.nan)
    out.excluded[rows] = ~ok
    out.converged[rows] = mode.converged
    out.iterations[rows] = mode.iterations


def _log_posterior(batch: ModelBatch, beta: np.ndarray, spec: NonlocalPriorSpec
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Log posterior, gradient and negative Hessian at each row of ``beta``.
    A row with a zero coordinate is off the prior's support, -inf, and
    rejected unread, so the prior's derivatives take 1 in its place."""
    value, g, h = batch_evaluate(batch, beta)
    prior, grad, curv = log_prior_terms(beta, spec)
    value += prior
    g += grad
    diag = np.einsum("...ii->...i", h)  # a writable view of each diagonal
    diag += curv
    return value, g, h


def _newton(batch: ModelBatch, evaluate: Callable, beta: np.ndarray, start: tuple,
            max_iter: int, ridge_tries: int, step_cap: Optional[Callable] = None
            ) -> NewtonAscent:
    """The damped Newton ascent of :func:`glm.newton_ascent` for every row
    of the start ``beta`` (M, k, overwritten) in lockstep, with per-row arrays
    in the result.

    ``evaluate(sub, b)`` gives the objective, gradient and negative Hessian
    at the rows ``b`` of the sub-batch ``sub``, once per point, ``start`` is
    ``evaluate(batch, beta)`` (overwritten), and
    ``step_cap(b, step)`` each row's first step fraction.  A row leaves the
    active set as soon as its own ascent stops, by the same rules and
    constants as the scalar loop: a row whose step is flat by the decrement
    test gets one trial, and if that is rejected it stops, ``converged``,
    at its iterate.
    Fast paths keep that arithmetic: views (``slice(None)``) while every row is
    in play; return once all pass the gradient test; factor h itself first,
    with the ridge floor only after a failure, the decrement only on a rejection.
    """
    tol = GRAD_TOL_PER_OBS * batch.d.n
    # the objective rounds at the scale of its constant term too
    scale = max(1.0, abs(batch.d.log_base))
    m, k = beta.shape
    out = NewtonAscent(beta=np.empty((m, k)), value=np.empty(m), h=np.empty((m, k, k)),
                       converged=np.zeros(m, dtype=bool), iterations=np.zeros(m, dtype=int),
                       singular=np.zeros(m, dtype=bool))
    # the active rows' iterates, and the value, gradient and negative Hessian there
    act, sub, b = np.arange(m), batch, beta
    v, g, h = start
    del start  # so the start's arrays are freed once the loop rebinds v, g and h
    for i in range(max_iter):
        run = (np.abs(g) > tol).any(axis=-1)  # |g|_inf > tol, False if NaN
        if not run.any():
            out.converged[act] = True
            break
        out.converged[act[~run]] = True
        # Newton steps; where h does not factor, retry with h + ridge I, the
        # ridge doubling from 1e-8 max(1, max|h|)
        step = np.zeros(g.shape)
        pending, ridge = run.nonzero()[0], None
        for _ in range(ridge_tries):
            rows = slice(None) if pending.size == act.size else pending
            factor, ok = batch_cholesky(h[rows] if ridge is None
                                        else h[rows] + ridge[rows, None, None] * np.eye(k))
            if ok.all():
                step[rows] = batch_cho_solve(factor, g[rows])
                pending = pending[:0]
                break
            step[pending[ok]] = batch_cho_solve(factor[ok], g[rows][ok])
            pending = pending[~ok]
            if ridge is None:
                ridge = np.zeros(act.size)
                floor = 1e-8 * np.maximum(1.0, np.abs(h).max(axis=(-2, -1), initial=0.0))
            ridge[pending] = np.maximum(2.0 * ridge[pending], floor[pending])
        out.singular[act[pending]] = True
        run[pending] = False
        # step-halving: each row with a step takes the first of b + t step,
        # b + (t/2) step, ... whose objective is >= its value, and with it the
        # trial's gradient and Hessian; a flat step gets one trial, and its
        # rejection certifies the row at b
        t = np.ones(act.size) if step_cap is None else step_cap(b, step)
        moved = np.zeros(act.size, dtype=bool)
        pending = run.nonzero()[0]
        for halving in range(MAX_HALVINGS):
            if not pending.size:
                break
            every = pending.size == act.size
            rows = slice(None) if every else pending
            trial = b[rows] + t[rows, None] * step[rows]
            trial_v, trial_g, trial_h = evaluate(sub if every else sub.take(pending), trial)
            ok = trial_v >= v[rows]
            if every and ok.all():  # every row takes its first trial
                moved = (trial != b).any(axis=-1)
                b, v, g, h = trial, trial_v, trial_g, trial_h
                break
            hit = pending[ok]
            moved[hit] = (trial[ok] != b[hit]).any(axis=-1)
            b[hit], v[hit], g[hit], h[hit] = trial[ok], trial_v[ok], trial_g[ok], trial_h[ok]
            pending = pending[~ok]
            if not halving and pending.size:  # first trials rejected: flat steps stop
                dec = (g[pending] * step[pending]).sum(axis=-1)
                flat = dec <= DECREMENT_TOL * np.maximum(scale, np.abs(v[pending]))
                out.converged[act[pending[flat]]] = True
                pending = pending[~flat]
            t[pending] *= 0.5
        # a row stops when no halving is accepted or the step leaves it unchanged
        if not moved.all():
            stop = act[~moved]
            out.beta[stop], out.value[stop], out.h[stop] = b[~moved], v[~moved], h[~moved]
            out.iterations[stop] = i
            if not moved.any():
                return out
            act, sub = act[moved], sub.take(moved)
            b, v, g, h = b[moved], v[moved], g[moved], h[moved]
    else:
        i = max_iter
        out.converged[act] = (np.abs(g) <= tol).all(axis=-1)
    out.beta[act], out.value[act], out.h[act] = b, v, h
    out.iterations[act] = i
    return out
