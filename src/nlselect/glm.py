"""Canonical-link exponential-family likelihoods and Newton MLE fitting.

Families: Gaussian with known variance, binomial/logistic, Poisson.  All
log-likelihoods keep their full normalizing constants so marginal
likelihoods are comparable across models and against quadrature oracles.

Each family's likelihood, score and Hessian are computed together in one
place, the kernel :func:`batch_evaluate` over a :class:`ModelBatch` (M models
of one size k, as an (M, k) array of columns, with an (M, k) array of
coefficients), which the batched scoring engine in ``posterior`` runs in
lockstep.  The per-model functions run it on a one-row batch.  The logistic
and Poisson kernel walks a batch in chunks of ``chunk_rows`` models, forms
only the lower triangle of X_J'WX_J, and writes every n-row temporary into
one buffer allocated per call.  Each MLE starts at beta = 0, where
:func:`batch_origin` evaluates a logistic or Poisson model from the cached
sums X'X, X'y and X'1.

:func:`newton_ascent` is the scalar reference's one damped Newton loop:
:func:`fit_mle` runs it on the log-likelihood, and
``posterior.find_posterior_mode`` on the log posterior.  The batched engine
has its own lockstep loop in ``posterior``; neither calls the other's.

The Poisson family's log-likelihood constant, -sum log y_i!, is summed
from ``math.lgamma`` over the distinct counts, so no family imports scipy.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .modelspace import ModelIndex
from .numerics import NotPositiveDefinite, SpdMatrix, batch_cho_solve, batch_cholesky

# the gradient test of every Newton ascent: |g|_inf <= GRAD_TOL_PER_OBS * n
GRAD_TOL_PER_OBS = 1e-8
# the decrement test: a Newton step with g'H^-1 g <= DECREMENT_TOL *
# max(1, |objective|, |log_base|) gains less than the objective resolves in
# floating point.  The objective is the kernel plus the constant log_base, so
# it rounds at the scale of the larger of the two; with Poisson counts in the
# thousands, |log_base| (the sum of log y!) far exceeds |objective|.  Summing
# terms larger than the total, a log-likelihood rounds with a standard
# deviation of up to about 20 eps |objective| (Poisson counts near 150), so
# the bound is 64 eps, not a few eps.
DECREMENT_TOL = 64.0 * float(np.finfo(float).eps)
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 60
SEPARATION_CAP = 30.0
# Floats per kernel temporary: a batch holds BATCH_FLOATS // k^2 models of
# size k (one k x k Hessian each), and the logistic and Poisson kernels walk it
# in chunks of BATCH_FLOATS // 2n models (10 at n = 1600), so each of the k + 4
# (chunk, n) blocks of its per-call buffer holds at most 2^14 floats and a
# k = 3 buffer (896 KB) stays inside a 2 MB L2 cache at any n.
BATCH_FLOATS = 1 << 15


class FamilySupport(ValueError):
    """Response vector violates the support of the requested family."""


class _Gaussian:
    name = "gaussian"

    def mean(self, theta):
        return theta

    def log_base(self, y, dispersion):
        n = y.shape[0]
        return float(-0.5 * (y @ y) / dispersion - 0.5 * n * math.log(2 * math.pi * dispersion))

    def check_support(self, y):
        pass

    def sample(self, theta, dispersion, rng):
        return theta + math.sqrt(dispersion) * rng.normal(size=theta.shape[0])


class _Logistic:
    name = "logistic"
    origin = (math.log(2.0), 0.5, 0.25)  # the cumulant, mean and variance at theta = 0

    def mean(self, theta):
        # the overflow-safe mean below, which overwrites theta and three scratch arrays
        theta = np.array(theta, dtype=float)
        return self.cumulant_mean_variance(theta, *np.empty((3,) + theta.shape))[1]

    def cumulant_mean_variance(self, theta, e, c, w):
        # log(1 + e^theta) summed per row, the mean and the variance, from the
        # one e^-|theta|, which never overflows; the mean and variance in
        # theta's and e's buffers, with c and w as scratch
        np.exp(np.negative(np.abs(theta, out=e), out=e), out=e)
        cumulant = np.log1p(e, out=c)
        cumulant += np.maximum(theta, 0.0, out=w)
        total = cumulant.sum(axis=-1)
        # the mean's numerator is 1 for theta >= 0, else e: as e <= 1, their maximum
        mean = np.maximum(e, np.greater_equal(theta, 0.0, out=w), out=theta)
        e += 1.0
        mean /= e
        var = np.subtract(1.0, mean, out=e)
        var *= mean
        return total, mean, var

    def log_base(self, y, dispersion):
        return 0.0

    def check_support(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise FamilySupport("logistic responses must be 0/1")

    def sample(self, theta, dispersion, rng):
        return (rng.uniform(size=theta.shape[0]) < self.mean(theta)).astype(float)


class _Poisson:
    name = "poisson"
    origin = (1.0, 1.0, 1.0)

    def mean(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def cumulant_mean_variance(self, theta, e, c, w):
        # e^theta is the cumulant, the mean and the variance, in theta's buffer
        mu = np.exp(theta, out=theta)
        return mu.sum(axis=-1), mu, mu

    def log_base(self, y, dispersion):
        # -sum log y_i!: one lgamma per distinct count v, times its multiplicity
        counts, mult = np.unique(y, return_counts=True)
        return -math.fsum(m * math.lgamma(v + 1.0)
                          for v, m in zip(counts.tolist(), mult.tolist()))

    def check_support(self, y):
        if not np.all((y >= 0) & (y == np.floor(y))):
            raise FamilySupport("poisson responses must be nonnegative integers")

    def sample(self, theta, dispersion, rng):
        return rng.poisson(np.exp(theta)).astype(float)


FAMILIES = {f.name: f for f in (_Gaussian(), _Logistic(), _Poisson())}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable regression data: response, design, family tag, dispersion.

    ``dispersion`` is the known Gaussian variance, positive and finite, and
    is ignored by the other families.  Model indices are 1-based positions
    into the columns of ``X``; no intercept is implicit, callers include a
    constant column explicitly when they want one.  ``X`` is stored
    C-contiguous, so no result depends on the memory layout of the caller's.
    Each statistic is cached once, on first use: X'X, X'y and X'1 in
    ``_gram`` (X'X is the one p x p array), X' in ``_xt``, and ``log_base``.
    No scratch is kept, so threads may score one ``Dataset`` at once.
    """

    y: np.ndarray
    X: np.ndarray
    family: str = "gaussian"
    dispersion: float = 1.0

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        X = np.ascontiguousarray(self.X, dtype=float)
        if X.ndim != 2:
            raise ValueError("X must be a 2-d matrix")
        if y.shape[0] != X.shape[0]:
            raise ValueError(f"y has {y.shape[0]} rows but X has {X.shape[0]}")
        if y.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("need n >= 1 and p >= 1")
        if not (np.all(np.isfinite(y)) and np.all(np.isfinite(X))):
            raise ValueError("non-finite entries in y or X")
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if not 0.0 < self.dispersion < math.inf:
            raise ValueError("dispersion must be positive and finite")
        FAMILIES[self.family].check_support(y)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # sufficient statistics: X'X and X'y (the Gaussian kernel and every
        # origin step) and X'1 (the logistic and Poisson origin score)
        return self.X.T @ self.X, self.X.T @ self.y, self.X.sum(axis=0)

    @cached_property
    def _xt(self) -> np.ndarray:
        # X' with contiguous rows, from which the GLM kernel gathers columns
        return np.ascontiguousarray(self.X.T)

    @cached_property
    def log_base(self) -> float:
        """The family's constant log-likelihood term, free of the coefficients."""
        return FAMILIES[self.family].log_base(self.y, self.dispersion)


@dataclass
class GlmFit:
    """Maximum-likelihood fit of one submodel."""

    beta_hat: np.ndarray
    neg_hessian: np.ndarray  # of the log-likelihood at beta_hat
    converged: bool
    iterations: int
    separation: bool = False


def _one_row(d: Dataset, J: ModelIndex, beta) -> tuple:
    # the value, score and negative Hessian of model J at beta (one-row kernel)
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.shape[0] != J.size:
        raise ValueError(f"beta has length {beta.shape[0]}, model has {J.size}")
    value, g, h = batch_evaluate(model_batch(d, J.cols[None, :]), beta[None, :])
    return float(value[0]), g[0], h[0]


def log_likelihood(d: Dataset, J: ModelIndex, beta: np.ndarray) -> float:
    """Full log-likelihood of submodel ``J`` at ``beta``, constants included."""
    return _one_row(d, J, beta)[0]


def score(d: Dataset, J: ModelIndex, beta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X_J' (y - b'(X_J beta)), 1/sigma^2-scaled."""
    return _one_row(d, J, beta)[1]


def neg_hessian(d: Dataset, J: ModelIndex, beta: np.ndarray) -> SpdMatrix:
    """Negative log-likelihood Hessian X_J' W X_J with W = diag(b''(theta))."""
    return SpdMatrix(_one_row(d, J, beta)[2])


# Where a Newton ascent stopped; scalars for one model, per-row arrays for a batch
NewtonAscent = namedtuple("NewtonAscent", "beta value h converged iterations singular")


def newton_ascent(evaluate: Callable[[np.ndarray], tuple[float, np.ndarray, np.ndarray]],
                  beta: np.ndarray, d: Dataset, max_iter: int, ridge_tries: int,
                  step_cap: Optional[Callable[[np.ndarray, np.ndarray], float]] = None,
                  start: Optional[tuple[float, np.ndarray, np.ndarray]] = None
                  ) -> NewtonAscent:
    """Damped Newton ascent of an objective from ``beta``, for one model.

    ``evaluate(b)`` returns the objective, gradient and negative Hessian at
    ``b``, once per point; ``start`` is ``evaluate(beta)`` where the caller
    has it already.  Each iteration solves for the Newton step by
    Cholesky; where the negative Hessian does not factor it retries with a
    ridge, doubling from 1e-8 max(1, max|h|), up to ``ridge_tries`` tries.
    The step starts at fraction ``step_cap(beta, step)`` (else 1) and is
    halved, at most ``MAX_HALVINGS`` times, until the objective does not
    decrease.  A step whose Newton decrement g'step is at most
    ``DECREMENT_TOL`` * max(1, |objective|, |d.log_base|) gains less than
    the objective resolves: it gets one trial, and if that is rejected the
    ascent stops at beta, certified at resolution.  The ascent stops when
    the gradient's infinity-norm is at most ``GRAD_TOL_PER_OBS * d.n``, when
    no Newton step factors (``singular``), when the decrement certifies
    beta, when no halving is accepted or the accepted step leaves beta
    unchanged in floating point, or after ``max_iter`` steps.  Returns the
    final iterate, the objective and the negative Hessian there,
    ``converged`` (the gradient test at that iterate, or the decrement's
    certificate), the steps taken and ``singular``.
    """
    tol = GRAD_TOL_PER_OBS * d.n
    scale = max(1.0, abs(d.log_base))
    value, g, h = evaluate(beta) if start is None else start
    eye = np.eye(beta.size)
    iterations = 0
    singular = certified = False
    for _ in range(max_iter):
        if float(np.abs(g).max(initial=0.0)) <= tol:
            break
        step = None
        ridge = 0.0
        for _ in range(ridge_tries):
            factor, ok = batch_cholesky(h + ridge * eye)
            if ok:
                step = batch_cho_solve(factor, g)
                break
            # indefinite away from the optimum; damp toward gradient ascent
            ridge = max(2.0 * ridge, 1e-8 * max(1.0, float(np.abs(h).max(initial=0.0))))
        if step is None:
            singular = True
            break
        flat = (g * step).sum(axis=-1) <= DECREMENT_TOL * np.maximum(scale, np.abs(value))
        t = 1.0 if step_cap is None else float(step_cap(beta, step))
        for _ in range(MAX_HALVINGS):  # a flat step gets one trial
            cand = beta + t * step
            trial = evaluate(cand)
            if trial[0] >= value or flat:
                break
            t *= 0.5
        rejected = trial[0] < value
        if rejected or np.array_equal(cand, beta):
            certified = rejected and flat
            break
        beta, (value, g, h) = cand, trial
        iterations += 1
    # g and h are always those of the returned beta
    return NewtonAscent(beta=beta, value=value, h=h,
                        converged=certified or float(np.abs(g).max(initial=0.0)) <= tol,
                        iterations=iterations, singular=singular)


def fit_mle(d: Dataset, J: ModelIndex) -> GlmFit:
    """Maximum-likelihood fit: :func:`newton_ascent` of the log-likelihood
    from beta = 0 (evaluated by :func:`batch_origin`), with one Cholesky try
    per step, no step cap and at most ``MAX_NEWTON_ITER`` iterations.

    For logistic models a fitted coefficient exceeding ``SEPARATION_CAP`` in
    magnitude sets the ``separation`` flag, signalling that the MLE likely
    does not exist; this is a flag, not an error, and the capped fit is
    still returned.

    Raises
    ------
    NotPositiveDefinite
        If the design of ``J`` is rank-deficient.
    """
    value, g, h = batch_origin(model_batch(d, J.cols[None, :]))
    fit = newton_ascent(lambda b: _one_row(d, J, b), np.zeros(J.size), d,
                        MAX_NEWTON_ITER, ridge_tries=1, start=(float(value[0]), g[0], h[0]))
    if fit.singular:
        raise NotPositiveDefinite(f"rank-deficient design for model {J}")
    separation = (d.family == "logistic"
                  and float(np.abs(fit.beta).max(initial=0.0)) > SEPARATION_CAP)
    return GlmFit(beta_hat=fit.beta, neg_hessian=fit.h, converged=fit.converged,
                  iterations=fit.iterations, separation=separation)


# =============================================================================
# Batched kernel: M models of one size k at once
# =============================================================================


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """Likelihood data of M models of one size k.

    ``cols`` holds the zero-based columns, shape (M, k), and ``xtx`` and
    ``xty`` their slices of the cached X'X and X'y, (M, k, k) and (M, k).
    """

    d: Dataset
    cols: np.ndarray
    xtx: np.ndarray
    xty: np.ndarray

    def take(self, rows) -> "ModelBatch":
        """The sub-batch of the given rows (an index array or a mask)."""
        return ModelBatch(self.d, self.cols[rows], self.xtx[rows], self.xty[rows])


def batch_rows(k: int) -> int:
    """Models per batch of size-k models (see ``BATCH_FLOATS``)."""
    return max(1, BATCH_FLOATS // max(1, k * k))


def chunk_rows(d: Dataset) -> int:
    """Models per pass of the logistic and Poisson kernel (see ``BATCH_FLOATS``)."""
    return max(1, BATCH_FLOATS // (2 * d.n))


def model_batch(d: Dataset, cols: np.ndarray) -> ModelBatch:
    """The batch of the models whose zero-based columns are the rows of
    ``cols`` (shape (M, k), k >= 0)."""
    cols = np.asarray(cols, dtype=int)
    if cols.size and (cols.min() < 0 or cols.max() >= d.p):
        raise ValueError(f"model columns must lie in 1..{d.p}")
    if cols.shape[1] > d.n:
        raise ValueError(f"|J| = {cols.shape[1]} exceeds n = {d.n}")
    xtx, xty, _ = d._gram
    return ModelBatch(d=d, cols=cols, xtx=xtx[cols[:, :, None], cols[:, None, :]],
                      xty=xty[cols])


def batch_origin(batch: ModelBatch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """:func:`batch_evaluate` at beta = 0 with no pass over the n rows.

    The Gaussian kernel reads only X'X and X'y.  At beta = 0 each
    observation of a logistic or Poisson model has the family's cumulant
    c0, mean mu0 and variance w0, so the value, score and negative Hessian
    are log_base - n c0, X_J'y - mu0 X_J'1 and w0 X_J'X_J (McCullagh &
    Nelder 1989, ch. 2), from the batch's slices and ``Dataset._gram``.
    """
    d, cols = batch.d, batch.cols
    if d.family == "gaussian":
        return batch_evaluate(batch, np.zeros(cols.shape))
    c0, mu0, w0 = FAMILIES[d.family].origin
    return (np.full(cols.shape[0], d.log_base - d.n * c0), batch.xty - mu0 * d._gram[2][cols],
            w0 * batch.xtx)


def batch_evaluate(batch: ModelBatch, beta: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full log-likelihoods (M,), scores (M, k) and negative log-likelihood
    Hessians (M, k, k) of each model at its row of ``beta`` (M, k).

    A non-finite log-likelihood (a Poisson theta beyond the exponential's
    range) is -inf, with no warning; the score and Hessian of such a row are
    meaningless.  Every sum runs within one row, so no model's values depend
    on its batch or on how the batch is cut into chunks.
    """
    d = batch.d
    if d.family == "gaussian":
        s = 1.0 / d.dispersion
        xtx_beta = (batch.xtx * beta[:, None, :]).sum(axis=-1)
        quad = (beta * xtx_beta).sum(axis=-1)
        value = s * ((batch.xty * beta).sum(axis=-1) - 0.5 * quad)
        g, h = s * (batch.xty - xtx_beta), s * batch.xtx
    else:
        m, k = beta.shape
        n, family = d.n, FAMILIES[d.family]
        value, g, h = np.empty(m), np.empty((m, k)), np.empty((m, k, k))
        size = chunk_rows(d)
        buf = np.empty((k + 4, size * n))  # every chunk's temporaries
        with np.errstate(over="ignore", invalid="ignore"):  # rows off the exp range
            for start in range(0, m, size):
                rows, mc = slice(start, start + size), min(size, m - start)
                theta, e, c, w = buf[:4, :mc * n].reshape(4, mc, n)
                # column j of the chunk's models is the contiguous block xs[j]
                xs = d._xt.take(batch.cols[rows].T, axis=0, mode="clip",
                                out=buf[4:].reshape(-1)[:k * mc * n].reshape(k, mc, n))
                # linear predictors X_J beta, one row of n per model, and theta'y
                # per row from a stacked product, so each row sums on its own
                np.matmul(beta[rows, None, :], xs.transpose(1, 0, 2), out=theta[:, None, :])
                ty = np.matmul(theta[:, None, :], d.y[:, None])[:, 0, 0]
                cumulant, mean, var = family.cumulant_mean_variance(theta, e, c, w)
                value[rows] = ty - cumulant
                np.matmul(xs.transpose(1, 0, 2), np.subtract(d.y, mean, out=c)[:, :, None],
                          out=g[rows, :, None])
                # the lower triangle of X_J' W X_J, one column at a time, mirrored
                for j in range(k):
                    np.matmul(xs[j:].transpose(1, 0, 2),
                              np.multiply(xs[j], var, out=w)[:, :, None], out=h[rows, j:, j, None])
                    h[rows, j, j + 1:] = h[rows, j + 1:, j]
    value += d.log_base
    return np.where(np.isfinite(value), value, -math.inf), g, h
