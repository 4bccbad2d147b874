"""Canonical-link exponential-family likelihoods and Newton MLE fitting.

Families: Gaussian with known variance, binomial/logistic, Poisson.  All
log-likelihoods keep their full normalizing constants so marginal
likelihoods are comparable across models and against quadrature oracles.

Two forms of each kernel: per model (a :class:`ModelIndex` and a coefficient
vector), and per :class:`ModelBatch` (M models of one size k, as an (M, k)
array of columns, with an (M, k) array of coefficients), which the batched
scoring engine in ``posterior`` runs in lockstep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np
from scipy.special import gammaln

from .modelspace import ModelIndex
from .numerics import NotPositiveDefinite, SpdMatrix, batch_cho_solve, batch_cholesky

SCORE_TOL_PER_OBS = 1e-8
MAX_NEWTON_ITER = 100
MAX_HALVINGS = 60
SEPARATION_CAP = 30.0
# Floats per batch temporary: a batch holds BATCH_FLOATS // n models for the
# GLM families (one row of X_J beta each) and BATCH_FLOATS // k^2 for the
# Gaussian family (one Gram slice each), so its memory stays near 256 KB per
# temporary at any n.
BATCH_FLOATS = 1 << 15


class FamilySupport(ValueError):
    """Response vector violates the support of the requested family."""


def _sigmoid(theta: np.ndarray) -> np.ndarray:
    # 1 / (1 + e^-theta) for theta >= 0, e^theta / (1 + e^theta) below, so
    # the exponential never overflows; in place, as batches pass large arrays
    e = np.abs(theta)
    np.exp(np.negative(e, out=e), out=e)
    out = np.where(theta >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


class _Gaussian:
    name = "gaussian"

    def cumulant(self, theta):
        return 0.5 * theta * theta

    def mean(self, theta):
        return theta

    def variance(self, theta):
        return np.ones_like(theta)

    def scale(self, dispersion):
        return 1.0 / dispersion

    def log_base(self, y, dispersion):
        n = y.shape[0]
        return float(-0.5 * (y @ y) / dispersion - 0.5 * n * math.log(2 * math.pi * dispersion))

    def check_support(self, y):
        pass

    def sample(self, theta, dispersion, rng):
        return theta + math.sqrt(dispersion) * rng.normal(size=theta.shape[0])


class _Logistic:
    name = "logistic"

    def cumulant(self, theta):
        # log(1 + e^theta), written so the exponential never overflows
        out = np.abs(theta)
        np.log1p(np.exp(np.negative(out, out=out), out=out), out=out)
        out += np.maximum(theta, 0.0)
        return out

    def mean(self, theta):
        return _sigmoid(theta)

    def variance(self, theta):
        return self.mean_variance(theta)[1]

    def mean_variance(self, theta):
        p = _sigmoid(theta)
        var = 1.0 - p
        var *= p
        return p, var

    def scale(self, dispersion):
        return 1.0

    def log_base(self, y, dispersion):
        return 0.0

    def check_support(self, y):
        if not np.all((y == 0.0) | (y == 1.0)):
            raise FamilySupport("logistic responses must be 0/1")

    def sample(self, theta, dispersion, rng):
        return (rng.uniform(size=theta.shape[0]) < _sigmoid(theta)).astype(float)


class _Poisson:
    name = "poisson"

    def cumulant(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def mean(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def variance(self, theta):
        with np.errstate(over="ignore"):
            return np.exp(theta)

    def mean_variance(self, theta):
        mu = self.mean(theta)
        return mu, mu

    def scale(self, dispersion):
        return 1.0

    def log_base(self, y, dispersion):
        return float(-gammaln(y + 1.0).sum())

    def check_support(self, y):
        if not np.all((y >= 0) & (y == np.floor(y))):
            raise FamilySupport("poisson responses must be nonnegative integers")

    def sample(self, theta, dispersion, rng):
        return rng.poisson(np.exp(theta)).astype(float)


FAMILIES = {f.name: f for f in (_Gaussian(), _Logistic(), _Poisson())}


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable regression data: response, design, family tag, dispersion.

    ``dispersion`` is the known Gaussian variance and is ignored by the
    other families.  Model indices are 1-based positions into the columns
    of ``X``; no intercept is implicit, callers include a constant column
    explicitly when they want one.
    """

    y: np.ndarray
    X: np.ndarray
    family: str = "gaussian"
    dispersion: float = 1.0

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float).reshape(-1)
        X = np.asarray(self.X, dtype=float)
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
        if self.dispersion <= 0:
            raise ValueError("dispersion must be positive")
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
    def _gram(self) -> tuple[np.ndarray, np.ndarray, float]:
        # sufficient statistics for the Gaussian fast path
        return self.X.T @ self.X, self.X.T @ self.y, float(self.y @ self.y)


@dataclass
class GlmFit:
    """Maximum-likelihood fit of one submodel."""

    model: ModelIndex
    beta_hat: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    separation: bool = False


def design(d: Dataset, J: ModelIndex) -> np.ndarray:
    """Columns of the design selected by ``J`` (n x |J|)."""
    if J.size and J.indices[-1] > d.p:
        raise ValueError(f"model {J} indexes beyond p = {d.p}")
    return d.X[:, J.cols]


def _gram_slices(d: Dataset, J: ModelIndex) -> tuple[np.ndarray, np.ndarray]:
    # (X_J' X_J, X_J' y) sliced from the cached Gram matrix
    xtx, xty, _ = d._gram
    cols = J.cols
    return xtx[cols[:, None], cols], xty[cols]


def log_likelihood(d: Dataset, J: ModelIndex, beta: np.ndarray) -> float:
    """Full log-likelihood of submodel ``J`` at ``beta``, constants included."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    if beta.shape[0] != J.size:
        raise ValueError(f"beta has length {beta.shape[0]}, model has {J.size}")
    fam = FAMILIES[d.family]
    s = fam.scale(d.dispersion)
    if d.family == "gaussian":
        xtx_j, xty_j = _gram_slices(d, J)
        kernel = float(xty_j @ beta - 0.5 * beta @ xtx_j @ beta)
    else:
        theta = design(d, J) @ beta
        kernel = float(d.y @ theta - fam.cumulant(theta).sum())
    value = s * kernel + fam.log_base(d.y, d.dispersion)
    return value if np.isfinite(value) else -math.inf


def score(d: Dataset, J: ModelIndex, beta: np.ndarray) -> np.ndarray:
    """Gradient of the log-likelihood: X_J' (y - b'(X_J beta)), 1/sigma^2-scaled."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    fam = FAMILIES[d.family]
    s = fam.scale(d.dispersion)
    if d.family == "gaussian":
        xtx_j, xty_j = _gram_slices(d, J)
        return s * (xty_j - xtx_j @ beta)
    Xj = design(d, J)
    return s * (Xj.T @ (d.y - fam.mean(Xj @ beta)))


def _neg_hessian_entries(d: Dataset, J: ModelIndex, beta: np.ndarray) -> np.ndarray:
    fam = FAMILIES[d.family]
    s = fam.scale(d.dispersion)
    if d.family == "gaussian":
        xtx_j, _ = _gram_slices(d, J)
        return s * xtx_j
    Xj = design(d, J)
    w = fam.variance(Xj @ beta)
    return s * ((Xj.T * w) @ Xj)


def neg_hessian(d: Dataset, J: ModelIndex, beta: np.ndarray) -> SpdMatrix:
    """Negative log-likelihood Hessian X_J' W X_J with W = diag(b''(theta))."""
    beta = np.asarray(beta, dtype=float).reshape(-1)
    return SpdMatrix(_neg_hessian_entries(d, J, beta))


def fit_mle(d: Dataset, J: ModelIndex, max_iter: int = MAX_NEWTON_ITER,
            separation_cap: float = SEPARATION_CAP) -> GlmFit:
    """Damped Newton MLE from beta = 0 with step-halving.

    Stops when the score infinity-norm drops below 1e-8 * n, after
    ``max_iter`` iterations, or when the accepted step leaves beta unchanged
    in floating point (the Newton decrement is below the objective's
    resolution; ``converged`` then reports whether the score test holds).
    For logistic models a fitted coefficient exceeding ``separation_cap`` in
    magnitude sets the ``separation`` flag, signalling that the MLE likely
    does not exist; this is a flag, not an error, and the capped fit is
    still returned.
    """
    if J.size > d.n:
        raise ValueError(f"|J| = {J.size} exceeds n = {d.n}")
    tol = SCORE_TOL_PER_OBS * d.n
    if J.size == 0:
        return GlmFit(model=J, beta_hat=np.zeros(0),
                      loglik=log_likelihood(d, J, np.zeros(0)),
                      converged=True, iterations=0)
    beta = np.zeros(J.size)
    ll = log_likelihood(d, J, beta)
    iterations = 0
    for _ in range(max_iter):
        g = score(d, J, beta)
        if float(np.abs(g).max()) <= tol:
            break
        factor, ok = batch_cholesky(_neg_hessian_entries(d, J, beta))
        if not ok:
            raise NotPositiveDefinite(f"rank-deficient design for model {J}")
        step = batch_cho_solve(factor, g)
        t = 1.0
        improved = False
        for _ in range(MAX_HALVINGS):
            cand = beta + t * step
            cand_ll = log_likelihood(d, J, cand)
            if cand_ll >= ll:
                improved = True
                break
            t *= 0.5
        if not improved or np.array_equal(cand, beta):
            break
        beta, ll = cand, cand_ll
        iterations += 1
    converged = float(np.abs(score(d, J, beta)).max()) <= tol
    separation = (d.family == "logistic"
                  and float(np.abs(beta).max()) > separation_cap)
    return GlmFit(model=J, beta_hat=beta, loglik=ll, converged=converged,
                  iterations=iterations, separation=separation)


# =============================================================================
# Batched kernels: M models of one size k at once
# =============================================================================


@dataclass(frozen=True, eq=False)
class ModelBatch:
    """Likelihood data of M models of one size k.

    ``cols`` holds the zero-based columns, shape (M, k).  Gaussian batches
    carry their slices of the cached X'X and X'y, shapes (M, k, k) and
    (M, k); the other families carry the models' columns of X, shape
    (M, k, n).  ``base`` is the family's constant log-likelihood term.
    """

    d: Dataset
    cols: np.ndarray
    base: float
    xtx: Optional[np.ndarray] = None
    xty: Optional[np.ndarray] = None
    xs: Optional[np.ndarray] = None

    def take(self, rows) -> "ModelBatch":
        """The sub-batch of the given rows (an index array or a mask)."""
        return ModelBatch(
            d=self.d, cols=self.cols[rows], base=self.base,
            xtx=None if self.xtx is None else self.xtx[rows],
            xty=None if self.xty is None else self.xty[rows],
            xs=None if self.xs is None else self.xs[rows])


def batch_rows(d: Dataset, k: int) -> int:
    """Models per batch of size-k models (see ``BATCH_FLOATS``)."""
    per_model = k * k if d.family == "gaussian" else d.n
    return max(1, BATCH_FLOATS // per_model)


def model_batch(d: Dataset, cols: np.ndarray) -> ModelBatch:
    """Gather the data of the models whose zero-based columns are the rows of
    ``cols`` (shape (M, k), k >= 1)."""
    cols = np.asarray(cols, dtype=int)
    if cols.size and (cols.min() < 0 or cols.max() >= d.p):
        raise ValueError(f"model columns must lie in 1..{d.p}")
    if cols.shape[1] > d.n:
        raise ValueError(f"|J| = {cols.shape[1]} exceeds n = {d.n}")
    base = FAMILIES[d.family].log_base(d.y, d.dispersion)
    if d.family == "gaussian":
        xtx, xty, _ = d._gram
        return ModelBatch(d=d, cols=cols, base=base,
                          xtx=xtx[cols[:, :, None], cols[:, None, :]], xty=xty[cols])
    return ModelBatch(d=d, cols=cols, base=base, xs=d.X.T[cols])


def _batch_theta(batch: ModelBatch, beta: np.ndarray) -> np.ndarray:
    # linear predictors X_J beta, one row of n per model
    return np.matmul(beta[:, None, :], batch.xs)[:, 0, :]


def batch_log_likelihood(batch: ModelBatch, beta: np.ndarray) -> np.ndarray:
    """Full log-likelihood of each model at its row of ``beta`` (M, k)."""
    d = batch.d
    fam = FAMILIES[d.family]
    s = fam.scale(d.dispersion)
    if d.family == "gaussian":
        quad = (beta * (batch.xtx * beta[:, None, :]).sum(axis=-1)).sum(axis=-1)
        kernel = (batch.xty * beta).sum(axis=-1) - 0.5 * quad
    else:
        theta = _batch_theta(batch, beta)
        kernel = theta @ d.y - fam.cumulant(theta).sum(axis=-1)
    value = s * kernel + batch.base
    return np.where(np.isfinite(value), value, -math.inf)


def batch_score_hessian(batch: ModelBatch, beta: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Scores (M, k) and negative log-likelihood Hessians (M, k, k) of each
    model at its row of ``beta``."""
    d = batch.d
    fam = FAMILIES[d.family]
    s = fam.scale(d.dispersion)
    if d.family == "gaussian":
        return (s * (batch.xty - (batch.xtx * beta[:, None, :]).sum(axis=-1)),
                s * batch.xtx)
    mean, var = fam.mean_variance(_batch_theta(batch, beta))
    xs = batch.xs
    g = np.matmul(xs, (d.y - mean)[:, :, None])[:, :, 0]
    # one column of X_J' W X_J at a time keeps the temporaries at (M, n)
    h = np.empty(xs.shape[:2] + xs.shape[1:2])
    for j in range(xs.shape[1]):
        h[:, :, j] = np.matmul(xs, (xs[:, j, :] * var)[:, :, None])[:, :, 0]
    return s * g, s * h
