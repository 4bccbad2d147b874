"""Shared brute-force oracles used by the unit and acceptance suites.

These deliberately avoid the code paths they adjudicate: marginals come from
direct quadrature of the unnormalized posterior, never from the Laplace
formula under test, and the Gaussian-prior mode is searched outside the
nonlocal-prior mode finder.  ``per_model_scorer`` turns a one-model score
function into the batch scorer that ``greedy_search`` takes.
"""

import math

import numpy as np

from nlselect.glm import batch_evaluate, fit_mle, log_likelihood, model_batch, newton_ascent
from nlselect.modelspace import ModelIndex
from nlselect.numerics import SpdMatrix, adaptive_quad
from nlselect.posterior import MAX_MODE_ITER, MAX_RIDGE_TRIES, ModelScores, PosteriorFit
from nlselect.priors import log_density_1d, log_prior


def quad_log_marginal_1d(d, J, spec, shift, lo=-8.0, hi=8.0, tol=1e-10):
    """Adaptive-quadrature log marginal for a one-coefficient model."""

    def integrand(b):
        out = np.zeros_like(b)
        for i, bi in enumerate(np.atleast_1d(b)):
            lp = log_likelihood(d, J, [bi]) + log_prior([bi], spec)
            out[i] = math.exp(lp - shift) if math.isfinite(lp) else 0.0
        return out

    return shift + math.log(adaptive_quad(integrand, lo, hi, tol))


def tensor_grid_log_marginal(d, J, spec, shift, lo=-5.0, hi=5.0, step=2.5e-3):
    """Midpoint tensor-grid oracle for a two-coefficient gaussian marginal.

    The gaussian log-likelihood is quadratic, so over the grid it splits
    into two per-axis parts plus a rank-one cross term; the prior factors
    per coordinate.  Row chunks keep the 4000 x 4000 grid in memory bounds.
    """
    cols = J.cols
    xtx = d.X[:, cols].T @ d.X[:, cols] / d.dispersion
    xty = d.X[:, cols].T @ d.y / d.dispersion
    const = (-0.5 * (d.y @ d.y) / d.dispersion
             - 0.5 * d.n * math.log(2 * math.pi * d.dispersion))
    grid = np.arange(lo + step / 2.0, hi, step)
    f1 = xty[0] * grid - 0.5 * xtx[0, 0] * grid**2 + log_density_1d(grid, spec)
    f2 = xty[1] * grid - 0.5 * xtx[1, 1] * grid**2 + log_density_1d(grid, spec)
    total = 0.0
    chunk = 256
    for i in range(0, grid.size, chunk):
        expo = (f1[i:i + chunk, None] + f2[None, :]
                - xtx[0, 1] * np.outer(grid[i:i + chunk], grid)
                + const - shift)
        total += float(np.exp(expo).sum())
    return shift + math.log(total * step * step)


def gaussian_prior_mode(d, J, prior_var):
    """Posterior mode under a N(0, prior_var I) prior, for which the log
    posterior is quadratic in the Gaussian family and Laplace is exact.

    One ``glm.newton_ascent`` of log-likelihood + log-prior from the MLE,
    without the orthant cap: the prior is finite at zero.
    """
    batch = model_batch(d, J.cols[None, :])

    def evaluate(b):
        log_prior_value = float(-0.5 * b.size * math.log(2 * math.pi * prior_var)
                                - 0.5 * (b @ b) / prior_var)
        value, g, h = batch_evaluate(batch, b[None])
        return (float(value[0]) + log_prior_value, g[0] - b / prior_var,
                h[0] + np.eye(b.size) / prior_var)

    fit = newton_ascent(evaluate, np.array(fit_mle(d, J).beta_hat, dtype=float),
                        d, MAX_MODE_ITER, ridge_tries=MAX_RIDGE_TRIES)
    return PosteriorFit(beta_pm=fit.beta, log_post_unnorm=fit.value,
                        neg_hessian_logpost=SpdMatrix(fit.h),
                        converged=fit.converged, iterations=fit.iterations)


def fd_gradient(f, beta, h=1e-5):
    beta = np.asarray(beta, dtype=float)
    out = np.zeros_like(beta)
    for i in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[i] += h
        dn[i] -= h
        out[i] = (f(up) - f(dn)) / (2.0 * h)
    return out


def fd_jacobian(g, beta, h=1e-5):
    beta = np.asarray(beta, dtype=float)
    cols = []
    for i in range(beta.size):
        up, dn = beta.copy(), beta.copy()
        up[i] += h
        dn[i] -= h
        cols.append((g(up) - g(dn)) / (2.0 * h))
    return np.column_stack(cols)


def per_model_scorer(fn):
    """A ``greedy_search`` scorer ``(d, blocks, spec) -> ModelScores`` that
    calls ``fn(ModelIndex) -> float`` on each row, block by block in order.
    The rows carry ``fn``'s log marginal, ``excluded`` where it is -inf, and
    NaN MLEs and modes as wide as the widest block."""

    def score(d, blocks, spec):
        logm = np.array([fn(ModelIndex(row)) for b in blocks for row in b.tolist()],
                        dtype=float)
        m, w = logm.size, max(b.shape[1] for b in blocks)
        return ModelScores(log_marginal=logm, excluded=logm == -math.inf,
                           converged=np.ones(m, dtype=bool), iterations=np.zeros(m, dtype=int),
                           separation=np.zeros(m, dtype=bool), mle=np.full((m, w), math.nan),
                           mode=np.full((m, w), math.nan), mle_converged=np.ones(m, dtype=bool),
                           mle_iterations=np.zeros(m, dtype=int), logdet=np.full(m, math.nan))

    return score
