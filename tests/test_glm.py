"""Likelihood derivatives against finite differences and brute-force fits,
and the batched kernels against the per-model ones."""

import itertools
import math

import numpy as np
import pytest

from nlselect.glm import (BATCH_FLOATS, Dataset, FamilySupport,
                          batch_log_likelihood, batch_rows, batch_score_hessian,
                          fit_mle, log_likelihood, model_batch, neg_hessian, score)
from nlselect.modelspace import ModelIndex
from nlselect.numerics import NotPositiveDefinite

J1 = ModelIndex((1,))


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


def random_instance(family, rng, n=40, p=3):
    X = rng.normal(size=(n, p))
    beta_true = rng.normal(scale=0.5, size=p)
    theta = X @ beta_true
    if family == "gaussian":
        y = theta + rng.normal(size=n)
    elif family == "logistic":
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    else:
        y = rng.poisson(np.exp(theta)).astype(float)
    return Dataset(y=y, X=X, family=family)


class TestLogLikelihood:
    def test_gaussian_constant(self):
        d = Dataset(y=[0.0], X=[[1.0]], family="gaussian", dispersion=1.0)
        assert log_likelihood(d, J1, [0.0]) == pytest.approx(-0.5 * math.log(2 * math.pi))

    def test_logistic_half(self):
        d = Dataset(y=[1.0], X=[[1.0]], family="logistic")
        assert log_likelihood(d, J1, [0.0]) == pytest.approx(math.log(0.5))

    def test_poisson_with_factorial(self):
        d = Dataset(y=[2.0], X=[[1.0]], family="poisson")
        assert log_likelihood(d, J1, [0.0]) == pytest.approx(-1.0 - math.log(2.0))

    def test_gaussian_dispersion_scaling(self):
        d = Dataset(y=[1.0, -1.0], X=[[1.0], [1.0]], family="gaussian", dispersion=4.0)
        expected = -0.5 * 2 / 4.0 - math.log(2 * math.pi * 4.0)
        assert log_likelihood(d, J1, [0.0]) == pytest.approx(expected)

    def test_empty_model(self):
        d = Dataset(y=[0.0, 0.0], X=[[1.0], [1.0]], family="gaussian")
        assert log_likelihood(d, ModelIndex(()), []) == pytest.approx(-math.log(2 * math.pi))


class TestScore:
    def test_gaussian_stationary_at_ols(self):
        d = Dataset(y=[1.0, 3.0], X=[[1.0], [1.0]], family="gaussian")
        np.testing.assert_allclose(score(d, J1, [2.0]), [0.0], atol=1e-14)

    def test_logistic_balanced(self):
        d = Dataset(y=[0.0, 1.0], X=[[1.0], [1.0]], family="logistic")
        np.testing.assert_allclose(score(d, J1, [0.0]), [0.0], atol=1e-14)

    def test_logistic_finite_differences(self):
        rng = np.random.default_rng(21)
        d = random_instance("logistic", rng)
        J = ModelIndex((1, 2, 3))
        beta = rng.normal(scale=0.7, size=3)
        fd = fd_gradient(lambda b: log_likelihood(d, J, b), beta)
        s = score(d, J, beta)
        np.testing.assert_allclose(s, fd, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(s).max()))


class TestNegHessian:
    def test_gaussian_is_gram(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(20, 2))
        d = Dataset(y=rng.normal(size=20), X=X, family="gaussian")
        J = ModelIndex((1, 2))
        np.testing.assert_allclose(neg_hessian(d, J, [0.3, -0.4]).entries,
                                   X.T @ X, rtol=1e-12)

    def test_logistic_quarter_gram_at_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(25, 2))
        y = (rng.uniform(size=25) < 0.5).astype(float)
        d = Dataset(y=y, X=X, family="logistic")
        J = ModelIndex((1, 2))
        np.testing.assert_allclose(neg_hessian(d, J, [0.0, 0.0]).entries,
                                   0.25 * X.T @ X, rtol=1e-12)

    def test_poisson_finite_differences(self):
        rng = np.random.default_rng(4)
        d = random_instance("poisson", rng)
        J = ModelIndex((1, 2, 3))
        beta = rng.normal(scale=0.4, size=3)
        fd = -fd_jacobian(lambda b: score(d, J, b), beta)
        h = neg_hessian(d, J, beta).entries
        np.testing.assert_allclose(h, fd, rtol=1e-4, atol=1e-5 * max(1.0, np.abs(h).max()))


class TestDerivativeSuite:
    """Score = grad(loglik) and neg_hessian = -hess(loglik) at random points."""

    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_random_points(self, family):
        rng = np.random.default_rng(100)
        d = random_instance(family, rng)
        J = ModelIndex((1, 2, 3))
        for _ in range(10):
            beta = rng.normal(scale=0.5, size=3)
            s = score(d, J, beta)
            fd_s = fd_gradient(lambda b: log_likelihood(d, J, b), beta)
            np.testing.assert_allclose(
                s, fd_s, rtol=1e-5, atol=1e-6 * max(1.0, np.abs(s).max()))
            h = neg_hessian(d, J, beta).entries
            fd_h = -fd_jacobian(lambda b: score(d, J, b), beta)
            np.testing.assert_allclose(
                h, fd_h, rtol=1e-4, atol=1e-5 * max(1.0, np.abs(h).max()))


class TestFitMle:
    def test_gaussian_ols(self):
        d = Dataset(y=[1.0, 3.0], X=[[1.0], [1.0]], family="gaussian")
        fit = fit_mle(d, J1)
        np.testing.assert_allclose(fit.beta_hat, [2.0], atol=1e-12)
        assert fit.converged

    def test_logistic_balanced_zero(self):
        d = Dataset(y=[0.0, 1.0], X=[[1.0], [1.0]], family="logistic")
        fit = fit_mle(d, J1)
        np.testing.assert_allclose(fit.beta_hat, [0.0], atol=1e-10)

    def test_gaussian_matches_normal_equations(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(60, 3))
        y = X @ np.array([0.5, -1.0, 0.2]) + rng.normal(size=60)
        d = Dataset(y=y, X=X, family="gaussian", dispersion=2.0)
        J = ModelIndex((1, 2, 3))
        fit = fit_mle(d, J)
        ref = np.linalg.solve(X.T @ X, X.T @ y)
        np.testing.assert_allclose(fit.beta_hat, ref, atol=1e-10)

    def test_poisson_against_dense_grid_oracle(self):
        # brute-force argmax of the log-likelihood over [-3, 3]^2, step 1e-3;
        # the grid kernel y'theta - sum exp(theta) separates into a rank-1
        # part plus an outer product of per-column exponentials
        rng = np.random.default_rng(12)
        n = 50
        X = rng.normal(size=(n, 2))
        theta = X @ np.array([0.5, -0.7])
        y = rng.poisson(np.exp(theta)).astype(float)
        d = Dataset(y=y, X=X, family="poisson")
        J = ModelIndex((1, 2))
        fit = fit_mle(d, J)
        assert fit.converged

        grid = np.arange(-3.0, 3.0 + 1e-12, 1e-3)
        lin1 = (y @ X[:, 0]) * grid
        lin2 = (y @ X[:, 1]) * grid
        e2 = np.exp(np.outer(X[:, 1], grid))  # n x m
        best_val, best_i, best_j = -np.inf, -1, -1
        chunk = 400
        for i0 in range(0, grid.size, chunk):
            e1 = np.exp(np.outer(grid[i0:i0 + chunk], X[:, 0]))  # c x n
            ll = lin1[i0:i0 + chunk, None] + lin2[None, :] - e1 @ e2
            flat = int(np.argmax(ll))
            if ll.flat[flat] > best_val:
                best_val = ll.flat[flat]
                best_i = i0 + flat // grid.size
                best_j = flat % grid.size
        oracle = np.array([grid[best_i], grid[best_j]])
        np.testing.assert_allclose(fit.beta_hat, oracle, atol=2e-3)

    def test_separation_flag(self):
        # perfectly separated: y = 1 iff x > 0; the likelihood saturates, so
        # the fitted coefficient runs past the documented cap
        x = np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
        d = Dataset(y=(x > 0).astype(float), X=x[:, None], family="logistic")
        fit = fit_mle(d, J1)
        assert fit.separation
        assert abs(fit.beta_hat[0]) > 30.0

    def test_empty_model(self):
        d = Dataset(y=[1.0, 2.0], X=[[1.0], [1.0]], family="poisson")
        fit = fit_mle(d, ModelIndex(()))
        assert fit.converged
        assert fit.beta_hat.size == 0

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(9)
        X = np.ones((10, 2))  # duplicate columns
        d = Dataset(y=rng.normal(size=10), X=X, family="gaussian")
        with pytest.raises(NotPositiveDefinite):
            fit_mle(d, ModelIndex((1, 2)))


class TestConcavity:
    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_midpoint_above_chord(self, family):
        rng = np.random.default_rng(31)
        d = random_instance(family, rng)
        J = ModelIndex((1, 2, 3))
        for _ in range(20):
            a = rng.normal(scale=0.8, size=3)
            b = rng.normal(scale=0.8, size=3)
            mid = 0.5 * (a + b)
            lhs = log_likelihood(d, J, mid)
            rhs = 0.5 * (log_likelihood(d, J, a) + log_likelihood(d, J, b))
            assert lhs >= rhs - 1e-9


class TestValidation:
    def test_logistic_support(self):
        with pytest.raises(FamilySupport):
            Dataset(y=[0.0, 2.0], X=[[1.0], [1.0]], family="logistic")

    def test_poisson_support(self):
        with pytest.raises(FamilySupport):
            Dataset(y=[1.5], X=[[1.0]], family="poisson")

    def test_non_finite(self):
        with pytest.raises(ValueError):
            Dataset(y=[np.nan], X=[[1.0]], family="gaussian")

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            Dataset(y=[0.0], X=[[1.0]], family="bogus")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            Dataset(y=[0.0, 1.0], X=[[1.0]], family="gaussian")


class TestBatchKernels:
    @pytest.mark.parametrize("family", ["gaussian", "logistic", "poisson"])
    def test_match_per_model_kernels(self, family):
        rng = np.random.default_rng(31)
        d = random_instance(family, rng, n=80, p=5)
        models = [ModelIndex(c) for c in itertools.combinations(range(1, 6), 3)]
        beta = rng.normal(scale=0.5, size=(len(models), 3))
        batch = model_batch(d, np.array([m.indices for m in models]) - 1)
        ll = batch_log_likelihood(batch, beta)
        g, h = batch_score_hessian(batch, beta)
        for i, J in enumerate(models):
            assert ll[i] == pytest.approx(log_likelihood(d, J, beta[i]), rel=1e-12)
            np.testing.assert_allclose(g[i], score(d, J, beta[i]), rtol=1e-10, atol=1e-10)
            np.testing.assert_allclose(h[i], neg_hessian(d, J, beta[i]).entries, rtol=1e-10)
        sub = batch.take(np.array([4, 1]))
        np.testing.assert_allclose(batch_log_likelihood(sub, beta[[4, 1]]), ll[[4, 1]],
                                   rtol=1e-13)

    def test_batch_rows_rule(self):
        rng = np.random.default_rng(32)
        gauss = random_instance("gaussian", rng, n=800, p=4)
        logit = random_instance("logistic", rng, n=1600, p=4)
        assert batch_rows(gauss, 3) == BATCH_FLOATS // 9
        assert batch_rows(logit, 3) == BATCH_FLOATS // 1600
        assert batch_rows(random_instance("poisson", rng, n=10**6, p=1), 1) == 1
