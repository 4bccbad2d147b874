"""Likelihood derivatives against finite differences and brute-force fits,
and the batched kernels against the families' densities written out."""

import itertools
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import fd_gradient, fd_jacobian
from scipy.special import gammaln

from nlselect import glm
from nlselect.glm import (BATCH_FLOATS, FAMILIES, Dataset, FamilySupport, batch_evaluate,
                          batch_origin, batch_rows, chunk_rows, log_likelihood, model_batch,
                          neg_hessian, score)
from nlselect.modelspace import ModelIndex
from nlselect.numerics import NotPositiveDefinite
from nlselect.posterior import fit_mle

J1 = ModelIndex((1,))
FAMILY_NAMES = ["gaussian", "logistic", "poisson"]


def random_instance(family, rng, n=40, p=3, dispersion=1.0):
    X = rng.normal(size=(n, p))
    beta_true = rng.normal(scale=0.5, size=p)
    theta = X @ beta_true
    if family == "gaussian":
        y = theta + rng.normal(size=n)
    elif family == "logistic":
        y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-theta))).astype(float)
    else:
        y = rng.poisson(np.exp(theta)).astype(float)
    return Dataset(y=y, X=X, family=family, dispersion=dispersion)


def direct_log_likelihood(d, J, beta):
    """The family's log density of y summed over observations, written out
    from its textbook form rather than from the kernels under test."""
    theta = d.X[:, J.cols] @ beta
    y = d.y
    if d.family == "gaussian":
        s2 = d.dispersion
        return (-0.5 * np.sum((y - theta) ** 2) / s2
                - 0.5 * d.n * math.log(2 * math.pi * s2))
    if d.family == "logistic":
        return np.sum(y * theta - np.log(1.0 + np.exp(theta)))
    return np.sum(y * theta - np.exp(theta) - gammaln(y + 1.0))


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(n=st.integers(1, 2000), distinct=st.integers(1, 2000),
           top=st.sampled_from([1, 40, 3000, 10**6, 10**9]), seed=st.integers(0, 2**32 - 1))
    def test_poisson_constant_matches_gammaln(self, n, distinct, top, seed):
        # n counts in 0..top, drawn from a pool of up to `distinct` values: a
        # small pool gives many repeats, a pool of n large values many distinct
        rng = np.random.default_rng(seed)
        pool = rng.integers(0, top, size=min(distinct, n), endpoint=True)
        y = rng.choice(pool, size=n).astype(float)
        d = Dataset(y=y, X=np.ones((n, 1)), family="poisson")
        expected = float(-gammaln(y + 1.0).sum())
        assert abs(d.log_base - expected) <= 1e-13 * abs(expected)

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

    @pytest.mark.parametrize("family", FAMILY_NAMES)
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
        # the Newton loop stops at iteration 0: the empty gradient passes
        for family in FAMILY_NAMES:
            d = Dataset(y=[0.0, 1.0], X=[[1.0], [1.0]], family=family)
            fit = fit_mle(d, ModelIndex(()))
            assert fit.converged and fit.iterations == 0 and not fit.separation
            assert fit.beta_hat.size == 0

    def test_rank_deficient_raises(self):
        rng = np.random.default_rng(9)
        X = np.ones((10, 2))  # duplicate columns
        d = Dataset(y=rng.normal(size=10), X=X, family="gaussian")
        with pytest.raises(NotPositiveDefinite):
            fit_mle(d, ModelIndex((1, 2)))


class TestConcavity:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
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


class TestBadModel:
    """A model or coefficient vector that does not fit the data is a
    ValueError in every family."""

    FUNCTIONS = {
        "log_likelihood": log_likelihood,
        "score": score,
        "neg_hessian": neg_hessian,
        "fit_mle": lambda d, J, b: fit_mle(d, J),
    }

    @pytest.mark.parametrize("name", FUNCTIONS)
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_model_beyond_p(self, family, name):
        d = random_instance(family, np.random.default_rng(5), n=10, p=3)
        with pytest.raises(ValueError, match=r"lie in 1\.\.3"):
            self.FUNCTIONS[name](d, ModelIndex((2, 4)), [0.1, 0.2])

    @pytest.mark.parametrize("name", ["log_likelihood", "score", "neg_hessian"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_beta_length(self, family, name):
        d = random_instance(family, np.random.default_rng(6), n=10, p=3)
        with pytest.raises(ValueError, match="length 3, model has 2"):
            self.FUNCTIONS[name](d, ModelIndex((1, 3)), [0.1, 0.2, 0.3])


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
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_match_per_model_kernels(self, family):
        # each row of a batch against the family's log density and its
        # finite-difference derivatives; the Gaussian instance has
        # dispersion 2.5 so the 1/sigma^2 scaling is covered
        rng = np.random.default_rng(31)
        d = random_instance(family, rng, n=80, p=5, dispersion=2.5)
        models = [ModelIndex(c) for c in itertools.combinations(range(1, 6), 3)]
        beta = rng.normal(scale=0.5, size=(len(models), 3))
        batch = model_batch(d, np.array([m.indices for m in models]) - 1)
        ll, g, h = batch_evaluate(batch, beta)
        for i, J in enumerate(models):
            f = lambda b: direct_log_likelihood(d, J, b)
            assert ll[i] == pytest.approx(f(beta[i]), rel=1e-12)
            fd_g = fd_gradient(f, beta[i])
            np.testing.assert_allclose(g[i], fd_g, rtol=1e-5,
                                       atol=1e-6 * max(1.0, np.abs(g[i]).max()))
            fd_h = -fd_jacobian(lambda b: fd_gradient(f, b, h=1e-4), beta[i], h=1e-4)
            np.testing.assert_allclose(h[i], fd_h, rtol=1e-4,
                                       atol=1e-5 * max(1.0, np.abs(h[i]).max()))
        sub = batch.take(np.array([4, 1]))
        for got, want in zip(batch_evaluate(sub, beta[[4, 1]]), (ll, g, h)):
            np.testing.assert_array_equal(got, want[[4, 1]])

    def test_batch_rows_rule(self):
        # k^2 floats per model in a batch, for every family, and 2n per model
        # in a pass of the logistic and Poisson kernel: 10 at n = 1600
        rng = np.random.default_rng(32)
        assert [batch_rows(k) for k in (0, 1, 3)] == [BATCH_FLOATS, BATCH_FLOATS,
                                                      BATCH_FLOATS // 9]
        assert chunk_rows(random_instance("logistic", rng, n=1600, p=4)) == BATCH_FLOATS // 3200 == 10
        assert chunk_rows(random_instance("poisson", rng, n=10**6, p=1)) == 1

    def test_interleaved_calls_match_fresh_datasets(self):
        # batches of k = 1, 3 and 2 interleaved on two datasets of different
        # n, in chunks of 1 row, of 3 and of the default size (23 models leave
        # a ragged last chunk in each): every result equals the same call on a
        # fresh copy of its dataset, so no call leaves state that a later one
        # reads, and no later call overwrites an earlier result
        rng = np.random.default_rng(35)
        data = [random_instance(f, rng, n=n, p=6) for f, n in (("logistic", 1600),
                                                                ("poisson", 90))]
        results = []
        for batch_floats in (1, 3 * 3200 + 5, BATCH_FLOATS):
            with mock.patch.object(glm, "BATCH_FLOATS", batch_floats):
                for k, d in itertools.product((1, 3, 2), data):
                    cols = np.array([rng.choice(6, size=k, replace=False) for _ in range(23)])
                    beta = rng.normal(scale=0.3, size=(23, k))
                    got = batch_evaluate(model_batch(d, cols), beta)
                    fresh = Dataset(y=d.y.copy(), X=d.X.copy(), family=d.family)
                    results.append((got, batch_evaluate(model_batch(fresh, cols), beta)))
        for got, want in results:
            for a, b in zip(got, want):
                np.testing.assert_array_equal(a, b)

    def test_poisson_beyond_exp_range_is_silent(self):
        # theta = 800 on two rows overflows e^theta: the value is -inf, and the
        # score and Hessian, where inf - inf makes NaN and which nothing reads,
        # raise no RuntimeWarning; the other row is unaffected
        d = Dataset(y=[0.0, 3.0, 1.0], X=[[1.0, 1.0], [1.0, -1.0], [1.0, 0.0]],
                    family="poisson")
        beta = np.array([[800.0, 0.0], [0.5, 0.1]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, g, h = batch_evaluate(model_batch(d, np.array([[0, 1], [0, 1]])), beta)
        assert value[0] == -math.inf and np.isnan(g[0]).any()
        assert value[1] == log_likelihood(d, ModelIndex((1, 2)), beta[1])
        assert math.isfinite(value[1])


class TestOriginStep:
    """Every MLE starts at beta = 0, evaluated from the cached X'X, X'y and
    column sums with no pass over the n rows."""

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_matches_kernel_at_zero(self, family):
        rng = np.random.default_rng(36)
        d = random_instance(family, rng, n=300, p=5)
        batch = model_batch(d, np.array(list(itertools.combinations(range(5), 3))))
        got, want = batch_origin(batch), batch_evaluate(batch, np.zeros((10, 3)))
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_fit_keeps_the_hessian_of_its_last_point(self, family):
        rng = np.random.default_rng(37)
        d = random_instance(family, rng, n=80, p=3)
        J = ModelIndex((1, 2, 3))
        fit = fit_mle(d, J)
        assert fit.iterations > 0
        np.testing.assert_array_equal(fit.neg_hessian, neg_hessian(d, J, fit.beta_hat).entries)


class TestSigmoid:
    def test_maximum_numerator_is_bitwise_the_where_form(self):
        # the numerator is max(e, theta >= 0), which equals
        # np.where(theta >= 0, 1.0, e) because e = exp(-|theta|) <= 1; the
        # logistic mean leaves its argument as it was
        mean = FAMILIES["logistic"].mean

        def where_form(theta):
            e = np.exp(-np.abs(theta))
            return np.where(theta >= 0, 1.0, e) / (1.0 + e)

        edges = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 745.2, -745.2,
                 1e308, -1e308, math.nan]
        theta = np.concatenate([edges, np.random.default_rng(33).normal(scale=30.0,
                                                                        size=100_000)])
        for arr in (theta, theta[:100_010].reshape(10, -1)):
            before = arr.copy()
            got, want = mean(arr), where_form(arr)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(arr.view(np.int64), before.view(np.int64))
            np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))
