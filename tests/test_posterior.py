"""Orthant-aware mode finding and the Laplace marginal against independent
stationarity, quadrature, and conjugate closed-form oracles."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nlselect.glm import Dataset, log_likelihood
from nlselect.modelspace import ModelIndex
from nlselect.numerics import adaptive_quad
from nlselect.posterior import find_posterior_mode, fit_mle, fit_model, laplace_log_marginal
from nlselect.priors import log_prior, pimom, spimom

J1 = ModelIndex((1,))


def unit_info_dataset(n, mle_value=0.0):
    """Ones design (X'X = n) with a response engineered so the MLE is exact."""
    resid = np.tile([1.0, -1.0], n // 2)
    return Dataset(y=mle_value + resid, X=np.ones((n, 1)), family="gaussian")


def simulated_gaussian(seed, n, p, beta_true):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = X @ np.asarray(beta_true) + rng.normal(size=n)
    return Dataset(y=y, X=X, family="gaussian")


# (seed, p) of the Gaussian-prior Laplace check
GAUSSIAN_PRIOR_CASES = ((0, 1), (1, 2))


class TestNullCoordinateMode:
    def test_spimom_matches_stationarity_root(self):
        d = unit_info_dataset(1000)
        mle = fit_mle(d, J1)
        assert mle.beta_hat[0] == 0.0
        pm = find_posterior_mode(d, J1, spimom(), mle)
        # oracle: positive root of n b^3 + (r+1) b - 2 sqrt(lam) = 0
        oracle = brentq(lambda b: 1000 * b**3 + 2 * b - 2, 0.0, 1.0, xtol=1e-15)
        assert pm.converged
        assert pm.beta_pm[0] == pytest.approx(oracle, abs=1e-8)

    def test_pimom_matches_quartic_closed_form(self):
        d = unit_info_dataset(1000)
        pm = find_posterior_mode(d, J1, pimom(), fit_mle(d, J1))
        # n b^4 + 2 b^2 - 2 = 0 solved as a quadratic in b^2
        oracle = math.sqrt((-2.0 + math.sqrt(8004.0)) / 2000.0)
        assert pm.beta_pm[0] == pytest.approx(oracle, abs=1e-8)

    def test_positive_orthant_convention_for_zero_mle(self):
        d = unit_info_dataset(500)
        pm = find_posterior_mode(d, J1, spimom(), fit_mle(d, J1))
        assert pm.beta_pm[0] > 0.0


class TestStrongSignal:
    def test_mode_within_theoretical_distance_of_mle(self):
        n = 10**4
        d = unit_info_dataset(n, mle_value=2.0)
        mle = fit_mle(d, J1)
        assert mle.beta_hat[0] == pytest.approx(2.0, abs=1e-12)
        for spec in (spimom(), pimom()):
            pm = find_posterior_mode(d, J1, spec, mle)
            bound = (spec.scale / n) ** (1.0 / (2.0 + spec.e))
            assert abs(pm.beta_pm[0] - 2.0) <= bound

    def test_neighborhood_envelope_across_n(self):
        for spec in (spimom(), pimom()):
            for n in (10**3, 10**4, 10**5):
                d = unit_info_dataset(n, mle_value=1.5)
                mle = fit_mle(d, J1)
                pm = find_posterior_mode(d, J1, spec, mle)
                env = 3.0 * (spec.r * spec.scale / n) ** (1.0 / (2.0 + spec.e))
                assert abs(pm.beta_pm[0] - mle.beta_hat[0]) <= env


class TestOrthantInvariants:
    def test_signs_match_mle_and_no_zeros(self):
        for seed in range(6):
            d = simulated_gaussian(seed, 150, 3, [0.9, -0.7, 0.4])
            J = ModelIndex((1, 2, 3))
            mle = fit_mle(d, J)
            pm = find_posterior_mode(d, J, spimom(), mle)
            assert pm.converged
            assert np.all(pm.beta_pm != 0.0)
            nonzero = mle.beta_hat != 0.0
            assert np.all(np.sign(pm.beta_pm[nonzero]) == np.sign(mle.beta_hat[nonzero]))

    def test_mode_beats_start_and_orthant_perturbations(self):
        d = simulated_gaussian(3, 200, 2, [1.0, -0.8])
        J = ModelIndex((1, 2))
        spec = spimom()
        mle = fit_mle(d, J)
        pm = find_posterior_mode(d, J, spec, mle)

        def logpost(b):
            return log_likelihood(d, J, b) + log_prior(b, spec)

        assert pm.log_post_unnorm >= logpost(mle.beta_hat) - 1e-12
        rng = np.random.default_rng(99)
        for _ in range(64):
            delta = rng.normal(size=2)
            delta *= 0.1 / np.linalg.norm(delta)
            cand = pm.beta_pm + delta
            if np.any(np.sign(cand) != np.sign(pm.beta_pm)):
                continue  # stay within the mode's orthant
            assert pm.log_post_unnorm >= logpost(cand) - 1e-12

    def test_gradient_small_at_mode(self):
        d = simulated_gaussian(11, 300, 2, [1.2, 0.5])
        J = ModelIndex((1, 2))
        from nlselect.glm import score
        from nlselect.priors import log_prior_grad
        spec = pimom()
        pm = find_posterior_mode(d, J, spec, fit_mle(d, J))
        g = score(d, J, pm.beta_pm) + log_prior_grad(pm.beta_pm, spec)
        assert np.abs(g).max() <= 1e-8 * d.n


class TestLaplace:
    def test_empty_model_is_exact_loglik(self):
        # log-likelihood at theta = 0 of y = (0, 1), written out per family
        closed_form = {"gaussian": -0.5 - math.log(2 * math.pi),
                       "logistic": -2.0 * math.log(2.0), "poisson": -2.0}
        empty = ModelIndex(())
        for family, want in closed_form.items():
            d = Dataset(y=[0.0, 1.0], X=[[1.0], [1.0]], family=family)
            pm = find_posterior_mode(d, empty, spimom(), fit_mle(d, empty))
            assert pm.converged and pm.iterations == 0
            assert pm.neg_hessian_logpost.dim == 0
            lm = laplace_log_marginal(d, empty, pm)
            assert lm == log_likelihood(d, empty, [])
            assert lm == pytest.approx(want, abs=1e-14)

    def test_one_dim_against_quadrature(self):
        spec = spimom()
        for seed in range(3):
            d = simulated_gaussian(seed, 200, 1, [1.0])
            pm = fit_model(d, J1, spec)
            shift = pm.log_post_unnorm

            def integrand(b):
                out = np.zeros_like(b)
                for i, bi in enumerate(np.atleast_1d(b)):
                    lp = log_likelihood(d, J1, [bi]) + log_prior([bi], spec)
                    out[i] = math.exp(lp - shift) if math.isfinite(lp) else 0.0
                return out

            oracle = shift + math.log(adaptive_quad(integrand, -8.0, 8.0, 1e-10))
            assert pm.log_marginal == pytest.approx(oracle, abs=0.05)

    def test_two_dim_against_tensor_grid(self):
        from oracles import tensor_grid_log_marginal
        spec = spimom()
        d = simulated_gaussian(17, 200, 2, [1.0, -0.8])
        J = ModelIndex((1, 2))
        pm = fit_model(d, J, spec)
        oracle = tensor_grid_log_marginal(d, J, spec, pm.log_post_unnorm)
        assert pm.log_marginal == pytest.approx(oracle, abs=0.1)

    def test_gaussian_prior_makes_laplace_exact(self):
        # quadratic log posterior: Laplace equals the conjugate closed form
        from oracles import gaussian_prior_mode
        prior_var = 2.5
        for seed, p in GAUSSIAN_PRIOR_CASES:
            d = simulated_gaussian(seed, 120, p, [0.8] * p)
            J = ModelIndex(tuple(range(1, p + 1)))
            pm = gaussian_prior_mode(d, J, prior_var)
            lm = laplace_log_marginal(d, J, pm)
            # closed form: y ~ N(0, sigma2 I + prior_var X X') marginally
            cov = np.eye(d.n) + prior_var * d.X @ d.X.T
            sign, logdet = np.linalg.slogdet(cov)
            ref = (-0.5 * d.n * math.log(2 * math.pi) - 0.5 * logdet
                   - 0.5 * d.y @ np.linalg.solve(cov, d.y))
            assert lm == pytest.approx(ref, abs=1e-8)

    def test_gaussian_prior_mode_is_the_ridge_solution(self):
        # the oracle's own closed form: (X'X / sigma2 + I / prior_var)^-1 X'y / sigma2
        from oracles import gaussian_prior_mode
        prior_var = 2.5
        for seed, p in GAUSSIAN_PRIOR_CASES:
            d = simulated_gaussian(seed, 120, p, [0.8] * p)
            J = ModelIndex(tuple(range(1, p + 1)))
            pm = gaussian_prior_mode(d, J, prior_var)
            precision = d.X.T @ d.X / d.dispersion + np.eye(p) / prior_var
            want = np.linalg.solve(precision, d.X.T @ d.y / d.dispersion)
            assert pm.converged
            np.testing.assert_allclose(pm.beta_pm, want, rtol=1e-10, atol=0.0)

    def test_saddle_maps_to_minus_inf(self):
        rng = np.random.default_rng(5)
        X = np.ones((20, 2))  # rank-deficient pair
        d = Dataset(y=rng.normal(size=20), X=X, family="gaussian")
        fit = fit_model(d, ModelIndex((1, 2)), spimom())
        assert fit.log_marginal == -math.inf
        assert fit.saddle
