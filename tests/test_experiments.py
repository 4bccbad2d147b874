"""Simulation harness: reproducibility, rate-table mechanics, decomposition
identities, and the Hessian diagnostics against dense eigensolver oracles."""

import math

import numpy as np
import pytest

from nlselect.experiments import (DESIGN_EQUICORRELATED, ExperimentConfig,
                                  consistency_study, hessian_diagnostics,
                                  logm_ratio_study, mle_rate_study,
                                  mode_rate_study, scalar_mode_rate_table,
                                  scalar_null_mode, simulate_dataset)
from nlselect.glm import Dataset, fit_mle
from nlselect.modelspace import ModelIndex
from nlselect.numerics import make_stream
from nlselect.posterior import fit_model
from nlselect.priors import pimom, spimom


def base_config(**overrides):
    defaults = dict(family="gaussian", p=5, q=3, true_support=ModelIndex((1, 2)),
                    n_grid=(100, 200), replications=3, seed=0,
                    beta0=(1.0, -0.8), priors=(spimom(),))
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class TestConfigValidation:
    def test_decay_exponent_range(self):
        with pytest.raises(ValueError):
            base_config(beta0=None, decay_c=1.0, decay_m=0.4)

    def test_exactly_one_signal_rule(self):
        with pytest.raises(ValueError):
            base_config(beta0=(1.0, -0.8), decay_c=1.0, decay_m=0.1)
        with pytest.raises(ValueError):
            base_config(beta0=None)

    def test_n_grid_strictly_increasing(self):
        with pytest.raises(ValueError):
            base_config(n_grid=(200, 200))

    def test_support_within_bounds(self):
        with pytest.raises(ValueError):
            base_config(true_support=ModelIndex((1, 2, 3, 4)), q=3)

    def test_decaying_signal_value(self):
        cfg = base_config(beta0=None, decay_c=2.0, decay_m=0.2)
        np.testing.assert_allclose(cfg.realized_beta0(100),
                                   [2.0 * 100 ** -0.2] * 2)


class TestSimulateDataset:
    def test_deterministic(self):
        cfg = base_config()
        d1, b1 = simulate_dataset(cfg, 150, make_stream(5))
        d2, b2 = simulate_dataset(cfg, 150, make_stream(5))
        np.testing.assert_array_equal(d1.y, d2.y)
        np.testing.assert_array_equal(d1.X, d2.X)
        np.testing.assert_array_equal(b1, b2)

    def test_columns_standardized(self):
        d, _ = simulate_dataset(base_config(), 400, make_stream(1))
        np.testing.assert_allclose(d.X.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(d.X.std(axis=0), 1.0, atol=1e-12)

    def test_gaussian_residual_mean_envelope(self):
        cfg = base_config(true_support=ModelIndex((1,)), beta0=(1.0,))
        d, b0 = simulate_dataset(cfg, 10**4, make_stream(2))
        resid = d.y - d.X[:, [0]] @ b0
        assert abs(resid.mean()) <= 0.03  # 3 sigma Monte Carlo envelope

    def test_logistic_binary(self):
        cfg = base_config(family="logistic")
        d, _ = simulate_dataset(cfg, 200, make_stream(3))
        assert set(np.unique(d.y)) <= {0.0, 1.0}

    def test_poisson_counts(self):
        cfg = base_config(family="poisson", beta0=(0.5, -0.4))
        d, _ = simulate_dataset(cfg, 200, make_stream(4))
        assert np.all(d.y >= 0) and np.all(d.y == np.floor(d.y))

    def test_equicorrelated_design(self):
        cfg = base_config(design=DESIGN_EQUICORRELATED, rho=0.6, p=6,
                          true_support=ModelIndex((1, 2)))
        d, _ = simulate_dataset(cfg, 3000, make_stream(6))
        corr = np.corrcoef(d.X, rowvar=False)
        off = corr[np.triu_indices(6, k=1)]
        assert abs(off.mean() - 0.6) < 0.1


class TestMleRateStudy:
    def test_parametric_slope(self):
        cfg = base_config(true_support=ModelIndex((1, 2, 3)),
                          beta0=(1.0, -0.8, 0.6),
                          n_grid=(200, 800, 3200, 12800), replications=50,
                          seed=1)
        res = mle_rate_study(cfg)
        assert res.table.slope == pytest.approx(-0.5, abs=0.05)
        assert res.excluded == 0

    def test_scaled_statistic_strictly_decreasing(self):
        cfg = base_config(true_support=ModelIndex((1, 2, 3)),
                          beta0=(1.0, -0.8, 0.6),
                          n_grid=(200, 800, 3200, 12800), replications=50,
                          seed=0)
        res = mle_rate_study(cfg)
        vals = [v for _, v in res.scaled_medians]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_single_point_grid_flagged(self):
        res = mle_rate_study(base_config(n_grid=(200,)))
        assert len(res.table.rows) == 1
        assert res.table.slope is None
        assert "no slope" in res.table.note


class TestModeRateStudy:
    def test_scalar_exponents(self):
        grid = (10**3, 10**4, 10**5, 10**6, 10**7)
        t_s = scalar_mode_rate_table(spimom(), grid)
        t_p = scalar_mode_rate_table(pimom(), grid)
        assert t_s.slope == pytest.approx(-1.0 / 3.0, abs=0.01)
        assert t_p.slope == pytest.approx(-0.25, abs=0.01)

    def test_scalar_mode_frozen_value(self):
        # root of 1000 b^3 + 2 b - 2 = 0, frozen from a bisection oracle
        assert scalar_null_mode(spimom(), 1000) == pytest.approx(
            0.12070400939272902, abs=1e-10)
        assert scalar_null_mode(pimom(), 1000) == pytest.approx(
            math.sqrt((-2.0 + math.sqrt(8004.0)) / 2000.0), abs=1e-10)

    def test_pipeline_tracks_scalar_exponent(self):
        cfg = base_config(n_grid=(200, 800, 3200), replications=20, seed=2)
        res = mode_rate_study(cfg)
        label = "spimom(r=1,scale=1)"
        assert res.null_index == 3
        assert res.tables[label].slope == pytest.approx(-1.0 / 3.0, abs=0.08)
        assert res.scalar_tables[label].slope is not None


class TestLogmRatioStudy:
    def test_decomposition_identity_and_direction(self):
        cfg = base_config(p=8, n_grid=(100, 400), replications=5, seed=3)
        res = logm_ratio_study(cfg, supersets_per_size=6)
        assert res.max_identity_gap <= 1e-10
        medians = {(g["n"], g["extra"]): g["median_log_ratio"]
                   for g in res.per_group}
        assert all(v < 0 for v in medians.values())
        assert medians[(400, 1)] < medians[(100, 1)]  # decreasing in n

    def test_true_model_ratio_is_zero(self):
        cfg = base_config()
        d, _ = simulate_dataset(cfg, 150, make_stream(9))
        a = fit_model(d, cfg.true_support, cfg.priors[0])
        b = fit_model(d, cfg.true_support, cfg.priors[0])
        assert a.log_marginal - b.log_marginal == 0.0


class TestConsistencyStudy:
    def test_small_space_masses_sum_to_one(self):
        cfg = base_config(p=6, q=2, n_grid=(100, 200), replications=4, seed=4)
        res = consistency_study(cfg)
        for row in res.rows:
            total = row["prob_truth"] + row["mass_a"] + row["mass_b"]
            assert total == pytest.approx(1.0, abs=1e-12)
        assert {r["n"] for r in res.rows} == {100, 200}
        for pn in res.per_n:
            assert 0.0 <= pn["median_prob_truth"] <= 1.0
            assert 0.0 <= pn["hit_rate"] <= 1.0

    def test_stronger_signals_do_not_lower_hit_rate(self):
        weak = base_config(p=6, q=2, beta0=(0.25, -0.2), n_grid=(150,),
                           replications=10, seed=5)
        strong = base_config(p=6, q=2, beta0=(2.5, -2.0), n_grid=(150,),
                             replications=10, seed=5)
        hr_weak = consistency_study(weak).per_n[0]["hit_rate"]
        hr_strong = consistency_study(strong).per_n[0]["hit_rate"]
        assert hr_strong >= hr_weak

    def test_greedy_backend(self):
        cfg = base_config(p=12, q=2, n_grid=(200,), replications=3, seed=6)
        res = consistency_study(cfg, search_budget=60)
        for row in res.rows:
            assert row["prob_truth"] >= 0.0

    def test_reports_scale_window(self):
        res = consistency_study(base_config(p=6, q=2, n_grid=(100,),
                                            replications=2, seed=7))
        assert res.lambda_window[0]["lambda_sixth"] == pytest.approx(1.0)
        assert res.growth["per_n"][0]["omega_realized"] > 0


class TestHessianDiagnostics:
    def test_gaussian_matches_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(120, 4))
        d = Dataset(y=rng.normal(size=120), X=X, family="gaussian")
        J = ModelIndex((1, 2, 3))
        pts = [np.array([0.1, -0.2, 0.3]), np.array([1.0, 1.0, -1.0])]
        diag = hessian_diagnostics(d, J, pts)
        ref = np.linalg.eigvalsh(X[:, :3].T @ X[:, :3] / 120.0)
        assert diag.c_l_hat == pytest.approx(ref[0], rel=1e-6)
        assert diag.c_u_hat == pytest.approx(ref[-1], rel=1e-6)
        assert diag.c_d_hat == 0.0  # gaussian curvature is constant in beta

    def test_identity_like_design(self):
        n = 6
        d = Dataset(y=np.zeros(n), X=np.eye(n), family="gaussian")
        J = ModelIndex((1, 2))
        diag = hessian_diagnostics(d, J, [np.zeros(2)])
        assert diag.c_l_hat == pytest.approx(1.0 / n)
        assert diag.c_u_hat == pytest.approx(1.0 / n)

    def test_logistic_bounded_by_quarter_gram(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(200, 3))
        y = (rng.uniform(size=200) < 0.5).astype(float)
        d = Dataset(y=y, X=X, family="logistic")
        J = ModelIndex((1, 2, 3))
        pts = [rng.normal(scale=0.5, size=3) for _ in range(3)]
        diag = hessian_diagnostics(d, J, pts)
        top = np.linalg.eigvalsh(0.25 * X.T @ X / 200.0)[-1]
        assert diag.c_l_hat > 0.0
        assert diag.c_u_hat <= top + 1e-8
        assert diag.c_d_hat > 0.0

    def test_logistic_matches_dense_eigensolver(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(150, 3))
        y = (rng.uniform(size=150) < 0.4).astype(float)
        d = Dataset(y=y, X=X, family="logistic")
        J = ModelIndex((1, 2, 3))
        pts = [np.array([2.0, 0.0, 0.1]), np.array([0.0, 2.0, 0.1])]
        diag = hessian_diagnostics(d, J, pts)
        def hessian(b):  # X' W X with W = mu (1 - mu), coded here independently
            mu = 1.0 / (1.0 + np.exp(-X @ b))
            return (X.T * (mu * (1.0 - mu))) @ X

        h = [hessian(b) for b in pts]
        spectra = [np.linalg.eigvalsh(hi / 150.0) for hi in h]
        assert diag.c_l_hat == pytest.approx(min(s[0] for s in spectra), rel=1e-12)
        assert diag.c_u_hat == pytest.approx(max(s[-1] for s in spectra), rel=1e-12)
        diff = np.linalg.eigvalsh(h[0] - h[1])
        assert diff[0] < 0.0 < diff[-1]  # indefinite: the norm is not the top eigenvalue
        ref = np.abs(diff).max() / (150.0 * np.linalg.norm(pts[0] - pts[1]))
        assert diag.c_d_hat == pytest.approx(ref, rel=1e-12)

    def test_empty_model(self):
        d = Dataset(y=np.arange(4.0), X=np.ones((4, 1)), family="gaussian")
        diag = hessian_diagnostics(d, ModelIndex(()), [np.zeros(0), np.zeros(0)])
        assert tuple(diag) == (0.0, 0.0, 0.0, 0.0)

    def test_c1_max_matches_direct_formula(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(50, 2))
        y = X @ np.array([0.5, -0.5]) + rng.normal(size=50)
        d = Dataset(y=y, X=X, family="gaussian")
        J = ModelIndex((1, 2))
        diag = hessian_diagnostics(d, J, [np.zeros(2)])
        bhat = fit_mle(d, J).beta_hat
        ref = np.abs(X * (y - X @ bhat)[:, None]).max()
        assert diag.c1_max == pytest.approx(ref, rel=1e-12)


class TestReproducibility:
    def test_mle_rate_rows_bit_identical(self):
        cfg = base_config(n_grid=(100, 200), replications=3)
        a = mle_rate_study(cfg)
        b = mle_rate_study(cfg)
        assert a.rows == b.rows
        assert a.table.rows == b.table.rows
