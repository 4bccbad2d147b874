"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its runtime (run with ``pytest tests/test_acceptance.py
-v -s`` to see the lines as they complete).

Every tolerance is pinned here.  Where a criterion leaves the instance open
(seeds, signal sizes), the choices are frozen in this file and documented
inline; the asserted bounds themselves are never loosened.
"""

import math
import time

import numpy as np
from oracles import (fd_gradient, fd_jacobian, quad_log_marginal_1d,
                     tensor_grid_log_marginal)

from nlselect.experiments import (ExperimentConfig, consistency_study,
                                  mle_rate_study, mode_rate_study,
                                  scalar_mode_rate_table)
from nlselect.glm import Dataset, log_likelihood, neg_hessian, score
from nlselect.modelspace import (ModelIndex, enumerate_models, greedy_search,
                                 posterior_probs)
from nlselect.numerics import adaptive_quad, make_stream
from nlselect.posterior import fit_model
from nlselect.priors import (log_density_1d, log_prior, log_prior_grad,
                             log_prior_neg_hessian, pimom, spimom,
                             spimom_mixture_quad)


def report(num, name, ok, detail, elapsed, cap):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail} "
          f"[{elapsed:.1f}s < {cap:.0f}s]")
    assert ok, f"criterion {num} ({name}) failed: {detail}"
    assert elapsed < cap, (f"criterion {num} ({name}) exceeded its runtime "
                           f"cap: {elapsed:.1f}s >= {cap}s")


def standardized_gaussian(seed, n, p, beta_true):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    X = (X - X.mean(axis=0)) / X.std(axis=0)
    y = X[:, :len(beta_true)] @ np.asarray(beta_true) + rng.normal(size=n)
    return Dataset(y=y, X=X, family="gaussian")


def test_criterion_1_spimom_normalization():
    t0 = time.perf_counter()
    worst_default = worst_paper = 0.0
    for r in (1.0, 2.0, 3.0):
        for lam in (0.1, 1.0, 10.0):
            for paper, target in ((False, 1.0), (True, 0.5)):
                spec = spimom(r=r, lam=lam, paper_constant_mode=paper)
                integral = adaptive_quad(
                    lambda b: np.exp(log_density_1d(b, spec)),
                    -math.inf, math.inf, tol=1e-8)
                gap = abs(integral - target)
                if paper:
                    worst_paper = max(worst_paper, gap)
                else:
                    worst_default = max(worst_default, gap)
    elapsed = time.perf_counter() - t0
    ok = worst_default <= 1e-6 and worst_paper <= 1e-6
    report(1, "spimom normalization", ok,
           f"max|I-1| = {worst_default:.2e} (default), "
           f"max|I-0.5| = {worst_paper:.2e} (paper constant)", elapsed, 5.0)


def test_criterion_2_mixture_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (1.0, 2.0):
        for lam in (0.5, 2.0):
            spec = spimom(r=r, lam=lam)
            for b in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
                mix = spimom_mixture_quad(b, r, lam)
                closed = math.exp(log_density_1d(np.array([b]), spec)[0])
                worst = max(worst, abs(closed - mix) / mix)
    elapsed = time.perf_counter() - t0
    report(2, "mixture-oracle equivalence", worst <= 1e-6,
           f"max relative gap = {worst:.2e}", elapsed, 10.0)


def test_criterion_3_scalar_mode_exponents():
    t0 = time.perf_counter()
    grid = (10**3, 10**4, 10**5, 10**6, 10**7)
    slope_s = scalar_mode_rate_table(spimom(), grid).slope
    slope_p = scalar_mode_rate_table(pimom(), grid).slope
    elapsed = time.perf_counter() - t0
    ok = abs(slope_s + 1.0 / 3.0) <= 0.01 and abs(slope_p + 0.25) <= 0.01
    report(3, "scalar mode-rate exponents", ok,
           f"spimom slope = {slope_s:.4f} (target -1/3 +- 0.01), "
           f"pimom slope = {slope_p:.4f} (target -1/4 +- 0.01)", elapsed, 1.0)


def test_criterion_4_full_pipeline_mode_rate():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="gaussian", p=5, q=3, true_support=ModelIndex((1, 2)),
        n_grid=(200, 800, 3200, 12800), replications=50, seed=0,
        beta0=(1.0, -0.8), prior=spimom())  # frozen instance
    res = mode_rate_study(cfg)
    slope = res.summary["pipeline"]["spimom(r=1,scale=1)"]["slope"]
    elapsed = time.perf_counter() - t0
    report(4, "full-pipeline mode rate", abs(slope + 0.33) <= 0.05,
           f"slope = {slope:.4f} (target -0.33 +- 0.05)", elapsed, 120.0)


def test_criterion_5_laplace_accuracy():
    t0 = time.perf_counter()
    spec = spimom()
    worst1 = 0.0
    for seed in range(10):
        d = standardized_gaussian(seed, 200, 1, [1.0])
        fit = fit_model(d, ModelIndex((1,)), spec)
        oracle = quad_log_marginal_1d(d, ModelIndex((1,)), spec,
                                      fit.log_post_unnorm)
        worst1 = max(worst1, abs(fit.log_marginal - oracle))
    worst2 = 0.0
    for seed in range(10):
        d = standardized_gaussian(100 + seed, 200, 2, [1.0, -0.8])
        fit = fit_model(d, ModelIndex((1, 2)), spec)
        oracle = tensor_grid_log_marginal(d, ModelIndex((1, 2)), spec,
                                          fit.log_post_unnorm)
        worst2 = max(worst2, abs(fit.log_marginal - oracle))
    elapsed = time.perf_counter() - t0
    ok = worst1 <= 0.05 and worst2 <= 0.1
    report(5, "laplace accuracy", ok,
           f"max |laplace - quadrature|: 1-dim {worst1:.4f} (cap 0.05), "
           f"2-dim {worst2:.4f} (cap 0.1)", elapsed, 120.0)


def test_criterion_6_posterior_identity_and_partition():
    t0 = time.perf_counter()
    truth = ModelIndex((1, 2))
    models = enumerate_models(10, 3)
    spec = spimom()
    worst_identity = worst_sum = 0.0
    for seed in range(20):
        # moderate signals keep prob(truth) away from 1 so the identity is
        # numerically meaningful at relative 1e-10
        d = standardized_gaussian(seed, 80, 10, [0.7, -0.5])
        entries = [(J, fit_model(d, J, spec).log_marginal) for J in models]
        post = posterior_probs(entries, truth=truth)
        p_truth = post.probability_of(truth)
        lhs = 1.0 / p_truth - 1.0
        lm = dict((m, v) for m, v in entries)
        lm_truth = lm[truth]
        others = np.array([v for m, v in entries if m != truth])
        mx = others.max()
        rhs = math.exp(mx - lm_truth) * float(np.exp(others - mx).sum())
        worst_identity = max(worst_identity, abs(lhs - rhs) / rhs)
        worst_sum = max(worst_sum, abs(
            p_truth + post.mass_a + post.mass_b - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst_identity <= 1e-10 and worst_sum <= 1e-12
    report(6, "posterior identity and partition", ok,
           f"max relative identity gap = {worst_identity:.2e}, "
           f"max |prob+massA+massB-1| = {worst_sum:.2e}", elapsed, 300.0)


def test_criterion_7_consistency_direction():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="gaussian", p=30, q=3, true_support=ModelIndex((1, 2)),
        n_grid=(100, 200, 400, 800), replications=20, seed=0,
        beta0=(1.0, -0.8), prior=spimom())
    res = consistency_study(cfg)
    probs = [row["median_prob_truth"] for row in res.summary["per_n"]]
    mass_a = [row["median_mass_a"] for row in res.summary["per_n"]]
    mass_b = [row["median_mass_b"] for row in res.summary["per_n"]]
    elapsed = time.perf_counter() - t0
    ok = (all(a <= b for a, b in zip(probs, probs[1:]))
          and all(a >= b for a, b in zip(mass_a, mass_a[1:]))
          and all(a >= b for a, b in zip(mass_b, mass_b[1:])))
    report(7, "consistency direction", ok,
           f"median prob(truth) = {[f'{p:.5f}' for p in probs]}, "
           f"median mass_A = {[f'{m:.2e}' for m in mass_a]}, "
           f"median mass_B = {[f'{m:.2e}' for m in mass_b]}",
           elapsed, 600.0)


def test_criterion_8_search_matches_enumeration():
    t0 = time.perf_counter()
    spec = spimom()
    models = enumerate_models(12, 3)
    hits = 0
    for seed in range(20):
        d = standardized_gaussian(seed, 300, 12, [1.2, -1.0])  # strong signals
        entries = [(J, fit_model(d, J, spec).log_marginal) for J in models]
        exhaustive_top = posterior_probs(entries).top
        _, top = greedy_search(d, spec, q=3, budget=200,
                               stream=make_stream(1000 + seed))
        hits += top == exhaustive_top
    elapsed = time.perf_counter() - t0
    report(8, "search vs enumeration", hits >= 18,
           f"greedy top matched exhaustive top in {hits}/20 runs "
           f"(need >= 18)", elapsed, 300.0)


def test_criterion_9_gradient_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_score = worst_hess = 0.0
    for family in ("gaussian", "logistic", "poisson"):
        X = rng.normal(size=(60, 3))
        theta = X @ np.array([0.4, -0.3, 0.2])
        if family == "gaussian":
            y = theta + rng.normal(size=60)
        elif family == "logistic":
            y = (rng.uniform(size=60) < 1 / (1 + np.exp(-theta))).astype(float)
        else:
            y = rng.poisson(np.exp(theta)).astype(float)
        d = Dataset(y=y, X=X, family=family)
        J = ModelIndex((1, 2, 3))
        for _ in range(100):
            beta = rng.normal(scale=0.5, size=3)
            s = score(d, J, beta)
            fd_s = fd_gradient(lambda b: log_likelihood(d, J, b), beta)
            scale_s = max(1.0, float(np.abs(s).max()))
            worst_score = max(worst_score,
                              float(np.abs(s - fd_s).max()) / scale_s)
            h = neg_hessian(d, J, beta).entries
            fd_h = -fd_jacobian(lambda b: score(d, J, b), beta)
            scale_h = max(1.0, float(np.abs(h).max()))
            worst_hess = max(worst_hess,
                             float(np.abs(h - fd_h).max()) / scale_h)
    worst_pg = worst_ph = 0.0
    for spec in (pimom(r=1.5, tau=0.8), spimom(r=1.5, lam=0.8)):
        for _ in range(100):
            beta = rng.uniform(0.2, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            g = log_prior_grad(beta, spec)
            fd_g = fd_gradient(lambda b: log_prior(b, spec), beta, h=1e-6)
            scale_g = max(1.0, float(np.abs(g).max()))
            worst_pg = max(worst_pg, float(np.abs(g - fd_g).max()) / scale_g)
            nh = log_prior_neg_hessian(beta, spec)
            fd_nh = -np.diag(fd_jacobian(lambda b: log_prior_grad(b, spec), beta))
            scale_nh = max(1.0, float(np.abs(nh).max()))
            worst_ph = max(worst_ph, float(np.abs(nh - fd_nh).max()) / scale_nh)
    elapsed = time.perf_counter() - t0
    ok = (worst_score <= 1e-5 and worst_pg <= 1e-5
          and worst_hess <= 1e-4 and worst_ph <= 1e-4)
    report(9, "gradient suite", ok,
           f"worst relative gaps: likelihood score {worst_score:.2e} (cap 1e-5), "
           f"hessian {worst_hess:.2e} (cap 1e-4), prior grad {worst_pg:.2e}, "
           f"prior hessian {worst_ph:.2e}", elapsed, 30.0)


def test_criterion_10_mle_rate_envelope():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        family="gaussian", p=5, q=3, true_support=ModelIndex((1, 2, 3)),
        n_grid=(200, 800, 3200, 12800), replications=50, seed=0,
        beta0=(1.0, -0.8, 0.6))  # frozen instance
    res = mle_rate_study(cfg)
    scaled = [row["value"] for row in res.summary["scaled_medians"]]
    elapsed = time.perf_counter() - t0
    ok = all(a > b for a, b in zip(scaled, scaled[1:]))
    report(10, "mle rate envelope", ok,
           "n^(1/3) x median error strictly decreasing: "
           + ", ".join(f"{v:.4f}" for v in scaled), elapsed, 60.0)
