"""Nonlocal prior densities: closed forms against quadrature and
finite-difference oracles, plus the mixture-representation cross-check."""

import math

import numpy as np
import pytest
from scipy.integrate import quad as scipy_quad
from scipy.stats import invgamma

from nlselect.numerics import adaptive_quad
from nlselect.priors import (AtOrigin, NonlocalPriorSpec, lambda_for_origin_mass,
                             log_density_1d, log_prior, log_prior_constant,
                             log_prior_grad, log_prior_neg_hessian, origin_mass,
                             pimom, spimom, spimom_mixture_quad)


def normalization(spec, tol=1e-8):
    f = lambda b: np.exp(log_density_1d(b, spec))
    return adaptive_quad(f, -math.inf, math.inf, tol=tol)


class TestClosedForms:
    def test_pimom_unit_point(self):
        # log( e^-1 / sqrt(pi) ), frozen
        assert log_prior([1.0], pimom()) == pytest.approx(-1.5723649429247, abs=1e-10)

    def test_pimom_product_form(self):
        assert log_prior([1.0, 1.0], pimom()) == pytest.approx(2 * -1.5723649429247, abs=1e-9)

    def test_pimom_zero_coordinate_sentinel(self):
        assert log_prior([1.0, 0.0], pimom()) == -math.inf

    def test_spimom_unit_point_default_constant(self):
        assert log_prior([1.0], spimom()) == pytest.approx(-2.0, abs=1e-12)

    def test_spimom_unit_point_paper_constant(self):
        spec = spimom(paper_constant_mode=True)
        assert log_prior([1.0], spec) == pytest.approx(-2.0 - math.log(2.0), abs=1e-12)

    def test_spimom_symmetric(self):
        spec = spimom(r=2.0, lam=0.7)
        for b in (0.03, 0.4, 1.7, 12.0):
            assert log_prior([-b], spec) == log_prior([b], spec)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            NonlocalPriorSpec(kind="mom")
        with pytest.raises(ValueError):
            NonlocalPriorSpec(kind="pimom", r=-1.0)
        with pytest.raises(ValueError):
            NonlocalPriorSpec(kind="pimom", paper_constant_mode=True)


class TestNormalization:
    @pytest.mark.parametrize("r", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_pimom_integrates_to_one(self, r, scale):
        assert normalization(pimom(r=r, tau=scale)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0])
    def test_spimom_integrates_to_one(self, r, scale):
        assert normalization(spimom(r=r, lam=scale)) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("scale", [0.5, 2.0])
    def test_paper_constant_integrates_to_half(self, r, scale):
        spec = spimom(r=r, lam=scale, paper_constant_mode=True)
        assert normalization(spec) == pytest.approx(0.5, abs=1e-6)

    def test_vanishes_at_origin(self):
        for spec in (pimom(), spimom()):
            assert np.exp(log_density_1d(np.array([0.0]), spec))[0] == 0.0
            assert np.exp(log_density_1d(np.array([1e-8]), spec))[0] < 1e-300


class TestMixtureOracle:
    def test_frozen_values(self):
        assert spimom_mixture_quad(1.0, 1.0, 1.0) == pytest.approx(
            math.exp(-2.0), abs=1e-9)
        assert spimom_mixture_quad(2.0, 1.0, 1.0) == pytest.approx(
            0.25 * math.exp(-1.0), abs=1e-9)

    def test_against_scipy_mixture_oracle(self):
        # independently coded mixture: piMOM density integrated against
        # scipy's inverse-gamma pdf with scipy's quadrature
        r, lam, b = 2.0, 0.5, 0.8

        def integrand(tau):
            pim = (tau ** (r / 2) / math.gamma(r / 2)
                   * abs(b) ** (-(r + 1)) * math.exp(-tau / b**2))
            return pim * invgamma.pdf(tau, a=(r + 1) / 2, scale=lam)

        ref, _ = scipy_quad(integrand, 0.0, np.inf)
        assert spimom_mixture_quad(b, r, lam) == pytest.approx(ref, rel=1e-8)

    @pytest.mark.parametrize("r", [1.0, 2.0])
    @pytest.mark.parametrize("lam", [0.5, 2.0])
    def test_closed_form_matches_mixture(self, r, lam):
        spec = spimom(r=r, lam=lam)
        for b in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0):
            mix = spimom_mixture_quad(b, r, lam)
            closed = math.exp(log_prior([b], spec))
            assert abs(closed - mix) / mix <= 1e-6

    def test_mixture_density_integrates_to_one(self):
        r, lam = 1.0, 1.0

        def density(b):
            return np.array([spimom_mixture_quad(bi, r, lam) if bi != 0.0 else 0.0
                             for bi in np.atleast_1d(b)])

        total = adaptive_quad(density, -math.inf, math.inf, tol=1e-7)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            spimom_mixture_quad(0.0, 1.0, 1.0)


class TestDerivatives:
    def test_stationary_at_prior_mode(self):
        p = pimom(r=1.0, tau=1.0)
        assert p.prior_mode == pytest.approx(1.0)
        np.testing.assert_allclose(log_prior_grad([1.0], p), [0.0], atol=1e-14)
        s = spimom(r=1.0, lam=1.0)
        assert s.prior_mode == pytest.approx(1.0)
        np.testing.assert_allclose(log_prior_grad([1.0], s), [0.0], atol=1e-14)

    def test_frozen_curvature_at_unit_point(self):
        # second derivative of log density at beta=1: piMOM 2 - 6 = -4,
        # spiMOM 2 - 4 = -2; negated entries are +4 and +2
        np.testing.assert_allclose(log_prior_neg_hessian([1.0], pimom()), [4.0])
        np.testing.assert_allclose(log_prior_neg_hessian([1.0], spimom()), [2.0])

    def test_curvature_even_in_beta(self):
        for spec in (pimom(r=2.0, tau=0.3), spimom(r=1.5, lam=2.0)):
            for b in (0.07, 0.9, 4.0):
                assert (log_prior_neg_hessian([b], spec)
                        == log_prior_neg_hessian([-b], spec))

    def test_at_origin_raises(self):
        for spec in (pimom(), spimom()):
            with pytest.raises(AtOrigin):
                log_prior_grad([0.5, 0.0], spec)
            with pytest.raises(AtOrigin):
                log_prior_neg_hessian([0.0], spec)

    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    def test_gradient_finite_differences(self, kind):
        rng = np.random.default_rng(77)
        spec = NonlocalPriorSpec(kind=kind, r=1.5, scale=0.8)
        h = 1e-6
        for _ in range(100):
            b = rng.uniform(0.2, 3.0, size=3) * rng.choice([-1.0, 1.0], size=3)
            g = log_prior_grad(b, spec)
            for i in range(3):
                up, dn = b.copy(), b.copy()
                up[i] += h
                dn[i] -= h
                fd = (log_prior(up, spec) - log_prior(dn, spec)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-6, abs=1e-8 * max(1.0, abs(g[i])))

    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    def test_curvature_finite_differences(self, kind):
        rng = np.random.default_rng(78)
        spec = NonlocalPriorSpec(kind=kind, r=2.0, scale=1.3)
        h = 1e-5
        for _ in range(100):
            b = rng.uniform(0.2, 3.0, size=2) * rng.choice([-1.0, 1.0], size=2)
            nh = log_prior_neg_hessian(b, spec)
            for i in range(2):
                up, dn = b.copy(), b.copy()
                up[i] += h
                dn[i] -= h
                fd = (log_prior_grad(up, spec)[i] - log_prior_grad(dn, spec)[i]) / (2 * h)
                assert -nh[i] == pytest.approx(fd, rel=1e-4, abs=1e-6 * max(1.0, abs(nh[i])))


class TestBroadcasting:
    @pytest.mark.parametrize("kind", ["pimom", "spimom"])
    def test_rows_match_vectors(self, kind):
        rng = np.random.default_rng(79)
        spec = NonlocalPriorSpec(kind=kind, r=1.5, scale=0.8)
        b = rng.uniform(0.2, 3.0, size=(7, 3)) * rng.choice([-1.0, 1.0], size=(7, 3))
        b[3, 1] = 0.0
        lp = log_prior(b, spec)
        assert lp.shape == (7,)
        assert lp.tolist() == [log_prior(row, spec) for row in b]
        assert lp[3] == -math.inf
        rows = np.delete(b, 3, axis=0)
        for f in (log_prior_grad, log_prior_neg_hessian):
            np.testing.assert_array_equal(f(rows, spec), [f(row, spec) for row in rows])
        with pytest.raises(AtOrigin):
            log_prior_grad(b, spec)

    def test_empty_vector(self):
        assert log_prior([], spimom()) == 0.0


class TestTailOrder:
    def test_polynomial_tail_constant(self):
        b = 1e3
        p = pimom(r=2.0, tau=1.5)
        kp = 1.5 ** 1.0 / math.gamma(1.0)  # tau^(r/2) / Gamma(r/2)
        val = float(np.exp(log_density_1d(np.array([b]), p))[0]) * b ** 3.0
        assert val == pytest.approx(kp, rel=1e-2)
        s = spimom(r=1.0, lam=2.0)
        ks = math.exp(log_prior_constant(s))
        # K(1, lambda) = lambda^(1/2) sqrt(pi) / (Gamma(1/2) Gamma(1))
        assert ks == pytest.approx(math.sqrt(2.0), rel=1e-14)
        val = float(np.exp(log_density_1d(np.array([b]), s))[0]) * b ** 2.0
        assert val == pytest.approx(ks, rel=1e-2)


class TestOriginMassRule:
    def test_solved_lambda_hits_target_mass(self):
        lam = lambda_for_origin_mass(delta=0.3, r=1.0, mass=0.01)
        achieved = origin_mass(0.3, spimom(r=1.0, lam=lam))
        assert achieved == pytest.approx(0.01, abs=2e-6)

    def test_mass_decreasing_in_lambda(self):
        masses = [origin_mass(0.3, spimom(lam=l)) for l in (0.1, 1.0, 10.0)]
        assert masses[0] > masses[1] > masses[2]
