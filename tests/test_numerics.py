"""Numerical kernels against brute-force and closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlselect.experiments import hessian_diagnostics
from nlselect.glm import Dataset, fit_mle
from nlselect.modelspace import ModelIndex
from nlselect.numerics import (PIVOT_RTOL, NoConvergence, NotPositiveDefinite, SpdMatrix,
                               adaptive_quad, batch_cho_solve, batch_cholesky,
                               derive_stream, factor_logdet, make_stream)


def cofactor_det(a: np.ndarray) -> float:
    """Brute-force determinant by cofactor expansion (oracle)."""
    n = a.shape[0]
    if n == 0:
        return 1.0
    if n == 1:
        return float(a[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * cofactor_det(minor)
    return total


def random_spd(rng, dim, jitter=0.5):
    m = rng.normal(size=(dim, dim))
    return m @ m.T + jitter * np.eye(dim)


class TestFactorLogdet:
    def test_identity(self):
        _, logdet = factor_logdet(SpdMatrix(np.eye(2)))
        assert logdet == pytest.approx(0.0, abs=1e-15)

    def test_diagonal(self):
        _, logdet = factor_logdet(SpdMatrix(np.diag([4.0, 9.0])))
        assert logdet == pytest.approx(math.log(36.0), abs=1e-12)

    def test_against_cofactor_oracle(self):
        rng = np.random.default_rng(5)
        a = random_spd(rng, 5)
        _, logdet = factor_logdet(SpdMatrix(a))
        assert logdet == pytest.approx(math.log(cofactor_det(a)), abs=1e-9)

    def test_reconstruction_up_to_dim_50(self):
        rng = np.random.default_rng(11)
        for dim in (1, 2, 3, 7, 20, 50):
            a = random_spd(rng, dim)
            factor, logdet = factor_logdet(SpdMatrix(a))
            err = np.abs(factor @ factor.T - a).max()
            assert err <= 1e-10 * np.abs(a).max()
            assert logdet == pytest.approx(2.0 * np.log(np.diag(factor)).sum())

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            factor_logdet(SpdMatrix(np.diag([1.0, -2.0])))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            SpdMatrix(np.array([[1.0, 0.5], [0.2, 1.0]]))


class TestBatchCholesky:
    def test_matches_lapack_on_a_stack(self):
        rng = np.random.default_rng(21)
        a = np.stack([random_spd(rng, 3) for _ in range(20)])
        factor, ok = batch_cholesky(a)
        assert ok.all()
        np.testing.assert_allclose(factor, np.linalg.cholesky(a), rtol=1e-12, atol=1e-14)

    def test_status_per_matrix(self):
        # np.linalg.cholesky would raise for the whole stack
        rng = np.random.default_rng(22)
        a = np.stack([random_spd(rng, 3) for _ in range(5)])
        a[2] = -a[2]
        a[4, 2, 2] = np.nan
        _, ok = batch_cholesky(a)
        assert ok.tolist() == [True, True, False, True, False]

    def test_collinear_gram_rejected(self):
        # the last pivot of a duplicated column is rounding noise around 0,
        # which LAPACK accepts or rejects by chance
        rng = np.random.default_rng(23)
        for _ in range(200):
            X = rng.normal(size=(int(rng.integers(5, 100)), 3))
            X[:, 2] = X[:, 0]
            _, ok = batch_cholesky(X.T @ X)
            assert not ok

    def test_solve_stack_and_single(self):
        rng = np.random.default_rng(24)
        a = np.stack([random_spd(rng, 4) for _ in range(10)])
        b = rng.normal(size=(10, 4))
        factor, _ = batch_cholesky(a)
        x = batch_cho_solve(factor, b)
        np.testing.assert_allclose(np.einsum("mij,mj->mi", a, x), b, atol=1e-12)
        one, ok = batch_cholesky(a[3])
        assert ok.shape == () and ok
        np.testing.assert_array_equal(batch_cho_solve(one, b[3]), x[3])


@st.composite
def matrix_stacks(draw):
    """A stack of symmetric k x k matrices (k = 0-4), each a Gram matrix that
    is left positive definite, given a duplicated column, shifted toward a
    negative pivot, or given a NaN entry; and a right-hand side per matrix."""
    k, m = draw(st.integers(0, 4)), draw(st.integers(1, 6))
    kinds = draw(st.lists(st.sampled_from(["spd", "dup", "shift", "nan"]),
                          min_size=m, max_size=m))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(m, k + 2, k))
    for i, kind in enumerate(kinds):
        if kind == "dup" and k >= 2:
            x[i, :, k - 1] = x[i, :, 0]
    a = x.transpose(0, 2, 1) @ x
    for i, kind in enumerate(kinds):
        if kind == "shift" and k:
            a[i] -= rng.uniform(0.0, 4.0) * np.eye(k)
        elif kind == "nan" and k:
            r, c = rng.integers(k, size=2)
            a[i, r, c] = a[i, c, r] = np.nan
    return a, rng.normal(size=(m, k))


def textbook_pivots_ok(a):
    """Whether a per-matrix Cholesky in Python floats meets only pivots above
    max(PIVOT_RTOL a_jj, 0), and whether every pivot it met was clear of that
    threshold (so the order of rounding cannot decide it)."""
    k = a.shape[0]
    low = [[0.0] * k for _ in range(k)]
    for j in range(k):
        ajj = float(a[j, j])
        pivot = ajj - sum(low[j][i] ** 2 for i in range(j))
        if math.isnan(pivot) or math.isnan(ajj):
            return False, True
        threshold = max(PIVOT_RTOL * ajj, 0.0)
        clear = abs(pivot - threshold) > 1e-14 * abs(ajj)
        if pivot <= threshold:
            return False, clear
        if not clear:
            return True, False
        low[j][j] = math.sqrt(pivot)
        for i in range(j + 1, k):
            low[i][j] = (float(a[i, j]) - sum(low[i][c] * low[j][c] for c in range(j))) / low[j][j]
    return True, True


class TestBatchCholeskyProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(matrix_stacks())
    def test_each_matrix_as_if_alone(self, stack):
        a, b = stack
        factor, ok = batch_cholesky(a)
        x = batch_cho_solve(factor, b)
        for i in range(a.shape[0]):
            one, one_ok = batch_cholesky(a[i])
            assert one_ok == ok[i]
            np.testing.assert_array_equal(one.view(np.uint64), factor[i].view(np.uint64))
            np.testing.assert_array_equal(batch_cho_solve(one, b[i]).view(np.uint64),
                                          x[i].view(np.uint64))
            want, clear = textbook_pivots_ok(a[i])
            if clear:
                assert ok[i] == want, a[i]


    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_dot_adds_as_a_last_axis_sum(self, n, m, seed):
        # the factor's and the solve's sums of products round as numpy's sum
        # over a last axis does, signed zeros included
        from nlselect.numerics import _dot
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(m, n)) * 10.0 ** rng.integers(-8, 8, size=(m, n))
        y = rng.normal(size=(m, n))
        x[rng.random((m, n)) < 0.2] = -0.0
        want = (x * y).sum(axis=-1)
        got = _dot(list(x.T), list(y.T))
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestAdaptiveQuad:
    def test_linear(self):
        assert adaptive_quad(lambda x: x, 0.0, 1.0, 1e-10) == pytest.approx(0.5, abs=1e-10)

    def test_standard_normal_over_reals(self):
        val = adaptive_quad(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                            -math.inf, math.inf, 1e-10)
        assert val == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("b", [-1.5, 0.3, 2.0])
    def test_standard_normal_lower_tail(self, b):
        # the (-inf, b) branch against the normal CDF, b off the origin
        val = adaptive_quad(lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
                            -math.inf, b, 1e-12)
        assert val == pytest.approx(0.5 * math.erfc(-b / math.sqrt(2.0)), abs=1e-10)

    def test_bessel_type_semi_infinite(self):
        # integral_0^inf t^-3/2 exp(-t - 1/t) dt = sqrt(pi) e^-2  (frozen)
        val = adaptive_quad(lambda t: t**-1.5 * np.exp(-t - 1.0 / t),
                            0.0, math.inf, 1e-10)
        assert val == pytest.approx(0.2398755439361229, abs=1e-9)

    def test_bessel_type_against_midpoint_brute_force(self):
        f = lambda t: t**-1.5 * np.exp(-t - 1.0 / t)
        grid = np.linspace(1e-9, 60.0, 4_000_001)
        mid = 0.5 * (grid[1:] + grid[:-1])
        brute = float(np.sum(f(mid)) * (grid[1] - grid[0]))
        val = adaptive_quad(f, 0.0, math.inf, 1e-10)
        assert val == pytest.approx(brute, abs=1e-7)

    def test_cubic_exact_per_panel(self):
        # one Gauss-Kronrod panel integrates cubics exactly
        val = adaptive_quad(lambda x: 4.0 * x**3 - 2.0 * x + 1.0, -1.0, 2.0, 1e-12)
        exact = (2.0**4 - 2.0**2 + 2.0) - ((-1.0) ** 4 - 1.0 + -1.0)
        assert val == pytest.approx(exact, abs=1e-12)

    def test_against_scipy_oracle(self):
        from scipy.integrate import quad
        f = lambda x: np.exp(-x) * np.cos(3.0 * x)
        ours = adaptive_quad(f, 0.0, math.inf, 1e-10)
        ref, _ = quad(lambda x: math.exp(-x) * math.cos(3.0 * x), 0.0, np.inf)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_no_convergence_on_divergent_integral(self):
        with pytest.raises(NoConvergence):
            adaptive_quad(lambda x: 1.0 / x, 0.0, 1.0, 1e-10, max_panels=64)

    def test_reversed_limits(self):
        assert adaptive_quad(lambda x: x, 1.0, 0.0, 1e-10) == pytest.approx(-0.5)


class TestExtremalEigenvalues:
    """The extremal eigenvalues and the spectral norm that hessian_diagnostics
    reports as c_l_hat / c_u_hat and c_d_hat."""

    def test_against_eigvalsh_oracle(self):
        # a square Gaussian design X = sqrt(k) L' has n^-1 X'X = L L' = a
        rng = np.random.default_rng(3)
        for dim in (2, 5, 12):
            a = random_spd(rng, dim)
            X = math.sqrt(dim) * np.linalg.cholesky(a).T
            d = Dataset(y=rng.normal(size=dim), X=X, family="gaussian")
            J = ModelIndex(tuple(range(1, dim + 1)))
            diag = hessian_diagnostics(d, J, fit_mle(d, J).beta_hat, np.zeros(dim))
            ref = np.linalg.eigvalsh(a)
            assert diag.c_l_hat == pytest.approx(ref[0], rel=1e-9)
            assert diag.c_u_hat == pytest.approx(ref[-1], rel=1e-9)

    def test_spectral_norm_indefinite(self):
        # disjoint row blocks make the logistic Hessian diagonal, with entries
        # n_j v(b_j) for v(t) = 1 / (4 cosh^2(t / 2)); the difference is
        # indefinite and its norm is its most negative entry
        sizes = (10, 30, 10)
        X = np.zeros((sum(sizes), 3))
        start = 0
        for j, nj in enumerate(sizes):
            X[start:start + nj, j] = 1.0
            start += nj
        y = np.arange(sum(sizes)) % 2.0
        d = Dataset(y=y, X=X, family="logistic")
        b1, b2 = np.array([0.0, 3.0, 1.0]), np.array([1.0, 0.0, 0.0])
        J = ModelIndex((1, 2, 3))
        diag = hessian_diagnostics(d, J, b1, b2)
        def v(t):
            return 1.0 / (4.0 * np.cosh(t / 2.0) ** 2)

        diff = np.array(sizes) * (v(b1) - v(b2))
        assert diff.min() < 0.0 < diff.max() and -diff.min() > diff.max()
        ref = -diff.min() / (sum(sizes) * np.linalg.norm(b1 - b2))
        assert diag.c_d_hat == pytest.approx(ref, rel=1e-12)


class TestRandomStream:
    def test_same_seed_same_draws(self):
        a = make_stream(7).generator.uniform(size=100)
        b = make_stream(7).generator.uniform(size=100)
        np.testing.assert_array_equal(a, b)

    def test_derived_streams_differ(self):
        s = make_stream(7)
        a = derive_stream(s, 0).generator.uniform(size=50)
        b = derive_stream(s, 1).generator.uniform(size=50)
        assert not np.array_equal(a, b)

    def test_derivation_path_is_reproducible(self):
        s = make_stream(123)
        a = derive_stream(derive_stream(s, 4), 2).generator.normal(size=20)
        b = derive_stream(derive_stream(make_stream(123), 4), 2).generator.normal(size=20)
        np.testing.assert_array_equal(a, b)

    def test_uniform_mean_monte_carlo(self):
        u = make_stream(42).generator.uniform(size=10**5)
        assert 0.497 <= u.mean() <= 0.503
