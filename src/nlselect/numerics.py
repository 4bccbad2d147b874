"""Deterministic numerical kernels shared across the package.

Dense symmetric factorization (one Cholesky kernel that works on a single
matrix or on a stack of small ones, with a status per matrix), adaptive
Gauss-Kronrod quadrature (with a documented change of variable for
semi-infinite ranges), safeguarded scalar root finding, and seeded random
streams with reproducible substream derivation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np


class NotPositiveDefinite(Exception):
    """Symmetric factorization hit a nonpositive pivot."""


class NoConvergence(Exception):
    """An iterative routine exhausted its budget before reaching tolerance."""


class NoBracket(Exception):
    """Root finder called on an interval without a sign change."""


# =============================================================================
# Symmetric positive definite matrices
# =============================================================================


@dataclass(frozen=True, eq=False)
class SpdMatrix:
    """Dense symmetric matrix expected to be positive definite.

    Symmetry is validated on construction (1e-12 relative tolerance);
    positive definiteness is only established by a successful factorization,
    so a failed :func:`factor_logdet` is the detection mechanism for
    degenerate models.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.size:
            scale = float(np.abs(a).max())
            if float(np.abs(a - a.T).max()) > 1e-12 * scale:
                raise ValueError("matrix is not symmetric (1e-12 relative)")
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


# A pivot must exceed this fraction of its diagonal entry.  Rounding leaves
# the pivot of an exactly collinear column at about 1e-16 of it, so the margin
# classifies duplicated columns as rank deficient every time, whatever the
# order of the arithmetic that formed the matrix.
PIVOT_RTOL = 1e-12


def batch_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices, shape (..., k, k).

    Returns ``(factor, ok)``.  ``ok`` has the stack's shape and is False where
    a pivot is nonpositive, NaN, or not above ``PIVOT_RTOL`` times its
    diagonal entry; that matrix's factor is then meaningless.  Unlike
    ``np.linalg.cholesky`` on a stack, one failed matrix does not fail the
    others.  Loops over the k(k+1)/2 entries, each vectorized over the
    stack, so it suits small k.
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    factor = np.zeros_like(a)
    ok = np.ones(a.shape[:-2], dtype=bool)
    for j in range(k):
        row = factor[..., j, :j]
        pivot = a[..., j, j] - (row * row).sum(axis=-1)
        good = (pivot > 0.0) & (pivot > PIVOT_RTOL * a[..., j, j])
        ok &= good
        root = np.sqrt(np.where(good, pivot, 1.0))
        factor[..., j, j] = root
        for i in range(j + 1, k):
            factor[..., i, j] = (a[..., i, j]
                                 - (factor[..., i, :j] * row).sum(axis=-1)) / root
    return factor, ok


def batch_cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for each matrix of a stack, given L from
    :func:`batch_cholesky`; ``b`` has shape (..., k)."""
    k = factor.shape[-1]
    x = np.empty(np.broadcast_shapes(factor.shape[:-1], np.shape(b)))
    for i in range(k):  # forward: L z = b
        x[..., i] = (b[..., i] - (factor[..., i, :i] * x[..., :i]).sum(axis=-1)
                     ) / factor[..., i, i]
    for i in reversed(range(k)):  # backward, in place: L' x = z
        x[..., i] = (x[..., i] - (factor[..., i + 1:, i] * x[..., i + 1:]).sum(axis=-1)
                     ) / factor[..., i, i]
    return x


def factor_logdet(m: SpdMatrix) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of ``m`` and its log-determinant.

    Returns ``(factor, logdet)`` with ``factor @ factor.T == m.entries`` and
    ``logdet = 2 * sum(log(diag(factor)))``.

    Raises
    ------
    NotPositiveDefinite
        If :func:`batch_cholesky` rejects a pivot.  Callers treat this as
        model or posterior degeneracy (rank-deficient design, saddle point).
    """
    factor, ok = batch_cholesky(m.entries)
    if not ok:
        raise NotPositiveDefinite(
            f"nonpositive pivot while factoring a dim-{m.dim} matrix")
    return factor, 2.0 * float(np.log(np.diag(factor)).sum())


# =============================================================================
# Adaptive quadrature (Gauss-Kronrod 7-15)
# =============================================================================

# Kronrod-15 abscissae on (-1, 1); odd-indexed entries are the embedded
# Gauss-7 nodes.  Values are the standard QUADPACK constants.
_GK_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_GK_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
_G_IDX = np.arange(1, 15, 2)
_G_WEIGHTS = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469, 0.381830050505119, 0.279705391489277,
    0.129484966168870,
])


def _gk_panel(f: Callable, a: float, b: float) -> tuple[float, float]:
    """One Gauss-Kronrod panel: (integral estimate, error estimate)."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    fx = np.asarray(f(mid + half * _GK_NODES), dtype=float)
    if fx.shape != _GK_NODES.shape:
        raise ValueError("integrand must map an array of abscissae elementwise")
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"integrand not finite inside ({a}, {b})")
    k15 = half * float(fx @ _GK_WEIGHTS)
    g7 = half * float(fx[_G_IDX] @ _G_WEIGHTS)
    return k15, abs(k15 - g7)


def _adaptive_finite(f: Callable, lo: float, hi: float, tol: float,
                     max_panels: int) -> float:
    if hi == lo:
        return 0.0
    n0 = 8  # several seed panels so a narrow peak cannot hide from the error estimate
    edges = np.linspace(lo, hi, n0 + 1)
    panels = [(_gk_panel(f, edges[i], edges[i + 1]) + (edges[i], edges[i + 1]))
              for i in range(n0)]
    while True:
        err = sum(p[1] for p in panels)
        if err <= tol:
            return sum(p[0] for p in panels)
        if len(panels) >= max_panels:
            raise NoConvergence(
                f"quadrature error {err:.3e} > tol {tol:.3e} after "
                f"{len(panels)} panels"
            )
        worst = max(range(len(panels)), key=lambda i: panels[i][1])
        _, _, a, b = panels[worst]
        mid = 0.5 * (a + b)
        panels[worst] = _gk_panel(f, a, mid) + (a, mid)
        panels.append(_gk_panel(f, mid, b) + (mid, b))


def adaptive_quad(f: Callable, lo: float, hi: float, tol: float = 1e-8,
                  max_panels: int = 4000) -> float:
    """Integrate ``f`` over (lo, hi) to an estimated absolute error <= tol.

    ``f`` must accept a numpy array of abscissae and evaluate elementwise.
    Infinite endpoints are handled by the substitution t = u / (1 - u)
    mapping the tail onto (0, 1); a doubly infinite range is split at zero.
    Quadrature nodes are interior, so the endpoints themselves (including a
    singular or undefined origin) are never evaluated.

    Raises
    ------
    NoConvergence
        If the subdivision budget is exhausted first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if lo > hi:
        return -adaptive_quad(f, hi, lo, tol, max_panels)
    lo_inf = math.isinf(lo)
    hi_inf = math.isinf(hi)
    if lo_inf and hi_inf:
        return (adaptive_quad(f, lo, 0.0, tol / 2, max_panels)
                + adaptive_quad(f, 0.0, hi, tol / 2, max_panels))
    if hi_inf:
        def g(u):
            w = 1.0 - u
            return f(lo + u / w) / (w * w)
        return _adaptive_finite(g, 0.0, 1.0, tol, max_panels)
    if lo_inf:
        def g(u):
            w = 1.0 - u
            return f(hi - u / w) / (w * w)
        return _adaptive_finite(g, 0.0, 1.0, tol, max_panels)
    return _adaptive_finite(f, lo, hi, tol, max_panels)


# =============================================================================
# Scalar root finding
# =============================================================================


def root_find(f: Callable[[float], float], lo: float, hi: float,
              tol: float = 1e-10, max_iter: int = 500) -> float:
    """Root of scalar ``f`` on [lo, hi]: bisection sharpened by secant steps.

    Requires a sign change over the interval and returns x with
    ``|f(x)| <= tol``.  A secant proposal is accepted only if it lands
    strictly inside the current bracket and the bracket has been shrinking;
    otherwise the step falls back to bisection, so convergence is guaranteed.

    Raises
    ------
    NoBracket
        If f(lo) and f(hi) have the same (nonzero) sign.
    """
    a, b = float(lo), float(hi)
    fa, fb = float(f(a)), float(f(b))
    if abs(fa) <= tol:
        return a
    if abs(fb) <= tol:
        return b
    if fa * fb > 0:
        raise NoBracket(f"f({a}) = {fa:.6g} and f({b}) = {fb:.6g} have the same sign")
    widths = [abs(b - a)]
    for _ in range(max_iter):
        width = abs(b - a)
        widths.append(width)
        x = 0.5 * (a + b)
        # secant through the bracket endpoints, safeguarded: keep it interior
        # and insist the bracket halved over the previous two iterations,
        # otherwise bisect, so convergence is never slower than bisection
        if fb != fa and width <= 0.5 * widths[max(0, len(widths) - 3)]:
            s = b - fb * (b - a) / (fb - fa)
            if a + 0.01 * width < s < b - 0.01 * width:
                x = s
        fx = float(f(x))
        if abs(fx) <= tol:
            return x
        if fa * fx < 0:
            b, fb = x, fx
        else:
            a, fa = x, fx
    raise NoConvergence(f"no root to |f| <= {tol} within {max_iter} iterations")


# =============================================================================
# Seeded random streams
# =============================================================================


@dataclass(frozen=True)
class RandomStream:
    """Deterministic random stream keyed by a seed and a derivation path.

    The generator is PCG64 seeded through ``SeedSequence(seed, spawn_key=path)``,
    so identical (seed, path) pairs reproduce the identical draw sequence on
    every platform.  A stream is single-consumer: concurrent work must draw
    from :func:`derive_stream` substreams, never from a shared stream.
    """

    seed: int
    path: tuple[int, ...] = ()

    @cached_property
    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        return np.random.Generator(np.random.PCG64(seq))


def make_stream(seed: int) -> RandomStream:
    """Root stream for a 64-bit seed."""
    return RandomStream(seed=int(seed))


def derive_stream(parent: RandomStream, index: int) -> RandomStream:
    """Reproducible substream, statistically independent of its siblings."""
    return RandomStream(seed=parent.seed, path=parent.path + (int(index),))
