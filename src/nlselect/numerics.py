"""Deterministic numerical kernels shared across the package.

Dense symmetric factorization (one Cholesky kernel that works on a single
matrix or on a stack of small ones, with a status per matrix), adaptive
Gauss-Kronrod quadrature (with a documented change of variable for
semi-infinite ranges), and seeded random streams with reproducible substream
derivation.
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


def _dot(xs: list[np.ndarray], ys: list[np.ndarray]) -> np.ndarray:
    """sum_l xs[l] * ys[l], elementwise, rounded as numpy's last-axis sum: one
    term after another onto 0.0 below 8 terms, else by that sum itself."""
    terms = [x * y for x, y in zip(xs, ys)]
    return np.stack(terms, axis=-1).sum(axis=-1) if len(terms) >= 8 else sum(terms, 0.0)


def batch_cholesky(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower Cholesky factors of a stack of symmetric matrices, shape (..., k, k).

    Returns ``(factor, ok)``.  ``ok`` has the stack's shape and is False where
    a pivot is nonpositive, NaN, or not above ``PIVOT_RTOL`` times its
    diagonal entry; that matrix's factor is then meaningless.  Unlike
    ``np.linalg.cholesky`` on a stack, one failed matrix does not fail the
    others.  Loops over the k(k+1)/2 entries, each vectorized over the
    stack and written in place, so it suits small k.
    """
    a = np.asarray(a, dtype=float)
    k = a.shape[-1]
    factor = np.zeros_like(a)
    ok = np.ones(a.shape[:-2], dtype=bool)
    low = [[factor[..., i, j] for j in range(i + 1)] for i in range(k)]  # views
    for j in range(k):
        diag = a[..., j, j]
        pivot = diag - _dot(low[j][:j], low[j][:j]) if j else diag
        # one comparison that is False for a NaN pivot or a NaN diagonal too
        good = pivot > np.maximum(PIVOT_RTOL * diag, 0.0)
        ok &= good
        root = np.sqrt(np.where(good, pivot, 1.0), out=low[j][j])
        for i in range(j + 1, k):
            below = a[..., i, j] - _dot(low[i][:j], low[j][:j]) if j else a[..., i, j]
            np.divide(below, root, out=low[i][j])
    return factor, ok


def batch_cho_solve(factor: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve (L L') x = b for each matrix of a stack, given L from
    :func:`batch_cholesky`; ``b`` has shape (..., k)."""
    k = factor.shape[-1]
    x = np.empty(np.broadcast_shapes(factor.shape[:-1], np.shape(b)))
    xs = [x[..., i] for i in range(k)]  # views
    for i in range(k):  # forward: L z = b
        rhs = b[..., i] - _dot([factor[..., i, j] for j in range(i)], xs[:i]) if i else b[..., i]
        np.divide(rhs, factor[..., i, i], out=xs[i])
    for i in reversed(range(k)):  # backward, in place: L' x = z
        rhs = xs[i] - _dot([factor[..., j, i] for j in range(i + 1, k)], xs[i + 1:])
        np.divide(rhs, factor[..., i, i], out=xs[i])
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
    An upper tail (lo, inf) is mapped onto (0, 1) by t = lo + u / (1 - u), a
    lower tail is its mirror image, and a doubly infinite range is split at 0.
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
    if math.isinf(lo) and math.isinf(hi):
        return (adaptive_quad(f, lo, 0.0, tol / 2, max_panels)
                + adaptive_quad(f, 0.0, hi, tol / 2, max_panels))
    if math.isinf(hi):
        def g(u):
            w = 1.0 - u
            return f(lo + u / w) / (w * w)
        return _adaptive_finite(g, 0.0, 1.0, tol, max_panels)
    if math.isinf(lo):
        return adaptive_quad(lambda x: f(-x), -hi, math.inf, tol, max_panels)
    return _adaptive_finite(f, lo, hi, tol, max_panels)


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
