"""Product nonlocal prior densities and their exact derivatives.

Two members of the (i)MOM family, both exactly zero at the origin, with the
one per-coordinate kernel C |b|^-(r+1) exp(-c |b|^-e):

* piMOM: C = tau^(r/2)/Gamma(r/2), e = 2, c = tau.
* spiMOM: piMOM with an inverse-gamma(shape (r+1)/2, scale lambda) mixture on
  tau, which closes to C = K(r, lambda), e = 1, c = 2 sqrt(lambda).

Every formula below is written once in terms of (c, e); only the constant C
is per kind.  The default spiMOM constant K = lambda^((r+1)/2) sqrt(pi) /
(Gamma(r/2) Gamma((r+1)/2) sqrt(lambda)) is the exact mixture constant and
integrates to one; ``paper_constant_mode`` halves it to reproduce a commonly
printed variant of the closed form (which integrates to one half).  The
choice cancels between models of equal size but not across sizes, so it is
kept explicit.  ``spimom_mixture_quad`` adjudicates: it evaluates the mixture
integral directly by adaptive quadrature and is the ground truth the closed
form is tested against.  ``coordinate_mode`` gives one coordinate's posterior
mode under a quadratic log-likelihood, where every mode search starts: the
positive root u of h u^(e+2) - h a u^(e+1) + (r+1) u^e - e c = 0.

``scipy.special`` is loaded only by ``lambda_for_origin_mass``, at its first
call, so code that never sets a scale from an effect floor never imports scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import adaptive_quad


class AtOrigin(ValueError):
    """A derivative of the log prior was requested at a zero coordinate."""


@dataclass(frozen=True)
class NonlocalPriorSpec:
    """Prior kind plus hyperparameters.

    ``scale`` is tau for piMOM and lambda for spiMOM; ``r`` and ``scale``
    must be positive and finite.  The kernel power ``e`` and coefficient
    ``c`` of exp(-c |b|^-e) are derived from the kind and scale.
    """

    kind: str
    r: float = 1.0
    scale: float = 1.0
    paper_constant_mode: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("pimom", "spimom"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if not (0.0 < self.r < math.inf and 0.0 < self.scale < math.inf):
            raise ValueError("r and scale must be positive and finite")
        if self.paper_constant_mode and self.kind != "spimom":
            raise ValueError("paper_constant_mode applies to spimom only")

    @property
    def e(self) -> int:
        """Kernel power: 2 for piMOM, 1 for spiMOM."""
        return 2 if self.kind == "pimom" else 1

    @property
    def c(self) -> float:
        """Kernel coefficient: tau for piMOM, 2 sqrt(lambda) for spiMOM."""
        return self.scale if self.kind == "pimom" else 2.0 * math.sqrt(self.scale)

    @property
    def prior_mode(self) -> float:
        """Positive stationary point of the per-coordinate log density,
        (e c / (r+1))^(1/e)."""
        return (self.e * self.c / (self.r + 1.0)) ** (1.0 / self.e)


def pimom(r: float = 1.0, tau: float = 1.0) -> NonlocalPriorSpec:
    return NonlocalPriorSpec(kind="pimom", r=r, scale=tau)


def spimom(r: float = 1.0, lam: float = 1.0,
           paper_constant_mode: bool = False) -> NonlocalPriorSpec:
    return NonlocalPriorSpec(kind="spimom", r=r, scale=lam,
                             paper_constant_mode=paper_constant_mode)


# =============================================================================
# Per-coordinate log densities (vectorized, -inf at the origin)
# =============================================================================


def _power(x, k: int):
    """x^k for k = 0, 1, 2 (e - 1 or e): 1.0, x itself, or x * x, which is
    x**2 bit for bit; numpy's x**0 and x**1 would each cost a pow call."""
    return 1.0 if k == 0 else x if k == 1 else x * x


def log_prior_constant(spec: NonlocalPriorSpec) -> float:
    """Per-coordinate log normalizing constant of either kind.

    piMOM: (r/2) log tau - log Gamma(r/2).  spiMOM: log K(r, lambda) =
    (r/2) log lambda + (1/2) log pi - log Gamma(r/2) - log Gamma((r+1)/2),
    less log 2 in ``paper_constant_mode``.
    """
    log_c = 0.5 * spec.r * math.log(spec.scale) - math.lgamma(0.5 * spec.r)
    if spec.kind == "spimom":
        log_c += 0.5 * math.log(math.pi) - math.lgamma(0.5 * (spec.r + 1.0))
        if spec.paper_constant_mode:
            log_c -= math.log(2.0)
    return log_c


def log_density_1d(b, spec: NonlocalPriorSpec) -> np.ndarray:
    """Elementwise log density; exactly -inf wherever b is zero."""
    b = np.asarray(b, dtype=float)
    ab = np.abs(b)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kernel = spec.c / _power(ab, spec.e)
        out = log_prior_constant(spec) - (spec.r + 1.0) * np.log(ab) - kernel
    return np.where(b != 0.0, out, -math.inf)


def log_prior(beta, spec: NonlocalPriorSpec):
    """Joint log prior density: :func:`log_density_1d` summed over the last
    axis of ``beta``.

    A vector gives a float; a stack of shape (M, k) gives M values.  A row
    with an exact zero gets -inf: nonlocal densities vanish on coordinate
    planes.
    """
    dens = log_density_1d(beta, spec)
    if dens.ndim <= 1:
        return float(dens.sum())
    return dens.sum(axis=-1)


# =============================================================================
# Exact derivatives of the implemented log densities
# =============================================================================


def _coordinates(beta, what: str) -> np.ndarray:
    # a vector, or a stack of rows; derivatives are per coordinate
    beta = np.asarray(beta, dtype=float)
    if beta.ndim <= 1:
        beta = beta.reshape(-1)
    if not beta.all():
        raise AtOrigin(f"log-prior {what} is undefined at a zero coordinate")
    return beta


def log_prior_grad(beta, spec: NonlocalPriorSpec) -> np.ndarray:
    """Per-coordinate derivative of the log density, elementwise over any
    stack of rows.

    e c / (b |b|^e) - (r+1)/b: exactly odd in b.
    """
    return log_prior_terms(_coordinates(beta, "gradient"), spec)[1]


def log_prior_neg_hessian(beta, spec: NonlocalPriorSpec) -> np.ndarray:
    """Negated second derivatives, returned as the raw diagonal (one per
    coordinate, elementwise over any stack of rows).

    e c (e+1) / |b|^(e+2) - (r+1)/b^2: exactly even in b.  Coordinates are
    independent, so the Hessian is diagonal.  Entries may be negative far
    from the prior mode; definiteness is checked only on the assembled
    log-posterior Hessian.
    """
    return log_prior_terms(_coordinates(beta, "curvature"), spec)[2]


def log_prior_terms(beta, spec: NonlocalPriorSpec
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The log prior, its gradient and its negative Hessian diagonal at once,
    for a Newton objective: at a nonzero ``beta`` those of :func:`log_prior`,
    :func:`log_prior_grad` and :func:`log_prior_neg_hessian` bit for bit.  A
    zero coordinate gives -inf and derivatives taken at 1 in its place."""
    beta = np.asarray(beta, dtype=float)
    b = np.where(beta != 0.0, beta, 1.0)
    ab, e, c, r1 = np.abs(b), spec.e, spec.c, spec.r + 1.0
    grad = e * c / (b * _power(ab, e)) - r1 / b
    curv = e * c * (e + 1) / ab**(e + 2) - r1 / b**2
    return log_prior(beta, spec), grad, curv


# =============================================================================
# One coordinate's posterior mode under a quadratic log-likelihood
# =============================================================================

# Safeguarded Newton: a coordinate is solved once a step moves it by at most
# this share of its value, since the next Newton step would reach rounding
# error; a bisection step moves it by half its bracket, so the same test
# ends a bisection.  MODE_SOLVE_STEPS bounds the loop.
MODE_SOLVE_RTOL = 2.0**-26
MODE_SOLVE_STEPS = 100


def coordinate_mode(b, h, spec: NonlocalPriorSpec) -> np.ndarray:
    """Elementwise root, in b's orthant (+ for b = 0), of the stationarity
    equation -h (beta - b) + d/dbeta log pi(beta) = 0, for curvatures h >= 0.

    That is the mode of log pi(beta) - h/2 (beta - b)^2: one coordinate's
    posterior mode when the log-likelihood is quadratic with maximum at b
    and curvature h.  With u = |beta|, a = |b|, it is the positive root of

        h u^(e+2) - h a u^(e+1) + (r+1) u^e - e c = 0.

    The left side is negative at u = 0 and nonnegative at
    U = min(max(a, prior_mode), a + (e c/h)^(1/(e+2))), so a root lies in
    (0, U].  Newton steps start from U; a step that would leave the bracket
    of the last negative and nonnegative points bisects it instead.  Each
    coordinate stops at the step that solves it, so it equals its own
    one-element solve.  ``b`` and ``h`` broadcast.
    """
    b = np.asarray(b, dtype=float)
    h = np.asarray(h, dtype=float)
    a = np.abs(b)
    e, r1 = spec.e, spec.r + 1.0
    ec, er1 = e * spec.c, e * r1  # the constant term; d/du (r+1) u^e = er1 u^(e-1)
    a1 = (e + 1) * a  # a loop invariant
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = (ec / h) ** (1.0 / (e + 2))
        hi = np.minimum(np.maximum(a, spec.prior_mode), a + tail)
        lo = np.zeros_like(hi)
        u = hi
        done = np.zeros(u.shape, dtype=bool)
        for _ in range(MODE_SOLVE_STEPS):
            ue = _power(u, e)
            hue = h * ue
            f = hue * u * (u - a) + r1 * ue - ec
            df = hue * ((e + 2) * u - a1) + er1 * _power(u, e - 1)
            below = f < 0.0
            lo = np.where(below, u, lo)
            hi = np.where(below, hi, u)
            x = u - f / df
            inside = (x >= lo) & (x <= hi)
            if not inside.all():
                x = np.where(inside, x, 0.5 * (lo + hi))
            # a coordinate takes the step that solves it, then stays put
            u, done = np.where(done, u, x), done | (np.abs(x - u) <= MODE_SOLVE_RTOL * x)
            if done.all():
                break
    return np.where(b < 0.0, -u, u)


# =============================================================================
# Mixture-representation oracle and hyperparameter rule
# =============================================================================


def spimom_mixture_quad(b: float, r: float, lam: float) -> float:
    """spiMOM density at ``b`` via the mixing integral, not the closed form.

    Integrates piMOM(b; r, tau) against the inverse-gamma(shape (r+1)/2,
    scale lambda) density over tau in (0, inf) by adaptive quadrature.
    Serves as the ground-truth oracle for the closed form in
    :func:`log_density_1d`.

    The integrand is rescaled by its (analytically located) peak value
    before quadrature: for small |b| the integral underflows any fixed
    absolute tolerance, and the rescaling is an exact change of units that
    keeps the result accurate in relative terms while the absolute error
    stays below 1e-10.
    """
    if b == 0.0:
        raise ValueError("b must be nonzero")
    ab = abs(float(b))
    log_const = (-math.lgamma(0.5 * r) - (r + 1.0) * math.log(ab)
                 + 0.5 * (r + 1.0) * math.log(lam) - math.lgamma(0.5 * (r + 1.0)))

    def log_integrand(tau):
        # the tau powers collapse to -3/2 regardless of r
        with np.errstate(divide="ignore", over="ignore"):
            return log_const - 1.5 * np.log(tau) - tau / ab**2 - lam / tau

    # stationary point of -3/2 log(tau) - tau/b^2 - lam/tau
    tau_peak = 0.5 * ab**2 * (-1.5 + math.sqrt(2.25 + 4.0 * lam / ab**2))
    shift = float(log_integrand(np.array([tau_peak]))[0])
    if math.isinf(shift):
        return 0.0
    scaled_tol = 1e-10 * math.exp(-max(0.0, shift))
    value = adaptive_quad(lambda tau: np.exp(log_integrand(tau) - shift),
                          0.0, math.inf, tol=scaled_tol)
    return math.exp(shift) * value


def lambda_for_origin_mass(delta: float, r: float = 1.0, mass: float = 0.01) -> float:
    """Default spiMOM scale rule: the lambda placing ``mass`` inside (-delta, delta).

    Substituting t = 2 sqrt(lambda) / |b| turns the spiMOM density of |b|
    into the Gamma(r) density of t, so the origin mass is the regularized
    upper incomplete gamma Q(r, 2 sqrt(lambda) / delta).  Inverting it gives

        lambda = (delta Q^-1(r, mass) / 2)^2,

    with Q^-1 = ``scipy.special.gammainccinv``.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    from scipy.special import gammainccinv  # only the effect-floor rule loads scipy.special

    lam = float(0.5 * delta * gammainccinv(r, mass)) ** 2
    if not 0.0 < lam < math.inf:
        raise ValueError(f"lambda = {lam} is not finite and positive")
    return lam
