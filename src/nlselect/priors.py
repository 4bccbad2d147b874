"""Product nonlocal prior densities and their exact derivatives.

Two kernels, both exactly zero at the origin:

* piMOM: per-coordinate density tau^(r/2)/Gamma(r/2) |b|^-(r+1) exp(-tau/b^2).
* spiMOM: piMOM with an inverse-gamma(shape (r+1)/2, scale lambda) mixture on
  tau, which closes to K(r, lambda) |b|^-(r+1) exp(-2 sqrt(lambda)/|b|).

The default spiMOM constant K = lambda^((r+1)/2) sqrt(pi) /
(Gamma(r/2) Gamma((r+1)/2) sqrt(lambda)) is the exact mixture constant and
integrates to one; ``paper_constant_mode`` halves it to reproduce a commonly
printed variant of the closed form (which integrates to one half).  The
choice cancels between models of equal size but not across sizes, so it is
kept explicit.  ``spimom_mixture_quad`` adjudicates: it evaluates the mixture
integral directly by adaptive quadrature and is the ground truth the closed
form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import adaptive_quad, root_find


class AtOrigin(ValueError):
    """A derivative of the log prior was requested at a zero coordinate."""


@dataclass(frozen=True)
class NonlocalPriorSpec:
    """Prior kind plus hyperparameters.

    ``scale`` is tau for piMOM and lambda for spiMOM; the kernel exponent
    zeta (1 for piMOM, 1/2 for spiMOM) is derived from the kind.
    """

    kind: str
    r: float = 1.0
    scale: float = 1.0
    paper_constant_mode: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("pimom", "spimom"):
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.r <= 0 or self.scale <= 0:
            raise ValueError("r and scale must be positive")
        if self.paper_constant_mode and self.kind != "spimom":
            raise ValueError("paper_constant_mode applies to spimom only")

    @property
    def zeta(self) -> float:
        return 1.0 if self.kind == "pimom" else 0.5

    @property
    def prior_mode(self) -> float:
        """Positive stationary point of the per-coordinate log density."""
        if self.kind == "pimom":
            return math.sqrt(2.0 * self.scale / (self.r + 1.0))
        return 2.0 * math.sqrt(self.scale) / (self.r + 1.0)


def pimom(r: float = 1.0, tau: float = 1.0) -> NonlocalPriorSpec:
    return NonlocalPriorSpec(kind="pimom", r=r, scale=tau)


def spimom(r: float = 1.0, lam: float = 1.0,
           paper_constant_mode: bool = False) -> NonlocalPriorSpec:
    return NonlocalPriorSpec(kind="spimom", r=r, scale=lam,
                             paper_constant_mode=paper_constant_mode)


# =============================================================================
# Per-coordinate log densities (vectorized, -inf at the origin)
# =============================================================================


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
        if spec.kind == "pimom":
            kernel = spec.scale / ab**2
        else:
            kernel = 2.0 * math.sqrt(spec.scale) / ab
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

    piMOM: -(r+1)/b + 2 tau / b^3.  spiMOM: -(r+1)/b + 2 sqrt(lambda) sign(b) / b^2.
    """
    beta = _coordinates(beta, "gradient")
    if spec.kind == "pimom":
        return -(spec.r + 1.0) / beta + 2.0 * spec.scale / beta**3
    return -(spec.r + 1.0) / beta + 2.0 * math.sqrt(spec.scale) * np.sign(beta) / beta**2


def log_prior_neg_hessian(beta, spec: NonlocalPriorSpec) -> np.ndarray:
    """Negated second derivatives, returned as the raw diagonal (one per
    coordinate, elementwise over any stack of rows).

    Coordinates are independent, so the Hessian is diagonal.  Entries may be
    negative far from the prior mode; definiteness is checked only on the
    assembled log-posterior Hessian.
    """
    beta = _coordinates(beta, "curvature")
    if spec.kind == "pimom":
        return 6.0 * spec.scale / beta**4 - (spec.r + 1.0) / beta**2
    return 4.0 * math.sqrt(spec.scale) / np.abs(beta)**3 - (spec.r + 1.0) / beta**2


# =============================================================================
# Mixture-representation oracle and hyperparameter rule
# =============================================================================


def spimom_mixture_quad(b: float, r: float, lam: float,
                        tol: float = 1e-10) -> float:
    """spiMOM density at ``b`` via the mixing integral, not the closed form.

    Integrates piMOM(b; r, tau) against the inverse-gamma(shape (r+1)/2,
    scale lambda) density over tau in (0, inf) by adaptive quadrature.
    Serves as the ground-truth oracle for the closed form in
    :func:`log_density_1d`.

    The integrand is rescaled by its (analytically located) peak value
    before quadrature: for small |b| the integral underflows any fixed
    absolute tolerance, and the rescaling is an exact change of units that
    keeps the result accurate in relative terms while the absolute error
    stays below ``tol``.
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
    scaled_tol = tol * math.exp(-max(0.0, shift))
    value = adaptive_quad(lambda tau: np.exp(log_integrand(tau) - shift),
                          0.0, math.inf, tol=scaled_tol)
    return math.exp(shift) * value


def origin_mass(delta: float, spec: NonlocalPriorSpec, tol: float = 1e-10) -> float:
    """Prior probability of (-delta, delta) by quadrature of the density."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    f = lambda b: np.exp(log_density_1d(b, spec))
    return 2.0 * adaptive_quad(f, 0.0, float(delta), tol=tol / 2)


def lambda_for_origin_mass(delta: float, r: float = 1.0, mass: float = 0.01,
                           tol: float = 1e-6) -> float:
    """Default spiMOM scale rule: the lambda placing ``mass`` inside (-delta, delta).

    The origin mass is strictly decreasing in lambda, so the equation is
    solved by bisection on the quadrature CDF over a wide bracket.
    """
    if not 0.0 < mass < 1.0:
        raise ValueError("mass must be in (0, 1)")

    def gap(lam: float) -> float:
        return origin_mass(delta, spimom(r=r, lam=lam)) - mass

    return root_find(gap, 1e-8, 1e8, tol=tol)
