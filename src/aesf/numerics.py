"""Special functions and Gaussian quadrature used by every closed-form evaluation.

Everything here is pure and reentrant: rules are read-only (nodes, weights)
arrays, the rule caches are append-only, and no function mutates its
arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import DomainError, NumericsError

__all__ = [
    "hermite_rule",
    "normal_cdf",
    "normal_pdf",
    "bvn_cdf",
    "clamp_probability",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

#: Truncation point for integrals against the standard normal density.
#: Phi(-8.5) ~ 9.5e-18, far below every tolerance used in this package.
NORMAL_TAIL = 8.5

#: Largest rounding excursion outside [0, 1] that clamping will silently fix.
CLAMP_TOL = 1e-9


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def hermite_rule(order: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite rule: integrates against the N(0,1) density.

    Returns read-only (nodes, weights); the weights sum to 1.
    """
    # Raw probabilists' weights sum to sqrt(2*pi).
    nodes, weights = np.polynomial.hermite_e.hermegauss(order)
    weights = weights / _SQRT_TWO_PI
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def clamp_probability(p, tol: float = CLAMP_TOL):
    """Clamp a nearly-in-range probability to [0, 1]; elementwise on arrays.

    Excursions beyond ``tol`` and NaN indicate a bug upstream and raise
    instead of being hidden.
    """
    if isinstance(p, np.ndarray):
        for extreme in (p.min(), p.max()):
            clamp_probability(float(extreme), tol)  # raises beyond tol or on NaN
        return np.clip(p, 0.0, 1.0)
    if math.isnan(p):
        raise NumericsError("probability is NaN")
    if p < 0.0:
        if p < -tol:
            raise NumericsError(f"probability {p!r} below 0 by more than {tol}")
        return 0.0
    if p > 1.0:
        if p > 1.0 + tol:
            raise NumericsError(f"probability {p!r} above 1 by more than {tol}")
        return 1.0
    return p


def normal_cdf(z: float) -> float:
    """Standard normal CDF at a finite scalar ``z``.

    Uses the complementary error function from the C math library, giving
    absolute error well below 1e-12 everywhere.
    """
    z = float(z)
    if not math.isfinite(z):
        raise DomainError(f"normal_cdf requires a finite argument, got {z!r}")
    return 0.5 * math.erfc(-z / _SQRT2)


def normal_pdf(z):
    """Standard normal density, vectorized."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_TWO_PI


def phi(z):
    """Standard normal CDF, vectorized (thin wrapper over ``scipy.special.ndtr``)."""
    return ndtr(z)


def bvn_cdf(x: float, y: float, rho: float, order: int = 64) -> float:
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation rho.

    Evaluated through the single-integral identity

        Phi_rho(x, y) = Phi(x) Phi(y)
            + (1/2pi) * int_0^{arcsin rho} exp(-(x^2 - 2xy sin t + y^2)
                                               / (2 cos^2 t)) dt,

    with Gauss-Legendre quadrature on the arcsin segment; the degenerate
    |rho| = 1 cases are handled exactly. The integrand sharpens as |rho|
    approaches 1. Measured against 512 nodes on a [-4, 4]^2 grid with step
    0.1, 64 nodes agree within 6e-16 for |rho| in {0.1, 0.3, 0.5, 0.7, 0.9,
    0.95, 0.99, 0.999}; at |rho| = 0.9999 the gap reaches 3.9e-11, at
    (x, y) = (0, 0.1).
    """
    x, y, rho = float(x), float(y), float(rho)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(rho)):
        raise DomainError("bvn_cdf requires finite arguments")
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho}")
    if rho == 1.0:
        return normal_cdf(min(x, y))
    if rho == -1.0:
        return max(normal_cdf(x) + normal_cdf(y) - 1.0, 0.0)

    base = normal_cdf(x) * normal_cdf(y)
    if rho == 0.0:
        return base

    s = math.asin(rho)
    t0, w0 = _leggauss(order)
    t = 0.5 * s * (t0 + 1.0)  # signed segment [0, s]; weights carry the sign
    w = 0.5 * s * w0
    sin_t = np.sin(t)
    cos2_t = np.cos(t) ** 2
    integrand = np.exp(-((x * x + y * y) - 2.0 * x * y * sin_t) / (2.0 * cos2_t))
    return clamp_probability(base + float(w @ integrand) / (2.0 * math.pi))
