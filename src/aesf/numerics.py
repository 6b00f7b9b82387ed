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


def normal_cdf(z):
    """Standard normal CDF at finite ``z``, elementwise on arrays.

    Uses ``scipy.special.ndtr``, whose absolute error is well below 1e-12
    everywhere; a scalar argument gives a float.
    """
    z = np.asarray(z, dtype=float)
    if not np.isfinite(z).all():
        raise DomainError("normal_cdf requires finite arguments")
    p = ndtr(z)
    return float(p) if p.ndim == 0 else p


def normal_pdf(z):
    """Standard normal density, vectorized."""
    z = np.asarray(z, dtype=float)
    return np.exp(-0.5 * z * z) / _SQRT_TWO_PI


def phi(z):
    """Standard normal CDF, vectorized (thin wrapper over ``scipy.special.ndtr``)."""
    return ndtr(z)


#: Most ``bvn_cdf`` arguments whose integrands are evaluated at once, which
#: bounds memory (about 1 MB per temporary at order 64) whatever their number.
_CHUNK_ARGS = 2048


@lru_cache(maxsize=128)
def _arcsin_rule(rho: float, order: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (weights, sin t, 2 cos^2 t) of the Gauss-Legendre rule on
    the signed segment [0, arcsin rho], whose weights carry the sign."""
    s = math.asin(rho)
    t0, w0 = _leggauss(order)
    t = 0.5 * s * (t0 + 1.0)
    rule = (0.5 * s * w0, np.sin(t), 2.0 * np.cos(t) ** 2)
    for a in rule:
        a.setflags(write=False)
    return rule


def bvn_cdf(x, y, rho: float, order: int = 64):
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation rho.

    Elementwise over ``x`` and ``y``, which broadcast against each other; a
    scalar pair gives a float, and is the one-element case of an array
    call. Evaluated through the single-integral identity

        Phi_rho(x, y) = Phi(x) Phi(y)
            + (1/2pi) * int_0^{arcsin rho} exp(-(x^2 - 2xy sin t + y^2)
                                               / (2 cos^2 t)) dt,

    with Gauss-Legendre quadrature on the arcsin segment; the degenerate
    |rho| = 1 cases are handled exactly. The integrand sharpens as |rho|
    approaches 1. Measured against 512 nodes on a [-4, 4]^2 grid with step
    0.1, 64 nodes agree within 6e-16 for |rho| in {0.1, 0.3, 0.5, 0.7, 0.9,
    0.95, 0.99, 0.999}; at |rho| = 0.9999 the gap reaches 3.9e-11, at
    (x, y) = (0, 0.1). Each element's quadrature sum is formed on its own,
    so a value does not depend on the other elements of the call.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    rho = float(rho)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and math.isfinite(rho)):
        raise DomainError("bvn_cdf requires finite arguments")
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho}")
    if rho == 1.0:
        p = ndtr(np.minimum(x, y))
    elif rho == -1.0:
        p = np.maximum(ndtr(x) + ndtr(y) - 1.0, 0.0)
    else:
        p = ndtr(x) * ndtr(y)
        if rho != 0.0:
            w, sin_t, two_cos2_t = _arcsin_rule(rho, order)
            xs, ys = x.ravel(), y.ravel()
            integral = np.empty(xs.size)
            for start in range(0, xs.size, _CHUNK_ARGS):
                part = slice(start, start + _CHUNK_ARGS)
                a, b = xs[part, None], ys[part, None]
                integrand = np.exp(-((a * a + b * b) - 2.0 * a * b * sin_t) / two_cos2_t)
                # A row sum, not a matrix product, so that each element's sum
                # is the same whatever the number of rows.
                integral[part] = (integrand * w).sum(axis=-1)
            p = clamp_probability(p + integral.reshape(p.shape) / (2.0 * math.pi))
    return float(p) if np.ndim(p) == 0 else p
