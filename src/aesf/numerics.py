"""Special functions and Gaussian quadrature used by every closed-form evaluation.

Everything here is pure and reentrant: quadrature rules are read-only
(nodes, weights) arrays built once per order in append-only caches, and no
function mutates its arguments.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr, owens_t

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
        lo, hi = float(p.min()), float(p.max())
        if 0.0 <= lo and hi <= 1.0:  # False on NaN
            return p
        for extreme in (lo, hi):
            clamp_probability(extreme, tol)  # raises beyond tol or on NaN
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


def bvn_cdf(x, y, rho: float):
    """P(X <= x, Y <= y) for a standard bivariate normal with correlation rho.

    Elementwise over ``x`` and ``y``, which broadcast against each other; a
    scalar pair gives a float, and is the one-element case of an array
    call. For 0 < |rho| < 1 it is Owen's T form (Owen 1956),

        Phi_rho(h, k) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta/2,

    a_h = (k - rho h) / (h sqrt(1 - rho^2)) and a_k likewise, beta = 1 when
    hk < 0 or when hk = 0 and h + k < 0, else 0, with ``scipy.special.owens_t``
    (Patefield and Tandy 2000) for T. Conventions: a zero is taken as +0, so
    that a_h = +-inf with the sign of k at h = 0 whichever zero the caller
    passed; the origin is 1/4 + arcsin(rho) / 2pi; and the form is
    evaluated at (min(x, y), max(x, y)), so the value is symmetric in its
    arguments to the last bit. When ``x`` and ``y`` are the same object, the
    two T terms are equal and T is evaluated once; the value is the same as
    for a copy. rho in {0, +-1} is exact. On an 81 x 81 grid over [-4, 4]^2
    and |rho| up to 0.9999, the values lie within 1.7e-14 of a 2048-node
    Gauss-Legendre rule on the arcsin form of Phi_rho.
    """
    diagonal = x is y
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rho = float(rho)
    if not (np.isfinite(x).all() and np.isfinite(y).all() and math.isfinite(rho)):
        raise DomainError("bvn_cdf requires finite arguments")
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho}")
    if rho == 1.0:
        p = ndtr(np.minimum(x, y))
    elif rho == -1.0:
        p = np.maximum(ndtr(x) + ndtr(y) - 1.0, 0.0)
    elif rho == 0.0:
        p = ndtr(x) * ndtr(y)
    else:
        h, k = np.minimum(x, y) + 0.0, np.maximum(x, y) + 0.0  # -0.0 + 0.0 is +0.0
        scale = math.sqrt((1.0 - rho) * (1.0 + rho))
        with np.errstate(divide="ignore", invalid="ignore"):  # a zero h or k
            t_h = owens_t(h, (k / h - rho) / scale)
            t_k = t_h if diagonal else owens_t(k, (h / k - rho) / scale)
        beta = (h < 0.0) & (k >= 0.0)  # as h <= k
        p = 0.5 * (ndtr(h) + ndtr(k) - beta) - t_h - t_k
        origin = 0.25 + math.asin(rho) / (2.0 * math.pi)
        # [()] turns a 0-d result into a scalar, which clamps without reductions.
        p = clamp_probability(np.where((h == 0.0) & (k == 0.0), origin, p)[()])
    return float(p) if np.ndim(p) == 0 else p
