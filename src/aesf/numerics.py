"""Special functions and Gaussian quadrature used by every closed-form evaluation.

Everything here is pure and reentrant: quadrature rules are read-only
(nodes, weights) arrays built once per order in append-only caches,
``bvn_cdf``'s kernels are built once per correlation in a bounded cache,
and no function mutates its arguments. The package's numerical policy is
the constants below: ``NORMAL_TAIL``, ``SATURATION``, ``CLAMP_TOL`` and
``DEFAULT_ORDER``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
# The package, not its modules: CPython 3.11 fails one of two threads that import a
# package and one of its modules at once (notes/decisions.md).
from numpy.polynomial import hermite_e, legendre

from ._special import ndtr
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

#: |z| beyond which Phi(z) is 0 or 1 in double precision. ``bvn_cdf`` clips
#: its arguments to it, which keeps h * k and h^2 + k^2 finite.
SATURATION = 40.0

#: Points per panel of every quadrature rule whose caller sets no order.
DEFAULT_ORDER = 64

#: Positive halves (nodes, weights) of the 6-, 12- and 20-point Gauss-Legendre
#: rules on [-1, 1], as numpy's ``leggauss`` gives them (its rules are
#: symmetric to the bit; tests/test_numerics.py compares the two). A table,
#: so that ``bvn_cdf`` builds no rule and calls no eigensolver.
_LEGENDRE_HALVES = {
    6: ((0.2386191860831969, 0.6612093864662645, 0.9324695142031519),
        (0.46791393457269104, 0.3607615730481387, 0.17132449237917027)),
    12: ((0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
          0.7699026741943047, 0.9041172563704748, 0.9815606342467192),
         (0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
          0.16007832854334642, 0.10693932599531907, 0.04717533638651141)),
    20: ((0.07652652113349734, 0.22778585114164507, 0.37370608871541955,
          0.5108670019508271, 0.636053680726515, 0.7463319064601508,
          0.8391169718222188, 0.912234428251326, 0.9639719272779138,
          0.993128599185095),
         (0.15275338713072628, 0.14917298647260424, 0.1420961093183824,
          0.1316886384491769, 0.1181945319615186, 0.1019301198172407,
          0.08327674157670471, 0.06267204833410879, 0.040601429800386446,
          0.017614007139150893)),
}

#: Genz's bands for ``bvn_cdf``: the rule order used below each |rho| bound.
_GENZ_BANDS = ((0.3, 6), (0.75, 12), (0.925, 20))

#: Elements per pass of ``bvn_cdf``'s (elements x nodes) kernel, which bounds
#: its temporaries whatever the size of the call.
_BVN_BLOCK = 4096


@lru_cache(maxsize=None)
def _leggauss(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


@lru_cache(maxsize=None)
def hermite_rule(order: int = DEFAULT_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite rule: integrates against the N(0,1) density.

    Returns read-only (nodes, weights); the weights sum to 1.
    """
    # Raw probabilists' weights sum to sqrt(2*pi).
    nodes, weights = hermite_e.hermegauss(order)
    weights = weights / _SQRT_TWO_PI
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return nodes, weights


def clamp_probability(p):
    """Clamp a nearly-in-range probability to [0, 1]; elementwise on arrays.

    Excursions beyond ``CLAMP_TOL`` and NaN indicate a bug upstream and
    raise instead of being hidden.
    """
    if isinstance(p, np.ndarray):
        lo, hi = float(p.min(initial=0.0)), float(p.max(initial=1.0))
        if 0.0 <= lo and hi <= 1.0:  # False on NaN
            return p
        for extreme in (lo, hi):
            clamp_probability(extreme)  # raises beyond CLAMP_TOL or on NaN
        return np.clip(p, 0.0, 1.0)
    if math.isnan(p):
        raise NumericsError("probability is NaN")
    if p < 0.0:
        if p < -CLAMP_TOL:
            raise NumericsError(f"probability {p!r} below 0 by more than {CLAMP_TOL}")
        return 0.0
    if p > 1.0:
        if p > 1.0 + CLAMP_TOL:
            raise NumericsError(f"probability {p!r} above 1 by more than {CLAMP_TOL}")
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
    call. For 0 < |rho| < 0.925 it is the arcsine integral of Drezner and
    Wesolowsky (J. Statist. Comput. Simul. 35, 1990) on Genz's banded
    Gauss-Legendre rules (Statistics and Computing 14, 2004),

        Phi_rho(h, k) = Phi(h) Phi(k) + (arcsin rho / 4 pi)
            * sum_j w_j exp((s_j hk - (h^2 + k^2)/2) / (1 - s_j^2)),

    with s_j = sin(arcsin(rho) t_j / 2) on the 6-, 12- or 20-point rule
    (t_j, w_j) on [0, 2] for |rho| below 0.3, 0.75 and 0.925. From 0.925 up
    it is Genz's expansion about |rho| = 1 with a 20-point correction.
    Each element's nodes are summed on their own in a fixed order, in
    blocks of ``_BVN_BLOCK`` elements, so that a value does not depend on
    the array it arrives in. Conventions: the form is evaluated at
    (min(x, y), max(x, y)), clipped to +-``SATURATION``, so the value
    is symmetric in its arguments to the last bit; the sign of a zero does
    not change it; the origin is 1/4 + arcsin(rho) / 2pi exactly. rho in
    {0, +-1} is exact. On |h|, |k| <= 8 in every band, the values lie
    within 5e-16 of a 30-digit arcsine integral (tests/test_numerics.py).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    rho = float(rho)
    h, k = np.minimum(x, y), np.maximum(x, y)  # NaN propagates into both
    shape = h.shape
    # h and k are numpy scalars when x and y are.
    lo, hi = (h, k) if not shape else (h.min(initial=0.0), k.max(initial=0.0))
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(rho)):
        raise DomainError("bvn_cdf requires finite arguments")
    if abs(rho) > 1.0:
        raise DomainError(f"correlation must satisfy |rho| <= 1, got {rho}")
    if rho == 1.0:
        p = ndtr(h)
    elif rho == -1.0:
        p = np.maximum(ndtr(h) + ndtr(k) - 1.0, 0.0)
    elif rho == 0.0:
        p = ndtr(h) * ndtr(k)
    else:
        if lo < -SATURATION or hi > SATURATION:
            h = np.clip(h, -SATURATION, SATURATION)
            k = np.clip(k, -SATURATION, SATURATION)
        block = _bvn_arcsine(rho) if abs(rho) < 0.925 else _bvn_near_one(rho)
        if len(shape) <= 1 and h.size <= _BVN_BLOCK:
            p = block(h, k)
        else:
            h, k, p = h.ravel(), k.ravel(), np.empty(h.size)
            for i in range(0, h.size, _BVN_BLOCK):
                p[i:i + _BVN_BLOCK] = block(h[i:i + _BVN_BLOCK], k[i:i + _BVN_BLOCK])
        # [()] turns a 0-d result into a scalar, which clamps without reductions.
        p = clamp_probability(p.reshape(shape)[()])
    return p if shape else float(p)


def _fold(z: np.ndarray) -> np.ndarray:
    """The sum over the first axis of ``z``, taken by halves: row i + len/2
    onto row i, and an odd last row onto row 0. Every element is summed in
    the same order, whatever the other axes. Overwrites ``z``."""
    n = len(z)
    while n > 1:
        half = n // 2
        top = z[:half]
        top += z[half:2 * half]
        if n % 2:
            first = top[0]
            first += z[n - 1]
        z, n = top, half
    return z[0]


def _genz_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``order``-point Legendre rule as Genz shifts it onto [0, 2]:
    nodes 1 - x for each positive node x, then 1 + x, and their weights."""
    x, w = (np.array(v) for v in _LEGENDRE_HALVES[order])
    return np.concatenate((1.0 - x, 1.0 + x)), np.concatenate((w, w))


@lru_cache(maxsize=16)
def _bvn_arcsine(rho: float):
    """Block kernel of Phi_rho(h, k) for 0 < |rho| < 0.925 (``bvn_cdf``).

    Row j of its (nodes x elements) array is node j for every element. At
    h = k = 0 every exponential is 1 and the weights fold to exactly 2, so
    the value is the origin's 1/4 + arcsin(rho) / 2pi to the last bit."""
    t, w = _genz_rule(next(order for bound, order in _GENZ_BANDS if abs(rho) < bound))
    half = 0.5 * math.asin(rho)
    s = np.sin(half * t)
    # (s hk - (h^2 + k^2)/2) / (1 - s^2), taken as (2 s hk - (h^2 + k^2)) r.
    s2, r = (2.0 * s)[:, None], (0.5 / ((1.0 - s) * (1.0 + s)))[:, None]
    w, scale = w[:, None], half / (2.0 * math.pi)

    def block(h, k):
        z = s2 * (h * k)
        z -= h * h + k * k
        z *= r
        np.exp(z, out=z)
        z *= w
        return ndtr(h) * ndtr(k) + scale * _fold(z)

    return block


@lru_cache(maxsize=16)
def _bvn_near_one(rho: float):
    """Block kernel of Phi_rho(h, k) for 0.925 <= |rho| < 1: Genz's BVNU
    (after Drezner and Wesolowsky's expansion about |rho| = 1) at the upper
    limits (-h, -k), whose second limit changes sign when rho < 0, on the
    20-point rule and with Genz's cut-offs at exponents below -100."""
    t, w = _genz_rule(20)
    origin = 0.25 + math.asin(rho) / (2.0 * math.pi)
    sq = (1.0 - rho) * (1.0 + rho)
    a = math.sqrt(sq)
    xs = np.square(0.5 * a * t)
    rs = np.sqrt(1.0 - xs)
    q = 0.5 * xs / np.square(1.0 + rs)
    xs, rs, q, w = xs[:, None], rs[:, None], q[:, None], (0.5 * a * w)[:, None]

    def block(h, k):
        hk = h * k if rho > 0.0 else -(h * k)
        bs = np.square(k - h) if rho > 0.0 else np.square(h + k)
        c, d = (4.0 - hk) / 8.0, (12.0 - hk) / 80.0
        asr = -0.5 * (bs / sq + hk)
        bvn = np.where(asr > -100.0, a * np.exp(asr) * (
            1.0 - c * (bs - sq) * (1.0 - d * bs) / 3.0 + c * d * sq * sq), 0.0)
        b = np.sqrt(bs)
        tail = (np.exp(-0.5 * np.maximum(hk, -100.0)) * _SQRT_TWO_PI * ndtr(-b / a) * b
                * (1.0 - c * bs * (1.0 - d * bs) / 3.0))
        bvn -= np.where(hk > -100.0, tail, 0.0)
        # The 20 nodes, in place on two block arrays: w exp(asr) (sp - ep), with
        # asr = -(bs/xs + hk)/2, sp = 1 + c xs (1 + 5 d xs) and
        # ep = exp(-hk xs / (2 (1 + rs)^2)) / rs; a term is 0 where asr <= -100.
        z = d * xs
        z *= 5.0
        z += 1.0
        z *= c
        z *= xs
        z += 1.0
        ep = -hk * q
        np.exp(ep, out=ep)
        ep /= rs
        z -= ep
        asr = np.divide(bs, xs, out=ep)
        asr += hk
        asr *= -0.5
        asr[asr <= -100.0] = -np.inf
        z *= np.exp(asr, out=asr)
        z *= w
        bvn = (_fold(z) - bvn) / (2.0 * math.pi)
        if rho > 0.0:
            p = bvn + ndtr(h)
        else:  # the mass of the upper limits (-h, k), when -h < k, less bvn
            gap = np.where(h > 0.0, ndtr(k) - ndtr(-h), ndtr(h) - ndtr(-k))
            p = np.where(h + k > 0.0, gap - bvn, -bvn)
        return np.where((h == 0.0) & (k == 0.0), origin, p)

    return block
