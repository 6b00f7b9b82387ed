"""Closed-form finite-n expected sensitivity and its large-n limits.

These are the analytic oracles the Monte Carlo engine is validated against.
Every expectation is evaluated by Gaussian quadrature on rules from
``aesf.models``, or through the bivariate normal CDF where an inner
integral has a closed form; nothing here is stochastic, and unsupported
(functional, model) pairs raise instead of silently approximating.

``aesf_many`` evaluates the AESF at many points at once and ``aesf`` is its
one-point case. Each term is either elementwise over the points or one
``x_expectations`` call over the whole request.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, NumericsError, UnsupportedError
from .estimators import FunctionalId, _g_values, as_functional, dense_ranks, phi_derivative
from .models import (
    AdditiveNoise,
    BivariateGaussian,
    FEATURE_HALF_WIDTH,
    IndependentProduct,
    Model,
    UniformMax,
    UnivariateNormal,
    Y_PRIME_HALF_WIDTH,
    _count,
    conditional_survival,
    is_bivariate,
    x_expectation_rule,
    x_expectations,
)
from .numerics import DEFAULT_ORDER, SATURATION, bvn_cdf, ndtr, normal_cdf

__all__ = ["AesfRequest", "esf_exact", "aesf", "aesf_many", "population_value",
           "is_supported"]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class AesfRequest:
    """A (functional, model, point) triple for closed-form evaluation."""

    functional: FunctionalId
    model: Model
    point: object

    def __post_init__(self):
        object.__setattr__(self, "functional", as_functional(self.functional))


_AESF_SUPPORT = {
    "mean": (UnivariateNormal, UniformMax),
    "variance": (UnivariateNormal, UniformMax),
    "uniform_max": (UniformMax,),
    "kendall": (BivariateGaussian, AdditiveNoise),
    "spearman": (BivariateGaussian, IndependentProduct),
    "chatterjee": (BivariateGaussian, AdditiveNoise, IndependentProduct),
    "phi_linear": (UnivariateNormal,),
}


def is_supported(f, model: Model) -> bool:
    f = as_functional(f)
    return isinstance(model, _AESF_SUPPORT.get(f.tag, ()))


def _require_supported(f: FunctionalId, model: Model) -> None:
    if not is_supported(f, model):
        raise UnsupportedError(
            f"no closed form for functional {f.tag!r} under {type(model).__name__}")


def _as_points(f: FunctionalId, model: Model, points) -> np.ndarray:
    """``points`` as floats of shape (P, 2) for a rank correlation or (P,)
    for a scalar functional, every coordinate finite, and for the uniform
    maximum in its model's support [0, theta]."""
    try:
        points = np.asarray(points, dtype=float)
    except (TypeError, ValueError):
        raise DomainError("evaluation points must be numbers") from None
    tail = (2,) if f.is_bivariate else ()
    if points.shape == (0,):
        points = points.reshape((0,) + tail)
    if points.ndim != 1 + len(tail) or points.shape[1:] != tail:
        raise DomainError(
            f"{f.tag} takes (x, y) evaluation points, an array of shape (P, 2)"
            if f.is_bivariate else
            f"{f.tag} takes scalar evaluation points, an array of shape (P,)")
    if not np.isfinite(points).all():
        finite = np.isfinite(points).all(axis=tuple(range(1, points.ndim)))
        raise DomainError(f"evaluation point must be finite, got {points[~finite][0].tolist()}")
    if f.tag == "uniform_max":
        outside = (points < 0.0) | (points > model.theta)
        if outside.any():
            raise DomainError(f"x must lie in [0, {model.theta}], got {points[outside][0]}")
    return points


def _saturate(z: np.ndarray) -> np.ndarray:
    # bvn_cdf rejects the infinity that a far-out point's g(x) can overflow to.
    return np.clip(z, -SATURATION, SATURATION)


def _square(v: float, what: str, model: Model) -> float:
    try:
        return v ** 2
    except OverflowError:
        raise NumericsError(f"{what} of {model} is beyond the float range") from None


def _mean_var(model: Model) -> tuple[float, float]:
    """Mean and variance of a univariate model, loc + scale * V for V from its law."""
    mean, sd = model.law.moments()
    return model.loc + model.scale * mean, _square(model.scale * sd, "the variance", model)


# ---------------------------------------------------------------------------
# Exact finite-n expected sensitivity
# ---------------------------------------------------------------------------

def esf_exact(f, model: Model, point, n: int) -> float:
    """Exact ESF at sample size n for mean, variance and uniform-max.

    mean:        x - mu                                   (no n dependence)
    variance:    n/(n+1) (x^2 - 2 x mu + mu^2)
                 - (n^2 - n - 1)/(n (n+1)) sigma^2
    uniform-max: x (x / theta)^n on 0 <= x <= theta
    """
    f = as_functional(f)
    if f.tag not in ("mean", "variance", "uniform_max"):
        raise UnsupportedError(f"no exact finite-n ESF for functional {f.tag!r}")
    n = _count(n, "sample size", 1)
    _require_supported(f, model)
    x = float(_as_points(f, model, [point])[0])
    if f.tag == "mean":
        return x - _mean_var(model)[0]
    if f.tag == "variance":
        mu, var = _mean_var(model)
        a = n / (n + 1.0)
        return a * x * x - 2.0 * a * x * mu + a * mu * mu \
            - (n * n - n - 1.0) / (n * (n + 1.0)) * var
    return x * (x / model.theta) ** n  # uniform_max


# ---------------------------------------------------------------------------
# Kendall
# ---------------------------------------------------------------------------

def _aesf_kendall_gaussian(rho: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # 4 P[(X-x)(Y-y) > 0] - 2 - 2 tau with the quadrant probability written
    # through the bivariate normal CDF. The limit of the expected sensitivity
    # carries twice the population correlation: the estimator is a U-statistic
    # over pairs, so the grown-sample average sheds two pair-kernels' worth of
    # tau per inserted point (Monte Carlo runs pin this factor; see the
    # exact-identity tests).
    return (8.0 * bvn_cdf(x, y, rho)
            - 4.0 * normal_cdf(x) - 4.0 * normal_cdf(y)
            + 2.0 - (4.0 / math.pi) * math.asin(rho))


def _quadrant_probabilities(model: AdditiveNoise, xs: np.ndarray, ys: np.ndarray,
                            order: int) -> np.ndarray:
    """P[(X - x)(Y - y) > 0] = P(X > x, Y > y) + P(X < x, Y < y) at each (x, y),
    on x rules resolving y and split at x."""
    def kernel(nodes, i):
        surv = conditional_survival(model, ys[i], nodes)
        return np.where(nodes > xs[i], surv, 1.0 - surv)

    return x_expectations(model, kernel, ys, cuts=xs, order=order)


@lru_cache(maxsize=128)
def _tau_additive(model: AdditiveNoise, order: int) -> float:
    """Population Kendall correlation by double quadrature.

    tau = 2 * E[ 1(X > X') (2 Phi((g(X) - g(X')) / (sqrt(2) sigma)) - 1) ],
    using that Y - Y' given (X, X') is N(g(X) - g(X'), 2 sigma^2).
    """
    outer_nodes, outer_weights = x_expectation_rule(model, order=order)
    g_outer = model.link(outer_nodes)

    def kernel(x, i):
        # Inner rule i is split at its outer node t and counts only x < t.
        diff = 2.0 * ndtr((g_outer[i] - model.link(x)) / (_SQRT2 * model.noise_sigma)) - 1.0
        return np.where(x < outer_nodes[i], diff, 0.0)

    inner = x_expectations(model, kernel, g_outer, cuts=outer_nodes, order=order,
                           half_width=FEATURE_HALF_WIDTH * _SQRT2)
    return 2.0 * float(outer_weights @ inner)


# ---------------------------------------------------------------------------
# Spearman
# ---------------------------------------------------------------------------

def _aesf_spearman_gaussian(rho: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # The cross term E[Phi(T) Phi((rho T - c) / sqrt(1 - rho^2))], T ~ N(0, 1),
    # at c = x and at c = y is Phi_2(0, -c; rho / sqrt 2) (notes/decisions.md),
    # taken once per distinct coordinate.
    cross_x, cross_y = (bvn_cdf(0.0, -levels, rho / _SQRT2)[index]
                        for levels, index in map(dense_ranks, (x, y)))
    return (12.0 * normal_cdf(x) * normal_cdf(y)
            + 12.0 * (cross_y + cross_x)
            - (18.0 / math.pi) * math.asin(0.5 * rho) - 9.0)


def _aesf_spearman_independent(model: IndependentProduct, x: np.ndarray,
                               y: np.ndarray) -> np.ndarray:
    # Under independence both mean ranks E[F_X(X)] and E[F_Y(Y)] are 1/2 and
    # the population Spearman correlation is 0 (Croux and Dehon 2010).
    # + 0.0: a vanishing factor gives +0.0, never -0.0, which prints as "-0".
    return 3.0 * (2.0 * model.x_law.cdf(x) - 1.0) * (2.0 * model.y_law.cdf(y) - 1.0) + 0.0


# ---------------------------------------------------------------------------
# Chatterjee: four conditional-survival terms
# ---------------------------------------------------------------------------

def _level_square_means(model: Model, ts, order: int) -> np.ndarray:
    """E_X[P(Y > t | X)^2] at each t (the term t2), with t-refined x rules."""
    ts = np.asarray(ts, dtype=float)
    levels = ts.ravel()
    kernel = lambda x, i: np.square(conditional_survival(model, levels[i], x))
    return x_expectations(model, kernel, levels, order=order).reshape(ts.shape)


@lru_cache(maxsize=128)
def _chatterjee_shared_term(model: Model, order: int) -> float:
    """Point-free t1 = E_{Y'} E_X[P(Y > Y' | X)^2] of a model with a link,
    as E_X[t3(X)] on the panelled x rule (notes/decisions.md)."""
    nodes, weights = x_expectation_rule(model, order=order)
    return float(weights @ _survival_square_means(model, nodes, order))


def _survival_square_means(model: Model, xs: np.ndarray, order: int) -> np.ndarray:
    """E_{Y'}[P(Y > Y' | X = x)^2] at each x, for Y' = g(X') + sigma Z': the
    term t3 of the Chatterjee AESF, and over an x rule the shared term t1.

    Given X', the mean over Z' is E[Phi(A - Z')^2] = Phi_2(a, a; 1/2) with
    a = A / sqrt 2 and A = (g(x) - g(X')) / sigma (notes/decisions.md), so
    only the outer X' rule is quadrature.
    """
    gx = model.link(xs)
    scale = _SQRT2 * model.noise_sigma

    def kernel(nodes, i):
        a = _saturate((gx[i] - model.link(nodes)) / scale)
        return bvn_cdf(a, a, 0.5)

    return x_expectations(model, kernel, gx, order=order, half_width=Y_PRIME_HALF_WIDTH)


def _truncated_survival_means(model: Model, xs: np.ndarray, ys: np.ndarray,
                              order: int) -> np.ndarray:
    """E_{Y'}[P(Y > Y' | X = x) 1(Y' < y)] at each (x, y), for Y' = g(X') + sigma Z'.

    Given X', the integral of Phi(A - z) phi(z) over z < zeta = (y - g(X')) /
    sigma is Phi_2(zeta, a; 1/sqrt 2), with A and a as in
    ``_survival_square_means``.
    """
    gx = model.link(xs)
    sigma = model.noise_sigma

    def kernel(nodes, i):
        g = model.link(nodes)
        zeta = _saturate((ys[i] - g) / sigma)
        a = _saturate((gx[i] - g) / (_SQRT2 * sigma))
        return bvn_cdf(zeta, a, math.sqrt(0.5))

    return x_expectations(model, kernel, np.column_stack((gx, ys)), order=order,
                          half_width=Y_PRIME_HALF_WIDTH)


def _aesf_chatterjee(model: Model, x: np.ndarray, y: np.ndarray, order: int) -> np.ndarray:
    if model.link is None:
        # Y independent of X: t1 = t3 = 1/3, t2 = S(y)^2, t4 = (1 - S(y)^2) / 2 cancel.
        return np.zeros(len(x))
    t1 = _chatterjee_shared_term(model, order)
    t2 = _level_square_means(model, y, order)
    t3 = _survival_square_means(model, x, order)
    t4 = _truncated_survival_means(model, x, y, order)
    return -12.0 * t1 + 6.0 * t2 - 6.0 * t3 + 12.0 * t4


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def aesf_many(f, model: Model, points, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Asymptotic expected sensitivity at each of many evaluation points.

    ``points`` has shape (P, 2) for the rank correlations and (P,) for the
    scalar functionals; the result has shape (P,). Every term is either
    elementwise over the points (``bvn_cdf`` works through them in blocks
    of ``_BVN_BLOCK``) or one ``x_expectations`` call over the whole
    request, which builds and sums each distinct rule once, in batches of
    at most ``_CHUNK_PANELS`` panels. Each value is computed on its own, so
    it does not depend on the other points of the request.
    """
    f = as_functional(f)
    _require_supported(f, model)
    points = _as_points(f, model, points)

    if f.tag in ("mean", "variance"):
        mu, var = _mean_var(model)
        return points - mu if f.tag == "mean" else (points - mu) ** 2 - var

    if f.tag == "uniform_max":
        return np.where(points == model.theta, model.theta, 0.0)

    if f.tag == "phi_linear":
        mu, var = _mean_var(model)
        eg = mu if f.g == "identity" else _square(mu, "the squared mean", model) + var
        return (_g_values(f.g, points) - eg) * phi_derivative(f.phi, eg)

    x, y = points[:, 0], points[:, 1]

    if f.tag == "kendall":
        if isinstance(model, BivariateGaussian):
            return _aesf_kendall_gaussian(model.rho, x, y)
        p = _quadrant_probabilities(model, x, y, order)
        return 4.0 * p - 2.0 - 2.0 * _tau_additive(model, order)

    if f.tag == "spearman":
        if isinstance(model, BivariateGaussian):
            return _aesf_spearman_gaussian(model.rho, x, y)
        return _aesf_spearman_independent(model, x, y)

    return _aesf_chatterjee(model, x, y, order)


def aesf(request: AesfRequest, order: int = DEFAULT_ORDER) -> float:
    """Asymptotic expected sensitivity at the request's evaluation point; the
    one-point case of ``aesf_many``."""
    return float(aesf_many(request.functional, request.model, [request.point], order)[0])


def population_value(f, model: Model, order: int = DEFAULT_ORDER) -> float:
    """Population value of a rank correlation under the given model."""
    f = as_functional(f)
    if f.tag not in ("kendall", "spearman", "chatterjee"):
        raise UnsupportedError(f"no population value for functional {f.tag!r}")
    if is_bivariate(model):
        if model.link is None:  # Y does not depend on X
            return 0.0
        if f.tag == "chatterjee":
            # xi = (t1 - 1/3) / E[F_Y(Y) (1 - F_Y(Y))], and that mean is 1/6 for continuous Y.
            return 6.0 * _chatterjee_shared_term(model, order) - 2.0
        if isinstance(model, BivariateGaussian):
            return (2.0 / math.pi) * math.asin(model.rho) if f.tag == "kendall" \
                else (6.0 / math.pi) * math.asin(0.5 * model.rho)
        if f.tag == "kendall":
            return _tau_additive(model, order)
    raise UnsupportedError(
        f"no population value for {f.tag!r} under {type(model).__name__}")
