"""Closed-form finite-n expected sensitivity and its large-n limits.

These are the analytic oracles the Monte Carlo engine is validated against.
Every expectation is evaluated by Gaussian quadrature on rules from
``aesf.models``, or through the bivariate normal CDF where an inner
integral has a closed form; nothing here is stochastic, and unsupported
(functional, model) pairs raise instead of silently approximating.

``aesf_many`` evaluates the AESF at many points at once and ``aesf`` is its
one-point case. Terms that depend on one coordinate of the point only are
computed once per distinct value of that coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, UnsupportedError
from .estimators import FunctionalId, _g_values, as_functional, phi_derivative
from .models import (
    AdditiveNoise,
    BivariateGaussian,
    FEATURE_HALF_WIDTH,
    IndependentProduct,
    Model,
    UniformMax,
    UnivariateNormal,
    Y_PRIME_HALF_WIDTH,
    conditional_survival,
    expect_y_prime,
    marginal_cdf_x,
    marginal_cdf_y,
    plain_law_rule,
    x_expectation_rule,
    x_expectations,
)
from .numerics import bvn_cdf, hermite_rule, ndtr, normal_cdf

__all__ = ["AesfRequest", "esf_exact", "aesf", "aesf_many", "population_value",
           "is_supported"]

#: Most evaluation points that ``aesf_many`` evaluates at once, which bounds
#: its working memory whatever the number of points.
_CHUNK_POINTS = 1024

#: |z| beyond which Phi(z) and the bivariate normal CDF at z are saturated in
#: double precision (Phi(-40) underflows to 0). Arguments are clipped to it,
#: so that a far-out evaluation point cannot overflow to infinity.
_SATURATION = 40.0

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


def _scalar_point(point) -> float:
    if np.ndim(point) != 0:
        raise DomainError("this functional takes a scalar evaluation point")
    x = float(point)
    if not math.isfinite(x):
        raise DomainError(f"evaluation point must be finite, got {x}")
    return x


def _as_points(f: FunctionalId, points) -> np.ndarray:
    """``points`` as floats of shape (P, 2) for a rank correlation or (P,)
    for a scalar functional, every coordinate finite."""
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
    finite = np.isfinite(points).all(axis=tuple(range(1, points.ndim)))
    if not finite.all():
        raise DomainError(f"evaluation point must be finite, got {points[~finite][0].tolist()}")
    return points


def _per_distinct(values: np.ndarray, fn) -> np.ndarray:
    """``fn`` evaluated once per distinct entry of ``values``, at every entry."""
    distinct, index = np.unique(values, return_inverse=True)
    return fn(distinct)[index]


def _saturate(z: np.ndarray) -> np.ndarray:
    return np.clip(z, -_SATURATION, _SATURATION)


def _mean_var(model: Model) -> tuple[float, float]:
    """Mean and variance of a univariate model, loc + scale * V for V from its law."""
    mean, sd = model.law.moments()
    return model.loc + model.scale * mean, (model.scale * sd) ** 2


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
    if n < 1:
        raise DomainError("sample size must be >= 1")
    x = _scalar_point(point)
    _require_supported(f, model)
    if f.tag == "mean":
        mu, _ = _mean_var(model)
        return x - mu
    if f.tag == "variance":
        mu, var = _mean_var(model)
        a = n / (n + 1.0)
        return a * x * x - 2.0 * a * x * mu + a * mu * mu \
            - (n * n - n - 1.0) / (n * (n + 1.0)) * var
    # uniform_max
    if not 0.0 <= x <= model.theta:
        raise DomainError(f"x must lie in [0, {model.theta}], got {x}")
    return x * (x / model.theta) ** n


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

def _aesf_spearman_gaussian(rho: float, x: np.ndarray, y: np.ndarray,
                            order: int) -> np.ndarray:
    t, w = hermite_rule(order)
    scale = math.sqrt(1.0 - rho * rho)

    def cross(levels):
        # E[Phi(T) Phi((rho T - c) / scale)] for T ~ N(0, 1), one row per level c;
        # row sums, so that a level's value does not depend on the others.
        return (ndtr(t) * ndtr((rho * t - levels[:, None]) / scale) * w).sum(axis=-1)

    cross_y, cross_x = _per_distinct(y, cross), _per_distinct(x, cross)
    return (12.0 * normal_cdf(x) * normal_cdf(y)
            + 12.0 * (cross_y + cross_x)
            - (18.0 / math.pi) * math.asin(0.5 * rho) - 9.0)


def _aesf_spearman_independent(model: IndependentProduct, x: np.ndarray, y: np.ndarray,
                               order: int) -> np.ndarray:
    # E[F_X(X) 1(Y >= y)] factorizes as E[F_X(X)] P(Y >= y) under independence;
    # the two mean ranks are evaluated by quadrature rather than assumed 1/2.
    fx, fy = marginal_cdf_x(model, x), model.y_law.cdf(y)
    xn, xw = plain_law_rule(model.x_law, order)
    yn, yw = plain_law_rule(model.y_law, order)
    mean_fx = float(xw @ model.x_law.cdf(xn))
    mean_fy = float(yw @ model.y_law.cdf(yn))
    return (12.0 * fx * fy
            + 12.0 * mean_fx * (1.0 - fy)
            + 12.0 * mean_fy * (1.0 - fx)
            - 9.0)  # population Spearman correlation is 0 under independence


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
    t2 = _per_distinct(y, lambda ys: _level_square_means(model, ys, order))
    t3 = _per_distinct(x, lambda xs: _survival_square_means(model, xs, order))
    t4 = _truncated_survival_means(model, x, y, order)
    return -12.0 * t1 + 6.0 * t2 - 6.0 * t3 + 12.0 * t4


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def aesf_many(f, model: Model, points, order: int = 64) -> np.ndarray:
    """Asymptotic expected sensitivity at each of many evaluation points.

    ``points`` has shape (P, 2) for the rank correlations and (P,) for the
    scalar functionals; the result has shape (P,). Points go through in
    chunks of at most ``_CHUNK_POINTS``, and each value is computed on its
    own, so it does not depend on the other points or on the chunking.
    """
    f = as_functional(f)
    _require_supported(f, model)
    points = _as_points(f, points)
    values = np.empty(len(points))
    for start in range(0, len(points), _CHUNK_POINTS):
        part = slice(start, start + _CHUNK_POINTS)
        values[part] = _aesf_chunk(f, model, points[part], order)
    return values


def _aesf_chunk(f: FunctionalId, model: Model, points: np.ndarray, order: int):
    if f.tag in ("mean", "variance"):
        mu, var = _mean_var(model)
        return points - mu if f.tag == "mean" else (points - mu) ** 2 - var

    if f.tag == "uniform_max":
        theta = model.theta
        outside = (points < 0.0) | (points > theta)
        if outside.any():
            raise DomainError(f"x must lie in [0, {theta}], got {points[outside][0]}")
        return np.where(points == theta, theta, 0.0)

    if f.tag == "phi_linear":
        mu, var = _mean_var(model)
        eg = mu if f.g == "identity" else mu ** 2 + var  # E[g(X)]
        return (_g_values(f.g, points) - eg) * phi_derivative(f.phi, eg)

    x, y = points[:, 0], points[:, 1]

    if f.tag == "kendall":
        if isinstance(model, BivariateGaussian):
            return _aesf_kendall_gaussian(model.rho, x, y)
        p = _quadrant_probabilities(model, x, y, order)
        return 4.0 * p - 2.0 - 2.0 * _tau_additive(model, order)

    if f.tag == "spearman":
        if isinstance(model, BivariateGaussian):
            return _aesf_spearman_gaussian(model.rho, x, y, order)
        return _aesf_spearman_independent(model, x, y, order)

    return _aesf_chatterjee(model, x, y, order)


def aesf(request: AesfRequest, order: int = 64) -> float:
    """Asymptotic expected sensitivity at the request's evaluation point; the
    one-point case of ``aesf_many``."""
    return float(aesf_many(request.functional, request.model, [request.point], order)[0])


@lru_cache(maxsize=128)
def _xi_dss(model: Model, order: int) -> float:
    """Rank-correlation limit as a ratio of variance integrals.

    numerator:   E_{Y'}[ Var_X(P(Y > Y' | X)) ] = t1 - 1/3, as E_X P(Y > Y' | X)
                 = 1 - F_Y(Y') is uniform for continuous Y (notes/decisions.md)
    denominator: E_{Y'}[ F_Y(Y') (1 - F_Y(Y')) ], by quadrature (exactly 1/6)
    """
    def den(ts):
        cdf = marginal_cdf_y(model, ts, order)
        return cdf * (1.0 - cdf)

    num = _chatterjee_shared_term(model, order) - 1.0 / 3.0
    return num / expect_y_prime(model, den, order=order)


def population_value(f, model: Model, order: int = 64) -> float:
    """Population value of a rank correlation under the given model."""
    f = as_functional(f)
    if f.tag not in ("kendall", "spearman", "chatterjee"):
        raise UnsupportedError(f"no population value for functional {f.tag!r}")
    if isinstance(model, IndependentProduct):
        return 0.0
    if f.tag == "kendall":
        if isinstance(model, BivariateGaussian):
            return (2.0 / math.pi) * math.asin(model.rho)
        if isinstance(model, AdditiveNoise):
            return _tau_additive(model, order)
    if f.tag == "spearman" and isinstance(model, BivariateGaussian):
        return (6.0 / math.pi) * math.asin(0.5 * model.rho)
    if f.tag == "chatterjee" and isinstance(model, (BivariateGaussian, AdditiveNoise)):
        return _xi_dss(model, order)
    raise UnsupportedError(
        f"no population value for {f.tag!r} under {type(model).__name__}")
