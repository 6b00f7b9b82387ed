"""Add-one-point sensitivity and its Monte Carlo expectation at finite n.

The reference semantics of ``sf`` is full re-evaluation of the estimator on
the grown sample; any incremental shortcut lives beside it and is gated by
exact-agreement tests. Monte Carlo expectations are deterministic functions
of their inputs: replicate r draws from a stream derived from (seed, r),
and replicates are aggregated in index order.

Replicates run in batches at attempt 0: ``models.sample_batches`` draws the
samples of many replicates as (rows, n) arrays, univariate functionals get
their SFs along the rows from ``estimate_rows``, and rank functionals from
exact integer sums along the rows (``_rank_sf_rows``): each sample is ranked
once, and the grown sample's sum is updated from the sample's ranks, not
ranked again. A replicate whose sample or insertion ties falls back to the
per-replicate path (``sample`` on ``derive_seed(seed, r, attempt)``) from
attempt 1 on. Every value is the float that the per-replicate loop over
``_replicate_sf`` gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import closedform
from .errors import AesfError, DomainError, TieError, UnsupportedError
from .estimators import (Dataset, FunctionalId, _raise_ties, as_functional, estimate,
                         estimate_rows, rank_from_sum, sum_of_ranks, y_ranks_in_x_order)
from .models import Model, derive_seed, is_bivariate, sample, sample_batches

__all__ = [
    "McEstimate",
    "ConvergenceCurve",
    "sf",
    "sf_kendall_incremental",
    "esf_mc",
    "convergence_study",
    "sf_distribution",
]

_MAX_TIE_RESAMPLES = 100


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean of SF replicates with its standard error."""

    value: float
    std_error: float
    replicates: int
    n: int
    seed: int
    tie_resamples: int = 0

    def __post_init__(self):
        if self.replicates < 2:
            raise DomainError("need at least 2 replicates for a standard error")
        if not (self.std_error >= 0.0):
            raise DomainError("std_error must be nonnegative")


@dataclass(frozen=True)
class ConvergenceCurve:
    """ESF estimates along an increasing sample-size schedule."""

    schedule: tuple[int, ...]
    estimates: tuple[McEstimate, ...]
    target: Optional[float] = None

    def __post_init__(self):
        if list(self.schedule) != sorted(set(self.schedule)):
            raise DomainError("schedule must be strictly increasing")
        if len(self.schedule) != len(self.estimates):
            raise DomainError("one estimate per schedule entry required")


def _check_point(f: FunctionalId, point):
    if f.is_bivariate:
        try:
            px, py = point
        except TypeError:
            raise DomainError(f"{f.tag} needs an (x, y) insertion point") from None
        point = (float(px), float(py))
        finite = math.isfinite(point[0]) and math.isfinite(point[1])
    elif np.ndim(point) != 0:
        raise DomainError(f"{f.tag} needs a scalar insertion point")
    else:
        point = float(point)
        finite = math.isfinite(point)
    if not finite:
        raise DomainError(f"insertion point must be finite, got {point}")
    return point


def _check_insertion(f: FunctionalId, ds: Dataset, point):
    point = _check_point(f, point)
    if f.is_bivariate:
        px, py = point
        if np.any(ds.xs == px):
            raise TieError(f"inserted x={px!r} duplicates an existing x value")
        if ds.ys is None:
            raise DomainError(f"{f.tag} requires paired (x, y) data")
        if np.any(ds.ys == py):
            raise TieError(f"inserted y={py!r} duplicates an existing y value")
    return point


def sf(f, ds: Dataset, point) -> float:
    """Scaled change (n+1) * [R(sample + point) - R(sample)].

    Computed by actually re-evaluating the estimator on the grown sample.
    For rank-based functionals an insertion that duplicates an existing
    coordinate raises ``TieError``.
    """
    f = as_functional(f)
    point = _check_insertion(f, ds, point)
    base = estimate(f, ds)
    grown = estimate(f, ds.insert(point))
    return (ds.n + 1) * (grown - base)


def _rank_sf_rows(tag: str, xs: np.ndarray, ys: np.ndarray,
                  point) -> tuple[np.ndarray, np.ndarray]:
    """``sf`` of a rank correlation on each row of (rows, n) ``xs`` and ``ys``,
    and a mask of the rows on which ``sf`` raises ``TieError`` (their values
    mean nothing).

    The sample is ranked once, and the grown sample's integer sum
    (``_grown_sums``) goes through the float expression the sample's goes
    through, so each value is the float ``sf`` gives.
    """
    px, py = point
    n = xs.shape[1]
    r, tied = y_ranks_in_x_order(xs, ys)
    tied |= np.any(xs == px, axis=1) | np.any(ys == py, axis=1)
    base = sum_of_ranks(tag, r)
    grown = _grown_sums(tag, xs, ys, r, base, point)
    return (n + 1) * (rank_from_sum(tag, grown, n + 1) - rank_from_sum(tag, base, n)), tied


def _grown_sums(tag: str, xs: np.ndarray, ys: np.ndarray, r: np.ndarray,
                base: np.ndarray, point) -> np.ndarray:
    """The integer sum of each row of (rows, n) ``xs`` and ``ys`` with
    ``point`` appended, from the row's y ranks in x order ``r`` and its sum
    ``base``, without ranking again.

    Kendall's is S_n + sum_i s_i(z), the sign s_i(z) of (X_i - x)(Y_i - y)
    taken by comparison, since the product can underflow to 0. Spearman's
    and Chatterjee's come by a rank shift (notes/decisions.md): the point
    lands at x position kx = #(X_i < x) with y rank ky = #(Y_i < y), so the
    grown y ranks in x order are s[:kx], ky, s[kx:] with s = r + (r >= ky).
    """
    px, py = point
    n = xs.shape[1]
    if tag == "kendall":
        return base + 2 * np.count_nonzero((xs > px) == (ys > py), axis=1) - n
    kx = np.count_nonzero(xs < px, axis=1)
    ky = np.count_nonzero(ys < py, axis=1)
    s = r + (r >= ky[:, None])
    if tag == "spearman":
        # s_i moves to position i + 1 from kx on.
        i = np.arange(n)
        d = s - i - (i >= kx[:, None])
        return (d * d).sum(axis=1) + (ky - kx) ** 2
    # The point splits the jump from s[kx - 1] to s[kx] in two. Clamped to
    # the row, left and right are equal at either end, where a half is missing.
    flat = s.ravel()
    starts = np.arange(0, s.size, n)
    left = flat[starts + np.maximum(kx - 1, 0)]
    right = flat[starts + np.minimum(kx, n - 1)]
    return (np.abs(np.diff(s, axis=1)).sum(axis=1) - np.abs(right - left)
            + (kx > 0) * np.abs(ky - left) + (kx < n) * np.abs(right - ky))


def sf_kendall_incremental(ds: Dataset, point) -> float:
    """Sensitivity of Kendall's correlation from one concordance sum.

    The one-row case of the batched Monte Carlo replicates: the grown
    sample's sum is updated by the n signs of the inserted point instead of
    being counted again. It equals ``sf("kendall", ds, point)`` bit for bit;
    tests enforce that.
    """
    f = FunctionalId("kendall")
    point = _check_insertion(f, ds, point)
    values, tied = _rank_sf_rows(f.tag, ds.xs[None], ds.ys[None], point)
    if tied[0]:
        _raise_ties(ds)
    return float(values[0])


def _check_model_functional(f: FunctionalId, model: Model) -> None:
    if f.is_bivariate != is_bivariate(model):
        raise DomainError(
            f"functional {f.tag!r} is incompatible with model {type(model).__name__}")


def _replicate_sf(f: FunctionalId, model: Model, n: int, point, seed: int,
                  r: int, first_attempt: int = 0) -> tuple[float, int]:
    """SF of replicate r; resamples with a fresh derived stream on a float tie."""
    for attempt in range(first_attempt, _MAX_TIE_RESAMPLES):
        ds = sample(model, n, derive_seed(seed, r, attempt))
        try:
            return sf(f, ds, point), attempt
        except TieError:
            continue
    raise AesfError(f"replicate {r} kept producing ties after "
                    f"{_MAX_TIE_RESAMPLES} resamples")


def _replicate_values(f: FunctionalId, model: Model, n: int, point,
                      replicates: int, seed: int) -> tuple[np.ndarray, int]:
    """``_replicate_sf`` for r = 0 .. replicates - 1, computed in batches."""
    if replicates < 2:
        raise DomainError("need at least 2 replicates")
    if n < 1:
        raise DomainError("sample size must be >= 1")
    values = np.empty(replicates)
    resamples = 0
    for start, xs, ys in sample_batches(model, n, seed, replicates):
        rows = slice(start, start + len(xs))
        if not f.is_bivariate:
            # sf's arithmetic on every row: (n + 1) * (grown - base).
            grown = np.concatenate((xs, np.full((len(xs), 1), point)), axis=1)
            values[rows] = (n + 1) * (estimate_rows(f, grown) - estimate_rows(f, xs))
            continue
        values[rows], tied = _rank_sf_rows(f.tag, xs, ys, point)
        for r in np.flatnonzero(tied).tolist():
            values[start + r], attempt = _replicate_sf(f, model, n, point, seed, start + r, 1)
            resamples += attempt
    return values, resamples


def esf_mc(f, model: Model, n: int, point, replicates: int, seed: int) -> McEstimate:
    """Expected sensitivity at sample size n, by seeded Monte Carlo.

    Averages ``sf`` over independent replicate samples; deterministic given
    all inputs. 100+ replicates are recommended for reported numbers.
    """
    f = as_functional(f)
    _check_model_functional(f, model)
    point = _check_point(f, point)
    values, resamples = _replicate_values(f, model, n, point, replicates, seed)
    value = float(np.mean(values))
    std_error = float(np.std(values, ddof=1) / math.sqrt(replicates))
    return McEstimate(value, std_error, replicates, n, int(seed), resamples)


def sf_distribution(f, model: Model, n: int, point, replicates: int,
                    seed: int) -> np.ndarray:
    """Raw SF replicate values (no averaging), for distributional checks."""
    f = as_functional(f)
    _check_model_functional(f, model)
    point = _check_point(f, point)
    values, _ = _replicate_values(f, model, n, point, replicates, seed)
    return values


def convergence_study(f, model: Model, point, schedule: Sequence[int],
                      replicates: int, seed: int) -> ConvergenceCurve:
    """ESF along a strictly increasing n schedule, with the closed-form
    limit attached as target when one is available for (f, model)."""
    f = as_functional(f)
    schedule = tuple(int(s) for s in schedule)
    if len(schedule) < 3:
        raise DomainError("schedule needs at least 3 sample sizes")
    if list(schedule) != sorted(set(schedule)):
        raise DomainError("schedule must be strictly increasing")
    estimates = tuple(
        esf_mc(f, model, n, point, replicates, seed) for n in schedule)
    try:
        target = closedform.aesf(closedform.AesfRequest(f, model, point))
    except (UnsupportedError, DomainError):
        target = None
    return ConvergenceCurve(schedule, estimates, target)
