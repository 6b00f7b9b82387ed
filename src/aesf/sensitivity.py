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
ranked again. A replicate whose sample or insertion ties is drawn again
from the stream of ``derive_seeds(seed, r, attempt)`` at attempt 1, 2, ...,
with the batch's other tied replicates, until it does not tie. Every value
is the float that ``sf`` gives on ``sample(model, n, derive_seed(seed, r,
attempt))`` at the replicate's first attempt without a ``TieError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import closedform
from .errors import AesfError, DomainError, NumericsError, TieError, UnsupportedError
from .estimators import (Dataset, FunctionalId, as_functional, estimate, estimate_rows,
                         rank_from_sum, sum_of_ranks, y_ranks_in_x_order)
from .models import (Model, _count, _draw, _raw_words, derive_seeds, is_bivariate,
                     sample_batches)

__all__ = [
    "McEstimate",
    "ConvergenceCurve",
    "sf",
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


def _check_model_functional(f: FunctionalId, model: Model) -> None:
    if f.is_bivariate != is_bivariate(model):
        raise DomainError(
            f"functional {f.tag!r} is incompatible with model {type(model).__name__}")


def _replicate_values(f: FunctionalId, model: Model, n: int, point,
                      replicates: int, seed: int) -> tuple[np.ndarray, int]:
    """The SF of replicates r = 0 .. replicates - 1, computed in batches, and
    the number of tie resamples; NumericsError if an SF is not finite."""
    replicates = _count(replicates, "replicate count", 2)
    n = _count(n, "sample size", 1)
    values = np.empty(replicates)
    resamples = 0
    for start, xs, ys in sample_batches(model, n, seed, replicates):
        rows = slice(start, start + len(xs))
        if not f.is_bivariate:
            # sf's arithmetic on every row: (n + 1) * (grown - base). A
            # maximum grows exactly to max(base, point); a mean of the grown
            # row could round otherwise if its sum were grown from the row's.
            base = estimate_rows(f, xs)
            if f.tag == "uniform_max":
                grown = np.maximum(base, point)
            else:
                grown = estimate_rows(
                    f, np.concatenate((xs, np.full((len(xs), 1), point)), axis=1))
            values[rows] = (n + 1) * (grown - base)
            continue
        values[rows], tied = _rank_sf_rows(f.tag, xs, ys, point)
        tied = start + np.flatnonzero(tied)
        for attempt in range(1, _MAX_TIE_RESAMPLES):
            if not tied.size:
                break
            resamples += tied.size
            xs, ys = _draw(model, derive_seeds(seed, tied, attempt), n, _raw_words)
            values[tied], still = _rank_sf_rows(f.tag, xs, ys, point)
            tied = tied[still]
        if tied.size:
            raise AesfError(f"replicate {tied[0]} kept producing ties after "
                            f"{_MAX_TIE_RESAMPLES} resamples")
    if not np.isfinite(values).all():
        r = int(np.argmin(np.isfinite(values)))
        raise NumericsError(f"replicate {r} has a non-finite SF, {values[r]}")
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
    schedule = tuple(_count(s, "sample size", 1) for s in schedule)
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
