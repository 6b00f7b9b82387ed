"""Plug-in estimators evaluated on a dataset.

All rank statistics assume continuous data: ties in x or in y raise
``TieError`` instead of being broken arbitrarily, since every downstream
sensitivity quantity is derived under a no-ties assumption.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, TieError

__all__ = [
    "Dataset",
    "FunctionalId",
    "estimate",
    "estimate_rows",
    "kendall_tau",
    "kendall_tau_quadratic",
    "spearman_s",
    "chatterjee_xi",
]

_UNIVARIATE_TAGS = frozenset({"mean", "variance", "uniform_max", "phi_linear"})
_BIVARIATE_TAGS = frozenset({"kendall", "spearman", "chatterjee"})
_G_NAMES = frozenset({"identity", "square"})
_PHI_NAMES = frozenset({"identity", "square", "sine"})


@dataclass(frozen=True)
class Dataset:
    """Paired observations; ``ys`` is absent for univariate samples."""

    xs: np.ndarray
    ys: Optional[np.ndarray] = None

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        xs.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        if xs.ndim != 1:
            raise DomainError("xs must be one-dimensional")
        if not np.all(np.isfinite(xs)):
            raise DomainError("xs contains NaN or infinite entries")
        if self.ys is not None:
            ys = np.asarray(self.ys, dtype=float)
            ys.setflags(write=False)
            object.__setattr__(self, "ys", ys)
            if ys.shape != xs.shape:
                raise DomainError("xs and ys must have equal length")
            if not np.all(np.isfinite(ys)):
                raise DomainError("ys contains NaN or infinite entries")

    @property
    def n(self) -> int:
        return int(self.xs.size)

    @property
    def is_bivariate(self) -> bool:
        return self.ys is not None

    def insert(self, point) -> "Dataset":
        """New dataset with one observation appended (no tie checking here)."""
        if self.is_bivariate:
            px, py = point
            return Dataset(np.append(self.xs, float(px)), np.append(self.ys, float(py)))
        return Dataset(np.append(self.xs, float(point)))


@dataclass(frozen=True)
class FunctionalId:
    """Which functional is under study.

    ``g`` and ``phi`` only matter for ``tag == "phi_linear"``, which computes
    ``phi(mean of g(x))`` for named maps whose derivative is known in closed
    form (identity -> 1, square -> 2z, sine -> cos z).
    """

    tag: str
    g: str = "identity"
    phi: str = "identity"

    def __post_init__(self):
        if self.tag not in _UNIVARIATE_TAGS | _BIVARIATE_TAGS:
            raise DomainError(f"unknown functional tag {self.tag!r}")
        if self.g not in _G_NAMES:
            raise DomainError(f"unknown inner map {self.g!r}")
        if self.phi not in _PHI_NAMES:
            raise DomainError(f"unknown outer map {self.phi!r}")

    @property
    def is_bivariate(self) -> bool:
        return self.tag in _BIVARIATE_TAGS


def as_functional(f) -> FunctionalId:
    """Accept a FunctionalId or a bare tag string."""
    if isinstance(f, FunctionalId):
        return f
    return FunctionalId(str(f))


def _g_values(name: str, xs: np.ndarray) -> np.ndarray:
    if name == "identity":
        return xs
    return xs * xs


def _phi_value(name: str, z):
    if name == "identity":
        return z
    if name == "square":
        return z * z
    # math.sin value by value: np.sin need not round as libm's sin does.
    return np.vectorize(math.sin, otypes=[float])(z)


def phi_derivative(name: str, z: float) -> float:
    if name == "identity":
        return 1.0
    if name == "square":
        return 2.0 * z
    return math.cos(z)


def _find_ties(values: np.ndarray, label: str) -> None:
    uniq, counts = np.unique(values, return_counts=True)
    dup = uniq[counts > 1]
    if dup.size:
        rows = np.flatnonzero(np.isin(values, dup))
        raise TieError(
            f"tied values in {label} at rows {', '.join(map(str, rows.tolist()))}",
            rows=tuple(int(r) for r in rows),
        )


def _require_rank_data(ds: Dataset) -> None:
    if not ds.is_bivariate:
        raise DomainError("rank correlation requires paired (x, y) data")
    if ds.n < 2:
        raise DomainError("rank correlation requires at least 2 observations")
    _find_ties(ds.xs, "x")
    _find_ties(ds.ys, "y")


def estimate(f, ds: Dataset) -> float:
    """Evaluate a functional's plug-in estimator on ``ds``."""
    f = as_functional(f)
    if ds.n == 0:
        raise DomainError("empty dataset")
    if f.is_bivariate:
        if not ds.is_bivariate:
            raise DomainError(f"{f.tag} requires paired (x, y) data")
        if f.tag == "kendall":
            return kendall_tau(ds)
        if f.tag == "spearman":
            return spearman_s(ds)
        return chatterjee_xi(ds)

    return float(estimate_rows(f, ds.xs))


def estimate_rows(f: FunctionalId, xs: np.ndarray):
    """Plug-in estimates of a univariate functional along the last axis of ``xs``.

    ``estimate`` is the one-row case: a row of a (rows, n) array gets the
    same float as the one-dimensional sample it holds.
    """
    if f.tag == "mean":
        return np.mean(xs, axis=-1)
    if f.tag == "variance":
        # Plug-in variance (denominator n, not n - 1).
        m = np.mean(xs, axis=-1)
        return np.mean(xs * xs, axis=-1) - m * m
    if f.tag == "uniform_max":
        return np.max(xs, axis=-1)
    # phi_linear
    return _phi_value(f.phi, np.mean(_g_values(f.g, xs), axis=-1))


# ---------------------------------------------------------------------------
# Kendall's correlation: two routes to the same concordance sum
# ---------------------------------------------------------------------------

def _count_inversions(a: np.ndarray) -> int:
    """Number of pairs i < j with a[i] > a[j], by bottom-up merge counting.

    Each level merges adjacent sorted blocks; a stable argsort of the
    concatenated pair tells, for every right-block element, how many
    left-block elements exceed it. +inf padding keeps block counts a power
    of two and contributes no inversions.
    """
    n = a.size
    if n < 2:
        return 0
    padded = 1 << (n - 1).bit_length()
    buf = np.full(padded, np.inf)
    buf[:n] = a
    arr = buf.reshape(-1, 1)
    total = 0
    width = 1
    while width < padded:
        merged = np.concatenate([arr[0::2], arr[1::2]], axis=1)
        order = np.argsort(merged, axis=1, kind="stable")
        from_left = order < width
        left_so_far = np.cumsum(from_left, axis=1)
        total += int(((width - left_so_far) * ~from_left).sum())
        arr = np.take_along_axis(merged, order, axis=1)
        width *= 2
    return total


def _tau_from_sum(s: int, n: int) -> float:
    return 2.0 * s / (n * (n - 1))


def concordance_sum_quadratic(xs: np.ndarray, ys: np.ndarray) -> int:
    """sum over i<j of sgn[(x_i - x_j)(y_i - y_j)], with sgn(0) = +1."""
    prod = (xs[:, None] - xs[None, :]) * (ys[:, None] - ys[None, :])
    signs = np.where(prod >= 0, 1, -1)
    iu = np.triu_indices(xs.size, k=1)
    return int(signs[iu].sum())


def concordance_sum_mergesort(xs: np.ndarray, ys: np.ndarray) -> int:
    """Same sum for tie-free data, via O(n log n) inversion counting."""
    n = xs.size
    order = np.argsort(xs, kind="stable")
    discordant = _count_inversions(ys[order])
    return n * (n - 1) // 2 - 2 * discordant


def kendall_tau(ds: Dataset) -> float:
    """Kendall's correlation, from the O(n log n) concordance sum."""
    _require_rank_data(ds)
    return _tau_from_sum(concordance_sum_mergesort(ds.xs, ds.ys), ds.n)


def kendall_tau_quadratic(ds: Dataset) -> float:
    """Reference O(n^2) evaluation of Kendall's correlation.

    Both concordance sums are the same integer on tie-free data, so this and
    ``kendall_tau`` give bit-identical floats.
    """
    _require_rank_data(ds)
    return _tau_from_sum(concordance_sum_quadratic(ds.xs, ds.ys), ds.n)


def _ranks(values: np.ndarray) -> np.ndarray:
    """Rank of each entry among distinct values: 1 + #{j : v_j < v_i}."""
    order = np.argsort(values, kind="stable")
    ranks = np.empty(values.size, dtype=np.int64)
    ranks[order] = np.arange(1, values.size + 1)
    return ranks


def spearman_s(ds: Dataset) -> float:
    """Spearman's rank correlation 1 - 6 sum d_i^2 / (n(n-1)(n+1))."""
    _require_rank_data(ds)
    n = ds.n
    d = _ranks(ds.xs) - _ranks(ds.ys)
    return 1.0 - 6.0 * int((d * d).sum()) / (n * (n - 1) * (n + 1))


def chatterjee_xi(ds: Dataset) -> float:
    """Chatterjee's rank correlation 1 - 3 sum |r_{i+1} - r_i| / (n^2 - 1).

    The r_i are ranks of the y values taken in increasing-x order, so the
    statistic is deliberately asymmetric in (x, y).
    """
    _require_rank_data(ds)
    n = ds.n
    concomitant_ranks = _ranks(ds.ys[np.argsort(ds.xs, kind="stable")])
    jumps = int(np.abs(np.diff(concomitant_ranks)).sum())
    return 1.0 - 3.0 * jumps / (n * n - 1)
