"""Plug-in estimators evaluated on a dataset.

All rank statistics assume continuous data: ties in x or in y raise
``TieError`` instead of being broken arbitrarily, since every downstream
sensitivity quantity is derived under a no-ties assumption. Along the rows
of an array, ``rank_sums`` flags the rows that tie instead.
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
    "rank_from_sum",
    "rank_sums",
    "sum_of_ranks",
    "y_ranks_in_x_order",
    "spearman_s",
    "chatterjee_xi",
    "dense_ranks",
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


def _raise_ties(ds: Dataset) -> None:
    """Raise the ``TieError`` that names the tied rows of ``ds``, x first;
    called once a tie mask says that ``ds`` ties."""
    for values, label in ((ds.xs, "x"), (ds.ys, "y")):
        uniq, counts = np.unique(values, return_counts=True)
        dup = uniq[counts > 1]
        if dup.size:
            rows = np.flatnonzero(np.isin(values, dup))
            raise TieError(
                f"tied values in {label} at rows {', '.join(map(str, rows.tolist()))}",
                rows=tuple(int(r) for r in rows),
            )


def estimate(f, ds: Dataset) -> float:
    """Evaluate a functional's plug-in estimator on ``ds``."""
    f = as_functional(f)
    if ds.n == 0:
        raise DomainError("empty dataset")
    if f.is_bivariate:
        if not ds.is_bivariate:
            raise DomainError(f"{f.tag} requires paired (x, y) data")
        return _rank_estimate(f.tag, ds)

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
# Rank correlations: one exact integer sum per row, then one float expression
# ---------------------------------------------------------------------------

def _count_inversions(p: np.ndarray) -> np.ndarray:
    """Pairs i < j with p[r, i] > p[r, j], for each row r of a (rows, n)
    array whose rows are permutations of 0 .. n - 1.

    A bottom-up merge count (Knight 1966) whose levels do not depend on one
    another. Each row is padded with n .. size - 1 to size = 2^k, which adds
    no inversion. Blocks of 8 (or of size, if smaller) count their own pairs
    by comparison: with position j of every block in row j of ``t``, the
    pairs at offset d are ``t[:-d] > t[d:]``. Then every 2s-block, s = 8,
    16, ... size / 2, counts the inversions between its halves. Its keys 2v,
    plus 1 on the right half, are distinct, so any sort puts them in the one
    order; the j-th smallest right key, at sorted position q_j, lies above
    q_j - j left values, so with P = sum q_j the block holds
    s^2 + s(s - 1)/2 - P cross inversions. Keys are int32 while they fit.
    """
    rows, n = p.shape
    size = 1 << (n - 1).bit_length()
    dtype = np.int32 if 2 * size <= 1 << 31 else np.int64
    v = np.empty((rows, size), dtype=dtype)
    v[:, :n] = p
    v[:, n:] = np.arange(n, size)
    b = min(8, size)
    t = v.reshape(-1, b).T.copy()
    pairs = np.empty((b * (b - 1) // 2, t.shape[1]), dtype=bool)
    at = 0
    for d in range(1, b):
        np.greater(t[:-d], t[d:], out=pairs[at:at + b - d])
        at += b - d
    # A block has at most 28 pairs, so its count fits in a byte.
    in_blocks = pairs.view(np.uint8).sum(axis=0, dtype=np.uint8)
    total = in_blocks.reshape(rows, size // b).sum(axis=1, dtype=np.int64)
    pos = np.arange(size, dtype=dtype)
    v <<= 1
    s = b
    while s < size:
        keys = v | (pos // s & 1)
        keys.reshape(-1, 2 * s).sort(axis=1)
        keys &= 1
        tagged = (keys * (pos & (2 * s - 1))).sum(axis=1, dtype=np.int64)
        total += size // (2 * s) * (s * s + s * (s - 1) // 2) - tagged
        s *= 2
    return total


def y_ranks_in_x_order(xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ranks r of the y values taken in increasing-x order, along the
    rows of (rows, n) ``xs`` and ``ys``, and a mask of the rows that hold a
    tie in x or in y (their ranks mean nothing).

    One argsort per axis and row, gathered and scattered through flat
    indices (order + row * n into the raveled rows). Tie-free rows sort in
    one order only, so any sort kind gives the permutation a stable sort
    gives; a row ties when two adjacent entries of a sorted axis are equal.
    """
    rows, n = xs.shape
    if n < 2:
        raise DomainError("rank correlation requires at least 2 observations")
    offsets = np.arange(0, rows * n, n)[:, None]
    x_order = np.argsort(xs, axis=1)
    x_order += offsets
    y_order = np.argsort(ys, axis=1)
    y_order += offsets
    tied = np.zeros(rows, dtype=bool)
    for values, order in ((xs, x_order), (ys, y_order)):
        ordered = values.ravel()[order]
        tied |= np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)
    y_ranks = np.empty(rows * n, dtype=np.intp)
    y_ranks[y_order] = np.arange(n)
    return y_ranks[x_order], tied


def sum_of_ranks(tag: str, r: np.ndarray) -> np.ndarray:
    """The exact integer sum behind a rank correlation, for each row of the
    y ranks in x order ``r`` (rows, n).

    With r_i the rank of y_(i), the y value of the i-th smallest x, the
    sums are: Kendall's concordance sum, n(n - 1)/2 - 2 * #inversions of r;
    Spearman's sum of squared rank differences, sum (r_i - i)^2; and
    Chatterjee's sum of rank jumps, sum |r_(i+1) - r_i|.
    """
    n = r.shape[1]
    if tag == "kendall":
        return n * (n - 1) // 2 - 2 * _count_inversions(r)
    if tag == "spearman":
        d = r - np.arange(n)
        return (d * d).sum(axis=1)
    return np.abs(np.diff(r, axis=1)).sum(axis=1)


def rank_sums(tag: str, xs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``sum_of_ranks`` along the rows of (rows, n) ``xs`` and ``ys``, and a
    mask of the rows that hold a tie in x or in y (their sums mean nothing).
    """
    r, tied = y_ranks_in_x_order(xs, ys)
    return sum_of_ranks(tag, r), tied


def rank_from_sum(tag: str, sums, n: int):
    """The float each rank correlation makes of its integer sum at size n.

    Equal sums give equal floats, whether they come one at a time or as
    rows of an array.
    """
    if tag == "kendall":
        return 2.0 * sums / (n * (n - 1))
    if tag == "spearman":
        return 1.0 - 6.0 * sums / (n * (n - 1) * (n + 1))
    return 1.0 - 3.0 * sums / (n * n - 1)


def dense_ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array in ascending order, and each
    entry's index among them: ``np.unique(values, return_inverse=True)``.

    One argsort gives both: an entry that differs from its sorted neighbour
    starts a new distinct value, and the running count of starts is each
    entry's index.
    """
    # Not np.unique, which hashes in numpy >= 2.3 and then sorts: slower on
    # large arrays, and about 9 us against 7 us on one element.
    order = np.argsort(values)
    ordered = values[order]
    starts = np.empty(len(values), dtype=bool)
    starts[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    ranks = np.cumsum(starts)
    ranks -= 1
    index = np.empty_like(ranks)
    index[order] = ranks
    return ordered[starts], index


def _rank_estimate(tag: str, ds: Dataset) -> float:
    if not ds.is_bivariate:
        raise DomainError("rank correlation requires paired (x, y) data")
    sums, tied = rank_sums(tag, ds.xs[None], ds.ys[None])
    if tied[0]:
        _raise_ties(ds)
    return float(rank_from_sum(tag, sums[0], ds.n))


def kendall_tau(ds: Dataset) -> float:
    """Kendall's correlation, from the O(n log n) concordance sum."""
    return _rank_estimate("kendall", ds)


def spearman_s(ds: Dataset) -> float:
    """Spearman's rank correlation 1 - 6 sum d_i^2 / (n(n-1)(n+1))."""
    return _rank_estimate("spearman", ds)


def chatterjee_xi(ds: Dataset) -> float:
    """Chatterjee's rank correlation 1 - 3 sum |r_{i+1} - r_i| / (n^2 - 1).

    The r_i are ranks of the y values taken in increasing-x order, so the
    statistic is deliberately asymmetric in (x, y).
    """
    return _rank_estimate("chatterjee", ds)
