"""Kendall's inversion count by bit partition, kept as an oracle.

``count_inversions`` here is the routine that
``aesf.estimators._count_inversions`` was before it became a merge count over
sorted tagged blocks. It uses no sort, so the two share no step. The tests
compare the merge count against it. Not collected by pytest.
"""

import numpy as np


def count_inversions(p: np.ndarray) -> np.ndarray:
    """Pairs i < j with p[r, i] > p[r, j], for each row r of a (rows, n)
    array whose rows are permutations of 0 .. n - 1.

    Two values first differ in some bit b, the larger one holding a 1, so
    each inversion is counted once: at level b, as a 1 before a 0 within a
    group of equal ``v >> (b + 1)``. The levels run from the top bit down
    and each stably partitions every group by bit b (a counting sort), so
    the groups of the next level are contiguous again. The rows are laid out
    as one sequence of r * 2^k + p, each padded with n .. 2^k - 1, which adds
    no inversion; group q then starts at q * 2^(b + 1) and every earlier
    group holds 2^b ones.
    """
    rows, n = p.shape
    k = (n - 1).bit_length()
    size = 1 << k
    v = np.empty((rows, size), dtype=np.int64)
    v[:, :n] = p
    v[:, n:] = np.arange(n, size)
    v += (np.arange(rows, dtype=np.int64) << k)[:, None]
    v = v.ravel()
    pos = np.arange(v.size)
    total = np.zeros(rows, dtype=np.int64)
    for b in range(k - 1, -1, -1):
        high = v >> b
        bit = high & 1
        ones = np.cumsum(bit)
        earlier = (high >> 1) << b  # ones in the earlier groups
        total += ((1 - bit) * (ones - earlier)).reshape(rows, size).sum(axis=1)
        if b:
            # A 0 moves back past the ones before it in its group; a 1 moves
            # to its group's start, past the group's 2^b zeros and the ones
            # before it.
            to = pos - ones + bit * (2 * ones + (1 << b) - 1 - pos) + earlier
            grouped = np.empty_like(v)
            grouped[to] = v
            v = grouped
    return total
