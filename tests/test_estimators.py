"""Plug-in estimators and their rank-statistic invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from aesf import (
    BivariateGaussian,
    Dataset,
    DomainError,
    FunctionalId,
    TieError,
    chatterjee_xi,
    estimate,
    kendall_tau,
    sample,
    scenario,
    sf,
    spearman_s,
)
from aesf.estimators import _count_inversions, dense_ranks, y_ranks_in_x_order
from aesf.models import sample_batches
from bit_partition_inversions import count_inversions as count_by_bits

THREE = Dataset(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))


def _random_pairs(rng, n):
    return Dataset(rng.standard_normal(n), rng.standard_normal(n))


def _concordance_sum_quadratic(xs, ys):
    """Reference O(n^2) sum over i < j of sgn[(x_i - x_j)(y_i - y_j)] on
    tie-free data, each sign by comparison."""
    concordant = (xs[:, None] > xs[None, :]) == (ys[:, None] > ys[None, :])
    upper = np.triu_indices(xs.size, k=1)
    return int(np.where(concordant, 1, -1)[upper].sum())


def _kendall_tau_quadratic(ds):
    return 2.0 * _concordance_sum_quadratic(ds.xs, ds.ys) / (ds.n * (ds.n - 1))


class TestEstimate:
    def test_variance_hand_value(self):
        assert estimate("variance", Dataset(np.array([1.0, 2.0, 3.0]))) == pytest.approx(2.0 / 3.0, rel=1e-15)

    def test_variance_single_point_is_zero(self):
        assert estimate("variance", Dataset(np.array([4.2]))) == 0.0

    def test_uniform_max(self):
        assert estimate("uniform_max", Dataset(np.array([0.2, 0.9, 0.4]))) == 0.9

    def test_phi_linear_sine_at_zero(self):
        f = FunctionalId("phi_linear", g="identity", phi="sine")
        assert estimate(f, Dataset(np.array([0.0]))) == 0.0

    def test_phi_linear_square_square(self):
        f = FunctionalId("phi_linear", g="square", phi="square")
        # mean of squares is 5, squared is 25
        assert estimate(f, Dataset(np.array([1.0, 3.0]))) == pytest.approx(25.0, rel=1e-15)

    def test_empty_dataset_rejected(self):
        with pytest.raises(DomainError):
            estimate("mean", Dataset(np.array([])))

    def test_bivariate_needs_ys(self):
        with pytest.raises(DomainError):
            estimate("kendall", Dataset(np.array([1.0, 2.0])))

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            xs = rng.standard_normal(int(rng.integers(1, 40)))
            assert estimate("variance", Dataset(xs)) >= 0.0


class TestDataset:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            Dataset(np.array([1.0, np.nan]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(DomainError):
            Dataset(np.array([1.0, 2.0]), np.array([1.0]))

    def test_insert(self):
        grown = THREE.insert((4.0, 0.5))
        assert grown.n == 4 and grown.xs[-1] == 4.0 and grown.ys[-1] == 0.5


class TestKendall:
    def test_hand_value(self):
        assert kendall_tau(THREE) == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_monotone_extremes(self):
        xs = np.arange(1.0, 8.0)
        assert kendall_tau(Dataset(xs, xs * 2.0)) == 1.0
        assert kendall_tau(Dataset(xs, -xs)) == -1.0

    def test_routes_bit_identical_on_1000_datasets(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            ds = _random_pairs(rng, int(rng.integers(2, 60)))
            assert kendall_tau(ds) == _kendall_tau_quadratic(ds)

    def test_signs_survive_underflow(self):
        # (0 - 1e-200) * (0 + 1e-200) underflows to -0.0, which a sign taken
        # from the product reads as concordant
        ds = Dataset(np.array([0.0, 1e-200, 1.0]), np.array([0.0, -1e-200, 2.0]))
        assert kendall_tau(ds) == _kendall_tau_quadratic(ds) == 1.0 / 3.0

    def test_ties_rejected_with_rows(self):
        with pytest.raises(TieError) as err:
            kendall_tau(Dataset(np.array([1.0, 1.0, 3.0]), np.array([1.0, 2.0, 3.0])))
        assert err.value.rows == (0, 1)
        with pytest.raises(TieError):
            kendall_tau(Dataset(np.array([1.0, 2.0, 3.0]), np.array([5.0, 4.0, 5.0])))

    def test_too_small(self):
        with pytest.raises(DomainError):
            kendall_tau(Dataset(np.array([1.0]), np.array([2.0])))


class TestSpearman:
    def test_hand_value(self):
        assert spearman_s(THREE) == pytest.approx(0.5, rel=1e-15)

    def test_monotone_increasing(self):
        xs = np.arange(1.0, 10.0)
        assert spearman_s(Dataset(xs, np.exp(xs))) == 1.0

    def test_monotone_decreasing_n3_is_minus_one(self):
        # 1 - 6*8/(3*2*4): the finite-n formula reaches -1 exactly at n = 3
        assert spearman_s(Dataset(np.array([1.0, 2.0, 3.0]), np.array([3.0, 2.0, 1.0]))) == -1.0

    def test_monotone_decreasing_general_formula(self):
        for n in (4, 9, 20):
            xs = np.arange(1.0, n + 1.0)
            expected = 1.0 - 6.0 * sum((2 * i - n - 1) ** 2 for i in range(1, n + 1)) \
                / (n * (n - 1) * (n + 1))
            assert spearman_s(Dataset(xs, -xs)) == pytest.approx(expected, rel=1e-15)


class TestChatterjee:
    def test_identity_pattern(self):
        for n in (2, 5, 17, 100):
            xs = np.arange(1.0, n + 1.0)
            assert chatterjee_xi(Dataset(xs, xs ** 3)) == pytest.approx(
                1.0 - 3.0 / (n + 1.0), rel=1e-15)

    def test_hand_value(self):
        assert chatterjee_xi(THREE) == pytest.approx(-0.125, rel=1e-15)

    def test_any_permutation_n2_is_zero(self):
        assert chatterjee_xi(Dataset(np.array([1.0, 2.0]), np.array([5.0, 3.0]))) == 0.0
        assert chatterjee_xi(Dataset(np.array([2.0, 1.0]), np.array([5.0, 3.0]))) == 0.0

    def test_never_exceeds_one(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            ds = _random_pairs(rng, int(rng.integers(2, 80)))
            assert chatterjee_xi(ds) <= 1.0

    def test_asymmetric_on_quadratic_data(self):
        ds = sample(scenario("B"), 400, 2024)
        flipped = Dataset(ds.ys, ds.xs)
        assert chatterjee_xi(ds) != chatterjee_xi(flipped)
        # y is nearly a function of x but not conversely
        assert chatterjee_xi(ds) > chatterjee_xi(flipped) + 0.2


def test_rank_statistics_match_oracles_across_powers_of_two():
    # the inversion count pads each row to a power of two
    rng = np.random.default_rng(5)
    for n in (63, 64, 65, 255, 256, 257, 1023, 1024, 1025):
        ds = _random_pairs(rng, n)
        assert kendall_tau(ds) == _kendall_tau_quadratic(ds)
        rx, ry = rankdata(ds.xs), rankdata(ds.ys)
        squares = int(((rx - ry) ** 2).sum())
        assert spearman_s(ds) == 1.0 - 6.0 * squares / (n * (n - 1) * (n + 1))
        jumps = int(np.abs(np.diff(ry[np.argsort(ds.xs)])).sum())
        assert chatterjee_xi(ds) == 1.0 - 3.0 * jumps / (n * n - 1)


class TestScalarRanking:
    """A rank estimate sorts each axis once; only a tie looks for the rows."""

    def test_tie_free_sample_sorts_twice(self, monkeypatch):
        from aesf import estimators
        argsort, calls = np.argsort, []
        monkeypatch.setattr(np, "argsort", lambda *a, **k: calls.append(1) or argsort(*a, **k))
        monkeypatch.setattr(estimators, "_raise_ties", lambda *a: pytest.fail("searched ties"))
        for tag in ("kendall", "spearman", "chatterjee"):
            calls.clear()
            estimate(tag, THREE)
            assert len(calls) == 2

    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_ties_named_x_first(self, tag):
        with pytest.raises(TieError, match="tied values in y at rows 0, 2") as err:
            estimate(tag, Dataset(np.array([1.0, 2.0, 3.0]), np.array([5.0, 4.0, 5.0])))
        assert err.value.rows == (0, 2)
        with pytest.raises(TieError, match="tied values in x at rows 1, 2") as err:
            estimate(tag, Dataset(np.array([1.0, 2.0, 2.0]), np.array([5.0, 4.0, 4.0])))
        assert err.value.rows == (1, 2)

    def test_univariate_sample_rejected(self):
        with pytest.raises(DomainError, match="paired"):
            spearman_s(Dataset(np.array([1.0, 2.0, 3.0])))


def _inversions_quadratic(p):
    """Reference O(n^2) count of the pairs i < j with p[i] > p[j], row by row."""
    return [int(np.count_nonzero(np.triu(row[:, None] > row[None, :], 1))) for row in p]


# Around every power of two that pads the rows, and the sizes of the
# benchmark's Kendall schedule.
INVERSION_SIZES = (2, 3, 7, 8, 9, 15, 16, 17, 1023, 1024, 1025, 1600)


class TestInversionCount:
    """The merge count over sorted tagged blocks against the bit-partition
    count it replaced and a count of every pair."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.sampled_from(INVERSION_SIZES + (1, 4, 5, 31, 33, 200)),
           st.integers(0, 2 ** 32 - 1))
    @example(40, 1600, 0)
    @example(40, 1025, 1)
    def test_random_permutations(self, rows, n, seed):
        p = np.argsort(np.random.default_rng(seed).random((rows, n)), axis=1)
        got = _count_inversions(p)
        assert got.dtype == np.int64 and got.shape == (rows,)
        assert got.tolist() == count_by_bits(p).tolist() == _inversions_quadratic(p)

    @pytest.mark.parametrize("n", INVERSION_SIZES)
    def test_identity_and_reversed(self, n):
        identity = np.arange(n)[None]
        assert _count_inversions(identity).tolist() == [0]
        assert _count_inversions(identity[:, ::-1]).tolist() == [n * (n - 1) // 2]
        both = np.concatenate((identity, identity[:, ::-1], identity))
        assert _count_inversions(both).tolist() == [0, n * (n - 1) // 2, 0]

    @pytest.mark.parametrize("n", [200, 400, 800, 1600])
    def test_the_batches_of_the_kendall_schedule(self, n):
        # the (rows, n) shapes sample_batches yields for 300 replicates, a
        # short last batch at n = 200 included
        shapes = set()
        for _, xs, ys in sample_batches(BivariateGaussian(0.7), n, 0x5EED_AE5F, 300):
            r, tied = y_ranks_in_x_order(xs, ys)
            assert not tied.any()
            shapes.add(r.shape)
            assert _count_inversions(r).tolist() == count_by_bits(r).tolist()
        rows = 16384 // (2 * n)
        assert shapes == {(rows, n), (300 % rows, n)} - {(0, n)}


@st.composite
def _tie_free_pairs(draw):
    n = draw(st.integers(3, 25))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal(n), rng.standard_normal(n))


class TestDenseRanks:
    """``dense_ranks`` against ``np.unique(values, return_inverse=True)``."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 3000), st.integers(1, 50), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_matches_np_unique(self, n, pool, as_bits, seed):
        rng = np.random.default_rng(seed)
        values = rng.standard_normal(pool)[rng.integers(pool, size=n)]
        if as_bits:
            values = values.view(np.int64)
        distinct, index = dense_ranks(values)
        expected, inverse = np.unique(values, return_inverse=True)
        assert distinct.tobytes() == expected.tobytes()
        assert index.dtype == np.intp and np.array_equal(index, inverse)
        assert np.array_equal(distinct[index], values)


class TestMonotoneInvariance:
    @settings(max_examples=60, deadline=None)
    @given(_tie_free_pairs())
    def test_rank_statistics_see_only_ranks(self, ds):
        # strictly increasing transforms on either axis leave all three
        # rank statistics exactly unchanged
        warped = Dataset(np.exp(ds.xs), np.arctan(ds.ys) * 3.0 + 1.0)
        assert kendall_tau(warped) == kendall_tau(ds)
        assert spearman_s(warped) == spearman_s(ds)
        assert chatterjee_xi(warped) == chatterjee_xi(ds)
        # and so do their sensitivities, with the insertion point warped too
        point = (float(np.mean(ds.xs)), float(np.mean(ds.ys)))
        warped_point = (float(np.exp(point[0])), float(np.arctan(point[1]) * 3.0 + 1.0))
        for tag in ("kendall", "spearman", "chatterjee"):
            assert sf(tag, warped, warped_point) == sf(tag, ds, point)
