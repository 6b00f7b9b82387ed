"""Plug-in estimators and their rank-statistic invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesf import (
    Dataset,
    DomainError,
    FunctionalId,
    TieError,
    chatterjee_xi,
    estimate,
    kendall_tau,
    kendall_tau_quadratic,
    sample,
    scenario,
    sf,
    spearman_s,
)

THREE = Dataset(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))


def _random_pairs(rng, n):
    return Dataset(rng.standard_normal(n), rng.standard_normal(n))


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
            assert kendall_tau(ds) == kendall_tau_quadratic(ds)

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


@st.composite
def _tie_free_pairs(draw):
    n = draw(st.integers(3, 25))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    return Dataset(rng.standard_normal(n), rng.standard_normal(n))


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
