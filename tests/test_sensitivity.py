"""Sensitivity function semantics and the Monte Carlo ESF engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesf import (
    BivariateGaussian,
    Dataset,
    DomainError,
    FunctionalId,
    TieError,
    UniformMax,
    UnivariateNormal,
    convergence_study,
    derive_seed,
    esf_mc,
    estimate,
    sample,
    sf,
    sf_distribution,
    sf_kendall_incremental,
)

UNIV = Dataset(np.array([1.0, 2.0, 3.0]))


class TestSf:
    def test_mean_example(self):
        assert sf("mean", UNIV, 7.0) == pytest.approx(5.0, rel=1e-15)

    def test_uniform_max_below_current_max(self):
        ds = Dataset(np.array([0.1, 0.4, 0.9]))
        assert sf("uniform_max", ds, 0.5) == 0.0

    def test_uniform_max_new_record(self):
        xs = np.linspace(0.1, 0.9, 9)
        ds = Dataset(xs)
        assert sf("uniform_max", ds, 1.0) == pytest.approx(10 * (1.0 - 0.9), rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-50, 50))
    def test_mean_identity(self, seed, x):
        rng = np.random.default_rng(seed)
        ds = Dataset(rng.standard_normal(int(rng.integers(2, 200))) * 3.0)
        expected = x - float(np.mean(ds.xs))
        assert sf("mean", ds, x) == pytest.approx(expected, abs=1e-12, rel=1e-12)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1), st.floats(-10, 10))
    def test_variance_expansion(self, seed, x):
        # n/(n+1) x^2 - 2n/(n+1) x xbar + (2n+1)/(n+1) xbar^2 - m2
        rng = np.random.default_rng(seed)
        xs = rng.standard_normal(int(rng.integers(2, 200))) * 2.0 + 1.0
        n = xs.size
        xbar = xs.mean()
        m2 = (xs * xs).mean()
        expected = (n / (n + 1) * x * x - 2 * n / (n + 1) * x * xbar
                    + (2 * n + 1) / (n + 1) * xbar ** 2 - m2)
        got = sf("variance", Dataset(xs), x)
        assert got == pytest.approx(expected, rel=1e-10, abs=1e-10)

    def test_concordant_insertion_never_decreases_kendall(self):
        # enumeration at n = 3: strictly monotone data, on-trend new point
        ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([10.0, 20.0, 30.0]))
        assert sf("kendall", ds, (4.0, 40.0)) >= 0.0
        assert sf("kendall", ds, (2.5, 25.0)) >= 0.0

    def test_insertion_tie_rejected(self):
        ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([2.0, 1.0, 3.0]))
        with pytest.raises(TieError):
            sf("kendall", ds, (2.0, 9.0))
        with pytest.raises(TieError):
            sf("chatterjee", ds, (9.0, 3.0))
        # univariate functionals have no tie concept
        assert sf("mean", UNIV, 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_point_shape_checked(self):
        with pytest.raises(DomainError):
            sf("kendall", Dataset(np.array([1.0, 2.0]), np.array([3.0, 4.0])), 1.5)
        with pytest.raises(DomainError):
            sf("mean", UNIV, (1.0, 2.0))

    def test_non_finite_point_rejected(self):
        ds = Dataset(np.array([1.0, 2.0, 3.0]), np.array([3.0, 1.0, 2.0]))
        with pytest.raises(DomainError):
            sf_kendall_incremental(ds, (math.inf, 0.0))
        with pytest.raises(DomainError):
            esf_mc("mean", UnivariateNormal(0.0, 1.0), 10, math.nan, 10, 1)


class TestKendallIncremental:
    def test_agrees_with_reevaluation(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            n = int(rng.integers(2, 120))
            ds = Dataset(rng.standard_normal(n), rng.standard_normal(n))
            point = (float(rng.standard_normal()), float(rng.standard_normal()))
            assert sf_kendall_incremental(ds, point) == pytest.approx(
                sf("kendall", ds, point), abs=1e-12)


class TestEsfMc:
    def test_deterministic_on_rerun(self):
        m = BivariateGaussian(0.5)
        kwargs = dict(n=60, point=(0.3, -0.2), replicates=64, seed=12345)
        first = esf_mc("kendall", m, **kwargs)
        second = esf_mc("kendall", m, **kwargs)
        assert first == second  # bit-identical dataclass equality

    def test_mean_matches_shift(self):
        mc = esf_mc("mean", UnivariateNormal(2.0, 1.5), 40, 5.0, 4000, 99)
        assert abs(mc.value - 3.0) <= 4 * mc.std_error
        assert mc.std_error > 0 and mc.replicates == 4000 and mc.n == 40

    def test_tie_resampling_is_deterministic(self):
        # plant a guaranteed collision: the insertion x equals a value that
        # replicate 0 (attempt 0) will sample, forcing one resample
        m = BivariateGaussian(0.5)
        planted = float(sample(m, 30, derive_seed(777, 0, 0)).xs[4])
        mc = esf_mc("kendall", m, 30, (planted, 0.123), 50, 777)
        assert mc.tie_resamples >= 1
        again = esf_mc("kendall", m, 30, (planted, 0.123), 50, 777)
        assert mc == again

    def test_kendall_replicates_bounded(self):
        n = 50
        values = sf_distribution("kendall", BivariateGaussian(0.7), n, (0.5, 0.5),
                                 400, 31)
        assert np.all(np.abs(values) <= 3.0 * (n + 1) / n + 2.0)
        mean = values.mean()
        se = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(mean) <= 3.0 + 4.0 * se

    def test_incompatible_model_rejected(self):
        with pytest.raises(DomainError):
            esf_mc("kendall", UniformMax(1.0), 10, (0.5, 0.5), 10, 1)
        with pytest.raises(DomainError):
            esf_mc("mean", BivariateGaussian(0.5), 10, 0.5, 10, 1)

    def test_replicate_count_checked(self):
        with pytest.raises(DomainError):
            esf_mc("mean", UniformMax(1.0), 10, 0.5, 1, 1)


class TestSfDistribution:
    def test_uniform_max_point_below_theta_is_all_zero(self):
        values = sf_distribution("uniform_max", UniformMax(1.0), 10 ** 4, 0.5, 2000, 5)
        assert np.mean(values == 0.0) >= 0.999

    def test_uniform_max_exponential_limit_small(self):
        # light version of the distributional check (the acceptance suite
        # runs the full-size one)
        theta, n, reps = 1.0, 2000, 20000
        values = np.sort(sf_distribution("uniform_max", UniformMax(theta), n, theta,
                                         reps, 404))
        ecdf = np.arange(1, reps + 1) / reps
        model_cdf = 1.0 - np.exp(-values / theta)
        assert np.max(np.abs(ecdf - model_cdf)) <= 0.02

    def test_mean_replicates_shifted_sample_means(self):
        # determinism lets the test reconstruct each replicate's sample and
        # verify SF = x - sample mean exactly, replicate by replicate
        model, n, x, seed = UnivariateNormal(0.0, 1.0), 25, 2.0, 888
        values = sf_distribution("mean", model, n, x, 50, seed)
        for r, v in enumerate(values):
            ds = sample(model, n, derive_seed(seed, r, 0))
            assert v + ds.xs.mean() == pytest.approx(x, abs=1e-12)


class TestConvergenceStudy:
    def test_mean_curve_flat_with_exact_target(self):
        curve = convergence_study("mean", UnivariateNormal(0.0, 1.0), 1.0,
                                  [50, 100, 200], 400, 17)
        assert curve.target == 1.0
        for mc in curve.estimates:
            assert abs(mc.value - 1.0) <= 4 * mc.std_error

    def test_kendall_curve_attaches_closed_form_target(self):
        curve = convergence_study("kendall", BivariateGaussian(0.7), (0.0, 0.0),
                                  [50, 200, 800], 600, 4)
        assert curve.target == pytest.approx(0.0, abs=1e-9)
        errs = [abs(mc.value - curve.target) for mc in curve.estimates]
        ses = [mc.std_error for mc in curve.estimates]
        # flat in expectation; the last point must sit on the target
        assert errs[-1] <= errs[0] + 2 * (ses[0] + ses[-1])
        assert errs[-1] <= 4 * ses[-1]

    def test_phi_linear_sine_target(self):
        f = FunctionalId("phi_linear", g="identity", phi="sine")
        curve = convergence_study(f, UnivariateNormal(0.0, 1.0), 1.0,
                                  [50, 100, 200], 500, 23)
        assert curve.target == 1.0
        assert abs(curve.estimates[-1].value - 1.0) <= 4 * curve.estimates[-1].std_error

    def test_schedule_validation(self):
        with pytest.raises(DomainError):
            convergence_study("mean", UnivariateNormal(0, 1), 0.0, [50, 100], 10, 1)
        with pytest.raises(DomainError):
            convergence_study("mean", UnivariateNormal(0, 1), 0.0, [50, 100, 100], 10, 1)
