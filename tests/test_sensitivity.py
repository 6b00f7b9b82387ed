"""Sensitivity function semantics and the Monte Carlo ESF engine."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aesf import (
    AesfError,
    BivariateGaussian,
    Dataset,
    DomainError,
    FunctionalId,
    IndependentProduct,
    NormalLaw,
    NumericsError,
    TieError,
    UniformLaw,
    UniformMax,
    UnivariateNormal,
    convergence_study,
    derive_seed,
    esf_mc,
    estimate,
    sample,
    scenario,
    sf,
    sf_distribution,
)
from aesf import models
from aesf.estimators import estimate_rows, rank_sums, sum_of_ranks, y_ranks_in_x_order
from aesf.sensitivity import _MAX_TIE_RESAMPLES, _grown_sums, _rank_sf_rows

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
            sf("kendall", ds, (math.inf, 0.0))
        with pytest.raises(DomainError):
            esf_mc("mean", UnivariateNormal(0.0, 1.0), 10, math.nan, 10, 1)


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

    @pytest.mark.parametrize("n, replicates", [(2.5, 4), (3, 4.5), (3.0, 4), (3, "4")])
    def test_non_integer_counts_rejected(self, n, replicates):
        with pytest.raises(DomainError, match="must be an integer"):
            esf_mc("mean", UnivariateNormal(0, 1), n, 0.5, replicates, 1)

    def test_numpy_integer_counts_accepted(self):
        mc = esf_mc("mean", UnivariateNormal(0, 1), np.int64(5), 0.5, np.int32(4), 1)
        assert mc == esf_mc("mean", UnivariateNormal(0, 1), 5, 0.5, 4, 1)


class TestSfDistribution:
    @pytest.mark.parametrize("n, replicates", [(2.5, 4), (3, 4.5)])
    def test_non_integer_counts_rejected(self, n, replicates):
        with pytest.raises(DomainError, match="must be an integer"):
            sf_distribution("mean", UnivariateNormal(0, 1), n, 0.5, replicates, 1)

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


class TestNonFiniteReplicates:
    # Samples of magnitude 1e200 and beyond overflow the sample variance
    # (or the sample mean), so the SF is inf - inf: these came back as NaN.
    @pytest.mark.parametrize("tag,model", [
        ("variance", UnivariateNormal(0.0, 1e200)),
        ("mean", UnivariateNormal(1e308, 1e308)),
    ])
    def test_raise_naming_the_first_replicate(self, tag, model):
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match=r"replicate 0 has a non-finite SF"):
                sf_distribution(tag, model, 10, 1.0, 5, 1)
            with pytest.raises(NumericsError, match=r"replicate 0 has a non-finite SF"):
                esf_mc(tag, model, 10, 1.0, 5, 1)

    def test_first_non_finite_replicate_is_named(self, monkeypatch):
        real = models.sample_batches

        def planted(model, n, seed, replicates):
            for start, xs, ys in real(model, n, seed, replicates):
                xs = xs.copy()
                xs[3 - start:, 0] = np.inf  # replicates 3 and on, in one batch
                yield start, xs, ys

        monkeypatch.setattr("aesf.sensitivity.sample_batches", planted)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericsError, match="replicate 3 "):
                sf_distribution("mean", UnivariateNormal(0.0, 1.0), 10, 1.0, 8, 1)


class TestMaximumGrowth:
    """``uniform_max`` grows each replicate's maximum to max(base, point)
    in place of appending the point and taking the maximum again."""

    @pytest.mark.parametrize("model", [UniformMax(1.7), UnivariateNormal(-0.4, 2.5)])
    @pytest.mark.parametrize("n", [1, 7, 400, 10_000])
    def test_equals_the_concatenation_route(self, model, n, monkeypatch):
        f, replicates, seed = FunctionalId("uniform_max"), 30, 61
        monkeypatch.setattr(models, "_CHUNK_WORDS", 4 * 400)  # several batches
        batches = list(models.sample_batches(model, n, seed, replicates))
        base = np.concatenate([xs.max(axis=1) for _, xs, _ in batches])
        median = float(np.median(base))
        for point in (-50.0, 0.0, 0.3, median, float(base.max()), 1.7, 50.0):
            expected = np.concatenate([
                (n + 1) * (estimate_rows(f, np.concatenate((xs, np.full((len(xs), 1), point)),
                                                           axis=1)) - estimate_rows(f, xs))
                for _, xs, _ in batches])
            values = sf_distribution(f, model, n, point, replicates, seed)
            assert values.tobytes() == expected.tobytes()


def _reference(f, model, n, point, replicates, seed):
    """esf_mc computed one replicate at a time through the public API: the
    ``sf`` of each replicate's first attempt whose sample,
    ``sample(model, n, derive_seed(seed, r, attempt))``, and insertion do
    not tie."""
    values, resamples = np.empty(replicates), 0
    for r in range(replicates):
        for attempt in range(_MAX_TIE_RESAMPLES):
            try:
                values[r] = sf(f, sample(model, n, derive_seed(seed, r, attempt)), point)
                break
            except TieError:
                continue
        else:
            raise AesfError(f"replicate {r} kept producing ties after "
                            f"{_MAX_TIE_RESAMPLES} resamples")
        resamples += attempt
    std_error = float(np.std(values, ddof=1) / math.sqrt(replicates))
    return values, float(np.mean(values)), std_error, resamples


def _assert_batched_equals_reference(f, model, n, point, replicates, seed):
    values, value, std_error, resamples = _reference(f, model, n, point, replicates, seed)
    mc = esf_mc(f, model, n, point, replicates, seed)
    assert (mc.value, mc.std_error, mc.tie_resamples) == (value, std_error, resamples)
    assert sf_distribution(f, model, n, point, replicates, seed).tobytes() == values.tobytes()
    return mc


UNIVARIATE_FUNCTIONALS = [FunctionalId("mean"), FunctionalId("variance"),
                          FunctionalId("uniform_max")] + [
    FunctionalId("phi_linear", g=g, phi=phi)
    for g in ("identity", "square") for phi in ("identity", "square", "sine")]


class TestBatchedEngine:
    """The batched replicates are bit-identical to the per-replicate loop."""

    @pytest.mark.parametrize("model", [UnivariateNormal(0.3, 2.5), UniformMax(1.7)])
    @pytest.mark.parametrize("f", UNIVARIATE_FUNCTIONALS, ids=lambda f: f"{f.tag}-{f.g}-{f.phi}")
    def test_univariate_functionals(self, f, model):
        for n, replicates in ((1, 5), (40, 300)):
            _assert_batched_equals_reference(f, model, n, 0.9, replicates, 11)

    @pytest.mark.parametrize("model", [
        BivariateGaussian(0.7), scenario("A"), scenario("B"), scenario("C"),
        IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))])
    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_rank_functionals(self, tag, model):
        _assert_batched_equals_reference(tag, model, 30, (0.1, 0.2), 40, 5)

    def test_chunk_boundaries(self, monkeypatch):
        # 7, then 3 replicates per batch, then replicates larger than a whole
        # batch (streams long enough to come from numpy's Philox)
        monkeypatch.setattr(models, "_CHUNK_WORDS", 7 * 25)
        _assert_batched_equals_reference("variance", UnivariateNormal(0.0, 1.0), 25, 2.0, 50, 3)
        _assert_batched_equals_reference("spearman", BivariateGaussian(0.5), 25, (0.3, 0.1),
                                         17, 3)
        _assert_batched_equals_reference("mean", UnivariateNormal(0.0, 1.0), 600, 1.0, 9, 3)

    def test_forced_ties_count_as_in_the_reference(self, monkeypatch):
        # planted collisions in replicates 2 and 5, at attempt 0, inside one
        # batch and at the start of the next
        monkeypatch.setattr(models, "_CHUNK_WORDS", 5 * 60)
        m = BivariateGaussian(0.5)
        x = float(sample(m, 30, derive_seed(777, 2, 0)).xs[4])
        y = float(sample(m, 30, derive_seed(777, 5, 0)).ys[9])
        mc = _assert_batched_equals_reference("kendall", m, 30, (x, y), 12, 777)
        assert mc.tie_resamples == 2

    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_rank_chunk_boundaries_at_n_1600(self, tag, monkeypatch):
        model = IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))
        for rows in (1, 2, 3):
            monkeypatch.setattr(models, "_CHUNK_WORDS", rows * 2 * 1600)
            _assert_batched_equals_reference(tag, model, 1600, (0.0, 0.5), 7, 19)

    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_ties_inside_the_sample_count_as_in_the_reference(self, tag, monkeypatch):
        # A stream whose first x word is 0 mod 4 repeats an x value and one
        # whose first y word is 1 mod 4 repeats a y value, at every attempt;
        # the batches and the per-replicate samples both map bits through
        # _from_bits. The insertion also ties with replicate 3's sample.
        from_bits = models._from_bits

        def planted(model, bits):
            xs, ys = from_bits(model, bits)
            xs[..., 7:8] = np.where(bits[0, ..., :1] % 4 == 0, xs[..., 2:3], xs[..., 7:8])
            ys[..., 9:10] = np.where(bits[1, ..., :1] % 4 == 1, ys[..., 4:5], ys[..., 9:10])
            return xs, ys

        monkeypatch.setattr(models, "_from_bits", planted)
        monkeypatch.setattr(models, "_CHUNK_WORDS", 5 * 60)
        m = BivariateGaussian(0.5)
        x = float(sample(m, 30, derive_seed(777, 3, 0)).xs[5])
        mc = _assert_batched_equals_reference(tag, m, 30, (x, 0.25), 40, 777)
        assert mc.tie_resamples >= 10

    def test_ties_at_every_attempt_raise_as_in_the_reference(self, monkeypatch):
        # Every sample repeats an x value, so no attempt of any replicate succeeds.
        from_bits = models._from_bits

        def tied(model, bits):
            xs, ys = from_bits(model, bits)
            xs[..., 7] = xs[..., 2]
            return xs, ys

        monkeypatch.setattr(models, "_from_bits", tied)
        m = BivariateGaussian(0.5)
        with pytest.raises(AesfError) as batched:
            esf_mc("spearman", m, 30, (0.1, 0.2), 12, 777)
        with pytest.raises(AesfError) as reference:
            _reference("spearman", m, 30, (0.1, 0.2), 12, 777)
        assert str(batched.value) == str(reference.value)

    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_smallest_rank_sample(self, tag):
        m = BivariateGaussian(0.5)
        _assert_batched_equals_reference(tag, m, 2, (0.1, 0.2), 40, 5)
        with pytest.raises(DomainError) as batched:
            esf_mc(tag, m, 1, (0.1, 0.2), 10, 5)
        with pytest.raises(DomainError) as reference:
            _reference(tag, m, 1, (0.1, 0.2), 10, 5)
        assert str(batched.value) == str(reference.value)


def _grown_by_reranking(tag, xs, ys, point):
    """The grown rows' sums and tie mask, by appending the point and ranking
    the (rows, n + 1) arrays again."""
    column = (len(xs), 1)
    return rank_sums(tag, np.concatenate((xs, np.full(column, point[0])), axis=1),
                     np.concatenate((ys, np.full(column, point[1])), axis=1))


@st.composite
def _rows_and_insertion(draw):
    """Rows of permutations of 0 .. n - 1 on each axis, some with a planted
    tie, and a point at x position kx and y rank ky; a whole-number
    coordinate ties with every row instead."""
    n = draw(st.integers(2, 12))
    rows = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    xs = np.argsort(rng.random((rows, n)), axis=1).astype(float)
    ys = np.argsort(rng.random((rows, n)), axis=1).astype(float)
    for values in (xs, ys):
        for row in draw(st.sets(st.integers(0, rows - 1))):
            values[row, rng.integers(n)] = values[row, rng.integers(n)]
    kx, ky = draw(st.integers(0, n)), draw(st.integers(0, n))
    px = kx - 0.5 if draw(st.integers(0, 9)) else float(min(kx, n - 1))
    py = ky - 0.5 if draw(st.integers(0, 9)) else float(min(ky, n - 1))
    return xs, ys, (px, py)


class TestRankShift:
    """The grown sums from one ranking equal those of ranking the grown rows."""

    @settings(max_examples=300, deadline=None)
    @given(_rows_and_insertion())
    def test_grown_sums_equal_reranking(self, case):
        xs, ys, point = case
        for tag in ("kendall", "spearman", "chatterjee"):
            r, _ = y_ranks_in_x_order(xs, ys)
            grown = _grown_sums(tag, xs, ys, r, sum_of_ranks(tag, r), point)
            expected, expected_tied = _grown_by_reranking(tag, xs, ys, point)
            _, tied = _rank_sf_rows(tag, xs, ys, point)
            assert tied.tolist() == expected_tied.tolist()
            assert grown[~tied].tolist() == expected[~tied].tolist()

    @pytest.mark.parametrize("tag", ["kendall", "spearman", "chatterjee"])
    def test_rank_shift_is_sf(self, tag):
        # sizes on both sides of powers of two, tiny magnitudes, and points
        # below, inside and above each axis
        rng = np.random.default_rng(34)
        for n in (2, 3, 63, 64, 65, 255, 256, 257, 1023, 1024, 1025):
            for scale in (1.0, 1e-160, 1e-200):
                xs = rng.standard_normal((4, n)) * scale
                ys = rng.standard_normal((4, n)) * scale
                for px, py in ((0.0, 0.0), (-5.0, 5.0), (5.0, -5.0),
                               tuple(rng.standard_normal(2))):
                    point = (px * scale, py * scale)
                    values, tied = _rank_sf_rows(tag, xs, ys, point)
                    assert not tied.any()
                    for row in range(4):
                        assert values[row] == sf(tag, Dataset(xs[row], ys[row]), point)


class TestSeedDomain:
    """Monte Carlo seeds are the 64-bit stream keys; others would alias."""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64])
    def test_out_of_range_rejected(self, seed):
        m = BivariateGaussian(0.5)
        with pytest.raises(DomainError, match="seed"):
            esf_mc("kendall", m, 10, (0.1, 0.2), 4, seed)
        with pytest.raises(DomainError, match="seed"):
            sf_distribution("spearman", m, 10, (0.1, 0.2), 4, seed)
        with pytest.raises(DomainError, match="seed"):
            convergence_study("mean", UnivariateNormal(0, 1), 0.0, [5, 10, 20], 4, seed)

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_bounds_accepted(self, seed):
        mc = esf_mc("kendall", BivariateGaussian(0.5), 10, (0.1, 0.2), 4, seed)
        assert mc.seed == seed
        values = sf_distribution("mean", UnivariateNormal(0, 1), 10, 0.5, 4, seed)
        for r, v in enumerate(values):
            ds = sample(UnivariateNormal(0, 1), 10, derive_seed(seed, r))
            assert v == sf("mean", ds, 0.5)


class TestSeedKeyDomain:
    """Seeds are checked where streams are keyed, in ``derive_seeds``, so a
    non-integer seed cannot run as its integer part."""

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_esf_mc_rejects(self, seed):
        with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\^64\)"):
            esf_mc("mean", UnivariateNormal(0, 1), 10, 0.5, 4, seed)

    def test_numpy_integer_seed_accepted(self):
        top = 2 ** 64 - 1
        mc = esf_mc("mean", UnivariateNormal(0, 1), 10, 0.5, 4, np.uint64(top))
        assert mc.seed == top
        assert mc == esf_mc("mean", UnivariateNormal(0, 1), 10, 0.5, 4, top)


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

    def test_non_integer_schedule_rejected(self):
        # int() would have run 50.5 as 50.
        with pytest.raises(DomainError, match="must be an integer"):
            convergence_study("mean", UnivariateNormal(0, 1), 0.0, [20, 50.5, 100], 10, 1)
        with pytest.raises(DomainError, match="must be an integer"):
            convergence_study("mean", UnivariateNormal(0, 1), 0.0, [20, 50, 100], 10.5, 1)
