"""Sampling determinism, conditional structure, and marginal consistency."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from aesf import (
    AdditiveNoise,
    BivariateGaussian,
    DomainError,
    IndependentProduct,
    Link,
    NormalLaw,
    ParseError,
    UniformLaw,
    UniformMax,
    UnivariateNormal,
    UnsupportedError,
    conditional_survival,
    derive_seed,
    expect_y_prime,
    marginal_cdf_x,
    marginal_cdf_y,
    model_from_json,
    model_to_json,
    sample,
    scenario,
)
from aesf import models
from aesf.models import x_expectation_rule, x_expectation_rules, x_expectations, y_moments
from y_prime_quadrature import expect_y_prime as truncating_expect

# Determinism pins: frozen outputs of the documented draw scheme
# (Philox keyed by the seed; inverse-CDF normals on (k+1/2)/2^53 uniforms).
GAUSS_XS_123 = [0.042638728124941266, -0.9009766014754629, -0.7966152309922583,
                -0.8065281092893322, -0.35094115019380573]
GAUSS_YS_123 = [-0.8602575486069085, 0.40311329288383546, -0.6267800668908523,
                -0.13396067269539225, -1.5631535840223096]
UMAX_XS_99 = [0.0615410589589932, 0.07202773205633561, 0.5015474663124256,
              0.45746805294846726]


class TestValidation:
    def test_rho_strictly_inside(self):
        with pytest.raises(DomainError):
            BivariateGaussian(1.0)
        with pytest.raises(DomainError):
            BivariateGaussian(-1.0)

    def test_positive_parameters(self):
        with pytest.raises(DomainError):
            UniformMax(0.0)
        with pytest.raises(DomainError):
            UnivariateNormal(0.0, -1.0)
        with pytest.raises(DomainError):
            AdditiveNoise(NormalLaw(), Link("linear", 0.7), 0.0)

    def test_scenarios_reconstruct_exactly(self):
        a = scenario("A")
        assert a == AdditiveNoise(NormalLaw(), Link("linear", 0.7), math.sqrt(1 - 0.49))
        assert scenario("B") == AdditiveNoise(UniformLaw(-10, 10), Link("square"), math.sqrt(10))
        assert scenario("C") == AdditiveNoise(UniformLaw(-1, 1), Link("cos2pi"), 0.5)

    def test_link_validation(self):
        with pytest.raises(DomainError):
            Link("linear")
        with pytest.raises(DomainError):
            Link("square", 2.0)
        with pytest.raises(DomainError):
            Link("cubic")


class TestSampling:
    def test_bit_identical_repeats(self):
        m = scenario("C")
        d1, d2 = sample(m, 1000, 7), sample(m, 1000, 7)
        assert np.array_equal(d1.xs, d2.xs) and np.array_equal(d1.ys, d2.ys)

    def test_golden_values(self):
        d = sample(BivariateGaussian(0.7), 5, 123)
        assert d.xs.tolist() == GAUSS_XS_123
        assert d.ys.tolist() == GAUSS_YS_123
        assert sample(UniformMax(1.0), 4, 99).xs.tolist() == UMAX_XS_99

    def test_uniform_max_support(self):
        d = sample(UniformMax(1.0), 10 ** 6, 5)
        assert d.ys is None
        assert 0.0 <= d.xs.min() and d.xs.max() <= 1.0
        assert d.xs.max() >= 0.99999  # ~1 - 1e-4343 chance of failing

    def test_gaussian_correlation(self):
        d = sample(BivariateGaussian(0.7), 10 ** 6, 31)
        r = np.corrcoef(d.xs, d.ys)[0, 1]
        assert abs(r - 0.7) <= 0.003  # 4 sigma ~ 0.002

    def test_seed_changes_stream(self):
        assert not np.array_equal(sample(UniformMax(1.0), 8, 1).xs,
                                  sample(UniformMax(1.0), 8, 2).xs)

    def test_derived_seeds_distinct(self):
        seeds = {derive_seed(7, r, a) for r in range(50) for a in range(3)}
        assert len(seeds) == 150

    def test_n_zero_rejected(self):
        with pytest.raises(DomainError):
            sample(UniformMax(1.0), 0, 1)

    def test_non_model_rejected(self):
        with pytest.raises(DomainError):
            sample(object(), 3, 1)


def _oracle_sample(model, n: int, seed: int):
    """``sample`` by the documented draw scheme: 53-bit integers k from
    numpy's Generator on the seed's Philox, x from the first n and y or the
    noise from the next n; uniforms a + (b - a) k 2^-53, normals the inverse
    CDF at (k + 1/2) 2^-53."""
    streams = 1 if isinstance(model, (UnivariateNormal, UniformMax)) else 2
    rng = np.random.Generator(np.random.Philox(key=seed & (2 ** 64 - 1)))
    k = rng.integers(0, 2 ** 53, size=(streams, n))
    normal = lambda k: ndtri((k + 0.5) * 2.0 ** -53)
    uniform = lambda a, b, k: a + (b - a) * (k * 2.0 ** -53)
    from_law = lambda law, k: normal(k) if law == NormalLaw() else uniform(law.a, law.b, k)
    if isinstance(model, UnivariateNormal):
        return model.mu + model.sigma * normal(k[0]), None
    if isinstance(model, UniformMax):
        return uniform(0.0, model.theta, k[0]), None
    if isinstance(model, IndependentProduct):
        return from_law(model.x_law, k[0]), from_law(model.y_law, k[1])
    if isinstance(model, BivariateGaussian):
        x = normal(k[0])
        return x, model.rho * x + math.sqrt(1.0 - model.rho ** 2) * normal(k[1])
    x = from_law(model.x_law, k[0])
    g = {"linear": lambda t: model.link.c * t, "square": lambda t: t * t,
         "cos2pi": lambda t: np.cos(2.0 * math.pi * t)}[model.link.name]
    return x, g(x) + model.noise_sigma * normal(k[1])


class TestSampleOracle:
    """Scalar ``sample`` against the draw scheme written out with numpy's Generator."""

    @pytest.mark.parametrize("model", [
        UnivariateNormal(0.3, 2.5), UniformMax(1.7), BivariateGaussian(0.7), scenario("A"),
        scenario("B"), scenario("C"), IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0)),
    ])
    @pytest.mark.parametrize("n", [1, 32, 33, 600])
    @pytest.mark.parametrize("seed", [0, -1, 2 ** 64 - 1])
    def test_sample_matches_oracle(self, model, n, seed):
        ds = sample(model, n, seed)
        xs, ys = _oracle_sample(model, n, seed)
        assert ds.xs.tobytes() == xs.tobytes()
        assert (ds.ys is None) == (ys is None)
        if ys is not None:
            assert ds.ys.tobytes() == ys.tobytes()


class TestBatchedSampling:
    """The batched draws reproduce numpy's SeedSequence, Philox and ``sample``."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1])
    def test_derive_seeds_match_seed_sequence(self, seed):
        replicates = np.r_[np.arange(300), 2 ** 31, 2 ** 32 - 1]
        expected = [np.random.SeedSequence([seed, int(r), 0]).generate_state(1, np.uint64)[0]
                    for r in replicates]
        got = models.derive_seeds(seed, replicates)
        assert got.dtype == np.uint64 and got.tolist() == [int(e) for e in expected]

    def test_derive_seeds_reject_indices_outside_32_bits(self):
        for bad in (-1, 2 ** 32):
            with pytest.raises(DomainError):
                models.derive_seeds(3, [0, bad])

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 1.5])
    def test_seeds_outside_the_key_domain_rejected(self, seed):
        # -1 would alias 2^64 - 1, and 1.5 would run as seed 1.
        message = r"seed must lie in \[0, 2\^64\)"
        with pytest.raises(DomainError, match=message):
            derive_seed(seed, 0)
        with pytest.raises(DomainError, match=message):
            models.derive_seeds(seed, [0, 1])
        with pytest.raises(DomainError, match=message):
            models.derive_seeds(seed, [])

    def test_numpy_integer_seed_accepted(self):
        top = 2 ** 64 - 1
        assert derive_seed(np.uint64(top), 3) == derive_seed(top, 3)
        assert models.derive_seeds(np.uint64(top), [3]).tolist() == [derive_seed(top, 3)]

    def test_derive_seed_rejects_indices_outside_32_bits(self):
        for replicate, attempt in ((-1, 0), (2 ** 32, 0), (0, -1), (0, 2 ** 32)):
            with pytest.raises(DomainError):
                derive_seed(1, replicate, attempt)
        top = 2 ** 32 - 1
        expected = np.random.SeedSequence([1, top, top]).generate_state(1, np.uint64)[0]
        assert derive_seed(1, top, top) == int(expected)
        assert derive_seed(1, top) == int(models.derive_seeds(1, [top])[0])

    def test_philox_kernel_matches_random_raw(self):
        # both word routes: the vectorised kernel and numpy's compiled loop
        keys = [0, 1, 2 ** 63, 2 ** 64 - 1] + [derive_seed(9, r) for r in range(60)]
        for words in (models._philox_raw, models._philox_loop):
            for count in (1, 4, 64, 65, 103, 3200):
                raw = words(keys, count)
                assert raw.shape == (len(keys), count)
                for key, row in zip(keys, raw):
                    assert row.tolist() == np.random.Philox(key=key).random_raw(count).tolist()

    @pytest.mark.parametrize("model", [
        UnivariateNormal(0.3, 2.5), UniformMax(1.7), BivariateGaussian(0.7), scenario("A"),
        scenario("B"), scenario("C"), IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0)),
    ])
    @pytest.mark.parametrize("n", [5, 600])  # streams drawn by the kernel, then by numpy
    def test_batches_equal_per_replicate_samples(self, model, n, monkeypatch):
        # 3 replicates per batch, so 40 replicates end in a short batch; at
        # n = 5 the seeds are derived in blocks of fewer than 40 replicates
        words = n * (2 if models.is_bivariate(model) else 1)
        monkeypatch.setattr(models, "_CHUNK_WORDS", 3 * words + 1)
        seen = 0
        for start, xs, ys in models.sample_batches(model, n, 41, 40):
            assert start == seen and xs.shape == (min(3, 40 - start), n)
            for r in range(start, start + len(xs)):
                ds = sample(model, n, derive_seed(41, r))
                assert xs[r - start].tobytes() == ds.xs.tobytes()
                assert (ys is None) == (ds.ys is None)
                if ys is not None:
                    assert ys[r - start].tobytes() == ds.ys.tobytes()
            seen += len(xs)
        assert seen == 40


class TestGaussianIsAdditiveNoise:
    """BivariateGaussian(rho) is the law Y = rho X + sqrt(1 - rho^2) Z."""

    @pytest.mark.parametrize("rho", [-0.95, -0.3, 0.0, 0.5, 0.7, 0.999])
    def test_same_bits_as_additive_noise(self, rho):
        gauss = BivariateGaussian(rho)
        additive = AdditiveNoise(NormalLaw(), Link("linear", rho), math.sqrt(1 - rho ** 2))
        for seed in (0, 7, 2 ** 40 + 3):
            a, b = sample(gauss, 64, seed), sample(additive, 64, seed)
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        ys, xs = np.linspace(-4.0, 4.0, 17)[:, None], np.linspace(-5.0, 5.0, 23)
        assert np.array_equal(conditional_survival(gauss, ys, xs),
                              conditional_survival(additive, ys, xs))
        levels = np.linspace(-3.0, 3.0, 13)
        for got, want in zip(x_expectation_rules(gauss, levels, 0.5 * levels, order=16),
                             x_expectation_rules(additive, levels, 0.5 * levels, order=16)):
            assert np.array_equal(got, want)

    def test_protocol_attributes(self):
        gauss = BivariateGaussian(0.7)
        assert gauss.x_law == gauss.y_law == NormalLaw()
        assert gauss.link == Link("linear", 0.7)
        assert gauss.noise_sigma == math.sqrt(1.0 - 0.7 ** 2)
        assert scenario("A").y_law is None
        product = IndependentProduct(NormalLaw(), UniformLaw(0.0, 1.0))
        assert product.link is None and product.noise_sigma is None

    def test_gaussian_keeps_one_field(self):
        assert [f.name for f in dataclasses.fields(BivariateGaussian)] == ["rho"]
        assert BivariateGaussian(0.7) == BivariateGaussian(0.7)
        assert hash(BivariateGaussian(0.7)) == hash(BivariateGaussian(0.7))
        assert BivariateGaussian(0.7) != scenario("A")


class TestConditionalSurvival:
    def test_scenario_a_median(self):
        for x in (-1.3, 0.0, 2.4):
            assert conditional_survival(scenario("A"), 0.7 * x, x) == 0.5

    def test_gaussian_rho_zero_ignores_x(self):
        m = BivariateGaussian(1e-300)  # rho must be nonzero-able; use ~0
        vals = [float(conditional_survival(m, 0.31, x)) for x in (-2.0, 0.0, 5.0)]
        assert max(vals) - min(vals) <= 1e-12
        assert vals[0] == pytest.approx(1.0 - 0.6217195836, abs=1e-6)

    def test_scenario_b_at_link_value(self):
        assert conditional_survival(scenario("B"), 4.0, 2.0) == 0.5

    def test_independent_product_ignores_x(self):
        m = IndependentProduct(NormalLaw(), UniformLaw(0.0, 2.0))
        v = conditional_survival(m, 0.5, 123.0)
        assert float(v) == pytest.approx(0.75, abs=1e-15)
        arr = conditional_survival(m, 0.5, np.array([0.0, 1.0, 2.0]))
        assert arr.shape == (3,) and np.allclose(arr, 0.75)

    def test_nonincreasing_in_y(self):
        for m in (scenario("A"), scenario("B"), scenario("C"), BivariateGaussian(0.4)):
            ys = np.linspace(-5, 5, 41)
            vals = conditional_survival(m, ys, 0.3)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_univariate_unsupported(self):
        with pytest.raises(UnsupportedError):
            conditional_survival(UniformMax(1.0), 0.5, 0.5)


class TestMarginals:
    def test_gaussian_median(self):
        assert marginal_cdf_y(BivariateGaussian(0.4), 0.0) == 0.5

    def test_scenario_a_is_standard_normal(self):
        # 0.7^2 + (1 - 0.7^2) = 1, so Y is standard normal
        from aesf import normal_cdf
        for t in (-2.0, -0.3, 0.0, 1.1, 2.7):
            assert marginal_cdf_y(scenario("A"), t) == pytest.approx(
                normal_cdf(t), abs=1e-8)

    def test_scenario_c_total_mass(self):
        assert marginal_cdf_y(scenario("C"), 10.0) == pytest.approx(1.0, abs=1e-10)

    def test_consistency_with_conditional_survival(self):
        # same quantity along two routes: direct quadrature of the kernel
        # vs expectation of 1 - survival over the x rule
        for m in (scenario("B"), scenario("C"), BivariateGaussian(0.6)):
            for t in (-1.0, 0.4, 3.0):
                nodes, weights = x_expectation_rule(m, levels=[t])
                via_survival = float(weights @ (1.0 - conditional_survival(m, t, nodes)))
                assert marginal_cdf_y(m, t) == pytest.approx(via_survival, abs=1e-8)

    def test_empirical_cdf_matches(self):
        # Dvoretzky-Kiefer-Wolfowitz-scale bound at ~4 sigma for n = 1e6
        m = scenario("C")
        ys = np.sort(sample(m, 10 ** 6, 17).ys)
        probe = ys[:: 10 ** 4]
        ecdf = np.searchsorted(ys, probe, side="right") / ys.size
        cdf = np.array([marginal_cdf_y(m, t) for t in probe])
        assert np.max(np.abs(ecdf - cdf)) <= 0.005

    def test_marginal_cdf_x(self):
        assert marginal_cdf_x(scenario("B"), 0.0) == 0.5
        assert marginal_cdf_x(UniformMax(2.0), 1.0) == 0.5
        assert marginal_cdf_x(UnivariateNormal(1.0, 2.0), 1.0) == 0.5

    @pytest.mark.parametrize("model", [
        UnivariateNormal(1.0, 2.0), UniformMax(2.0), BivariateGaussian(0.4), scenario("C"),
    ])
    def test_marginal_cdf_x_rejects_nan(self, model):
        with pytest.raises(DomainError):
            marginal_cdf_x(model, math.nan)
        with pytest.raises(DomainError):
            marginal_cdf_x(model, np.array([0.0, math.nan]))

    def test_univariate_has_no_y_marginal(self):
        with pytest.raises(UnsupportedError):
            marginal_cdf_y(UniformMax(1.0), 0.5)

    @pytest.mark.parametrize("model", [
        BivariateGaussian(0.4),
        IndependentProduct(NormalLaw(), UniformLaw(0.0, 2.0)),
        scenario("A"),  # one plain x rule
        AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.01),  # level-refined rules
    ])
    def test_nan_level_rejected(self, model):
        with pytest.raises(DomainError):
            marginal_cdf_y(model, math.nan)
        with pytest.raises(DomainError):
            marginal_cdf_y(model, np.array([0.0, math.nan]))


class TestBatchedRules:
    # Levels across and beyond every model's y range. 1009 is prime, so with
    # any batch of more than one level the last batch is a partial one.
    LEVELS = np.random.default_rng(5).normal(0.0, 3.0, 1009)

    @pytest.mark.parametrize("model", [
        scenario("A"), scenario("B"), scenario("C"),
        BivariateGaussian(0.6), BivariateGaussian(0.0),
        IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0)),
        AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.001),
    ])
    def test_rules_equal_single_rules_bit_for_bit(self, model):
        levels = self.LEVELS[:150]
        cuts = 0.1 * levels
        nodes, weights, counts = x_expectation_rules(model, levels, cuts)
        assert counts.sum() == nodes.size == weights.size
        for t, c, end, count in zip(levels, cuts, np.cumsum(counts), counts):
            single_nodes, single_weights = x_expectation_rule(model, levels=[t], cuts=[c])
            assert np.array_equal(nodes[end - count:end], single_nodes)
            assert np.array_equal(weights[end - count:end], single_weights)

    def test_sums_do_not_depend_on_batching(self, monkeypatch):
        m = scenario("C")
        single = np.array([
            x_expectations(m, lambda x, i, t=t: conditional_survival(m, t, x), [t])[0]
            for t in self.LEVELS])
        for chunk in (100, 333, models._CHUNK_PANELS):
            monkeypatch.setattr(models, "_CHUNK_PANELS", chunk)
            batched = x_expectations(
                m, lambda x, i: conditional_survival(m, self.LEVELS[i], x), self.LEVELS)
            assert np.array_equal(batched, single), chunk

    def test_sums_match_the_scalar_rule(self):
        m = scenario("B")
        levels = self.LEVELS[:40]
        batched = x_expectations(
            m, lambda x, i: conditional_survival(m, levels[i], x), levels)
        for t, v in zip(levels, batched):
            nodes, weights = x_expectation_rule(m, levels=[t])
            assert v == pytest.approx(weights @ conditional_survival(m, t, nodes), abs=1e-14)


class TestExpectYPrime:
    @pytest.mark.parametrize("model", [
        scenario("A"), scenario("B"), scenario("C"),
        BivariateGaussian(0.7),
        IndependentProduct(UniformLaw(-1, 1), NormalLaw()),
    ])
    def test_total_mass(self, model):
        assert expect_y_prime(model, lambda t: np.ones_like(t)) == pytest.approx(
            1.0, abs=1e-10)

    def test_indicator_below_median_scenario_a(self):
        v = expect_y_prime(scenario("A"), lambda t: (t < 0.0).astype(float))
        assert v == pytest.approx(0.5, abs=1e-6)

    def test_zero_mean_gaussian(self):
        assert expect_y_prime(BivariateGaussian(0.7), lambda t: t) == pytest.approx(
            0.0, abs=1e-10)

    @pytest.mark.parametrize("model", [scenario("A"), scenario("C"),
                                       BivariateGaussian(0.3),
                                       IndependentProduct(NormalLaw(), UniformLaw(0, 3))])
    def test_truncated_route_matches_marginal_cdf(self, model):
        # E[1(Y' < c)] through the truncation boundary equals F_Y(c)
        for c in (-0.8, 0.2, 1.4):
            v = truncating_expect(model, lambda t: np.ones_like(t), upper=c)
            assert v == pytest.approx(marginal_cdf_y(model, c), abs=1e-8)

    @pytest.mark.parametrize("model", [
        scenario("A"), scenario("B"), scenario("C"),
        BivariateGaussian(0.7),
        IndependentProduct(UniformLaw(-1, 1), NormalLaw()),
    ])
    def test_equals_the_untruncated_oracle(self, model):
        h = lambda t: conditional_survival(model, t, 0.4) ** 2
        for order in (32, 64):
            assert expect_y_prime(model, h, order=order) == truncating_expect(
                model, h, order=order)

    def test_moments_match_samples(self):
        m = scenario("B")
        mean, sd = y_moments(m)
        ys = sample(m, 10 ** 6, 3).ys
        assert mean == pytest.approx(ys.mean(), abs=5 * sd / 1000)
        assert sd == pytest.approx(ys.std(), rel=0.01)


class TestJson:
    @pytest.mark.parametrize("model", [
        BivariateGaussian(0.7),
        scenario("A"), scenario("B"), scenario("C"),
        UniformMax(2.5),
        UnivariateNormal(-1.0, 3.0),
        IndependentProduct(UniformLaw(-1, 1), NormalLaw()),
    ])
    def test_round_trip(self, model):
        assert model_from_json(model_to_json(model)) == model

    def test_gaussian_json_has_only_rho(self):
        assert model_to_json(BivariateGaussian(0.7)) == {"variant": "bivariate_gaussian",
                                                          "rho": 0.7}

    @pytest.mark.parametrize("bad", [
        {},
        {"variant": "mystery"},
        {"variant": "bivariate_gaussian"},
        {"variant": "additive_noise", "x_law": {"name": "normal"}},
        {"variant": "uniform_max", "theta": "wide"},
        "not even a dict",
    ])
    def test_bad_json_rejected(self, bad):
        with pytest.raises(ParseError):
            model_from_json(bad)


class TestExpectYPrimeNan:
    # A NaN bound or sharp level used to give a plausible number: 0.0 under
    # scenarios A and C, 0.9999999999999991 under the Gaussian and 1.0 under
    # the independent product for a total-mass integrand. The bound and the
    # sharp levels now exist only in the truncating oracle.
    MODELS = [scenario("A"), scenario("C"), BivariateGaussian(0.7),
              IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))]

    @pytest.mark.parametrize("model", MODELS)
    def test_nan_upper_rejected(self, model):
        with pytest.raises(DomainError):
            truncating_expect(model, lambda t: np.ones_like(t), upper=math.nan)

    @pytest.mark.parametrize("model", MODELS)
    def test_nan_sharp_level_rejected(self, model):
        with pytest.raises(DomainError):
            truncating_expect(model, lambda t: np.ones_like(t), sharp_levels=(0.5, math.nan))
        with pytest.raises(DomainError):
            truncating_expect(model, lambda t: np.ones_like(t), upper=0.3,
                              sharp_levels=(math.nan,))

    @pytest.mark.parametrize("model", MODELS)
    def test_infinite_upper_truncates_nothing(self, model):
        h = lambda t: conditional_survival(model, t, 0.4)
        assert truncating_expect(model, h, upper=math.inf) == pytest.approx(
            truncating_expect(model, h), abs=1e-12)
        assert truncating_expect(model, h, upper=-math.inf) == 0.0


_finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6)
_positive = st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False)
_laws = st.one_of(
    st.just(NormalLaw()),
    # |a| <= 1e6 and a width >= 1e-6, so a + width > a after rounding.
    st.tuples(_finite, _positive).map(lambda ab: UniformLaw(ab[0], ab[0] + ab[1])))
_links = st.one_of(st.just(Link("square")), st.just(Link("cos2pi")),
                   _finite.map(lambda c: Link("linear", c)))
_models = st.one_of(
    st.floats(min_value=-0.999999, max_value=0.999999).map(BivariateGaussian),
    st.builds(AdditiveNoise, _laws, _links, _positive),
    _positive.map(UniformMax),
    st.builds(UnivariateNormal, _finite, _positive),
    st.builds(IndependentProduct, _laws, _laws),
)


class TestJsonProperty:
    @settings(max_examples=300, deadline=None)
    @given(_models)
    def test_round_trip_of_every_model_class(self, model):
        obj = model_to_json(model)
        assert model_from_json(obj) == model
        # and through the text form the CLI reads
        assert model_from_json(json.loads(json.dumps(obj))) == model
