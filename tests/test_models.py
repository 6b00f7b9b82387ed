"""Sampling determinism, conditional structure, and marginal consistency."""

import dataclasses
import json
import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import ndtr, ndtri

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

    def test_uniform_width_must_be_finite(self):
        # Finite ends whose width overflows: every rule over the law would
        # take its panel count from an infinite width (NaN after the cap).
        for a, b in ((-1e308, 1e308), (-math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0),
                     (1.0, 1.0), (2.0, 1.0)):
            with pytest.raises(DomainError, match="b - a finite"):
                UniformLaw(a, b)
        assert UniformLaw(-1e308, 0.0).b - UniformLaw(-1e308, 0.0).a == 1e308
        with pytest.raises(DomainError):
            IndependentProduct(UniformLaw(-1e308, 1e308), NormalLaw())

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


def _oracle_normal(k):
    """The inverse normal CDF at (k + 1/2) 2^-53, or at 1 - 2^-53 where that
    rounds to 1 (the top word k = 2^53 - 1)."""
    return ndtri(np.minimum((k + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53))


def _oracle_sample(model, n: int, seed: int):
    """``sample`` by the documented draw scheme: 53-bit integers k from
    numpy's Generator on the seed's Philox, x from the first n and y or the
    noise from the next n; uniforms a + (b - a) k 2^-53, normals
    ``_oracle_normal(k)``."""
    streams = 1 if isinstance(model, (UnivariateNormal, UniformMax)) else 2
    rng = np.random.Generator(np.random.Philox(key=seed))
    k = rng.integers(0, 2 ** 53, size=(streams, n))
    normal = _oracle_normal
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
        if seed < 0:  # would alias 2^64 - 1, whose stream the next case pins
            with pytest.raises(DomainError, match=r"seed must lie in \[0, 2\^64\)"):
                sample(model, n, seed)
            return
        ds = sample(model, n, seed)
        xs, ys = _oracle_sample(model, n, seed)
        assert ds.xs.tobytes() == xs.tobytes()
        assert (ds.ys is None) == (ys is None)
        if ys is not None:
            assert ds.ys.tobytes() == ys.tobytes()

    def test_oracle_normal_map_matches_from_bits(self):
        k = np.array([0, 2 ** 52, 2 ** 53 - 2, 2 ** 53 - 1])
        expected = NormalLaw().from_bits(k)
        assert np.isfinite(expected).all()
        assert _oracle_normal(k).tobytes() == expected.tobytes()


class TestCountDomain:
    """A non-integer n or replicate count is a DomainError, not numpy's TypeError."""

    @pytest.mark.parametrize("n", [2.5, 3.0, "3", 0])
    def test_sample_rejects_non_integer_n(self, n):
        with pytest.raises(DomainError, match="sample size"):
            sample(UnivariateNormal(0, 1), n, 3)

    @pytest.mark.parametrize("n, replicates", [(2.5, 4), (3, 4.5), (3, -1)])
    def test_sample_batches_rejects_non_integer_counts(self, n, replicates):
        with pytest.raises(DomainError):
            next(models.sample_batches(UnivariateNormal(0, 1), n, 3, replicates))

    def test_numpy_integers_accepted(self):
        expected = sample(UnivariateNormal(0, 1), 3, 3).xs
        assert sample(UnivariateNormal(0, 1), np.int64(3), 3).xs.tolist() == expected.tolist()
        _, xs, _ = next(models.sample_batches(UnivariateNormal(0, 1), np.int32(3), 3,
                                              np.int64(2)))
        assert xs.shape == (2, 3)


class TestBatchedSampling:
    """The batched draws reproduce numpy's SeedSequence, Philox and ``sample``."""

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 3, 2 ** 64 - 1])
    def test_derive_seeds_match_seed_sequence(self, seed):
        replicates = np.r_[np.arange(300), 2 ** 31, 2 ** 32 - 1]
        for attempt in (0, 1, 2 ** 32 - 1):
            expected = [np.random.SeedSequence([seed, int(r), attempt]).generate_state(
                1, np.uint64)[0] for r in replicates]
            got = models.derive_seeds(seed, replicates, attempt)
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
        with pytest.raises(DomainError, match=message):
            sample(UnivariateNormal(0.0, 1.0), 5, seed)

    def test_numpy_integer_seed_accepted(self):
        top = 2 ** 64 - 1
        assert derive_seed(np.uint64(top), 3) == derive_seed(top, 3)
        assert models.derive_seeds(np.uint64(top), [3]).tolist() == [derive_seed(top, 3)]

    @pytest.mark.parametrize("replicate, attempt", [(2.5, 0), ("3", 0), (2, 1.0), (2, "1")])
    def test_derive_seed_rejects_non_integer_indices(self, replicate, attempt):
        # 2.5 would run as replicate 2, and "3" as some stream of its own.
        with pytest.raises(DomainError, match=r"must lie in \[0, 2\^32\)"):
            derive_seed(1, replicate, attempt)
        assert derive_seed(1, np.uint32(2), np.int8(1)) == derive_seed(1, 2, 1)

    @pytest.mark.parametrize("replicates", [[1.5, 2.5], np.array([1.0]), ["1"]])
    def test_derive_seeds_reject_non_integer_indices(self, replicates):
        # [1.5, 2.5] would give the seeds of replicates 1 and 2.
        message = r"replicate indices must be integers in \[0, 2\^32\)"
        with pytest.raises(DomainError, match=message):
            models.derive_seeds(1, replicates)
        assert models.derive_seeds(1, np.array([1, 2], dtype=np.uint32)).tolist() == [
            derive_seed(1, 1), derive_seed(1, 2)]

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


def _random_raw(key: int, count: int) -> list:
    return np.random.Philox(key=key).random_raw(count).tolist()


# Keys whose first Weyl increment, or any, wraps modulo 2^64.
_WRAPPING_KEYS = [2 ** 64 - 0x9E3779B97F4A7C15, 2 ** 64 - 1]


class TestPhiloxKernel:
    """``_philox_raw`` and ``_philox_loop`` against numpy's ``random_raw``."""

    @pytest.mark.parametrize("words", [models._philox_raw, models._philox_loop])
    @pytest.mark.parametrize("count", range(1, 10))
    def test_every_count_of_the_first_blocks(self, words, count):
        keys = [0, 1, 2 ** 63, *_WRAPPING_KEYS, derive_seed(3, 0)]
        raw = words(keys, count)
        assert raw.dtype == np.uint64 and raw.shape == (len(keys), count)
        assert raw.tolist() == [_random_raw(k, count) for k in keys]

    @pytest.mark.parametrize("key", [0, 2 ** 63 + 5, *_WRAPPING_KEYS])
    @pytest.mark.parametrize("count", [1, 4, 5, 50])
    def test_one_key(self, key, count):
        assert models._philox_raw([key], count).tolist() == [_random_raw(key, count)]
        assert models._philox_raw(np.array([key], dtype=np.uint64), count).tolist() == [
            _random_raw(key, count)]

    def test_one_block_for_many_keys(self):
        keys = models.derive_seeds(11, np.arange(500)).tolist() + _WRAPPING_KEYS
        assert models._philox_raw(keys, 4).tolist() == [_random_raw(k, 4) for k in keys]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=20),
           st.integers(1, 256))
    def test_random_keys_and_counts(self, keys, count):
        assert models._philox_raw(keys, count).tolist() == [_random_raw(k, count) for k in keys]

    def test_compiled_loop_keeps_each_key_whole_across_threads(self):
        # Every call shares one bit generator; concurrent callers must still
        # each get their own keys' words.
        keys = [[derive_seed(t, r) for r in range(40)] for t in range(4)]
        got = [[] for _ in keys]

        def run(i):
            for _ in range(20):
                got[i].append(models._philox_loop(keys[i], 37).tolist())

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[[_random_raw(k, 37) for k in ks]] * 20 for ks in keys]

    def test_first_calls_across_threads_build_one_generator(self, monkeypatch):
        # The generator is built on the first call; callers racing to that
        # call must build it once and each still get their own keys' words.
        count = 3 * models._KERNEL_MAX_WORDS
        keys = [[derive_seed(t, r) for r in range(5)] for t in range(8)]
        expected = [[_random_raw(k, count) for k in ks] for ks in keys]
        built, philox = [], np.random.Philox

        def slow_philox(*args, **kwargs):
            time.sleep(0.01)  # widens the window between the check and the set
            built.append(philox(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(models, "_BITGEN", None)
        monkeypatch.setattr(np.random, "Philox", slow_philox)
        got = [None] * len(keys)
        start = threading.Barrier(len(keys))

        def run(i):
            start.wait(timeout=60)
            got[i] = models._philox_loop(keys[i], count).tolist()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(keys))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == expected
        assert len(built) == 1 and models._BITGEN is built[0]


class TestIdentityAffine:
    """``_from_bits`` skips loc = 0 and scale = 1, and ``UniformLaw(0, 1)``
    its affine map, without changing a bit of any value."""

    # The smallest, the largest and the middle 53-bit integers, and some others.
    BITS = np.array([0, 1, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 2, 2 ** 53 - 1,
                     123456789, 2 ** 40 + 7], dtype=np.int64)

    def test_no_standard_value_is_negative_zero(self):
        # (k + 1/2) 2^-53 rounds to exactly 1/2 at k = 2^52, where ndtri
        # gives +0.0; uniforms k 2^-53 start at +0.0.
        assert (2 ** 52 + 0.5) * 2.0 ** -53 == 0.5
        normal = NormalLaw().from_bits(self.BITS)
        uniform = UniformLaw(0.0, 1.0).from_bits(self.BITS)
        assert normal[3] == 0.0 and not np.signbit(normal[3])
        assert not np.signbit(uniform).any() and uniform[0] == 0.0
        assert not np.signbit(normal[normal == 0.0]).any()

    def test_unit_uniform_equals_the_affine_form(self):
        u = UniformLaw(0.0, 1.0).from_bits(self.BITS)
        assert u.tobytes() == (0.0 + 1.0 * (self.BITS * 2.0 ** -53)).tobytes()
        assert UniformLaw(-0.0, 1.0).from_bits(self.BITS).tobytes() == u.tobytes()

    @pytest.mark.parametrize("model", [
        UnivariateNormal(0.0, 1.0), UnivariateNormal(-0.0, 1.0), UnivariateNormal(0.0, 2.5),
        UnivariateNormal(1.5, 1.0), UnivariateNormal(-3.0, 0.25), UniformMax(1.0),
        UniformMax(1.7), UniformMax(1e-300),
    ])
    def test_univariate_values_equal_loc_plus_scale_times_standard(self, model):
        bits = np.stack([self.BITS, self.BITS[::-1]])[None]
        xs, ys = models._from_bits(model, bits)
        if isinstance(model, UniformMax):
            standard = 0.0 + 1.0 * (bits[0] * 2.0 ** -53)
        else:
            standard = ndtri(np.minimum((bits[0] + 0.5) * 2.0 ** -53, 1.0 - 2.0 ** -53))
        assert ys is None and xs.tobytes() == (model.loc + model.scale * standard).tobytes()


class TestTopNormalWord:
    """The top 53-bit word maps to the largest double below 1, not to 1,
    before the inverse normal CDF; every other word keeps its value."""

    def test_top_word_is_finite_and_largest(self):
        top, below = NormalLaw().from_bits(np.array([2 ** 53 - 1, 2 ** 53 - 2]))
        assert (2 ** 53 - 1 + 0.5) * 2.0 ** -53 == 1.0  # what the clamp is for
        assert top == ndtri(np.nextafter(1.0, 0.0)) and np.isfinite(top)
        assert top > below

    def test_only_the_top_word_changes(self):
        bits = np.concatenate((TestIdentityAffine.BITS[TestIdentityAffine.BITS < 2 ** 53 - 1],
                               np.random.default_rng(8).integers(0, 2 ** 53 - 1, 10 ** 5)))
        assert (NormalLaw().from_bits(bits).tobytes()
                == ndtri((bits + 0.5) * 2.0 ** -53).tobytes())

    @pytest.mark.parametrize("model", [UnivariateNormal(0.3, 2.5), BivariateGaussian(0.7),
                                       scenario("A")])
    def test_models_draw_finite_values_from_the_top_word(self, model):
        streams = 1 if isinstance(model, UnivariateNormal) else 2
        bits = np.full((streams, 1, 3), 2 ** 53 - 1, dtype=np.int64)
        xs, ys = models._from_bits(model, bits)
        assert np.isfinite(xs).all() and (ys is None or np.isfinite(ys).all())


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

    @pytest.mark.parametrize("model", [
        scenario("B"),
        BivariateGaussian(0.4),
        IndependentProduct(NormalLaw(), UniformLaw(0.0, 2.0)),
    ])
    def test_nan_argument_rejected(self, model):
        for y, x in ((math.nan, 0.3), (0.3, math.nan),
                     (np.array([0.0, math.nan]), 0.3), (0.3, np.array([0.0, math.nan]))):
            with pytest.raises(DomainError):
                conditional_survival(model, y, x)


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

    def test_univariate_has_no_y_marginal(self):
        with pytest.raises(UnsupportedError):
            marginal_cdf_y(UniformMax(1.0), 0.5)

    @pytest.mark.parametrize("model", [
        BivariateGaussian(0.4),
        IndependentProduct(NormalLaw(), UniformLaw(0.0, 2.0)),
        scenario("A"),  # level-refined x rules
        AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.01),  # the same, tiny noise
    ])
    def test_nan_level_rejected(self, model):
        with pytest.raises(DomainError):
            marginal_cdf_y(model, math.nan)
        with pytest.raises(DomainError):
            marginal_cdf_y(model, np.array([0.0, math.nan]))

    @staticmethod
    def _quad_cdf(model, t):
        """F_Y(t) = E_X Phi((t - g(X)) / sigma) by adaptive quadrature over the
        uniform x support, split where g(x) = t."""
        a, b = model.x_law.support()
        ends = model.link.preimage(t, t, a, b).ravel()
        points = np.unique(ends[(ends > a) & (ends < b)])
        value, _ = integrate.quad(lambda x: ndtr((t - model.link(x)) / model.noise_sigma),
                                  a, b, points=points if len(points) else None,
                                  epsabs=1e-14, epsrel=1e-13, limit=500)
        return value / (b - a)

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("name", ["B", "C"])
    def test_y_marginal_matches_adaptive_quadrature(self, name, order):
        # B's kernel has a transition narrow next to its x support of width
        # 20; a single plain rule misses it near t = 48.17.
        model = scenario(name)
        mean, sd = y_moments(model)
        ts = np.append(np.linspace(mean - 5.0 * sd, mean + 5.0 * sd, 41), 48.17)
        oracle = np.array([self._quad_cdf(model, t) for t in ts])
        assert np.max(np.abs(marginal_cdf_y(model, ts, order) - oracle)) <= 1e-13

    SWEEP_MODELS = {
        "A": scenario("A"),
        "B": scenario("B"),
        "C": scenario("C"),
        "sigma_0.001": AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.001),
    }

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("name", list(SWEEP_MODELS))
    def test_y_marginal_matches_order_256_refined_rules(self, name, order):
        model = self.SWEEP_MODELS[name]
        mean, sd = y_moments(model)
        ts = np.linspace(mean - 5.0 * sd, mean + 5.0 * sd, 2001)
        oracle = x_expectations(
            model, lambda x, i: 1.0 - conditional_survival(model, ts[i], x), ts, order=256)
        assert np.max(np.abs(marginal_cdf_y(model, ts, order) - oracle)) <= 1e-13


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


class TestDistinctRules:
    """Rows of equal levels and cuts share one rule: their sums equal one-row
    calls bit for bit, and the kernel sees each distinct row once."""

    MODELS = [scenario("A"), scenario("B"), scenario("C"), BivariateGaussian(0.6)]

    @staticmethod
    def _kernel(levels, cuts=None, stack=False):
        def kernel(x, i):
            level = levels[i] if levels.ndim == 1 else levels[i, 0] - levels[i, 1]
            value = ndtr(level - x)
            if cuts is not None:
                value = np.where(x < cuts[i], value, 1.0 - value)
            return np.stack((value, value * x)) if stack else value
        return kernel

    def _one_row_calls(self, model, levels, cuts=None, stack=False):
        return np.stack([
            x_expectations(model, self._kernel(levels[j:j + 1],
                                               None if cuts is None else cuts[j:j + 1], stack),
                           levels[j:j + 1], None if cuts is None else cuts[j:j + 1])
            for j in range(len(levels))], axis=-1)[..., 0, :]

    @pytest.mark.parametrize("model", MODELS)
    def test_repeated_levels(self, model):
        levels = np.array([0.4, -1.0, 0.4, 2.5, -1.0, 0.4, 0.0])
        got = x_expectations(model, self._kernel(levels), levels)
        assert np.array_equal(got, self._one_row_calls(model, levels))
        assert got[0] == got[2] == got[5] and got[1] == got[4]

    @pytest.mark.parametrize("model", MODELS)
    def test_repeated_rows_with_cuts_and_stacked_output(self, model):
        levels = np.array([[0.4, 1.0], [0.4, 1.0], [0.4, -1.0], [0.4, 1.0], [-2.0, 0.5]])
        cuts = np.array([0.3, 0.3, 0.3, -0.2, 0.3])
        kernel = self._kernel(levels, cuts, stack=True)
        got = x_expectations(model, kernel, levels, cuts)
        assert got.shape == (2, len(levels))
        assert np.array_equal(got, self._one_row_calls(model, levels, cuts, stack=True))
        # Rows 0 and 1 are one rule; row 2 differs in a level, row 3 in its cut.
        assert np.array_equal(got[:, 0], got[:, 1])

    def test_chatterjee_links_repeat_levels(self):
        # Under C, g(x) = cos(2 pi x) on the outer rule of t1 takes each value
        # about twice: the shared term's case.
        model = scenario("C")
        nodes, _ = x_expectation_rule(model)
        levels = model.link(nodes)
        assert len(np.unique(levels)) < len(levels)
        got = x_expectations(model, self._kernel(levels), levels)
        assert np.array_equal(got, self._one_row_calls(model, levels))

    def test_signed_zeros_stay_apart(self):
        model = scenario("C")
        levels = np.array([0.0, -0.0, 0.0, -0.0])
        sign = lambda x, i: np.copysign(1.0, levels[i]) + 0.0 * x
        assert x_expectations(model, sign, levels).tolist() == pytest.approx([1, -1, 1, -1])
        cuts = np.array([-0.0, 0.0, 0.0, -0.0])
        by_cut = lambda x, i: np.copysign(1.0, cuts[i]) + 0.0 * x
        got = x_expectations(model, by_cut, np.zeros(4), cuts)
        assert got.tolist() == pytest.approx([-1, 1, 1, -1])

    @pytest.mark.parametrize("model", MODELS)
    def test_kernel_sees_each_distinct_row_once(self, model):
        levels = np.array([[1.0, 0.5], [1.0, 0.5], [-0.3, 0.5], [1.0, 0.5], [-0.3, 2.0]])
        cuts = np.array([0.0, 0.0, 0.0, 0.0, -0.0])
        seen = []

        def kernel(x, i):
            seen.append((x.size, i.copy()))
            return self._kernel(levels, cuts)(x, i)

        x_expectations(model, kernel, levels, cuts)
        rows = np.concatenate([i for _, i in seen])
        # Row 1 and 3 repeat row 0; row 4's cut is -0.0, a rule of its own.
        assert sorted(np.unique(rows).tolist()) == [0, 2, 4]
        nodes, _, counts = x_expectation_rules(model, levels[[0, 2, 4]], cuts[[0, 2, 4]])
        assert sum(size for size, _ in seen) == rows.size == nodes.size == counts.sum()

    @pytest.mark.parametrize("model", MODELS)
    def test_empty_requests_give_empty_arrays(self, model):
        value = lambda x, i: x
        stacked = lambda x, i: np.stack((x, x))
        for got, shape in [
            (x_expectations(model, value, []), (0,)),
            (x_expectations(model, value, np.empty((0, 2)), cuts=[]), (0,)),
            (x_expectations(model, stacked, np.empty(0)), (2, 0)),
            (marginal_cdf_y(model, []), (0,)),
            (marginal_cdf_y(model, np.empty((0, 3))), (0, 3)),
        ]:
            assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == shape


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

    @pytest.mark.parametrize("bad,key", [
        ({"variant": "bivariate_gaussian", "rho": 0.5, "rh0": 3}, "rh0"),
        ({"variant": "univariate_normal", "mu": 0, "sigma": 1, "theta": 2}, "theta"),
        ({"variant": "bivariate_gaussian", "rho": 0.5, "x_law": {"name": "normal"}}, "x_law"),
        ({"variant": "additive_noise", "x_law": {"name": "normal", "a": 0},
          "link": {"name": "square"}, "noise_sigma": 1}, "a"),
        ({"variant": "independent_product", "x_law": {"name": "normal"},
          "y_law": {"name": "uniform", "a": 0, "b": 1, "c": 2}}, "c"),
        ({"variant": "additive_noise", "x_law": {"name": "normal"},
          "link": {"name": "linear", "c": 0.5, "slope": 2}, "noise_sigma": 1}, "slope"),
    ])
    def test_unknown_key_rejected_by_name(self, bad, key):
        with pytest.raises(ParseError, match=f"unknown field {key!r}"):
            model_from_json(bad)

    def test_optional_link_coefficient_may_be_null(self):
        obj = {"variant": "additive_noise", "x_law": {"name": "normal"},
               "link": {"name": "square", "c": None}, "noise_sigma": 1}
        assert model_from_json(obj) == AdditiveNoise(NormalLaw(), Link("square"), 1.0)


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
