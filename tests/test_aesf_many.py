"""AESF over many points: the closed-form Chatterjee inner integrals, pinned
grid values, chunking and input validation."""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from aesf import (
    AdditiveNoise,
    AesfRequest,
    BivariateGaussian,
    DomainError,
    FunctionalId,
    IndependentProduct,
    Link,
    NormalLaw,
    UniformLaw,
    UniformMax,
    UnivariateNormal,
    UnsupportedError,
    aesf,
    aesf_many,
    bvn_cdf,
    conditional_survival,
    scenario,
)
from aesf import closedform
from y_prime_quadrature import expect_y_prime

GAUSS = BivariateGaussian(0.7)
INDEP = IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))
PINNED = json.loads((Path(__file__).parent / "data" / "aesf_grids_41.json").read_text())


def _noisy_identity(sigma):
    return AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), sigma)


def _grid_points(x_lo, x_hi, y_lo, y_hi, n=41):
    xs, ys = np.meshgrid(np.linspace(x_lo, x_hi, n), np.linspace(y_lo, y_hi, n), indexing="ij")
    return np.column_stack((xs.ravel(), ys.ravel()))


class TestOwenIdentities:
    """The two normal integrals that replace the inner Z' quadrature of the
    Chatterjee terms (Owen, "A table of normal integrals", 1980), against
    adaptive quadrature of their left-hand sides."""

    GRID = np.linspace(-8.0, 8.0, 9)

    def test_truncated_integral(self):
        # int_{-inf}^{zeta} Phi(a - z) phi(z) dz = Phi_2(zeta, a / sqrt 2; 1 / sqrt 2)
        from scipy import integrate, stats
        from scipy.special import ndtr

        for a in self.GRID:
            for zeta in self.GRID:
                expected = integrate.quad(lambda z: ndtr(a - z) * stats.norm.pdf(z),
                                          -np.inf, zeta, epsabs=1e-14, epsrel=1e-13,
                                          limit=200)[0]
                assert bvn_cdf(zeta, a / math.sqrt(2.0), math.sqrt(0.5)) == pytest.approx(
                    expected, abs=1e-12), (a, zeta)

    def test_square_expectation(self):
        # E_Z[Phi(a - Z)^2] = Phi_2(a / sqrt 2, a / sqrt 2; 1 / 2)
        from scipy import integrate, stats
        from scipy.special import ndtr

        for a in self.GRID:
            expected = integrate.quad(lambda z: ndtr(a - z) ** 2 * stats.norm.pdf(z),
                                      -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13,
                                      limit=200)[0]
            h = a / math.sqrt(2.0)
            assert bvn_cdf(h, h, 0.5) == pytest.approx(expected, abs=1e-12), a


class TestClosedFormChatterjeeTerms:
    """t3 and t4 of the Chatterjee AESF through the bivariate normal CDF,
    against the double quadrature over (X', Z') of the truncating
    ``expect_y_prime`` kept in ``y_prime_quadrature``."""

    MODELS = [scenario("A"), scenario("B"), scenario("C"),
              _noisy_identity(0.1), _noisy_identity(0.01), _noisy_identity(0.001)]
    POINTS = {0: [(-1.5, 0.4), (0.2, -2.0), (2.5, 2.1)],
              1: [(-7.0, 30.0), (1.0, 2.0), (9.5, 95.0)],
              2: [(-0.9, 0.3), (0.1, -1.2), (0.5, -0.3)]}
    UNIT_POINTS = [(0.3, 0.6), (0.8, 0.75), (0.55, 0.551)]

    @staticmethod
    @functools.lru_cache(maxsize=None)
    def _double_quadrature(index, x, y, order):
        model = TestClosedFormChatterjeeTerms.MODELS[index]
        surv = lambda ts: conditional_survival(model, ts, x)
        sharp = (float(model.link(x)),)
        return (expect_y_prime(model, lambda ts: surv(ts) ** 2, sharp_levels=sharp, order=order),
                expect_y_prime(model, surv, upper=y, sharp_levels=sharp, order=order))

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("index", range(6))
    def test_against_double_quadrature(self, index, order):
        model = self.MODELS[index]
        points = np.array(self.POINTS.get(index, self.UNIT_POINTS))
        x, y = points[:, 0], points[:, 1]
        t3 = closedform._survival_square_means(model, x, order)
        t4 = closedform._truncated_survival_means(model, x, y, order)
        for i, (a, b) in enumerate(points.tolist()):
            # The oracle runs at 128 nodes. At 32 its inner 32-node Hermite
            # rule for t3 is off by up to 1.5e-13 under scenarios B and C,
            # while the closed form at 32 is within 1e-15 of it at 128.
            old_t3, old_t4 = self._double_quadrature(index, a, b, 128)
            assert abs(t3[i] - old_t3) <= 1e-14, (a, b)
            assert abs(t4[i] - old_t4) <= 1e-14, (a, b)
            if order >= 64:
                old_t3, old_t4 = self._double_quadrature(index, a, b, order)
                assert abs(t3[i] - old_t3) <= 1e-14, (a, b)
                assert abs(t4[i] - old_t4) <= 1e-14, (a, b)

    def test_far_points_saturate_instead_of_overflowing(self):
        # g(x) = x^2 overflows to inf at x = 1e200; ndtr saturates there in
        # the double rule, and so do the clipped bvn arguments.
        with np.errstate(over="ignore"):
            values = aesf_many("chatterjee", scenario("B"),
                               [(1e200, 1.0), (0.0, 1e308), (-1e200, -1e308)])
        assert np.all(np.isfinite(values))


class TestPinnedGrids:
    # aesf_many against the scalar values that point-by-point aesf gave on
    # the figure 1-4 grids before it was rewritten (tests/data).
    @staticmethod
    def _check(values, pinned):
        pinned = np.asarray(pinned)
        assert values.shape == pinned.shape
        assert np.all(np.abs(values - pinned) <= 1e-12 * np.maximum(1.0, np.abs(pinned)))

    @pytest.mark.parametrize("tag", ["kendall", "spearman"])
    def test_gaussian_figures(self, tag):
        self._check(aesf_many(tag, GAUSS, _grid_points(-3.0, 3.0, -3.0, 3.0)), PINNED[tag])

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_chatterjee_figure(self, name):
        pinned = PINNED[f"chatterjee_{name}"]
        points = _grid_points(*pinned["window"])
        self._check(aesf_many("chatterjee", scenario(name), points), pinned["values"])


class TestChunking:
    CASES = [
        ("kendall", GAUSS), ("spearman", GAUSS), ("chatterjee", GAUSS),
        ("kendall", scenario("B")), ("chatterjee", scenario("A")),
        ("chatterjee", scenario("C")), ("spearman", INDEP), ("chatterjee", INDEP),
    ]
    POINTS = np.random.default_rng(7).normal(0.0, 1.5, (25, 2))

    @pytest.mark.parametrize("tag,model", CASES)
    def test_bit_identical_across_chunks(self, tag, model, monkeypatch):
        # Repeated coordinates, so that per-distinct terms are shared.
        points = np.vstack((self.POINTS, self.POINTS[:5, ::-1], self.POINTS[:4]))
        assert len(points) <= closedform._CHUNK_POINTS
        whole = aesf_many(tag, model, points)
        for chunk, count in ((13, 3), (17, 2)):
            monkeypatch.setattr(closedform, "_CHUNK_POINTS", chunk)
            assert -(-len(points) // chunk) == count
            assert np.array_equal(aesf_many(tag, model, points), whole), chunk
        singles = [aesf(AesfRequest(tag, model, tuple(p))) for p in points.tolist()]
        assert np.array_equal(whole, singles)

    @pytest.mark.parametrize("tag,model,points", [
        ("mean", UnivariateNormal(1.0, 2.0), [0.5, -3.0, 1.0, 7.25]),
        ("variance", UniformMax(2.0), [0.0, 0.5, 1.9]),
        ("uniform_max", UniformMax(2.0), [0.0, 2.0, 1.5, 2.0]),
        ("phi_linear", UnivariateNormal(0.5, 1.0), [0.1, -1.0, 2.0]),
    ])
    def test_scalar_functionals(self, tag, model, points, monkeypatch):
        f = FunctionalId(tag, g="square", phi="sine") if tag == "phi_linear" else tag
        whole = aesf_many(f, model, points)
        monkeypatch.setattr(closedform, "_CHUNK_POINTS", 2)
        assert np.array_equal(aesf_many(f, model, points), whole)
        assert whole.tolist() == [aesf(AesfRequest(f, model, p)) for p in points]


class TestValidation:
    def test_no_points_give_an_empty_array(self):
        for tag, model, empty in (("chatterjee", scenario("A"), np.empty((0, 2))),
                                  ("kendall", GAUSS, []),
                                  ("mean", UnivariateNormal(0.0, 1.0), np.empty(0))):
            values = aesf_many(tag, model, empty)
            assert isinstance(values, np.ndarray) and values.shape == (0,)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        for column in (0, 1):
            points = np.zeros((3, 2))
            points[1, column] = bad
            for model in (GAUSS, scenario("C")):
                with pytest.raises(DomainError):
                    aesf_many("chatterjee", model, points)
        with pytest.raises(DomainError):
            aesf_many("variance", UnivariateNormal(0.0, 1.0), [0.0, bad])

    def test_shape_must_match_the_functional(self):
        with pytest.raises(DomainError):
            aesf_many("mean", UnivariateNormal(0.0, 1.0), np.zeros((4, 2)))
        with pytest.raises(DomainError):
            aesf_many("kendall", GAUSS, np.zeros(4))
        with pytest.raises(DomainError):
            aesf_many("spearman", GAUSS, np.zeros((4, 3)))
        with pytest.raises(DomainError):
            aesf_many("kendall", GAUSS, [("a", 1.0)])

    def test_unsupported_pair(self):
        with pytest.raises(UnsupportedError):
            aesf_many("spearman", scenario("A"), np.zeros((2, 2)))
        with pytest.raises(UnsupportedError):
            aesf_many("uniform_max", UnivariateNormal(0.0, 1.0), np.zeros(0))

    def test_uniform_max_domain(self):
        with pytest.raises(DomainError):
            aesf_many("uniform_max", UniformMax(1.0), [0.5, 1.5])
