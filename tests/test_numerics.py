"""Special functions and quadrature rules."""

import math
from functools import lru_cache

import numpy as np
import pytest
from scipy.special import ndtr, owens_t
from scipy.stats import multivariate_normal

from aesf import DomainError, NumericsError, UniformLaw, bvn_cdf, hermite_rule, normal_cdf
from aesf.models import plain_law_rule
from aesf.numerics import _BVN_BLOCK, _LEGENDRE_HALVES, clamp_probability

# Frozen before the build from a 40-digit erf evaluation (mpmath.ncdf).
NORMAL_CDF_ORACLE = {
    -8.0: 6.2209605742717841e-16,
    -6.0: 9.8658764503769814e-10,
    -3.5: 0.00023262907903552504,
    -2.0: 0.022750131948179207,
    -1.959963985: 0.024999999973118443,
    -1.0: 0.15865525393145705,
    -0.5: 0.3085375387259869,
    -0.1: 0.46017216272297102,
    0.0: 0.5,
    0.3: 0.61791142218895263,
    1.0: 0.84134474606854295,
    1.5: 0.93319279873114193,
    1.959963985: 0.97500000002688156,
    2.5: 0.99379033467422386,
    4.0: 0.99996832875816688,
    6.0: 0.99999999901341235,
    8.0: 0.99999999999999938,
}

# Frozen before the build from 40-digit quadrature of the conditional
# decomposition int phi(t) Phi((y - rho t)/sqrt(1-rho^2)) dt.
BVN_ORACLE = {
    (0.5, -0.3, 0.6): 0.34362253011121081,
    (1.2, 0.7, -0.45): 0.64924831072223227,
    (2.0, -2.0, 0.7): 0.022750124641882521,
    (-2.0, 2.0, 0.7): 0.022750124641882521,
    (-0.7, -1.1, 0.9): 0.12355950037898785,
    (0.3, 0.4, -0.95): 0.27393157559245054,
    (3.0, 3.0, 0.7): 0.99753017761029865,
}


@lru_cache(maxsize=None)
def _leggauss_rule(order):
    """``leggauss(order)``, built once per order: at 2048 nodes it is an
    eigenvalue problem of about a second."""
    return np.polynomial.legendre.leggauss(order)


def _bvn_cdf_arcsin_rule(x, y, rho, order):
    """Reference Phi_rho(x, y) from the single-integral identity

        Phi_rho(x, y) = Phi(x) Phi(y)
            + (1/2pi) * int_0^{arcsin rho} exp(-(x^2 - 2xy sin t + y^2)
                                               / (2 cos^2 t)) dt,

    by Gauss-Legendre quadrature on the signed arcsin segment, each element's
    row summed on its own, in blocks of 256 elements to bound memory."""
    s = math.asin(rho)
    t0, w0 = _leggauss_rule(order)
    t = 0.5 * s * (t0 + 1.0)
    w, sin_t, two_cos2_t = 0.5 * s * w0, np.sin(t), 2.0 * np.cos(t) ** 2
    xs, ys = np.ravel(x), np.ravel(y)
    integral = np.empty(xs.size)
    for start in range(0, xs.size, 256):
        part = slice(start, start + 256)
        a, b = xs[part, None], ys[part, None]
        integrand = np.exp(-((a * a + b * b) - 2.0 * a * b * sin_t) / two_cos2_t)
        integral[part] = (integrand * w).sum(axis=-1)
    return ndtr(xs) * ndtr(ys) + integral / (2.0 * math.pi)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_reflection(self):
        for z in (0.1, 0.77, 1.5, 3.2, 6.0):
            assert abs(normal_cdf(z) + normal_cdf(-z) - 1.0) <= 1e-14

    def test_two_sided_975_quantile(self):
        assert abs(normal_cdf(1.959963985) - 0.975) <= 1e-9

    def test_against_high_precision_oracle(self):
        for z, expected in NORMAL_CDF_ORACLE.items():
            assert abs(normal_cdf(z) - expected) <= 1e-12

    def test_monotone(self):
        zs = np.linspace(-9, 9, 400)
        vals = [normal_cdf(z) for z in zs]
        assert np.all(np.diff(vals) >= 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(DomainError):
            normal_cdf(bad)


class TestBvnCdf:
    def test_independence_factorizes(self):
        for x, y in [(-1.3, 0.4), (0.0, 2.0), (2.2, -0.7)]:
            assert bvn_cdf(x, y, 0.0) == pytest.approx(
                normal_cdf(x) * normal_cdf(y), abs=1e-15)

    def test_origin_arcsin_identity(self):
        # Also verified against a 1e8-draw Monte Carlo before the build
        # (|MC - identity| = 5.6e-5 with 4*SE = 1.9e-4).
        for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.95):
            expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
            assert abs(bvn_cdf(0.0, 0.0, rho) - expected) <= 1e-10

    def test_comonotone_limit(self):
        for x, y in [(0.3, 1.5), (-1.0, -2.0), (0.0, 0.0)]:
            assert bvn_cdf(x, y, 1.0) == normal_cdf(min(x, y))

    def test_antimonotone_limit(self):
        assert bvn_cdf(1.0, -0.5, -1.0) == pytest.approx(
            normal_cdf(1.0) + normal_cdf(-0.5) - 1.0, abs=1e-15)
        assert bvn_cdf(-2.0, -2.0, -1.0) == 0.0

    def test_against_high_precision_oracle(self):
        for (x, y, rho), expected in BVN_ORACLE.items():
            assert abs(bvn_cdf(x, y, rho) - expected) <= 1e-10

    def test_against_scipy(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            x, y = rng.uniform(-2.5, 2.5, 2)
            rho = rng.uniform(-0.98, 0.98)
            ref = multivariate_normal([0, 0], [[1, rho], [rho, 1]]).cdf([x, y])
            assert bvn_cdf(x, y, rho) == pytest.approx(ref, abs=1e-6)

    def test_argument_symmetry_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, 2)
            rho = rng.uniform(-0.99, 0.99)
            assert bvn_cdf(x, y, rho) == bvn_cdf(y, x, rho)

    def test_monotone_in_each_argument(self):
        grid = np.linspace(-2.5, 2.5, 9)
        rhos = np.linspace(-0.9, 0.9, 7)
        for rho in rhos:
            for y in grid:
                vals = [bvn_cdf(x, y, rho) for x in grid]
                assert np.all(np.diff(vals) >= -1e-15)
        for x in grid:
            for y in grid:
                vals = [bvn_cdf(x, y, rho) for rho in rhos]
                assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.5, 0.95])
    def test_signed_zero(self, rho):
        # -0.0 is taken as +0.0: a zero h gives a_h = +-inf with the sign of k.
        for k in (-1.3, 0.0, -0.0, 0.4):
            assert bvn_cdf(-0.0, k, rho) == bvn_cdf(0.0, k, rho), k
            assert bvn_cdf(k, -0.0, rho) == bvn_cdf(k, 0.0, rho), k
        zeros = np.array([-0.0, 0.0, -0.0])
        ks = np.array([-1.3, 0.0, 0.4])
        assert np.array_equal(bvn_cdf(zeros, ks, rho), bvn_cdf(np.abs(zeros), ks, rho))

    @pytest.mark.parametrize("rho", [-0.9, -0.5, 0.3, 0.7])
    def test_origin_with_both_signs_of_zero(self, rho):
        expected = 0.25 + math.asin(rho) / (2.0 * math.pi)
        for x in (0.0, -0.0):
            for y in (0.0, -0.0):
                assert bvn_cdf(x, y, rho) == expected, (x, y)
        zeros = np.array([0.0, -0.0])
        assert bvn_cdf(zeros, zeros[::-1], rho).tolist() == [expected, expected]

    def test_shared_array_equals_copy(self):
        # One array passed as both arguments (the Chatterjee diagonal) takes T
        # once; the value must not depend on it.
        a = np.linspace(-8.0, 8.0, 161)
        assert np.array_equal(bvn_cdf(a, a, 0.5), bvn_cdf(a, a.copy(), 0.5))

    def test_rejects_bad_correlation(self):
        with pytest.raises(DomainError):
            bvn_cdf(0.0, 0.0, 1.001)
        with pytest.raises(DomainError):
            bvn_cdf(float("nan"), 0.0, 0.5)


class TestQuadratureRules:
    # A uniform law's plain rule is Gauss-Legendre on [a, b] with the density
    # folded into the weights, so expectations are weights @ h(nodes).
    @pytest.mark.parametrize("order", [4, 16, 32, 64, 128])
    def test_legendre_rule_invariants(self, order):
        nodes, weights = plain_law_rule(UniformLaw(-1.5, 2.5), order)
        assert nodes.size == weights.size == order
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert nodes[0] > -1.5 and nodes[-1] < 2.5
        # the folded density integrates to 1
        assert float(weights.sum()) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("order", [8, 32, 64, 128])
    def test_hermite_rule_invariants(self, order):
        nodes, weights = hermite_rule(order)
        assert nodes.size == weights.size == order
        assert np.all(np.diff(nodes) > 0)
        assert np.all(weights > 0)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-13)
        assert float(weights @ nodes) == pytest.approx(0.0, abs=1e-13)
        assert float(weights @ (nodes * nodes)) == pytest.approx(1.0, abs=1e-12)
        assert not (nodes.flags.writeable or weights.flags.writeable)

    def test_legendre_cubic(self):
        nodes, weights = plain_law_rule(UniformLaw(0.0, 1.0), 64)
        assert float(weights @ nodes ** 3) == pytest.approx(0.25, abs=1e-12)
        assert float(weights.sum()) == pytest.approx(1.0, abs=1e-13)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            plain_law_rule(UniformLaw(1.0, 1.0), 16)


class TestClamp:
    def test_passthrough_and_small_clamp(self):
        assert clamp_probability(0.25) == 0.25
        assert clamp_probability(-1e-12) == 0.0
        assert clamp_probability(1.0 + 1e-12) == 1.0
        clamped = clamp_probability(np.array([-1e-12, 0.25, 1.0 + 1e-12]))
        assert np.array_equal(clamped, [0.0, 0.25, 1.0])

    def test_large_excursion_raises(self):
        with pytest.raises(NumericsError):
            clamp_probability(-1e-6)
        with pytest.raises(NumericsError):
            clamp_probability(1.0 + 1e-6)
        with pytest.raises(NumericsError):
            clamp_probability(np.array([0.5, 1.0 + 1e-6]))

    def test_nan_raises(self):
        with pytest.raises(NumericsError):
            clamp_probability(math.nan)
        with pytest.raises(NumericsError):
            clamp_probability(np.float64("nan"))
        with pytest.raises(NumericsError):
            clamp_probability(np.array([0.2, math.nan]))
        with pytest.raises(NumericsError):
            clamp_probability(np.array([math.nan, 1.0 + 1e-12]))

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_array_passes_through(self, shape):
        empty = np.empty(shape)
        assert clamp_probability(empty) is empty


class TestBvnCdfArrays:
    """An array call equals the scalar call, element by element and bit for
    bit, on every case of ``TestBvnCdf``."""

    @staticmethod
    def _cases():
        cases = [(x, y, 0.0) for x, y in [(-1.3, 0.4), (0.0, 2.0), (2.2, -0.7)]]
        cases += [(0.0, 0.0, rho) for rho in (-0.95, -0.5, 0.0, 0.3, 0.7, 0.95)]
        cases += [(x, y, 1.0) for x, y in [(0.3, 1.5), (-1.0, -2.0), (0.0, 0.0)]]
        cases += [(1.0, -0.5, -1.0), (-2.0, -2.0, -1.0)]
        cases += list(BVN_ORACLE)
        rng = np.random.default_rng(5)
        for _ in range(25):
            x, y = rng.uniform(-2.5, 2.5, 2)
            cases.append((x, y, rng.uniform(-0.98, 0.98)))
        rng = np.random.default_rng(11)
        for _ in range(50):
            x, y = rng.uniform(-3, 3, 2)
            rho = rng.uniform(-0.99, 0.99)
            cases += [(x, y, rho), (y, x, rho)]
        grid = np.linspace(-2.5, 2.5, 9)
        cases += [(x, y, rho) for rho in np.linspace(-0.9, 0.9, 7) for x in grid for y in grid]
        return cases

    def test_array_call_equals_scalar_calls(self):
        by_rho = {}
        for x, y, rho in self._cases():
            by_rho.setdefault(float(rho), []).append((float(x), float(y)))
        for rho, points in by_rho.items():
            xs, ys = np.array(points).T
            values = bvn_cdf(xs, ys, rho)
            assert isinstance(values, np.ndarray) and values.shape == xs.shape
            for i, (x, y) in enumerate(points):
                scalar = bvn_cdf(x, y, rho)
                assert type(scalar) is float
                assert values[i] == scalar, (x, y, rho)

    def test_exact_limits_elementwise(self):
        xs, ys = np.array([0.3, -1.0, 0.0]), np.array([1.5, -2.0, 0.0])
        assert np.array_equal(bvn_cdf(xs, ys, 1.0), normal_cdf(np.minimum(xs, ys)))
        assert bvn_cdf(np.array([-2.0, 1.0]), np.array([-2.0, -0.5]), -1.0)[0] == 0.0

    def test_broadcasts_and_keeps_shape(self):
        xs = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        values = bvn_cdf(xs, 0.25, 0.4)
        assert values.shape == (2, 3)
        assert values[1, 2] == bvn_cdf(xs[1, 2], 0.25, 0.4)

    @pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 0.2, -0.5, 0.8, 0.95, -0.9999])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_arrays_give_empty_arrays(self, rho, shape):
        # One check for every band: the exact limits, each arcsine rule and
        # the expansion about |rho| = 1.
        values = bvn_cdf(np.empty(shape), np.empty(shape), rho)
        assert values.dtype == float and values.shape == shape
        assert bvn_cdf([], [], rho).shape == (0,)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_any_non_finite_element(self, bad):
        finite = np.array([0.1, -0.4, 1.2])
        broken = finite.copy()
        broken[1] = bad
        for rho in (0.5, 0.0, 1.0, -1.0):
            with pytest.raises(DomainError):
                bvn_cdf(broken, finite, rho)
            with pytest.raises(DomainError):
                bvn_cdf(finite, broken, rho)
        with pytest.raises(DomainError):
            bvn_cdf(finite, finite, float("nan"))

    def test_normal_cdf_on_arrays(self):
        zs = np.array(list(NORMAL_CDF_ORACLE))
        assert normal_cdf(zs).tolist() == [normal_cdf(z) for z in zs.tolist()]
        with pytest.raises(DomainError):
            normal_cdf(np.array([0.0, float("nan")]))


class TestBvnCdfOwensT:
    """``bvn_cdf`` against Owen's T function (Owen 1956):

        Phi_2(h, k; rho) = Phi(h)/2 + Phi(k)/2 - T(h, a_h) - T(k, a_k) - beta/2,

    a_h = (k - rho h) / (h sqrt(1 - rho^2)) and a_k likewise, beta = 1 when
    hk < 0 or when hk = 0 and h + k < 0, else 0. A zero h is taken as +0,
    so a_h = +-inf with the sign of k; the origin itself is left to
    ``TestBvnCdf.test_origin_arcsin_identity``.
    """

    TOL = 1e-13

    @staticmethod
    def _owen(h, k, rho):
        scale = math.sqrt(1.0 - rho * rho)

        def slope(u, v):
            return math.copysign(math.inf, v) if u == 0.0 else (v - rho * u) / (u * scale)

        beta = 1.0 if h * k < 0.0 or (h * k == 0.0 and h + k < 0.0) else 0.0
        return (0.5 * ndtr(h) + 0.5 * ndtr(k)
                - owens_t(h, slope(h, k)) - owens_t(k, slope(k, h)) - 0.5 * beta)

    @pytest.mark.parametrize("rho", [-0.99, -0.9, -0.6, -0.25, 0.1, 0.5, 0.75, 0.95, 0.99])
    def test_grid(self, rho):
        values = (-4.0, -2.3, -1.0, -0.35, 0.0, 0.6, 1.7, 3.2)
        for h in values:
            for k in values:
                if h == k == 0.0:
                    continue
                assert abs(bvn_cdf(h, k, rho) - self._owen(h, k, rho)) <= self.TOL, (h, k)

    @pytest.mark.parametrize("rho", [0.5, math.sqrt(0.5)])
    def test_diagonal_kernels(self, rho):
        # Phi_2(a, a; 1/2) is the Chatterjee t3 and t1 kernel; 1/sqrt 2 is
        # the correlation of the t4 kernel Phi_2(zeta, a; 1/sqrt 2).
        a = np.linspace(-8.0, 8.0, 160)  # an even count keeps 0 off the grid
        values = bvn_cdf(a, a, rho)
        for i, h in enumerate(a.tolist()):
            assert abs(values[i] - self._owen(h, h, rho)) <= self.TOL, h


class TestBvnCdfArcsinRule:
    """``bvn_cdf`` against the arcsin-segment quadrature at 2048 nodes on an
    81 x 81 grid over [-4, 4]^2; the largest gap measured is 1.7e-14, at
    |rho| = 0.9999 next to the origin."""

    GRID = np.linspace(-4.0, 4.0, 81)

    @pytest.mark.parametrize("rho", [-0.9999, 0.9999, -0.99, -0.5, 0.3, 0.5,
                                     math.sqrt(0.5), 0.9, 0.99, 0.999])
    def test_grid(self, rho):
        x, y = (a.ravel() for a in np.meshgrid(self.GRID, self.GRID))
        gap = np.abs(bvn_cdf(x, y, rho) - _bvn_cdf_arcsin_rule(x, y, rho, 2048))
        assert gap.max() <= 1e-13, (x[gap.argmax()], y[gap.argmax()])


class TestGenzRules:
    @pytest.mark.parametrize("order", sorted(_LEGENDRE_HALVES))
    def test_halves_are_leggauss_doubles(self, order):
        # The table holds the positive half; leggauss's rule is symmetric to the bit.
        x, w = (np.array(v) for v in _LEGENDRE_HALVES[order])
        nodes, weights = np.polynomial.legendre.leggauss(order)
        assert np.concatenate((-x[::-1], x)).tolist() == nodes.tolist()
        assert np.concatenate((w[::-1], w)).tolist() == weights.tolist()


class TestBvnCdfMpmath:
    """``bvn_cdf`` against the arcsine integral

        Phi_rho(h, k) = Phi(h) Phi(k)
            + (1/2pi) int_0^{arcsin rho} exp(-(h^2 - 2hk sin t + k^2) / (2 cos^2 t)) dt

    at 30 digits (mpmath), split towards arcsin rho when |rho| >= 0.9, where
    the integrand peaks at the end of the segment."""

    TOL = 5e-16
    # Every band with both signs, and each band edge from both sides.
    RHOS = [0.1, 0.2999, 0.3, 0.5, 0.7499, 0.75, 0.9249, 0.925, 0.99, 0.9999]
    POINTS = [(0.0, 1.3), (-2.2, 0.0), (0.7, 0.9), (-1.5, 2.5), (1.1, -0.6),
              (2.9, 3.0), (8.0, -0.4), (-8.0, 1.0)]

    @staticmethod
    def _oracle(h, k, rho):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            h, k = mpmath.mpf(h), mpmath.mpf(k)
            end = mpmath.asin(mpmath.mpf(rho))
            cuts = [0, end] if abs(rho) < 0.9 else [
                end * mpmath.mpf(f) for f in ("0", "0.9", "0.99", "0.999", "0.9999", "1")]
            integrand = lambda t: mpmath.exp(
                -(h * h - 2 * h * k * mpmath.sin(t) + k * k) / (2 * mpmath.cos(t) ** 2))
            return mpmath.ncdf(h) * mpmath.ncdf(k) + mpmath.quad(integrand, cuts) / (2 * mpmath.pi)

    def _gaps(self, hs, ks, rho):
        values = bvn_cdf(np.array(hs), np.array(ks), rho)
        return [abs(float(value - self._oracle(h, k, rho)))
                for h, k, value in zip(hs, ks, values.tolist())]

    @pytest.mark.parametrize("rho", [sign * r for r in RHOS for sign in (1.0, -1.0)])
    def test_bands(self, rho):
        hs, ks = zip(*self.POINTS)
        gaps = self._gaps(hs, ks, rho)
        assert max(gaps) <= self.TOL, self.POINTS[int(np.argmax(gaps))]

    @pytest.mark.parametrize("rho", [0.5, math.sqrt(0.5)])
    def test_diagonal_kernels(self, rho):
        # Phi_2(a, a; 1/2) is the Chatterjee t1 and t3 kernel; 1/sqrt 2 is
        # the correlation of the t4 kernel.
        a = np.linspace(-8.0, 8.0, 17)
        gaps = self._gaps(a, a, rho)
        assert max(gaps) <= self.TOL, a[int(np.argmax(gaps))]


class TestBvnCdfBlocks:
    @pytest.mark.parametrize("rho", [0.2, -0.5, math.sqrt(0.5), 0.8, 0.95, -0.9999])
    def test_long_array_equals_its_pieces(self, rho):
        rng = np.random.default_rng(17)
        x, y = rng.uniform(-4.0, 4.0, (2, 2 * _BVN_BLOCK + 124))
        whole = bvn_cdf(x, y, rho)
        pieces = [bvn_cdf(x[i:i + 1000], y[i:i + 1000], rho) for i in range(0, x.size, 1000)]
        assert np.array_equal(whole, np.concatenate(pieces))
        assert np.array_equal(whole.reshape(2, -1), bvn_cdf(x.reshape(2, -1), y.reshape(2, -1), rho))
        for i in (0, _BVN_BLOCK - 1, _BVN_BLOCK, x.size - 1):
            assert whole[i] == bvn_cdf(x[i], y[i], rho)

    @pytest.mark.parametrize("rho", [0.5, -0.6, 0.95, -0.99])
    def test_far_arguments_saturate(self, rho):
        big = 1e300
        assert bvn_cdf(big, big, rho) == 1.0
        assert bvn_cdf(-big, 0.3, rho) == 0.0
        assert bvn_cdf(big, 0.3, rho) == bvn_cdf(40.0, 0.3, rho)
        assert bvn_cdf(0.3, big, rho) == pytest.approx(normal_cdf(0.3), abs=1e-16)
        assert np.array_equal(bvn_cdf(np.array([-big, 0.0, big]), -0.2, rho),
                              [bvn_cdf(v, -0.2, rho) for v in (-40.0, 0.0, 40.0)])
