"""Closed-form ESF/AESF values, dual-route equivalences, boundedness."""

import math

import numpy as np
import pytest
from scipy import integrate, stats
from scipy.special import ndtr, owens_t

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
    bvn_cdf,
    conditional_survival,
    esf_exact,
    marginal_cdf_x,
    marginal_cdf_y,
    normal_cdf,
    population_value,
    scenario,
)
from aesf import closedform

GAUSS = BivariateGaussian(0.7)
GAUSS_CLONE = AdditiveNoise(NormalLaw(), Link("linear", 0.7), math.sqrt(1 - 0.49))
INDEP = IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))
TAU_07 = 2.0 / math.pi * math.asin(0.7)


def _req(tag, model, point, **kw):
    return AesfRequest(FunctionalId(tag, **kw), model, point)


class TestEsfExact:
    def test_mean(self):
        assert esf_exact("mean", UnivariateNormal(2.0, 1.0), 7.0, 5) == 5.0

    def test_variance_large_n_approaches_limit(self):
        v = esf_exact("variance", UnivariateNormal(0.0, 1.0), 0.0, 10 ** 6)
        assert v == pytest.approx(-1.0, abs=3e-6)
        assert aesf(_req("variance", UnivariateNormal(0.0, 1.0), 0.0)) == -1.0

    def test_variance_hand_value(self):
        # n = 50, x = 2, standard normal: 200/51 - 2449/2550
        v = esf_exact("variance", UnivariateNormal(0.0, 1.0), 2.0, 50)
        assert v == pytest.approx(200.0 / 51.0 - 2449.0 / 2550.0, rel=1e-14)

    def test_uniform_max_at_theta(self):
        for n in (1, 10, 1000):
            assert esf_exact("uniform_max", UniformMax(1.0), 1.0, n) == 1.0

    def test_uniform_max_interior(self):
        assert esf_exact("uniform_max", UniformMax(1.0), 0.9, 10) == pytest.approx(
            0.9 ** 11, rel=1e-14)

    def test_uniform_max_domain(self):
        with pytest.raises(DomainError):
            esf_exact("uniform_max", UniformMax(1.0), 1.5, 10)

    def test_unsupported_functional(self):
        with pytest.raises(UnsupportedError):
            esf_exact("kendall", GAUSS, (0.0, 0.0), 10)

    def test_non_finite_point_rejected(self):
        with pytest.raises(DomainError):
            esf_exact("variance", UnivariateNormal(0.0, 1.0), math.inf, 10)

    @pytest.mark.parametrize("n", [2.5, 2.0, "3"])
    def test_non_integer_sample_size_rejected(self, n):
        with pytest.raises(DomainError):
            esf_exact("variance", UnivariateNormal(0.0, 1.0), 2.0, n)
        with pytest.raises(DomainError):
            esf_exact("uniform_max", UniformMax(1.0), 0.9, n)

    def test_numpy_integer_sample_size_accepted(self):
        assert esf_exact("uniform_max", UniformMax(1.0), 0.9, np.int64(10)) == \
            esf_exact("uniform_max", UniformMax(1.0), 0.9, 10)


class TestNonFinitePoints:
    def test_scalar_nan_rejected(self):
        with pytest.raises(DomainError):
            aesf(_req("mean", UnivariateNormal(0.0, 1.0), math.nan))

    def test_pair_infinity_rejected(self):
        with pytest.raises(DomainError):
            aesf(_req("chatterjee", scenario("A"), (math.inf, 0.0)))


class TestKendallAesf:
    def test_origin_reduces_through_arcsin_identity(self):
        # 8 Phi_rho(0,0) - 4 = 2 tau, so the origin value collapses to zero
        assert aesf(_req("kendall", GAUSS, (0.0, 0.0))) == pytest.approx(0.0, abs=1e-9)

    def test_rho_zero_factorizes(self):
        m = BivariateGaussian(1e-12)
        for x, y in [(-1.0, 0.5), (0.3, 2.0), (1.5, -1.5)]:
            expected = 2.0 * (2 * normal_cdf(x) - 1) * (2 * normal_cdf(y) - 1)
            assert aesf(_req("kendall", m, (x, y))) == pytest.approx(expected, abs=1e-9)

    def test_gaussian_vs_additive_clone(self):
        # same law, two independent evaluation routes
        for pt in [(0.0, 0.0), (1.2, -0.4), (2.0, -2.0), (-0.5, 1.7)]:
            assert aesf(_req("kendall", GAUSS_CLONE, pt)) == pytest.approx(
                aesf(_req("kendall", GAUSS, pt)), abs=1e-10)

    @pytest.mark.parametrize("model", [GAUSS, scenario("A"), scenario("B"), scenario("C")])
    def test_bounded_by_three_on_grid(self, model):
        grid = np.linspace(-3.0, 3.0, 41)
        worst = max(abs(aesf(_req("kendall", model, (x, y))))
                    for x in grid for y in grid)
        assert worst <= 3.0


class TestSpearmanAesf:
    def test_independence_product_form(self):
        for m in (INDEP, IndependentProduct(UniformLaw(0, 1), NormalLaw())):
            for x in np.linspace(-0.9, 0.9, 9):
                for y in np.linspace(-0.9, 1.9, 9):
                    u = float(marginal_cdf_x(m, x))
                    v = float(marginal_cdf_y(m, y))
                    expected = 3.0 * (2 * u - 1) * (2 * v - 1)
                    assert aesf(_req("spearman", m, (x, y))) == pytest.approx(
                        expected, abs=1e-8)

    def test_zero_at_medians(self):
        m = IndependentProduct(NormalLaw(), UniformLaw(-1.0, 3.0))
        assert aesf(_req("spearman", m, (0.0, 1.0))) == pytest.approx(0.0, abs=1e-10)

    def test_gaussian_surface_in_termwise_bounds(self):
        grid = np.linspace(-3.0, 3.0, 41)
        vals = [aesf(_req("spearman", GAUSS, (x, y))) for x in grid for y in grid]
        assert min(vals) >= -12.0 and max(vals) <= 18.0


class TestCrouxDehonInfluenceFunctions:
    """Gaussian AESF against the influence functions of Croux and Dehon,
    "Influence functions of the Spearman and Kendall correlation measures"
    (Stat. Methods Appl., 2010), evaluated with scipy alone, at rho = 0.7
    and at correlations near +-1, where the Spearman cross term's integrand
    is nearly a step."""

    CASES = [pytest.param(rho, p, id=f"point{i}" if rho == 0.7 else f"{rho}-point{i}")
             for rho in (0.7, -0.95, 0.95, 0.99, 0.999)
             for i, p in enumerate([(0.0, 0.0), (1.2, -0.4), (2.0, -2.0), (-0.5, 1.7),
                                    (2.5, 2.5), (-1.0, -3.0)])]

    @staticmethod
    def _phi_above(rho, a):
        # E[Phi(U) 1(V > a)] for standard normals (U, V) with correlation rho,
        # split at the integrand's kink t = a / rho.
        s = math.sqrt(1.0 - rho ** 2)

        def integrand(t):
            return stats.norm.pdf(t) * ndtr(t) * ndtr((rho * t - a) / s)

        return sum(integrate.quad(integrand, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=200)[0]
                   for lo, hi in ((-math.inf, a / rho), (a / rho, math.inf)))

    @classmethod
    def _spearman(cls, rho, point):
        # -3 rho_S - 9 + 12 {Phi(x) Phi(y) + E[Phi(X) 1(Y > y)] + E[Phi(Y) 1(X > x)]}
        x, y = point
        rho_s = 6.0 / math.pi * math.asin(rho / 2.0)
        return -3.0 * rho_s - 9.0 + 12.0 * (
            ndtr(x) * ndtr(y) + cls._phi_above(rho, y) + cls._phi_above(rho, x))

    @pytest.mark.parametrize("rho,point", CASES)
    def test_kendall(self, rho, point):
        # 4 P[(X - x)(Y - y) > 0] - 2 - 2 tau
        x, y = point
        joint = stats.multivariate_normal.cdf(
            [x, y], mean=[0.0, 0.0], cov=[[1.0, rho], [rho, 1.0]])
        concordant = 1.0 - ndtr(x) - ndtr(y) + 2.0 * joint
        tau = 2.0 / math.pi * math.asin(rho)
        expected = 4.0 * concordant - 2.0 - 2.0 * tau
        assert aesf(_req("kendall", BivariateGaussian(rho), point)) == pytest.approx(
            expected, abs=1e-8)

    @pytest.mark.parametrize("rho,point", CASES)
    def test_spearman(self, rho, point):
        assert aesf(_req("spearman", BivariateGaussian(rho), point)) == pytest.approx(
            self._spearman(rho, point), abs=1e-8)

    def test_cli_spearman_grid_at_rho_099(self, capsys, tmp_path):
        from aesf.cli import main

        out_csv = tmp_path / "spearman.csv"
        code = main(["aesf-grid", "--functional", "spearman",
                     "--model", '{"variant":"bivariate_gaussian","rho":0.99}',
                     "--x-min", "-2", "--x-max", "2", "--y-min", "-1", "--y-max", "1.5",
                     "--nx", "3", "--ny", "3", "--out", str(out_csv)])
        capsys.readouterr()
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,y,aesf" and len(lines) == 1 + 9
        for line in lines[1:]:
            x, y, value = (float(t) for t in line.split(","))
            assert value == pytest.approx(self._spearman(0.99, (x, y)), abs=1e-8), (x, y)


class TestChatterjeeAesf:
    @pytest.mark.parametrize("model", [
        INDEP,
        IndependentProduct(UniformLaw(0, 1), UniformLaw(0, 1)),
        AdditiveNoise(NormalLaw(), Link("linear", 0.0), 0.8),  # independence via c = 0
    ])
    def test_identically_zero_under_independence(self, model):
        lo, hi = (-2.0, 2.0)
        for x in np.linspace(lo, hi, 9):
            for y in np.linspace(lo, hi, 9):
                assert abs(aesf(_req("chatterjee", model, (x, y)))) <= 1e-8

    def test_gaussian_vs_additive_clone(self):
        for pt in [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.5), (0.3, -2.2)]:
            assert aesf(_req("chatterjee", GAUSS_CLONE, pt)) == pytest.approx(
                aesf(_req("chatterjee", GAUSS, pt)), abs=1e-10)

    @pytest.mark.parametrize("rho", [0.7, -0.5, 0.95])
    def test_gaussian_vs_y_marginal_route(self, rho):
        # The four terms on the y-marginal route, independent of Phi_2: t1
        # from level-refined x rules on a Hermite rule over the normal y
        # marginal, t3 and t4 from one re-weighted Legendre rule per point,
        # refined at rho x and bounded above by y.
        from y_prime_quadrature import expect_y_prime
        model = BivariateGaussian(rho)
        points = [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.5), (0.3, -2.2), (2.5, 2.4)]
        values = closedform.aesf_many("chatterjee", model, points)
        t1 = expect_y_prime(model, lambda ts: closedform._level_square_means(model, ts, 64))
        for (x, y), v in zip(points, values):
            surv = lambda ts: conditional_survival(model, ts, x)
            t2 = closedform._level_square_means(model, np.array([y]), 64)[0]
            t3 = expect_y_prime(model, lambda ts: surv(ts) ** 2, sharp_levels=(rho * x,))
            t4 = expect_y_prime(model, surv, upper=y, sharp_levels=(rho * x,))
            old = -12.0 * t1 + 6.0 * t2 - 6.0 * t3 + 12.0 * t4
            assert abs(v - old) <= 1e-12 * max(1.0, abs(old)), (x, y)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.3, 0.7, 0.95])
    def test_gaussian_surface_vs_bivariate_normal_formula(self, rho):
        # With Y' ~ N(0, 1) and s = sqrt(2 - rho^2), each term is one Phi_2
        # (notes/decisions.md), here by Owen's T and Sheppard's arcsine, which
        # share no rule with the code's quadrature or its Phi_2.
        def phi2(h, k, r):  # Owen (1956), for nonzero h and k
            scale = math.sqrt(1.0 - r * r)
            return (0.5 * ndtr(h) + 0.5 * ndtr(k) - owens_t(h, (k - r * h) / (h * scale))
                    - owens_t(k, (h - r * k) / (k * scale)) - np.where(h * k < 0, 0.5, 0.0))

        x, y = (a.ravel() for a in np.meshgrid([-2.7, -1.3, -0.45, 0.2, 0.9, 2.1],
                                               [-2.4, -1.1, 0.35, 1.6, 2.8], indexing="ij"))
        s = math.sqrt(2.0 - rho * rho)
        t1 = 0.25 + math.asin((1.0 + rho * rho) / 2.0) / (2.0 * math.pi)  # Phi_2(0, 0; .)
        t2 = phi2(-y, -y, rho * rho)
        t3 = phi2(rho * x / s, rho * x / s, 1.0 / (s * s))
        t4 = phi2(rho * x / s, y, 1.0 / s)
        want = -12.0 * t1 + 6.0 * t2 - 6.0 * t3 + 12.0 * t4
        got = closedform.aesf_many("chatterjee", BivariateGaussian(rho), np.column_stack((x, y)))
        assert np.abs(got - want).max() <= 1e-12

    def test_noiseless_limit_is_rank_distance(self):
        # Y = X on U(0,1): the limit surface is -6|x - y|
        points = [(0.3, 0.6), (0.2, 0.9), (0.8, 0.75)]
        errors = {}
        for sigma in (0.1, 0.01, 0.001):
            m = AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), sigma)
            errors[sigma] = [
                abs(aesf(_req("chatterjee", m, p)) - (-6.0 * abs(p[0] - p[1])))
                for p in points]
        for i in range(len(points)):
            assert errors[0.001][i] <= 0.05
            assert errors[0.001][i] < errors[0.01][i] < errors[0.1][i]

    @pytest.mark.parametrize("model", [GAUSS, scenario("A"), scenario("B"), scenario("C")])
    def test_bounded_on_grid(self, model):
        grid = np.linspace(-3.0, 3.0, 21)
        vals = [aesf(_req("chatterjee", model, (x, y))) for x in grid for y in grid]
        assert max(abs(v) for v in vals) <= 30.0
        assert all(math.isfinite(v) for v in vals)

    def test_survival_square_expectation_identity(self):
        # E over Y' of the squared conditional survival under the Gaussian
        # model has a bivariate-normal closed form: an independent check of
        # the quadrature assembly used by the four-term AESF.
        rho, x = 0.7, 0.9
        scale = math.sqrt(1 - rho * rho)
        t3 = closedform._survival_square_means(GAUSS, np.array([x]), 64)[0]
        a, b = rho * x / scale, -1.0 / scale
        denom = math.sqrt(1 + b * b)
        closed = bvn_cdf(a / denom, a / denom, b * b / (1 + b * b))
        assert t3 == pytest.approx(closed, abs=1e-10)


class TestPhiLinearAesf:
    def test_identity_sine(self):
        f = _req("phi_linear", UnivariateNormal(0.0, 1.0), 1.0, g="identity", phi="sine")
        assert aesf(f) == 1.0

    def test_square_square(self):
        # R = (E X^2)^2: slope 2 E[X^2] against the recentred x^2
        f = _req("phi_linear", UnivariateNormal(0.0, 1.0), 2.0, g="square", phi="square")
        assert aesf(f) == pytest.approx((4.0 - 1.0) * 2.0, rel=1e-14)

    def test_mean_via_phi_linear_matches_mean(self):
        f = _req("phi_linear", UnivariateNormal(3.0, 2.0), 5.0)
        assert aesf(f) == aesf(_req("mean", UnivariateNormal(3.0, 2.0), 5.0))


class TestUniformMaxAesf:
    def test_piecewise(self):
        m = UniformMax(2.0)
        assert aesf(_req("uniform_max", m, 1.0)) == 0.0
        assert aesf(_req("uniform_max", m, 2.0)) == 2.0
        with pytest.raises(DomainError):
            aesf(_req("uniform_max", m, 2.5))


class TestPopulationValues:
    def test_kendall_gaussian(self):
        assert population_value("kendall", GAUSS) == pytest.approx(TAU_07, abs=1e-15)

    def test_kendall_additive_clone_matches(self):
        assert population_value("kendall", GAUSS_CLONE) == pytest.approx(
            TAU_07, abs=1e-10)

    def test_kendall_additive_vs_mc_oracle(self):
        from aesf import kendall_tau, sample
        m = scenario("C")
        taus = [kendall_tau(sample(m, 4000, s)) for s in range(16)]
        se = np.std(taus, ddof=1) / 4.0
        assert population_value("kendall", m) == pytest.approx(
            np.mean(taus), abs=4 * se)

    def test_spearman_gaussian(self):
        assert population_value("spearman", GAUSS) == pytest.approx(
            6.0 / math.pi * math.asin(0.35), abs=1e-15)

    def test_independence_is_zero_for_all_three(self):
        for tag in ("kendall", "spearman", "chatterjee"):
            assert population_value(tag, INDEP) == 0.0

    def test_xi_gaussian_closed_form(self):
        # independent route: the Gaussian dependence-measure value
        # 3/pi asin((1 + rho^2)/2) - 1/2
        for rho in (0.3, 0.7, -0.5):
            expected = 3.0 / math.pi * math.asin((1 + rho * rho) / 2.0) - 0.5
            assert population_value("chatterjee", BivariateGaussian(rho)) == \
                pytest.approx(expected, abs=1e-9)

    def test_xi_noiseless_limit_reaches_one(self):
        vals = []
        for sigma in (0.1, 0.01, 0.001):
            m = AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), sigma)
            vals.append(population_value("chatterjee", m))
        assert vals[0] < vals[1] < vals[2] <= 1.0
        assert vals[2] >= 0.995

    def test_xi_in_unit_interval_for_scenarios(self):
        for name in "ABC":
            v = population_value("chatterjee", scenario(name))
            assert 0.0 < v < 1.0

    def test_unsupported(self):
        with pytest.raises(UnsupportedError):
            population_value("mean", UnivariateNormal(0, 1))
        with pytest.raises(UnsupportedError):
            population_value("spearman", scenario("A"))


class TestSupportTable:
    @pytest.mark.parametrize("tag,model", [
        ("kendall", INDEP),
        ("kendall", UniformMax(1.0)),
        ("spearman", scenario("A")),
        ("chatterjee", UnivariateNormal(0, 1)),
        ("uniform_max", UnivariateNormal(0, 1)),
        ("phi_linear", UniformMax(1.0)),
        ("mean", GAUSS),
    ])
    def test_unsupported_pairs_raise(self, tag, model):
        point = (0.0, 0.0) if FunctionalId(tag).is_bivariate else 0.5
        with pytest.raises(UnsupportedError):
            aesf(_req(tag, model, point))


class TestPinnedLevelIntegrals:
    # Values of the per-level quadrature loops that the batched x rules
    # replaced (order 64): the shared Chatterjee term E_Y' E_X[P(Y > Y' | X)^2],
    # the population Kendall tau and the population Chatterjee xi.
    PINS = {
        "A": (0.3837752748016967, 0.4936333777867307, 0.30265164881017953),
        # B's xi is 6 t1 - 2, not the loops' value, whose y marginal was
        # 3.1e-6 off near t = 48.2.
        "B": (0.4770000359019836, 8.988036009904832e-17, 0.8620002154119013),
        "C": (0.41030844173649916, -6.7166324585477e-17, 0.4618506504189945),
    }

    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_scenario_values(self, name):
        model = scenario(name)
        shared, tau, xi = self.PINS[name]
        assert abs(closedform._chatterjee_shared_term(model, 64) - shared) <= 1e-12
        assert abs(population_value("kendall", model) - tau) <= 1e-12
        assert abs(population_value("chatterjee", model) - xi) <= 1e-12


class TestPinnedRuleSums:
    # t1, xi and tau to the last bit, as repr, at three orders: x rules that
    # are shared by rows with equal levels and cuts are built once, and that
    # must not move a single value.
    T1_XI = {
        "A": {32: ("0.38377527480169665", "0.3026516488101798"),
              64: ("0.3837752748016967", "0.30265164881018025"),
              128: ("0.38377527480169704", "0.30265164881018247")},
        "B": {32: ("0.4770000359019835", "0.8620002154119009"),
              64: ("0.47700003590198353", "0.8620002154119013"),
              128: ("0.4770000359019837", "0.8620002154119022")},
        "C": {32: ("0.41030844173649916", "0.4618506504189952"),
              64: ("0.41030844173649916", "0.4618506504189952"),
              128: ("0.4103084417364995", "0.461850650418997")},
        "gaussian": {32: ("0.38377527480169665", "0.3026516488101798"),
                     64: ("0.3837752748016967", "0.30265164881018025"),
                     128: ("0.38377527480169704", "0.30265164881018247")},
    }
    TAU = {
        "A": {32: "0.49363337778672967", 64: "0.49363337778673055", 128: "0.49363337778672817"},
        "B": {32: "4.2500725161431774e-17", 64: "-4.0440741033709315e-17",
              128: "1.3532198365334702e-16"},
        "C": {32: "-1.734723475976807e-17", 64: "-6.5052130349130266e-18",
              128: "-1.556846557053404e-18"},
    }

    @staticmethod
    def _model(name):
        return GAUSS if name == "gaussian" else scenario(name)

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("name", list(T1_XI))
    def test_t1_and_xi(self, name, order):
        model = self._model(name)
        t1, xi = self.T1_XI[name][order]
        assert repr(closedform._chatterjee_shared_term(model, order)) == t1
        assert repr(population_value("chatterjee", model, order)) == xi

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("name", list(TAU))
    def test_tau(self, name, order):
        assert repr(population_value("kendall", scenario(name), order)) == self.TAU[name][order]


class TestSharedTermOracle:
    # The shared Chatterjee term t1 = E_Y' E_X[P(Y > Y' | X)^2] as the triple
    # integral it is defined by: a level-refined x rule for each Y' node of
    # expect_y_prime's (X', Z') double rule.
    MODELS = {
        "A": scenario("A"),
        "B": scenario("B"),
        "C": scenario("C"),
        "sigma_0.001": AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.001),
    }

    @staticmethod
    def _triple_integral(model, order):
        from aesf.models import expect_y_prime
        return expect_y_prime(
            model, lambda ts: closedform._level_square_means(model, ts, order), order=order)

    @pytest.mark.parametrize("order", [32, 64, 128])
    @pytest.mark.parametrize("name", list(MODELS))
    def test_matches_triple_integral(self, name, order):
        model = self.MODELS[name]
        assert abs(closedform._chatterjee_shared_term(model, order)
                   - self._triple_integral(model, order)) <= 1e-12

    def test_gaussian_published_value(self):
        # Scenario A is the Gaussian law with rho = 0.7, whose
        # xi = (3/pi) asin((1 + rho^2)/2) - 1/2 (Chatterjee 2021) gives
        # t1 = 1/3 + xi/6 = 1/4 + asin((1 + rho^2)/2) / (2 pi).
        expected = 0.25 + math.asin((1 + 0.49) / 2.0) / (2.0 * math.pi)
        for model in (scenario("A"), GAUSS):
            assert abs(closedform._chatterjee_shared_term(model, 64) - expected) <= 1e-12


class TestXiIdentity:
    # For a continuous Y, E_X P(Y > Y' | X) = 1 - F_Y(Y') is uniform, so xi's
    # numerator is t1 - 1/3 and its denominator E[F_Y (1 - F_Y)] is 1/6.
    @pytest.mark.parametrize("name", ["A", "B", "C"])
    def test_numerator_and_denominator(self, name):
        from aesf.models import expect_y_prime
        model = scenario(name)

        def spread(ts):
            cdf = marginal_cdf_y(model, ts)
            return cdf * (1.0 - cdf)

        den = expect_y_prime(model, spread)
        t1 = closedform._chatterjee_shared_term(model, 64)
        xi = population_value("chatterjee", model)
        assert abs(den - 1.0 / 6.0) <= 1e-12
        assert abs(xi - (6.0 * t1 - 2.0)) <= 1e-11
        assert xi == pytest.approx((t1 - 1.0 / 3.0) / den, rel=1e-15)


class TestExactIdentities:
    # E[F_Y(Y) (1 - F_Y(Y))] = 1/6 for continuous Y, and both mean ranks are
    # 1/2 under independence, so neither constant is integrated.
    @pytest.mark.parametrize("model", [scenario("A"), scenario("B"), scenario("C"), GAUSS])
    def test_xi_is_six_t1_minus_two(self, model):
        t1 = closedform._chatterjee_shared_term(model, 64)
        assert population_value("chatterjee", model) == 6 * t1 - 2

    @pytest.mark.parametrize("model", [INDEP, IndependentProduct(UniformLaw(0, 1), NormalLaw())])
    def test_independent_spearman_is_the_product_form(self, model):
        xs, ys = np.meshgrid(np.linspace(-3.0, 3.0, 25), np.linspace(-1.5, 2.5, 25))
        points = np.column_stack((xs.ravel(), ys.ravel()))
        u, v = model.x_law.cdf(points[:, 0]), model.y_law.cdf(points[:, 1])
        values = closedform.aesf_many("spearman", model, points)
        assert np.max(np.abs(values - 3.0 * (2 * u - 1) * (2 * v - 1))) <= 1e-15
        # The grid crosses both medians, where the CSV must read "0", not "-0".
        assert (values == 0.0).any() and not np.signbit(values[values == 0.0]).any()


class TestQuadratureStability:
    def test_order_changes_move_nothing(self):
        # every closed form exercised by the acceptance suite, evaluated at
        # 32 vs 64 and 64 vs 128 nodes
        sigma_small = AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.001)
        cases = [
            _req("kendall", GAUSS, (0.0, 0.0)),
            _req("kendall", GAUSS, (2.0, -2.0)),
            _req("kendall", scenario("B"), (1.0, 2.0)),
            _req("spearman", GAUSS, (2.0, -2.0)),
            _req("spearman", INDEP, (0.4, 0.8)),
            _req("chatterjee", INDEP, (0.4, 0.8)),
            _req("chatterjee", scenario("A"), (1.0, 0.5)),
            _req("chatterjee", scenario("C"), (0.5, -0.3)),
            _req("chatterjee", sigma_small, (0.3, 0.6)),
        ]
        for req in cases:
            v32 = aesf(req, order=32)
            v64 = aesf(req, order=64)
            v128 = aesf(req, order=128)
            assert abs(v64 - v32) < 1e-8, req
            assert abs(v128 - v64) < 1e-8, req


class TestComparativeRobustness:
    def test_kendall_more_robust_at_discordant_corners(self):
        for pt in [(2.0, -2.0), (-2.0, 2.0)]:
            k = aesf(_req("kendall", GAUSS, pt))
            s = aesf(_req("spearman", GAUSS, pt))
            assert abs(k) < abs(s)
