"""Acceptance gate: one test per criterion, printed pass/fail lines.

Criterion 3 note: its first clause pins the Kendall AESF at the origin to
(2/pi) arcsin(0.7), while its second clause demands Monte Carlo agreement.
The two cannot hold together: the expectation of the Kendall sensitivity
function is exactly free of n and equals 0 at the origin (the pair-kernel
sum sheds twice the population correlation), which Monte Carlo confirms
decisively (see tests below and notes/decisions.md). The library implements
the Monte-Carlo-consistent closed form; the literal origin constant is kept
here as a strict expected failure so the discrepancy stays visible.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aesf import (
    AdditiveNoise,
    AesfRequest,
    BivariateGaussian,
    Dataset,
    FunctionalId,
    IndependentProduct,
    Link,
    NormalLaw,
    UniformLaw,
    UniformMax,
    UnivariateNormal,
    aesf,
    chatterjee_xi,
    esf_exact,
    esf_mc,
    kendall_tau,
    marginal_cdf_x,
    marginal_cdf_y,
    sample,
    sf,
    sf_distribution,
)
from aesf.sensitivity import convergence_study

GAUSS = BivariateGaussian(0.7)
STD_NORMAL = UnivariateNormal(0.0, 1.0)
INDEP = IndependentProduct(NormalLaw(), UniformLaw(-1.0, 2.0))
TAU_07 = 2.0 / math.pi * math.asin(0.7)


def _close_rel(got, expected, tol=1e-10):
    return abs(got - expected) <= tol * max(1.0, abs(expected))


def test_criterion_1_exact_sf_identities():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        n = int(rng.integers(2, 201))
        xs = rng.standard_normal(n) * float(rng.uniform(0.5, 3.0)) + float(rng.uniform(-2, 2))
        ds = Dataset(xs)
        x = float(rng.uniform(-5, 5))
        assert _close_rel(sf("mean", ds, x), x - xs.mean())
        xbar, m2 = xs.mean(), (xs * xs).mean()
        expansion = (n / (n + 1) * x * x - 2 * n / (n + 1) * x * xbar
                     + (2 * n + 1) / (n + 1) * xbar ** 2 - m2)
        assert _close_rel(sf("variance", ds, x), expansion)
    print("\nACCEPTANCE 1: SF(mean) and SF(variance) exact identities "
          "on 1000 random datasets (1e-10 relative): PASS")


def test_criterion_2_finite_n_esf_oracles():
    reps = 200_000
    for x in (0.0, 1.0, 2.0):
        mc = esf_mc("variance", STD_NORMAL, 50, x, reps, 2020 + int(x))
        exact = esf_exact("variance", STD_NORMAL, x, 50)
        assert abs(mc.value - exact) <= 4 * mc.std_error, (x, mc, exact)
    for x in (0.5, 0.9, 1.0):
        mc = esf_mc("uniform_max", UniformMax(1.0), 10, x, reps, 2030 + int(10 * x))
        exact = esf_exact("uniform_max", UniformMax(1.0), x, 10)
        assert abs(mc.value - exact) <= 4 * mc.std_error, (x, mc, exact)
    print("ACCEPTANCE 2: esf_mc (2e5 replicates) matches exact finite-n ESF "
          "for variance (n=50) and uniform-max (n=10) within 4*SE: PASS")


def test_criterion_3_kendall_gaussian_aesf():
    # closed form at the origin reduces through the arcsin identity
    origin = aesf(AesfRequest("kendall", GAUSS, (0.0, 0.0)))
    assert abs(origin - 0.0) <= 1e-8

    # Monte Carlo agreement at the origin and at an off-center point
    mc = esf_mc("kendall", GAUSS, 1600, (0.0, 0.0), 10_000, 303)
    assert abs(mc.value - origin) <= 4 * mc.std_error, (mc, origin)
    point = (1.2, -0.4)
    mc2 = esf_mc("kendall", GAUSS, 1600, point, 4000, 304)
    closed = aesf(AesfRequest("kendall", GAUSS, point))
    assert abs(mc2.value - closed) <= 4 * mc2.std_error, (mc2, closed)

    # uniform bound on the full figure grid
    grid = np.linspace(-3.0, 3.0, 41)
    worst = max(abs(aesf(AesfRequest("kendall", GAUSS, (x, y))))
                for x in grid for y in grid)
    assert worst <= 3.0
    print("ACCEPTANCE 3: Kendall Gaussian AESF origin identity (1e-8), "
          "MC agreement at 4*SE, |AESF| <= 3 on the 41x41 grid: PASS")


@pytest.mark.xfail(strict=True,
                   reason="source text pins aesf(0,0) to (2/pi)arcsin(0.7); that "
                          "contradicts the same criterion's MC-agreement clause "
                          "(E[SF] is n-free and equals 0 at the origin; "
                          "see notes/decisions.md)")
def test_criterion_3_origin_constant_as_literally_stated():
    print("ACCEPTANCE 3 (literal origin constant): FAIL expected "
          "(documented upstream formula slip)")
    origin = aesf(AesfRequest("kendall", GAUSS, (0.0, 0.0)))
    assert abs(origin - TAU_07) <= 1e-8


def test_criterion_4_spearman_independence_and_bounds():
    for x in np.linspace(-2.0, 2.0, 9):
        for y in np.linspace(-0.8, 1.8, 9):
            u = float(marginal_cdf_x(INDEP, x))
            v = float(marginal_cdf_y(INDEP, y))
            closed = aesf(AesfRequest("spearman", INDEP, (x, y)))
            assert abs(closed - 3.0 * (2 * u - 1) * (2 * v - 1)) <= 1e-8

    for point, seed in [((0.0, 0.5), 404), ((-1.0, 1.3), 405), ((1.5, -0.3), 406)]:
        mc = esf_mc("spearman", INDEP, 1600, point, 2000, seed)
        closed = aesf(AesfRequest("spearman", INDEP, point))
        assert abs(mc.value - closed) <= 4 * mc.std_error, (point, mc, closed)

    grid = np.linspace(-3.0, 3.0, 41)
    vals = [aesf(AesfRequest("spearman", GAUSS, (x, y))) for x in grid for y in grid]
    assert min(vals) >= -12.0 and max(vals) <= 18.0
    print("ACCEPTANCE 4: Spearman independence law (1e-8 on 9x9), MC at 3 "
          "points (4*SE), Gaussian surface within [-12, 18]: PASS")


def test_criterion_5_chatterjee_null_and_noiseless_limit():
    for x in np.linspace(-2.0, 2.0, 9):
        for y in np.linspace(-0.8, 1.8, 9):
            assert abs(aesf(AesfRequest("chatterjee", INDEP, (x, y)))) <= 1e-8

    for point, seed in [((0.0, 0.5), 505), ((-1.2, 1.5), 506), ((1.0, -0.5), 507)]:
        mc = esf_mc("chatterjee", INDEP, 1600, point, 2000, seed)
        assert abs(mc.value - 0.0) <= 4 * mc.std_error, (point, mc)

    noiseless = AdditiveNoise(UniformLaw(0.0, 1.0), Link("linear", 1.0), 0.001)
    for x, y in [(0.3, 0.6), (0.2, 0.9), (0.8, 0.75)]:
        v = aesf(AesfRequest("chatterjee", noiseless, (x, y)))
        assert abs(v - (-6.0 * abs(x - y))) <= 0.05, (x, y, v)
    print("ACCEPTANCE 5: Chatterjee null surface (1e-8 on 9x9), MC null at 3 "
          "points (4*SE), noiseless limit -6|x-y| within 0.05 at sigma=0.001: PASS")


def test_criterion_6_smooth_transform_convergence():
    sine = FunctionalId("phi_linear", g="identity", phi="sine")
    curve = convergence_study(sine, STD_NORMAL, 1.0, [100, 400, 1600], 10_000, 606)
    assert curve.target == 1.0
    last = curve.estimates[-1]
    assert abs(last.value - 1.0) <= 4 * last.std_error, curve

    square = FunctionalId("phi_linear", g="square", phi="square")
    curve2 = convergence_study(square, STD_NORMAL, 1.0, [100, 400, 1600], 1000, 607)
    # target from the linear-combination algebra: (g(x) - E g) phi'(E g) = 0 at x = 1
    assert curve2.target == 0.0
    errs = [abs(mc.value) for mc in curve2.estimates]
    ses = [mc.std_error for mc in curve2.estimates]
    assert errs[2] <= 4 * ses[2], curve2
    assert errs[2] <= errs[0] + 2 * (ses[0] + ses[2])  # approach, within noise
    print("ACCEPTANCE 6: phi-linear ESF approaches the derivative formula "
          "(sine at x=1 -> 1; square-square at x=1 -> 0) within 4*SE at n=1600: PASS")


def test_criterion_7_sf_distribution_of_uniform_max():
    theta, n, reps = 1.0, 10_000, 100_000
    values = np.sort(sf_distribution("uniform_max", UniformMax(theta), n, theta,
                                     reps, 707))
    ecdf = np.arange(1, reps + 1) / reps
    exp_cdf = 1.0 - np.exp(-values / theta)  # mean-theta exponential
    kolmogorov = float(np.max(np.abs(ecdf - exp_cdf)))
    assert kolmogorov <= 0.01, kolmogorov

    below = sf_distribution("uniform_max", UniformMax(theta), n, 0.5 * theta,
                            100_000, 708)
    assert np.mean(below == 0.0) >= 0.999
    print(f"ACCEPTANCE 7: uniform-max SF at x=theta is exponential "
          f"(K distance {kolmogorov:.4f} <= 0.01); x=theta/2 gives "
          f"{np.mean(below == 0.0):.2%} exact zeros: PASS")


def test_criterion_8_population_values():
    taus = np.array([kendall_tau(sample(GAUSS, 10_000, 800 + r)) for r in range(32)])
    se = taus.std(ddof=1) / math.sqrt(32)
    assert abs(taus.mean() - TAU_07) <= 4 * se, (taus.mean(), TAU_07, se)

    xis = np.array([chatterjee_xi(sample(INDEP, 10_000, 900 + r)) for r in range(32)])
    se = xis.std(ddof=1) / math.sqrt(32)
    assert abs(xis.mean()) <= 4 * se, (xis.mean(), se)

    for n in (2, 5, 100):
        xs = np.arange(1.0, n + 1)
        assert chatterjee_xi(Dataset(xs, 2.0 * xs)) == pytest.approx(
            1.0 - 3.0 / (n + 1), rel=1e-15)
    print("ACCEPTANCE 8: Kendall estimator mean hits (2/pi)arcsin(0.7) (4*SE), "
          "Chatterjee estimator mean hits 0 under independence (4*SE), "
          "monotone value 1-3/(n+1) exact: PASS")


def test_criterion_9_comparative_robustness_at_discordant_points():
    for point in [(2.0, -2.0), (-2.0, 2.0)]:
        k = aesf(AesfRequest("kendall", GAUSS, point))
        s = aesf(AesfRequest("spearman", GAUSS, point))
        assert abs(k) < abs(s), (point, k, s)
    print("ACCEPTANCE 9: |AESF_kendall| < |AESF_spearman| at (2,-2) and (-2,2): PASS")


def test_criterion_10_cli_determinism(tmp_path):
    threads_max = str(os.cpu_count() or 4)
    # The child does not see pytest's pythonpath setting: give it this src.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))

    def run_cli(*args):
        proc = subprocess.run([sys.executable, "-m", "aesf.cli", *args],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        return proc

    conv_files = []
    for name, threads in [("c1.csv", "1"), ("c2.csv", "1"), ("c3.csv", threads_max)]:
        out = tmp_path / name
        run_cli("converge", "--model", '{"variant":"bivariate_gaussian","rho":0.7}',
                "--functional", "kendall", "--x", "0", "--y", "0",
                "--schedule", "50,100,200", "--replicates", "100",
                "--threads", threads, "--out", str(out))
        conv_files.append(out.read_bytes())
    assert conv_files[0] == conv_files[1] == conv_files[2]

    grid_files = []
    for name, threads in [("g1.csv", "1"), ("g2.csv", "1"), ("g3.csv", threads_max)]:
        out = tmp_path / name
        run_cli("aesf-grid", "--figure", "1", "--nx", "9", "--ny", "9",
                "--threads", threads, "--out", str(out))
        grid_files.append(out.read_bytes())
    assert grid_files[0] == grid_files[1] == grid_files[2]
    print("ACCEPTANCE 10: converge and aesf-grid outputs byte-identical across "
          f"reruns and at 1 vs {threads_max} threads: PASS")
