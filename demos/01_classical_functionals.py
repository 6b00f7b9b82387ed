"""How much does one extra observation move a classical estimator?

The sensitivity function SF(x) = (n+1) * [R(sample + x) - R(sample)] answers
that at a fixed sample; its expectation over samples (ESF) has closed forms
for the mean, the plug-in variance and the uniform maximum, and those forms
converge to a deterministic limit (AESF) as n grows. This script walks
through all three quantities and checks the Monte Carlo engine against the
exact formulas.
"""

import numpy as np

from aesf import (
    AesfRequest,
    Dataset,
    UniformMax,
    UnivariateNormal,
    aesf,
    esf_exact,
    esf_mc,
    sf,
)

rng = np.random.default_rng(1)

# --- a single sample: the SF is just arithmetic -------------------------
ds = Dataset(rng.standard_normal(30))
print("sample mean:", round(ds.xs.mean(), 4))
for x in (-2.0, 0.0, 3.0):
    print(f"  SF(mean) at x={x:+}: {sf('mean', ds, x):+.4f}   (= x - mean)")

# the variance SF is a quadratic in x with sample-dependent coefficients
for x in (-2.0, 0.0, 3.0):
    print(f"  SF(variance) at x={x:+}: {sf('variance', ds, x):+.4f}")

# --- expected sensitivity at finite n, exact vs Monte Carlo -------------
model = UnivariateNormal(0.0, 1.0)
print("\nESF(variance) under a standard normal, n = 50:")
print(f"  {'x':>4} {'exact':>10} {'monte carlo':>12} {'4*SE':>8}")
for x in (0.0, 1.0, 2.0):
    exact = esf_exact("variance", model, x, 50)
    mc = esf_mc("variance", model, 50, x, 20_000, seed=7)
    print(f"  {x:4.1f} {exact:10.5f} {mc.value:12.5f} {4 * mc.std_error:8.5f}")

# the large-n limit equals the influence function (x - mu)^2 - sigma^2
print("  limit at x=2:", aesf(AesfRequest("variance", model, 2.0)))

# --- the uniform maximum: ESF depends on n, and the limit is abruptly
# different at the boundary ----------------------------------------------
umax = UniformMax(1.0)
print("\nESF(uniform max), theta = 1, x = 0.9:  x (x/theta)^n")
for n in (5, 10, 50, 200):
    print(f"  n={n:4d}: {esf_exact('uniform_max', umax, 0.9, n):.6f}")
print("  limit at x=0.9:", aesf(AesfRequest("uniform_max", umax, 0.9)))
print("  limit at x=1.0:", aesf(AesfRequest("uniform_max", umax, 1.0)),
      "(the boundary point keeps a theta-sized kick)")
