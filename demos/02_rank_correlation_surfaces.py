"""Robustness surfaces for Kendall's and Spearman's correlations.

Under a standard bivariate Gaussian with rho = 0.7, both rank correlations
have closed-form sensitivity limits. Evaluating them over a grid shows
where each statistic is fragile: discordant contamination (top-left /
bottom-right corners) moves Spearman's correlation much more than
Kendall's, while Kendall reacts slightly more to concordant points.

Writes two small CSV surfaces next to this script; the CLI command
`aesf aesf-grid --figure 3` emits the same comparison at full resolution.
"""

from pathlib import Path

import numpy as np

from aesf import BivariateGaussian, aesf_many

model = BivariateGaussian(0.7)
grid = np.linspace(-3.0, 3.0, 13)
xs, ys = np.meshgrid(grid, grid, indexing="ij")
points = np.column_stack((xs.ravel(), ys.ravel()))  # row-major, y inner

here = Path(__file__).resolve().parent
for tag in ("kendall", "spearman"):
    out = here / f"surface_{tag}.csv"
    values = aesf_many(tag, model, points)
    with out.open("w", newline="") as fh:
        fh.write("x,y,aesf\n")
        fh.writelines(f"{x:.12g},{y:.12g},{v:.12g}\n"
                      for (x, y), v in zip(points.tolist(), values.tolist()))
    print("wrote", out)

print("\npointwise comparison (positive abs_diff = Spearman more robust):")
print(f"  {'point':>14} {'kendall':>9} {'spearman':>9} {'|K|-|S|':>9}")
corners = [(2.0, 2.0), (2.0, -2.0), (-2.0, 2.0), (0.0, 0.0), (3.0, -3.0)]
kendall = aesf_many("kendall", model, corners)
spearman = aesf_many("spearman", model, corners)
for point, k, s in zip(corners, kendall, spearman):
    print(f"  {str(point):>14} {k:9.4f} {s:9.4f} {abs(k) - abs(s):9.4f}")

print("\nKendall's limit stays within +-3 everywhere; Spearman's reaches "
      "past +-4.5 at the discordant corners.")
