"""The benchmark's workloads: CLI commands, and the checks on their outputs.

Each workload is a batch job from one caller, run the way a researcher runs
the ``aesf`` CLI. Its commands are argument lists for ``aesf.cli.main``
without ``--threads``, which the harness appends. Every output value is
checked against an oracle that does not depend on the code under test and,
where the outputs do not depend on a seed other than the CLI default, against
values pinned from the commit that defined the benchmark (``reference.json``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0x5EED_AE5F  # the CLI's default --seed

NORMAL = json.dumps({"variant": "univariate_normal", "mu": 0.0, "sigma": 1.0})
GAUSS = json.dumps({"variant": "bivariate_gaussian", "rho": 0.7})
PRODUCT = json.dumps({"variant": "independent_product", "x_law": {"name": "normal"},
                      "y_law": {"name": "uniform", "a": -1.0, "b": 2.0}})

SCHEDULE = (200, 400, 800, 1600)
GAUSS_GRID = 181  # step 1/30 on [-3, 3], so 0 and +-2 are grid points
CHATTERJEE_GRID = 11
# Figure 4's window for scenario C: x over the support of U[-1, 1], y over
# mean_y -+ 3 sd_y as ``aesf.models.y_moments`` gives them.
C_WINDOW = ("-1", "1", "-2.5980762113533156", "2.598076211353313")


# ---------------------------------------------------------------------------
# Tolerances (ROADMAP, aim 1): seeded rank-based Monte Carlo is bit-identical,
# moment-based Monte Carlo within 1e-12 relative, closed forms within 1e-12.
# ---------------------------------------------------------------------------

def within(actual: float, expected: float, kind: str) -> bool:
    if kind == "exact":
        return actual == expected
    if kind == "moment":
        return abs(actual - expected) <= 1e-12 * abs(expected)
    tol = 1e-12 * max(1.0, abs(expected))
    if kind == "csv" and expected != 0.0:
        # CSV values carry 12 significant digits: allow one unit in the last.
        tol += 10.0 ** (math.floor(math.log10(abs(expected))) - 11)
    return abs(actual - expected) <= tol


class Tally:
    """Counts checks; each compares one output value with its oracle."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.identical_files: list[bool] = []  # output files byte-identical to pinned

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, label: str, test: Callable[[], bool]) -> None:
        self.attempted += 1
        try:
            ok = bool(test())
        except Exception:  # a missing output (failed command) fails the check
            ok = False
        if not ok:
            self.failures.append(label)

    def each(self, label: str, expected: int, rows: Callable[[], list],
             test: Callable[[list], bool]) -> None:
        """One check per row; rows missing from ``expected`` count as failed."""
        try:
            rows = rows()
        except Exception:
            rows = []
        for i in range(max(expected, len(rows))):
            self.check(f"{label}[{i}]", lambda: test(rows[i]))


# ---------------------------------------------------------------------------
# Outputs: one dict per command, ``{"code", "report", "csv"}``; ``report`` is
# the parsed ``--json`` run report and ``csv`` the rows of the file written to
# ``--out``, as floats, without the header.
# ---------------------------------------------------------------------------

def _result(outputs, i: int) -> dict:
    out = outputs[i]
    if out["code"] != 0:
        raise RuntimeError(f"command {i} exited with {out['code']}")
    return out["report"]["result"]


def _csv(outputs, i: int) -> list:
    _result(outputs, i)
    return outputs[i]["csv"]


def _normal_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    seeded: bool  # outputs depend on --seed; pinned values exist for DEFAULT_SEED only
    commands: Callable[[int, str], list]  # (seed, output dir) -> argument lists
    probe: Callable[[int, str], list]  # timed at --threads 1 and 2
    probe_prefix: str  # of the probe's per-layer metrics
    oracles: Callable[[list, Tally], None]
    pinned: Callable[[list], dict]  # label -> (value, tolerance kind)


def _mc_small_n(seed, out):
    return [["esf", "--functional", "variance", "--model", NORMAL, "--n", "50",
             "--x", "2", "--replicates", "20000", "--seed", str(seed), "--json"]]


def _mc_small_n_oracles(outputs, tally):
    tally.check("variance esf within 4 SE of esf_exact", lambda: abs(
        _result(outputs, 0)["value"] - _result(outputs, 0)["exact"])
        <= 4.0 * _result(outputs, 0)["std_error"])


def _mc_small_n_pinned(outputs):
    r = _result(outputs, 0)
    return {"value": (r["value"], "moment"), "std_error": (r["std_error"], "moment"),
            "exact": (r["exact"], "closed"), "tie_resamples": (r["tie_resamples"], "exact")}


def _kendall_n1600(seed, out):
    """The n=1600 ``esf_mc`` call inside ``_mc_rank_large_n``'s convergence study."""
    return [["esf", "--functional", "kendall", "--model", GAUSS, "--n", "1600",
             "--x", "1.2", "--y", "-0.4", "--replicates", "300", "--seed", str(seed), "--json"]]


def _mc_rank_large_n(seed, out):
    null = ["--model", PRODUCT, "--n", "1600", "--x", "0", "--y", "0.5",
            "--replicates", "400", "--seed", str(seed), "--json"]
    return [
        ["converge", "--functional", "kendall", "--model", GAUSS, "--x", "1.2", "--y", "-0.4",
         "--schedule", ",".join(map(str, SCHEDULE)), "--replicates", "300",
         "--out", f"{out}/converge.csv", "--seed", str(seed), "--json"],
        ["esf", "--functional", "spearman", *null],
        ["esf", "--functional", "chatterjee", *null],
    ]


def _mc_rank_large_n_oracles(outputs, tally):
    def last_point_near_target():
        _, esf, se, target = _csv(outputs, 0)[-1]
        return abs(esf - target) <= 4.0 * se

    tally.check("converge n=1600 within 4 SE of the AESF target", last_point_near_target)
    # Spearman's AESF under independence is 3 (2u - 1)(2v - 1), u = F_X(x), v = F_Y(y).
    u, v = _normal_cdf(0.0), (0.5 - (-1.0)) / 3.0
    spearman = 3.0 * (2.0 * u - 1.0) * (2.0 * v - 1.0)
    tally.check("spearman esf within 4 SE of 3(2u-1)(2v-1)", lambda: abs(
        _result(outputs, 1)["value"] - spearman) <= 4.0 * _result(outputs, 1)["std_error"])
    tally.check("chatterjee esf within 4 SE of 0", lambda: abs(
        _result(outputs, 2)["value"]) <= 4.0 * _result(outputs, 2)["std_error"])


def _mc_rank_large_n_pinned(outputs):
    conv = _result(outputs, 0)
    pins = {"converge.target": (conv["target"], "closed")}
    for n, value, row in zip(SCHEDULE, conv["esf"], _csv(outputs, 0)):
        pins[f"converge.esf[{n}]"] = (value, "exact")
        pins[f"converge.std_error[{n}]"] = (row[2], "exact")
    for i, name in ((1, "spearman"), (2, "chatterjee")):
        r = _result(outputs, i)
        pins[f"{name}.value"] = (r["value"], "exact")
        pins[f"{name}.std_error"] = (r["std_error"], "exact")
        pins[f"{name}.tie_resamples"] = (r["tie_resamples"], "exact")
    return pins


def _grid_gaussian(seed, out):
    return [["aesf-grid", "--figure", "3", "--nx", str(GAUSS_GRID), "--ny", str(GAUSS_GRID),
             "--out", f"{out}/figure3.csv", "--json"]]


def _row_at(rows, x, y):
    return next(r for r in rows if r[0] == x and r[1] == y)


def _grid_gaussian_oracles(outputs, tally):
    rows = lambda: _csv(outputs, 0)
    count = GAUSS_GRID * GAUSS_GRID
    tally.check("figure 3 row count", lambda: len(rows()) == count)
    tally.check("kendall at the origin within 1e-8 of 0",
                lambda: abs(_row_at(rows(), 0.0, 0.0)[2]) <= 1e-8)
    tally.each("|kendall| <= 3", count, rows, lambda r: abs(r[2]) <= 3.0)
    tally.each("spearman in [-12, 18]", count, rows, lambda r: -12.0 <= r[3] <= 18.0)
    for x, y in ((2.0, -2.0), (-2.0, 2.0)):
        tally.check(f"|kendall| < |spearman| at ({x:g}, {y:g})",
                    lambda: abs(_row_at(rows(), x, y)[2]) < abs(_row_at(rows(), x, y)[3]))


def _grid_pins(outputs, columns, stride):
    rows = _csv(outputs, 0)
    return {f"row{i}.{name}": (rows[i][col], "csv")
            for i in range(0, len(rows), stride) for col, name in columns}


def _grid_chatterjee(seed, out):
    x_min, x_max, y_min, y_max = C_WINDOW
    return [["aesf-grid", "--model", "C", "--functional", "chatterjee",
             "--x-min", x_min, "--x-max", x_max, "--y-min", y_min, "--y-max", y_max,
             "--nx", str(CHATTERJEE_GRID), "--ny", str(CHATTERJEE_GRID),
             "--out", f"{out}/chatterjee_C.csv", "--json"]]


def _grid_chatterjee_oracles(outputs, tally):
    tally.check("chatterjee grid row count",
                lambda: len(_csv(outputs, 0)) == CHATTERJEE_GRID * CHATTERJEE_GRID)


WORKLOADS = {w.name: w for w in [
    Workload(
        "mc_small_n",
        "Variance ESF at n=50 with 20k replicates: per-replicate seeding, sampling "
        "and Dataset building dominate, so batched seeding and sampling shows in full",
        True, _mc_small_n, _mc_small_n, "sensitivity.",
        _mc_small_n_oracles, _mc_small_n_pinned),
    Workload(
        "mc_rank_large_n",
        "Kendall convergence to n=1600 plus Spearman and Chatterjee at n=1600: rank "
        "estimators dominate and seeding is small, so estimator and seeding gains separate",
        True, _mc_rank_large_n, _kendall_n1600, "sensitivity.",
        _mc_rank_large_n_oracles, _mc_rank_large_n_pinned),
    Workload(
        "grid_gaussian",
        "Figure 3 on a 181x181 grid: many cheap closed-form points with no Monte Carlo "
        "and no cache, so per-point dispatch, bvn_cdf, rule building and CSV output dominate",
        False, _grid_gaussian, _grid_gaussian, "cli.grid_", _grid_gaussian_oracles,
        lambda outputs: _grid_pins(
            outputs, ((2, "kendall"), (3, "spearman"), (4, "abs_diff")), 163)),
    Workload(
        "grid_chatterjee",
        "Chatterjee AESF on figure 4's scenario C window, 11x11, cold caches: quadrature "
        "rule building for the shared term and the per-point expectations dominate",
        False, _grid_chatterjee, _grid_chatterjee, "cli.grid_", _grid_chatterjee_oracles,
        lambda outputs: _grid_pins(outputs, ((2, "aesf"),), 1)),
]}


def check(workload: Workload, outputs: list, seed: int, reference: dict, tally: Tally) -> None:
    """Apply the workload's oracles and, where they apply, its pinned values."""
    workload.oracles(outputs, tally)
    if workload.seeded and seed != DEFAULT_SEED:
        return
    pinned = reference[workload.name]["values"]
    if any(reference[workload.name]["sha256"]):
        tally.identical_files.append(
            [o["sha256"] for o in outputs] == reference[workload.name]["sha256"])
    try:
        actual = workload.pinned(outputs)
    except Exception:  # a failed command fails every pinned comparison
        actual = {}
    for label, expected in pinned.items():
        tally.check(f"pinned {label}",
                    lambda: within(actual[label][0], expected, actual[label][1]))
