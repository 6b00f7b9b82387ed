"""Self-test of the benchmark: span arithmetic, and every output check proven live.

Usage, from the repository root: ``python3 perfbench/selftest.py``. It runs
each workload once at the default seed (about 20 s), then perturbs outputs
and pinned references and asserts that the checks catch each perturbation.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time
import unittest
from pathlib import Path

import run
from spans import Tracer, covered_length, self_times, summarize
from workloads import DEFAULT_SEED, GAUSS_GRID, WORKLOADS, Tally, check

ROOT = Path.cwd()
OTHER_SEED = 7


class SpanArithmetic(unittest.TestCase):
    def test_covered_length_merges_and_clips(self):
        self.assertEqual(covered_length([], 0.0, 10.0), 0.0)
        self.assertEqual(covered_length([(1, 4), (3, 6), (2, 3)], 0.0, 10.0), 5.0)
        self.assertEqual(covered_length([(-5, 1), (9, 20)], 0.0, 10.0), 2.0)
        self.assertEqual(covered_length([(1, 2), (4, 5)], 0.0, 10.0), 2.0)
        self.assertEqual(covered_length([(11, 12)], 0.0, 10.0), 0.0)

    def test_self_time_of_nested_and_overlapping_children(self):
        spans = [
            ("root", -1, 0.0, 10.0),
            ("a", 0, 1.0, 4.0),     # overlaps b
            ("b", 0, 3.0, 6.0),
            ("c", 0, 8.0, 12.0),    # runs past its parent: only [8, 10] counts
            ("a1", 1, 2.0, 3.0),    # nested in a
            ("other", -1, 20.0, 21.0),
        ]
        self.assertEqual(self_times(spans), [3.0, 2.0, 3.0, 4.0, 1.0, 1.0])

    def test_summary_counts_calls_and_aesf_profile(self):
        spans = [("cli.main", -1, 0.0, 1.0)]
        spans += [("closedform.aesf", 0, 0.1 * i, 0.1 * i + 0.01 * (i + 1)) for i in range(9)]
        out = summarize(spans)
        self.assertEqual(out["closedform.aesf.calls"], 9)
        self.assertEqual(out["cli.main.calls"], 1)
        self.assertAlmostEqual(out["cli.main.self_s"], 1.0 - 0.45, places=12)
        self.assertAlmostEqual(out["closedform.aesf.first_s"], 0.01, places=12)
        self.assertAlmostEqual(out["closedform.aesf.p50_us"], 50_000.0, places=6)
        self.assertEqual(out["numerics.bvn_cdf.calls"], 0)

    def test_tracer_replaces_every_binding_and_links_parents(self):
        sys.path.insert(0, str(ROOT / "src"))
        import aesf
        import aesf.cli
        from aesf import sensitivity
        from aesf.models import UnivariateNormal

        tracer = Tracer()
        tracer.install()
        self.assertIs(sensitivity.sample, aesf.models.sample)
        self.assertIs(aesf.sample, aesf.models.sample)
        sensitivity.esf_mc("mean", UnivariateNormal(0.0, 1.0), 5, 0.5, 3, seed=1)
        names = [name for name, _, _, _ in tracer.spans]
        self.assertEqual(names.count("sensitivity.esf_mc"), 1)
        for name, calls in (("sensitivity.sf", 3), ("models.derive_seed", 3),
                            ("models.sample", 3), ("estimators.estimate", 6)):
            self.assertEqual(names.count(name), calls, name)
        for name, parent, _, _ in tracer.spans:
            if name == "sensitivity.sf":
                self.assertEqual(tracer.spans[parent][0], "sensitivity.esf_mc")
            if name == "estimators.estimate":
                self.assertEqual(tracer.spans[parent][0], "sensitivity.sf")


def _run_workloads() -> dict:
    scratch = ROOT / ".perfbench_tmp" / "selftest"
    scratch.mkdir(parents=True)
    runner = run.Runner(ROOT, scratch, time.perf_counter())
    try:
        return {name: runner.iteration(w.commands, DEFAULT_SEED, threads=1)[2]
                for name, w in WORKLOADS.items()}
    finally:
        shutil.rmtree(scratch)
        run.remove_if_empty(scratch.parent)


def _tally(name, outputs, seed=DEFAULT_SEED, reference=None) -> Tally:
    tally = Tally()
    check(WORKLOADS[name], outputs, seed, reference or REFERENCE, tally)
    return tally


def _nudge(value):
    return value + 1e-9 * max(1.0, abs(value))


class NegativeControl(unittest.TestCase):
    """Each check fails when its output or its reference is perturbed."""

    def test_outputs_pass_at_the_default_seed(self):
        for name, outputs in OUTPUTS.items():
            tally = _tally(name, outputs)
            self.assertEqual(tally.failures, [], name)
            self.assertGreater(tally.attempted, len(REFERENCE[name]["values"]), name)

    def test_every_pinned_value_is_checked(self):
        for name, outputs in OUTPUTS.items():
            reference = copy.deepcopy(REFERENCE)
            pins = reference[name]["values"]
            for label in pins:
                pins[label] = _nudge(pins[label])
            tally = _tally(name, outputs, reference=reference)
            self.assertEqual(sorted(tally.failures), sorted(f"pinned {k}" for k in pins), name)

    def test_every_pinned_output_is_checked(self):
        for name, outputs in OUTPUTS.items():
            outputs = copy.deepcopy(outputs)
            for out in outputs:
                result = out["report"]["result"]
                for key in ("value", "std_error", "exact", "target"):
                    if key in result:
                        result[key] = _nudge(result[key])
                if "esf" in result:
                    result["esf"] = [_nudge(v) for v in result["esf"]]
                if "tie_resamples" in result:
                    result["tie_resamples"] += 1
                if out["csv"]:
                    out["csv"] = [row[:2] + [_nudge(v) for v in row[2:]] for row in out["csv"]]
            tally = _tally(name, outputs)
            self.assertEqual(
                sorted(tally.failures),
                sorted(f"pinned {k}" for k in REFERENCE[name]["values"]), name)

    def test_a_failed_command_fails_all_its_checks(self):
        for name, outputs in OUTPUTS.items():
            outputs = copy.deepcopy(outputs)
            for out in outputs:
                out["code"] = 1
            tally = _tally(name, outputs)
            self.assertEqual(tally.failed, tally.attempted, name)
            self.assertEqual(tally.attempted, _tally(name, OUTPUTS[name]).attempted, name)

    def test_other_seeds_run_only_the_oracles(self):
        for name in ("mc_small_n", "mc_rank_large_n"):
            tally = _tally(name, OUTPUTS[name], seed=OTHER_SEED)
            self.assertEqual(tally.failures, [])
            self.assertEqual(tally.attempted, 1 if name == "mc_small_n" else 3)

    def _oracle_fails(self, name, mutate, label):
        outputs = copy.deepcopy(OUTPUTS[name])
        mutate(outputs)
        tally = _tally(name, outputs, seed=OTHER_SEED)
        self.assertIn(label, tally.failures)
        return tally

    def test_monte_carlo_oracles(self):
        def off_by_5_se(i, target):
            def mutate(outputs):
                result = outputs[i]["report"]["result"]
                result["value"] = target(result) + 5.0 * result["std_error"]
            return mutate

        self._oracle_fails("mc_small_n", off_by_5_se(0, lambda r: r["exact"]),
                           "variance esf within 4 SE of esf_exact")
        self._oracle_fails("mc_rank_large_n", off_by_5_se(1, lambda r: 0.0),
                           "spearman esf within 4 SE of 3(2u-1)(2v-1)")
        self._oracle_fails("mc_rank_large_n", off_by_5_se(2, lambda r: 0.0),
                           "chatterjee esf within 4 SE of 0")

        def converge_off(outputs):
            last = outputs[0]["csv"][-1]
            last[1] = last[3] + 5.0 * last[2]

        self._oracle_fails("mc_rank_large_n", converge_off,
                           "converge n=1600 within 4 SE of the AESF target")

    def test_grid_oracles(self):
        def set_value(x, y, col, value):
            def mutate(outputs):
                row = next(r for r in outputs[0]["csv"] if r[0] == x and r[1] == y)
                row[col] = value
            return mutate

        self._oracle_fails("grid_gaussian", set_value(0.0, 0.0, 2, 2e-8),
                           "kendall at the origin within 1e-8 of 0")
        self._oracle_fails("grid_gaussian", set_value(1.0, 1.0, 2, 3.5), "|kendall| <= 3["
                           f"{(30 + 90) * GAUSS_GRID + 30 + 90}]")
        for value in (18.5, -12.5):
            tally = self._oracle_fails("grid_gaussian", set_value(1.0, -1.0, 3, value),
                                       f"spearman in [-12, 18][{120 * GAUSS_GRID + 60}]")
            self.assertEqual(tally.failed, 1)
        for x, y in ((2.0, -2.0), (-2.0, 2.0)):
            self._oracle_fails("grid_gaussian", set_value(x, y, 2, 17.0),
                               f"|kendall| < |spearman| at ({x:g}, {y:g})")
        for name, label in (("grid_gaussian", "figure 3 row count"),
                            ("grid_chatterjee", "chatterjee grid row count")):
            tally = self._oracle_fails(name, lambda outputs: outputs[0]["csv"].pop(), label)
            self.assertGreater(tally.failed, 1)  # the lost row's own checks fail too


class Contract(unittest.TestCase):
    def test_benchmark_json_names_what_run_reports(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({w["name"]: w["why"] for w in spec["workloads"]},
                         {name: w.why for name, w in WORKLOADS.items()})
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)

    def test_fails_without_the_sources(self):
        bare = ROOT / ".perfbench_tmp" / "bare"
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        try:
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "mc_small_n",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        finally:
            shutil.rmtree(bare)
            run.remove_if_empty(bare.parent)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


REFERENCE = json.loads(run.REFERENCE.read_text())
OUTPUTS: dict = {}

if __name__ == "__main__":
    OUTPUTS.update(_run_workloads())
    unittest.main()
