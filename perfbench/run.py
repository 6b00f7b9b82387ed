"""Benchmark of the ``aesf`` CLI: one workload, measured for a fixed time.

Usage, from the repository root::

    python3 perfbench/run.py --workload mc_small_n [--seed N] [--seconds S] [--trace 0|1]

Load: a closed loop with one client. Each iteration runs the workload's
commands through ``aesf.cli.main`` in a fresh single-threaded worker process
(``--threads 1``), so import and every cache start cold, as they do for a CLI
user. Iterations repeat while the next one is expected to end within
``--seconds``; timings are medians over iterations.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates untraced and traced iterations and reports per-layer
metrics: calls and self time of the traced functions (``spans.TRACED``),
the latency profile of ``closedform.aesf``, the useful-replicate ratio, the
tracing overhead, and the workload's thread-pool probe at ``--threads 2``
over ``--threads 1``. A ratio whose base is 0 (a layer the workload does not
use) reads 0.

Every output is checked (``workloads.py``). The last line of standard output
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
give the environment stamp, each metric's spread and the failed checks.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import TRACED_NAMES
from workloads import DEFAULT_SEED, WORKLOADS, Tally, check

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
REFERENCE = HERE / "reference.json"

#: Set in every worker, so that numpy, scipy and BLAS run single-threaded.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_ITERATIONS = 3
MIN_SETUPS = 5
DEADLINE_S = 165.0  # the whole run must end within 180 s

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = {
    **{f"{name}.calls": "count" for name in TRACED_NAMES},
    **{f"{name}.self_s": "s" for name in TRACED_NAMES},
    "closedform.aesf.first_s": "s",
    "closedform.aesf.p50_us": "us",
    "closedform.aesf.p90_us": "us",
    "sensitivity.useful_ratio": "ratio",
    "sensitivity.replicates": "count",
    "sensitivity.tie_resamples": "count",
    "sensitivity.threads2_over_threads1": "ratio",
    "sensitivity.threads1_s": "s",
    "cli.grid_threads2_over_threads1": "ratio",
    "cli.grid_threads1_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class WorkerError(RuntimeError):
    pass


class Runner:
    """Spawns workers from the repository root and collects their outputs."""

    def __init__(self, root: Path, scratch: Path, started: float):
        self.root, self.scratch, self.started = root, scratch, started
        self.env = {**os.environ, **THREAD_ENV}
        self.count = 0

    def fits(self, duration: float, seconds: float) -> bool:
        """Whether one more step of ``duration`` ends within ``seconds`` of the start."""
        return time.perf_counter() - self.started + duration <= seconds

    def spawn(self, commands: list, trace: bool = False) -> tuple[float, dict]:
        """Run ``commands`` in a fresh worker; returns (set-up seconds, report)."""
        job = json.dumps({"commands": commands, "trace": trace})
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(WORKER), job], cwd=self.root,
                                env=self.env, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - t0
            rest, _ = proc.communicate(
                timeout=max(1.0, DEADLINE_S - (time.perf_counter() - self.started)))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise WorkerError("worker ran past the run's deadline") from None
        if ready.strip() != "ready" or proc.returncode != 0:
            raise WorkerError(f"worker exited with {proc.returncode} before reporting")
        return setup_s, json.loads(rest.strip().splitlines()[-1])

    def iteration(self, make_commands, seed: int, threads: int, trace: bool = False):
        """One workload iteration; returns (set-up seconds, report, outputs)."""
        self.count += 1
        out_dir = self.scratch / str(self.count)
        out_dir.mkdir()
        commands = [argv + ["--threads", str(threads)]
                    for argv in make_commands(seed, str(out_dir))]
        setup_s, report = self.spawn(commands, trace)
        outputs = [_output(argv, result)
                   for argv, result in zip(commands, report["commands"])]
        shutil.rmtree(out_dir)
        return setup_s, report, outputs


def _output(argv: list, result: dict) -> dict:
    """A command's outputs; what cannot be parsed stays None and fails its checks."""
    out = {"code": result["code"], "report": None, "csv": None, "sha256": None}
    if result["code"] == 0:
        try:
            out["report"] = json.loads(result["stdout"].strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            pass
    if "--out" in argv:
        path = Path(argv[argv.index("--out") + 1])
        if path.exists():
            data = path.read_bytes()
            out["sha256"] = hashlib.sha256(data).hexdigest()
            rows = list(csv.reader(data.decode(errors="replace").splitlines()))[1:]
            try:
                out["csv"] = [[float(v) if v else float("nan") for v in row] for row in rows]
            except ValueError:
                pass
    return out


def remove_if_empty(directory: Path) -> None:
    try:
        directory.rmdir()
    except OSError:  # other runs still use it
        pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _without_paths(report) -> dict:
    """The result of a ``--json`` report, without the output file names."""
    result = (report or {}).get("result", {})
    return {key: value for key, value in result.items() if key not in ("file", "files")}


def _useful(outputs: list) -> tuple[int, int]:
    """(replicates, tie resamples) over the commands whose report has both."""
    replicates = resamples = 0
    for out in outputs:
        result = (out["report"] or {}).get("result", {})
        if "tie_resamples" in result:
            replicates += result["replicates"]
            resamples += result["tie_resamples"]
    return replicates, resamples


def _source_stamp(root: Path) -> dict:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    commit = "unknown (not a git checkout)"
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            if ref_file.is_file():
                commit = ref_file.read_text().strip()
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def _environment(root: Path) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            versions[package] = None
    return {**_source_stamp(root), "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **versions, "thread_env": THREAD_ENV}


def measure_end_to_end(runner: Runner, workload, seed: int, seconds: float,
                       reference: dict, tally: Tally) -> dict:
    samples = {name: [] for name in END_TO_END}
    last = 0.0
    while len(samples["wall_s"]) < MIN_ITERATIONS or runner.fits(last, seconds):
        t0 = time.perf_counter()
        setup_s, report, outputs = runner.iteration(workload.commands, seed, threads=1)
        check(workload, outputs, seed, reference, tally)
        last = time.perf_counter() - t0
        samples["setup_s"].append(setup_s)
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name].append(report[name])
    while len(samples["setup_s"]) < MIN_SETUPS:
        samples["setup_s"].append(runner.spawn([])[0])
    return samples


def measure_per_layer(runner: Runner, workload, seed: int, seconds: float,
                      reference: dict, tally: Tally) -> dict:
    metrics = dict.fromkeys(PER_LAYER, 0)

    # Thread-pool probe: the same commands at --threads 1 and 2, each in a cold
    # worker, in pairs of alternating order for the first third of the run.
    if (os.cpu_count() or 1) >= 2:
        walls, results = {1: [], 2: []}, {}
        last = 0.0
        while not walls[1] or runner.fits(last, seconds / 3):
            t0 = time.perf_counter()
            for threads in ((1, 2) if len(walls[1]) % 2 == 0 else (2, 1)):
                _, report, outputs = runner.iteration(workload.probe, seed, threads)
                walls[threads].append(report["wall_s"])
                results[threads] = [(o["code"], o["sha256"], _without_paths(o["report"]))
                                    for o in outputs]
            tally.check("probe output at --threads 2 equals --threads 1",
                        lambda: results[1] == results[2]
                        and all(c == 0 for c, _, _ in results[1]))
            last = time.perf_counter() - t0
        base = statistics.median(walls[1])
        metrics[workload.probe_prefix + "threads1_s"] = base
        metrics[workload.probe_prefix + "threads2_over_threads1"] = \
            statistics.median(walls[2]) / base

    # Untraced and traced iterations in turn; the difference is the tracing overhead.
    samples = {"trace.wall_s": [], "trace.overhead_s": []}
    last = 0.0
    while not samples["trace.wall_s"] or runner.fits(last, seconds):
        t0 = time.perf_counter()
        _, plain, outputs = runner.iteration(workload.commands, seed, threads=1)
        check(workload, outputs, seed, reference, tally)
        replicates, resamples = _useful(outputs)
        _, traced, outputs = runner.iteration(workload.commands, seed, threads=1, trace=True)
        check(workload, outputs, seed, reference, tally)
        for name, value in traced["layers"].items():
            samples.setdefault(name, []).append(value)
        samples["trace.wall_s"].append(traced["wall_s"])
        samples["trace.overhead_s"].append(traced["wall_s"] - plain["wall_s"])
        last = time.perf_counter() - t0
    metrics.update({name: statistics.median(values) for name, values in samples.items()})
    metrics["sensitivity.replicates"] = replicates
    metrics["sensitivity.tie_resamples"] = resamples
    metrics["sensitivity.useful_ratio"] = _ratio(replicates, replicates + resamples)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "aesf" / "cli.py").is_file():
        print(f"error: no aesf sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    reference = json.loads(REFERENCE.read_text())
    (root / ".perfbench_tmp").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=root / ".perfbench_tmp"))
    runner = Runner(root, scratch, started)
    tally = Tally()
    try:
        runner.spawn([])  # warm-up: bytecode and file caches, not timed
        runner.started = started = time.perf_counter()
        if args.trace:
            metrics = measure_per_layer(runner, workload, args.seed, args.seconds,
                                        reference, tally)
            units = PER_LAYER
            spread = {}
        else:
            samples = measure_end_to_end(runner, workload, args.seed, args.seconds,
                                         reference, tally)
            metrics = {name: statistics.median(values) for name, values in samples.items()}
            units = END_TO_END
            spread = {name: (min(v), max(v), len(v)) for name, v in samples.items()}
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        remove_if_empty(scratch.parent)

    print("env " + json.dumps(_environment(root)))
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{runner.count} iterations in {time.perf_counter() - started:.1f} s")
    for name, unit in units.items():
        extra = ""
        if name in spread:
            lo, hi, n = spread[name]
            extra = f"  (median of {n}; min {lo:.6g}, max {hi:.6g})"
        print(f"  {name:<40} {metrics[name]:>14.6g} {unit}{extra}")
    print(f"  {'error_rate':<40} {tally.failed / tally.attempted:>14.6g} fraction"
          f"  ({tally.failed} of {tally.attempted} checks failed)")
    if tally.identical_files:
        print(f"  output files byte-identical to the pinned ones in "
              f"{sum(tally.identical_files)} of {len(tally.identical_files)} iterations")
    for label in tally.failures[:20]:
        print(f"  FAILED {label}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
