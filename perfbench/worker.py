"""One benchmark iteration in a fresh process: import ``aesf.cli``, run CLI commands.

Usage: ``python3 perfbench/worker.py '<job JSON>'`` from the repository root,
where the job is ``{"commands": [[arg, ...], ...], "trace": false}``.

The worker prints ``ready`` once ``import aesf.cli`` has returned, so the
parent can time set-up, then one JSON line: the commands' exit codes and
captured output, their wall and CPU time, the peak RSS of the process, and,
when traced, the per-layer summary of the spans.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import resource
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _run(cli, argv) -> dict:
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as e:  # argparse rejects the flags
        code = e.code
    except Exception as e:  # a crash fails this command's checks only
        code = -1
        err.write(f"{type(e).__name__}: {e}")
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> None:
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    cli = importlib.import_module("aesf.cli")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        sys.exit(f"aesf imported from {cli.__file__}, not from {src}")
    print("ready", flush=True)

    from spans import Tracer, summarize

    job = json.loads(sys.argv[1])
    tracer = Tracer() if job["trace"] else None
    if tracer:
        tracer.install()
    wall0, cpu0 = time.perf_counter(), _cpu_s()
    results = [_run(cli, argv) for argv in job["commands"]]
    wall, cpu = time.perf_counter() - wall0, _cpu_s() - cpu0
    report = {
        "commands": results,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        report["layers"] = summarize(tracer.spans)
    print(json.dumps(report), flush=True)


if __name__ == "__main__":
    main()
