"""The benchmark's traced layers name functions that exist in ``aesf``, and a
traced run of the CLI completes."""

import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_is_a_callable():
    # Tracer.install looks each name up with getattr, so a deleted or renamed
    # layer would only show up as an AttributeError in a traced benchmark run.
    spans = _load_spans()
    assert spans.TRACED
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"aesf.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"aesf.{module}.{name}"


@pytest.fixture
def tracer():
    """A ``Tracer`` installed over every ``aesf`` module; the original
    functions are put back afterwards, so no other test runs traced."""
    spans = _load_spans()
    for module in spans.TRACED:
        importlib.import_module(f"aesf.{module}")
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "aesf" or key.startswith("aesf."))]
    saved = [(m, dict(vars(m))) for m in modules]
    traced = spans.Tracer()
    traced.install()
    try:
        yield spans, traced
    finally:
        for module, names in saved:
            for name, value in names.items():
                if vars(module).get(name) is not value:
                    setattr(module, name, value)


def test_traced_cli_commands_complete(tracer, tmp_path, capsys):
    # A small command of each kind the benchmark traces: a Chatterjee grid, a
    # figure-3 grid, a Monte Carlo esf and a convergence study; and a figure-4
    # grid, whose scenario A reaches hermite_rule through y_moments.
    from aesf import cli, closedform

    spans, traced = tracer
    # Cold, as in a benchmark worker: the shared term builds its outer rule.
    closedform._chatterjee_shared_term.cache_clear()
    normal = json.dumps({"variant": "univariate_normal", "mu": 0.0, "sigma": 1.0})
    gauss = json.dumps({"variant": "bivariate_gaussian", "rho": 0.7})
    commands = [
        ["aesf-grid", "--model", "C", "--functional", "chatterjee", "--x-min", "-1",
         "--x-max", "1", "--y-min", "-2.5", "--y-max", "2.5", "--nx", "5", "--ny", "5",
         "--out", str(tmp_path / "chatterjee_C.csv"), "--json"],
        ["aesf-grid", "--figure", "3", "--nx", "9", "--ny", "9",
         "--out", str(tmp_path / "figure3.csv"), "--json"],
        ["aesf-grid", "--figure", "4", "--nx", "3", "--ny", "3",
         "--out", str(tmp_path / "figure4.csv"), "--json"],
        ["esf", "--functional", "variance", "--model", normal, "--n", "50", "--x", "2",
         "--replicates", "200", "--seed", "7", "--json"],
        ["converge", "--functional", "kendall", "--model", gauss, "--x", "1.2", "--y", "-0.4",
         "--schedule", "50,100,200", "--replicates", "40",
         "--out", str(tmp_path / "converge.csv"), "--seed", "7", "--json"],
    ]
    for argv in commands:
        assert cli.main(argv) == 0, argv[0]
    capsys.readouterr()
    summary = spans.summarize(traced.spans)
    assert set(summary) >= {f"{name}.{key}" for name in spans.TRACED_NAMES
                             for key in ("calls", "self_s")}
    assert summary["cli.main.calls"] == len(commands)
    for layer in ("models.x_expectation_rule", "numerics.bvn_cdf", "numerics.hermite_rule",
                  "sensitivity.esf_mc", "sensitivity.convergence_study",
                  "closedform.esf_exact"):
        assert summary[f"{layer}.calls"] >= 1, layer
    assert all(value >= 0 for value in summary.values())
