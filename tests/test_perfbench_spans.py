"""The benchmark's traced layers name functions that exist in ``aesf``."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_name_is_a_callable():
    # Tracer.install looks each name up with getattr, so a deleted or renamed
    # layer would only show up as an AttributeError in a traced benchmark run.
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TRACED
    for module, names in spans.TRACED.items():
        home = importlib.import_module(f"aesf.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"aesf.{module}.{name}"
