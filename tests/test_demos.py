"""The demos run cleanly against the public API.

Each demo is copied to a temporary directory and run there, so the CSV
surfaces it writes next to itself never land in ``demos/``.
"""

import runpy
import shutil
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_demos_exist():
    assert [d.name for d in DEMOS] == ["01_classical_functionals.py",
                                       "02_rank_correlation_surfaces.py"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path, monkeypatch, capsys):
    copy = tmp_path / demo.name
    shutil.copy(demo, copy)
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(copy), run_name="__main__")
    assert capsys.readouterr().out
    if demo.stem == "02_rank_correlation_surfaces":
        for tag in ("kendall", "spearman"):
            lines = (tmp_path / f"surface_{tag}.csv").read_text().splitlines()
            assert lines[0] == "x,y,aesf" and len(lines) == 1 + 13 * 13
