"""CLI contract: exit codes, CSV schemas, reproducibility."""

import importlib
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aesf import AesfRequest, FunctionalId, aesf, esf_exact, scenario
from aesf import cli
from aesf.cli import main
from aesf.models import UnivariateNormal

TRI = "x,y\n1,2\n2,1\n3,3\n"
UNI = "x\n1\n2\n3\n"
GAUSS_JSON = '{"variant":"bivariate_gaussian","rho":0.7}'
NORMAL_JSON = '{"variant":"univariate_normal","mu":0,"sigma":1}'


@pytest.fixture
def tri_csv(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text(TRI)
    return str(p)


@pytest.fixture
def uni_csv(tmp_path):
    p = tmp_path / "uni.csv"
    p.write_text(UNI)
    return str(p)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEstimate:
    def test_three_rank_statistics(self, capsys, tri_csv):
        for functional, expected in [("kendall", "0.3333333333"),
                                     ("spearman", "0.5"),
                                     ("chatterjee", "-0.125")]:
            code, out, _ = run(capsys, "estimate", tri_csv, "--functional", functional)
            assert code == 0
            assert out.strip() == expected

    def test_ties_exit_3_naming_rows(self, capsys, tmp_path):
        p = tmp_path / "tied.csv"
        p.write_text("x,y\n1,2\n1,5\n3,3\n")
        code, _, err = run(capsys, "estimate", str(p), "--functional", "kendall")
        assert code == 3
        assert "rows 0, 1" in err

    def test_parse_failure_exit_2(self, capsys, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x,y\n1,2\nfoo,5\n")
        code, _, err = run(capsys, "estimate", str(p), "--functional", "kendall")
        assert code == 2
        assert "parse" in err

    def test_missing_header_exit_2(self, capsys, tmp_path):
        p = tmp_path / "noheader.csv"
        p.write_text("1,2\n2,3\n3,4\n")
        code, _, _ = run(capsys, "estimate", str(p), "--functional", "kendall")
        assert code == 2

    def test_too_few_rows_exit_2(self, capsys, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("x\n1\n")
        code, _, _ = run(capsys, "estimate", str(p), "--functional", "mean")
        assert code == 2


class TestSf:
    def test_mean_example(self, capsys, uni_csv):
        code, out, _ = run(capsys, "sf", uni_csv, "--functional", "mean", "--x", "7")
        assert code == 0 and out.strip() == "5"

    def test_variance_matches_displayed_expansion(self, capsys, uni_csv):
        code, out, _ = run(capsys, "sf", uni_csv, "--functional", "variance", "--x", "2")
        assert code == 0
        xs = np.array([1.0, 2.0, 3.0])
        n, x = 3, 2.0
        xbar, m2 = xs.mean(), (xs * xs).mean()
        expansion = (n / (n + 1) * x * x - 2 * n / (n + 1) * x * xbar
                     + (2 * n + 1) / (n + 1) * xbar ** 2 - m2)
        assert float(out) == pytest.approx(expansion, rel=1e-10)

    def test_concordant_point_nonnegative(self, capsys, tmp_path):
        p = tmp_path / "mono.csv"
        p.write_text("x,y\n1,10\n2,20\n3,30\n")
        code, out, _ = run(capsys, "sf", str(p), "--functional", "kendall",
                           "--x", "4", "--y", "40")
        assert code == 0 and float(out) >= 0.0

    def test_insertion_tie_exit_3(self, capsys, tri_csv):
        code, _, _ = run(capsys, "sf", tri_csv, "--functional", "kendall",
                         "--x", "2", "--y", "9")
        assert code == 3


class TestEsf:
    def test_json_report_with_exact_value(self, capsys):
        code, out, _ = run(capsys, "esf", "--model", NORMAL_JSON,
                           "--functional", "variance", "--n", "50", "--x", "2",
                           "--replicates", "400", "--seed", "11", "--json")
        assert code == 0
        report = json.loads(out.splitlines()[-1])
        assert report["seed"] == 11
        assert report["model"]["variant"] == "univariate_normal"
        result = report["result"]
        exact = esf_exact("variance", UnivariateNormal(0.0, 1.0), 2.0, 50)
        assert result["exact"] == pytest.approx(exact, rel=1e-14)
        assert abs(result["value"] - exact) <= 4 * result["std_error"]

    def test_deterministic_payload(self, capsys):
        args = ("esf", "--model", NORMAL_JSON, "--functional", "mean",
                "--n", "20", "--x", "1", "--replicates", "100", "--json")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert json.loads(out1)["result"] == json.loads(out2)["result"]

    def test_model_file_parsed_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        path.write_text(NORMAL_JSON)
        parses = []
        parse = cli._parse_model
        monkeypatch.setattr(cli, "_parse_model", lambda spec: parses.append(spec) or parse(spec))
        code, out, _ = run(capsys, "esf", "--model", str(path), "--functional", "mean",
                           "--n", "20", "--x", "1", "--replicates", "10", "--json")
        assert code == 0 and parses == [str(path)]
        assert json.loads(out)["model"] == json.loads(NORMAL_JSON)

    def test_scenario_shorthand(self, capsys):
        code, _, _ = run(capsys, "esf", "--model", "A", "--functional", "chatterjee",
                         "--n", "40", "--x", "0.5", "--y", "0.2",
                         "--replicates", "50")
        assert code == 0


class TestAesfGrid:
    def test_explicit_grid_schema_and_order(self, capsys, tmp_path):
        out_csv = tmp_path / "surf.csv"
        code, _, _ = run(capsys, "aesf-grid", "--model", GAUSS_JSON,
                         "--functional", "kendall",
                         "--x-min", "-1", "--x-max", "1",
                         "--y-min", "-1", "--y-max", "1",
                         "--nx", "3", "--ny", "3", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,y,aesf"
        assert len(lines) == 1 + 9
        # row-major with y inner: x constant over each block of ny rows
        first = [line.split(",")[:2] for line in lines[1:4]]
        assert [f[0] for f in first] == ["-1", "-1", "-1"]
        assert [f[1] for f in first] == ["-1", "0", "1"]
        # values match the library closed form at 12 significant digits
        for line in lines[1:]:
            x, y, v = (float(t) for t in line.split(","))
            expected = aesf(AesfRequest(FunctionalId("kendall"),
                                        __import__("aesf").BivariateGaussian(0.7), (x, y)))
            assert v == pytest.approx(expected, rel=1e-11, abs=1e-11)

    def test_round_trip_bytes(self, capsys, tmp_path):
        out_csv = tmp_path / "surf.csv"
        run(capsys, "aesf-grid", "--figure", "1", "--nx", "5", "--ny", "5",
            "--out", str(out_csv))
        original = out_csv.read_bytes()
        lines = original.decode().splitlines()
        reemitted = lines[0] + "\n" + "".join(
            ",".join("{:.12g}".format(float(v)) for v in line.split(",")) + "\n"
            for line in lines[1:])
        assert reemitted.encode() == original

    def test_figure_1_origin_value(self, capsys, tmp_path):
        out_csv = tmp_path / "fig1.csv"
        code, _, _ = run(capsys, "aesf-grid", "--figure", "1", "--nx", "5",
                         "--ny", "5", "--out", str(out_csv))
        assert code == 0
        rows = {tuple(line.split(",")[:2]): float(line.split(",")[2])
                for line in out_csv.read_text().splitlines()[1:]}
        # the closed form collapses to zero at the origin
        assert abs(rows[("0", "0")]) <= 1e-6

    def test_figure_3_discordant_corner(self, capsys, tmp_path):
        out_csv = tmp_path / "fig3.csv"
        code, _, _ = run(capsys, "aesf-grid", "--figure", "3", "--nx", "13",
                         "--ny", "13", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "x,y,aesf_kendall,aesf_spearman,abs_diff"
        rows = {tuple(line.split(",")[:2]): line.split(",")[2:] for line in lines[1:]}
        k, s, diff = (float(v) for v in rows[("2", "-2")])
        assert abs(k) < abs(s) and diff < 0.0
        assert diff == pytest.approx(abs(k) - abs(s), abs=1e-12)

    def test_figure_4_writes_three_files(self, capsys, tmp_path):
        out_csv = tmp_path / "fig4.csv"
        code, out, _ = run(capsys, "aesf-grid", "--figure", "4", "--nx", "4",
                           "--ny", "4", "--out", str(out_csv))
        assert code == 0
        for suffix in ("_A", "_B", "_C"):
            assert (tmp_path / f"fig4{suffix}.csv").exists()

    @pytest.mark.parametrize("flags", [
        ("--model", "A"),
        ("--functional", "chatterjee"),
        ("--x-min", "-1"),
        ("--y-max", "2"),
    ])
    def test_figure_rejects_flags_it_ignores(self, capsys, tmp_path, flags):
        # a figure fixes its own model, functional and window, so a report
        # naming the flags' values would describe a run that did not happen
        out_csv = tmp_path / "fig.csv"
        code, out, err = run(capsys, "aesf-grid", "--figure", "1", "--nx", "2",
                             "--ny", "2", *flags, "--out", str(out_csv), "--json")
        assert code == 2
        assert flags[0] in err and out == ""
        assert not out_csv.exists()

    def test_independence_link_gives_zero_surface(self, capsys, tmp_path):
        model = ('{"variant":"additive_noise","x_law":{"name":"normal"},'
                 '"link":{"name":"linear","c":0},"noise_sigma":0.714}')
        out_csv = tmp_path / "null.csv"
        code, _, _ = run(capsys, "aesf-grid", "--model", model,
                         "--functional", "chatterjee",
                         "--x-min", "-2", "--x-max", "2", "--y-min", "-2",
                         "--y-max", "2", "--nx", "5", "--ny", "5",
                         "--out", str(out_csv))
        assert code == 0
        vals = [abs(float(line.split(",")[2]))
                for line in out_csv.read_text().splitlines()[1:]]
        assert max(vals) <= 1e-8

    def test_unsupported_pair_exit_4(self, capsys, tmp_path):
        code, _, _ = run(capsys, "aesf-grid", "--model", '{"variant":"uniform_max","theta":1}',
                         "--functional", "kendall", "--x-min", "0", "--x-max", "1",
                         "--y-min", "0", "--y-max", "1",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 4

    def test_non_finite_points_exit_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "aesf-grid", "--model", "A", "--functional", "chatterjee",
                           "--x-min=-inf", "--x-max", "1", "--y-min", "0",
                           "--y-max", "1", "--nx", "2", "--ny", "2",
                           "--out", str(tmp_path / "x.csv"))
        assert code == 1
        assert "finite" in err
        code, _, err = run(capsys, "esf", "--model", NORMAL_JSON, "--functional", "mean",
                           "--n", "10", "--x", "nan", "--replicates", "10")
        assert code == 1
        assert "insertion point must be finite" in err

    def test_oversized_grid_rejected(self, capsys, tmp_path):
        code, _, _ = run(capsys, "aesf-grid", "--model", GAUSS_JSON,
                         "--functional", "kendall", "--x-min", "0", "--x-max", "1",
                         "--y-min", "0", "--y-max", "1", "--nx", "2000", "--ny", "2000",
                         "--out", str(tmp_path / "x.csv"))
        assert code == 1


class TestConverge:
    def test_schema_and_target(self, capsys, tmp_path):
        out_csv = tmp_path / "conv.csv"
        code, _, _ = run(capsys, "converge", "--model", NORMAL_JSON,
                         "--functional", "mean", "--x", "1",
                         "--schedule", "20,40,80", "--replicates", "200",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "n,esf,std_error,target"
        assert len(lines) == 4
        for line in lines[1:]:
            n, esf, se, target = line.split(",")
            assert target == "1"
            assert abs(float(esf) - 1.0) <= 4 * float(se)

    def test_rerun_and_threads_byte_identical(self, capsys, tmp_path):
        outs = []
        for name, threads in [("a.csv", "1"), ("b.csv", "1"), ("c.csv", "4")]:
            out_csv = tmp_path / name
            run(capsys, "converge", "--model", GAUSS_JSON, "--functional", "kendall",
                "--x", "0", "--y", "0", "--schedule", "20,40,80",
                "--replicates", "60", "--threads", threads, "--out", str(out_csv))
            outs.append(out_csv.read_bytes())
        assert outs[0] == outs[1] == outs[2]


class TestSfdist:
    def test_zeros_below_theta(self, capsys, tmp_path):
        out_csv = tmp_path / "dist.csv"
        code, _, _ = run(capsys, "sfdist", "--model", '{"variant":"uniform_max","theta":1}',
                         "--functional", "uniform_max", "--n", "1000", "--x", "0.5",
                         "--replicates", "200", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "sf"
        values = [float(v) for v in lines[1:]]
        assert len(values) == 200 and all(v == 0.0 for v in values)


def test_console_entry_point_subprocess(tmp_path):
    p = tmp_path / "tri.csv"
    p.write_text(TRI)
    proc = subprocess.run([sys.executable, "-m", "aesf.cli", "estimate", str(p),
                           "--functional", "kendall"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.3333333333"


def test_every_traced_name_is_a_callable():
    # perfbench/spans.py wraps these names in every traced benchmark run; a
    # name that no longer exists would crash each such run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module_name, names in spans.TRACED.items():
        module = importlib.import_module(f"aesf.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"aesf.{module_name}.{name}"
