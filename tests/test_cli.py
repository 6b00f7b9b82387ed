"""CLI contract: exit codes, CSV schemas, reproducibility."""

import importlib
import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aesf import (AesfRequest, BivariateGaussian, FunctionalId, aesf, derive_seed, esf_exact,
                  esf_mc, sample, scenario)
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


class TestSeedDomain:
    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    @pytest.mark.parametrize("command", [
        ("esf",), ("sfdist", "--out", "dist.csv"),
        ("converge", "--schedule", "5,10,20", "--out", "conv.csv")])
    def test_out_of_range_seed_exit_1(self, capsys, tmp_path, monkeypatch, command, seed):
        monkeypatch.chdir(tmp_path)
        extra = () if command[0] == "converge" else ("--n", "10")
        code, out, err = run(capsys, *command, *extra, "--model", NORMAL_JSON,
                             "--functional", "mean", "--x", "1", "--replicates", "4",
                             "--seed", seed, "--json")
        assert code == 1 and out == ""
        assert "seed must lie in [0, 2^64)" in err

    @pytest.mark.parametrize("seed", [0, 2 ** 64 - 1])
    def test_seed_bounds_accepted_and_reported(self, capsys, seed):
        code, out, _ = run(capsys, "esf", "--model", NORMAL_JSON, "--functional", "mean",
                           "--n", "10", "--x", "1", "--replicates", "4",
                           "--seed", str(seed), "--json")
        report = json.loads(out)
        assert code == 0 and report["seed"] == report["result"]["seed"] == seed
        mc = esf_mc("mean", UnivariateNormal(0.0, 1.0), 10, 1.0, 4, seed)
        assert report["result"]["value"] == mc.value


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

    def test_unsupported_pair_fails_before_any_file(self, capsys, tmp_path):
        # aesf_many decides the support; its message reaches stderr.
        out_csv = tmp_path / "x.csv"
        code, _, err = run(capsys, "aesf-grid", "--model", "B", "--functional", "spearman",
                           "--x-min", "-1", "--x-max", "1", "--y-min", "0", "--y-max", "1",
                           "--nx", "3", "--ny", "3", "--out", str(out_csv))
        assert code == 4
        assert err == ("error: unsupported: no closed form for functional 'spearman' "
                       "under AdditiveNoise\n")
        assert not out_csv.exists()

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


class TestModelJson:
    def test_unknown_key_exit_2(self, capsys):
        for model, key in (('{"variant":"bivariate_gaussian","rho":0.5,"rh0":3}', "rh0"),
                           ('{"variant":"additive_noise","x_law":{"name":"normal"},'
                            '"link":{"name":"linear","c":0.5,"k":1},"noise_sigma":1}', "k")):
            code, out, err = run(capsys, "esf", "--model", model, "--functional", "kendall",
                                 "--n", "10", "--x", "0", "--y", "0", "--replicates", "5")
            assert (code, out) == (2, "")
            assert err.startswith("error: parse: ") and f"unknown field {key!r}" in err

    def test_uniform_width_beyond_the_float_range_exit_2(self, capsys, tmp_path):
        # This x law used to reach math.ceil(nan) in x_expectations: a traceback.
        model = ('{"variant":"additive_noise","x_law":{"name":"uniform","a":-1e308,"b":1e308},'
                 '"link":{"name":"square"},"noise_sigma":1}')
        out_csv = tmp_path / "x.csv"
        code, _, err = run(capsys, "aesf-grid", "--model", model, "--functional", "kendall",
                           "--x-min", "-1", "--x-max", "1", "--y-min", "-1", "--y-max", "1",
                           "--nx", "2", "--ny", "2", "--out", str(out_csv))
        assert code == 2
        assert "uniform law needs a < b, b - a finite" in err
        assert not out_csv.exists()


class TestNonFiniteSf:
    MODELS = {"variance": '{"variant":"univariate_normal","mu":0,"sigma":1e200}',
              "mean": '{"variant":"univariate_normal","mu":1e308,"sigma":1e308}'}

    @pytest.mark.parametrize("functional", ["variance", "mean"])
    def test_sfdist_exit_1_without_a_file(self, capsys, tmp_path, functional):
        out_csv = tmp_path / "dist.csv"
        with np.errstate(all="ignore"):
            code, _, err = run(capsys, "sfdist", "--functional", functional,
                               "--model", self.MODELS[functional], "--n", "10", "--x", "1",
                               "--replicates", "5", "--out", str(out_csv))
        assert code == 1
        assert err == "error: replicate 0 has a non-finite SF, nan\n"
        assert not out_csv.exists()

    @pytest.mark.parametrize("functional", ["variance", "mean"])
    def test_esf_exit_1_names_the_replicate(self, capsys, functional):
        with np.errstate(all="ignore"):
            code, out, err = run(capsys, "esf", "--functional", functional,
                                 "--model", self.MODELS[functional], "--n", "10", "--x", "1",
                                 "--replicates", "5")
        assert (code, out) == (1, "")
        assert err == "error: replicate 0 has a non-finite SF, nan\n"


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

    @pytest.mark.parametrize("schedule, entry", [("20,abc,80", "'abc'"), ("20,,80", "''")])
    def test_bad_schedule_entry_exit_2(self, capsys, tmp_path, schedule, entry):
        code, _, err = run(capsys, "converge", "--model", NORMAL_JSON, "--functional", "mean",
                           "--x", "1", "--schedule", schedule, "--out", str(tmp_path / "c.csv"))
        assert code == 2
        assert err.startswith("error: parse:") and "--schedule" in err and entry in err
        assert "Traceback" not in err and not (tmp_path / "c.csv").exists()

    def test_json_reports_std_errors_and_tie_resamples(self, capsys, tmp_path):
        # the insertion x is a value replicate 0 samples at every n
        seed, schedule, m = 5, (20, 40, 80), BivariateGaussian(0.7)
        x = float(sample(m, 20, derive_seed(seed, 0)).xs[3])
        out_csv = tmp_path / "conv.csv"
        code, out, _ = run(capsys, "converge", "--model", GAUSS_JSON, "--functional", "kendall",
                           "--x", repr(x), "--y", "0", "--schedule", "20,40,80",
                           "--replicates", "30", "--seed", str(seed), "--out", str(out_csv),
                           "--json")
        assert code == 0
        result = json.loads(out.splitlines()[-1])["result"]
        expected = [esf_mc("kendall", m, n, (x, 0.0), 30, seed) for n in schedule]
        assert result["esf"] == [mc.value for mc in expected]
        assert result["std_error_per_n"] == [mc.std_error for mc in expected]
        assert result["tie_resamples_per_n"] == [mc.tie_resamples for mc in expected]
        assert min(result["tie_resamples_per_n"]) >= 1


def _oracle_csv(path, header, rows):
    """The per-row writer ``cli._write_csv`` replaced: one format call per row."""
    line = ",".join(["{:.12g}"] * len(header)) + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), cli._CHUNK_ROWS):
            fh.writelines(line.format(*row) for row in rows[start:start + cli._CHUNK_ROWS].tolist())


# Floats with edge-case .12g strings: signed zeros, non-finite values, the
# 19-byte extremes, and values that round up a decade.
_SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
            1.79769313486e308, -1.79769313486e308, 9.9999999999995, 9.9999999999995e-05,
            -9.9999999999995, 1.0, 0.1,
            # the edges of the positional form, binary and decimal ties at 12 digits
            999999999999.5, -999999999999.5, 999999999999.4999, 1e11, 1e12, 1e-4, 1e-5,
            9.99999999999995e-5, 1234567890.125, 123456789012.5, 0.1234567890125]


class TestCsvWriter:
    @settings(max_examples=60, deadline=None)
    @example(pool=_SPECIAL, planted=1.0, nrows=cli._CHUNK_ROWS + 1, ncols=3, layout="strided",
             vocab_rows=cli._VOCAB_ROWS, seed=0)
    @given(pool=st.lists(st.sampled_from(_SPECIAL) | st.floats(), min_size=1, max_size=12),
           planted=st.sampled_from([0.0, 0.5, 1.0]),
           nrows=st.sampled_from([0, 1, cli._CHUNK_ROWS - 1, cli._CHUNK_ROWS + 1])
           | st.integers(0, 40),
           ncols=st.integers(1, 5),
           layout=st.sampled_from(["C", "F", "strided"]),
           vocab_rows=st.sampled_from([cli._VOCAB_ROWS, 3, cli._CHUNK_ROWS + 7]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bytes_match_the_per_row_writer(self, tmp_path_factory, pool, planted, nrows,
                                            ncols, layout, vocab_rows, seed):
        rng = np.random.default_rng(seed)
        shape = (nrows, 2 * ncols if layout == "strided" else ncols)
        fresh = rng.standard_normal(shape) * 10.0 ** rng.integers(-30, 30, shape)
        values = np.where(rng.random(shape) < planted,
                          np.array(pool)[rng.integers(len(pool), size=shape)], fresh)
        rows = {"C": values, "F": np.asfortranarray(values), "strided": values[:, ::2]}[layout]
        header = [f"c{j}" for j in range(ncols)]
        out = tmp_path_factory.mktemp("csv")
        _oracle_csv(out / "oracle.csv", header, rows)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "_VOCAB_ROWS", vocab_rows)
            cli._write_csv(out / "new.csv", header, rows)
        assert (out / "new.csv").read_bytes() == (out / "oracle.csv").read_bytes()

    @pytest.mark.parametrize("args, files", [
        (("aesf-grid", "--figure", "3", "--nx", "41", "--ny", "41"), 1),
        (("aesf-grid", "--figure", "4", "--nx", "11", "--ny", "11"), 3),
        (("sfdist", "--model", GAUSS_JSON, "--functional", "kendall", "--n", "30",
          "--x", "0.1", "--y", "0.2", "--replicates", "2000"), 1),
    ])
    def test_commands_match_the_per_row_writer(self, capsys, tmp_path, monkeypatch, args,
                                               files):
        written = []
        write = cli._write_csv

        def write_both(path, header, rows):
            _oracle_csv(path + ".oracle", header, rows)
            write(path, header, rows)
            written.append(Path(path))

        monkeypatch.setattr(cli, "_write_csv", write_both)
        code, _, _ = run(capsys, *args, "--out", str(tmp_path / "out.csv"))
        assert code == 0 and len(written) == files
        for path in written:
            assert path.read_bytes() == Path(str(path) + ".oracle").read_bytes()


    def test_benchmark_grid_matches_the_per_row_writer(self, capsys, tmp_path, monkeypatch):
        # Figure 3 at 181 x 181: 32,761 rows in one vocabulary block, over
        # 40,000 distinct floats, whose sorted order lies far from row
        # order. The hypothesis cases stay below 1,100 rows.
        calls = []
        write = cli._write_csv

        def record(path, header, rows):
            calls.append((header, rows))
            write(path, header, rows)

        monkeypatch.setattr(cli, "_write_csv", record)
        out = tmp_path / "figure3.csv"
        code, _, _ = run(capsys, "aesf-grid", "--figure", "3", "--nx", "181", "--ny", "181",
                         "--out", str(out))
        assert code == 0 and len(calls) == 1
        header, rows = calls[0]
        assert len(rows) == 181 * 181 <= cli._VOCAB_ROWS
        assert sum(len(np.unique(rows[:, j].view(np.int64))) for j in range(5)) > 40_000
        _oracle_csv(tmp_path / "oracle.csv", header, rows)
        assert out.read_bytes() == (tmp_path / "oracle.csv").read_bytes()


def _ulp_neighbours(values, ulps=8):
    """Each value and its +-1 ... +-``ulps`` ulp neighbours."""
    values = np.asarray(values, dtype=np.float64)
    steps = np.arange(-ulps, ulps + 1)
    return (values.view(np.int64)[:, None] + steps).ravel().view(np.float64)


class TestPositionalCells:
    """The numpy fast path of ``cli._cells`` against CPython's ``%``, cell
    by cell, on floats chosen to break a second rounding path."""

    @staticmethod
    def _floats():
        rng = np.random.default_rng(20240111)
        decades = 10.0 ** np.arange(-6, 14)
        parts = [
            # random bit patterns, both signs, every exponent
            rng.integers(0, 2 ** 64, 150_000, dtype=np.uint64).view(np.float64),
            rng.standard_normal(150_000) * 10.0 ** rng.integers(-30, 31, 150_000),
            rng.standard_normal(150_000) * 10.0 ** rng.integers(-5, 13, 150_000),
            _ulp_neighbours(decades),
            # decade carries: 12 nines and a 5 round up to the next power of ten
            _ulp_neighbours(9.9999999999995 * decades),
            _ulp_neighbours([999999999999.5, 99999999999.95, 9.99999999999995e-5]),
            # exact binary ties at the 12th digit, and decimal ones, whose
            # scaled product may round onto the half-integer
            np.array([1234567890.125]),
            rng.integers(10 ** 11, 10 ** 12, 100_000) + 0.5,
            np.array([10.0 ** 11 + 0.5, 10.0 ** 12 - 0.5]),
            (rng.integers(10 ** 11, 10 ** 12, 100_000) + 0.5)
            / 10.0 ** rng.integers(1, 16, 100_000),
            # subnormals, signed zeros, infinities and NaN payloads
            rng.integers(1, 2 ** 52, 1_000, dtype=np.uint64).view(np.float64),
            np.array([0.0, math.inf, 5e-324, 2.2250738585072014e-308]),
            (rng.integers(1, 2 ** 52, 1_000, dtype=np.uint64) | np.uint64(0x7FF << 52)).view(
                np.float64),
        ]
        floats = np.concatenate(parts)
        return np.concatenate((floats, -floats))

    def test_cells_match_cpython_byte_for_byte(self):
        floats = self._floats()
        assert len(floats) >= 10 ** 6
        got = cli._cells([floats]).view(np.uint8).reshape(-1, cli._CELL_BYTES + 1)
        want = np.array([(cli._FMT % x).encode() for x in floats.tolist()],
                        dtype=f"S{cli._CELL_BYTES}").view(np.uint8).reshape(-1, cli._CELL_BYTES)
        bad = np.flatnonzero((got[:, :-1] != want).any(axis=1))
        assert not bad.size, [(repr(floats[i]), got[i, :-1].tobytes(), want[i].tobytes())
                              for i in bad[:5]]
        assert (got[:, -1] == ord("\n")).all()

    def test_fast_path_formats_almost_every_benchmark_float(self, capsys, tmp_path,
                                                            monkeypatch):
        # A version that handed every float to CPython would pass the test
        # above; figure 3 at 181 x 181 has 42,581 distinct floats.
        calls = []
        monkeypatch.setattr(cli, "_write_csv", lambda path, header, rows: calls.append(rows))
        code, _, _ = run(capsys, "aesf-grid", "--figure", "3", "--nx", "181", "--ny", "181",
                         "--out", str(tmp_path / "figure3.csv"))
        assert code == 0 and len(calls) == 1
        floats = np.concatenate([cli._vocabulary(column)[0] for column in calls[0].T])
        done = cli._positional_cells(floats, np.empty(len(floats), dtype="S20"))
        assert len(floats) > 40_000 and done.mean() >= 0.99


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
    # The child does not see pytest's pythonpath setting: give it this src.
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-m", "aesf.cli", "estimate", str(p),
                           "--functional", "kendall"],
                          capture_output=True, text=True, env=env)
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
