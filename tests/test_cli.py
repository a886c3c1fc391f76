import argparse
import ast
import contextlib
import csv
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsiclab import BlockStructure, Dataset, KernelFamily, ProductKernel, cli, estimators, hsic_u, hsic_v, lecam, rng
from hsiclab.cli import main, read_dataset
from helpers import line_read_matrix

B11 = BlockStructure((1, 1))
# the median-heuristic line of a block without a positive pairwise lag
NO_SUGGESTION = "none, no pairwise lag is positive"


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


def write_dataset(path, dataset):
    """Write rows as comma-separated shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in dataset.values:
            handle.write(",".join(repr(float(v)) for v in row))
            handle.write("\n")


def fresh_env(**env):
    """The environment of a fresh interpreter, as from a shell, with the
    library on its path; nothing captures numpy's warnings there."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))), **env)
    env.pop("PYTHONWARNINGS", None)
    return env


def run_fresh(args, cwd, **env):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=fresh_env(**env), capture_output=True, text=True, timeout=120)


@pytest.fixture
def two_col_csv(tmp_path):
    rng = np.random.default_rng(0)
    path = tmp_path / "data.csv"
    write_csv(path, rng.normal(size=(12, 2)).tolist())
    return path


class TestEstimate:
    def test_happy_path_json(self, two_col_csv, tmp_path):
        out = tmp_path / "out.json"
        code = main(
            [
                "estimate",
                "--input",
                str(two_col_csv),
                "--blocks",
                "1,1",
                "--kernel",
                "gaussian",
                "--gamma",
                "1",
                "--est",
                "v",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        rec = records[0]
        assert rec["estimator"] == "v"
        assert rec["value_hsic2"] >= -1e-12
        assert rec["n"] == 12 and rec["d"] == 2
        assert rec["blocks"] == [1, 1]

    def test_all_estimators_and_csv_format(self, two_col_csv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code = main(
            [
                "estimate",
                "--input",
                str(two_col_csv),
                "--blocks",
                "1,1",
                "--est",
                "v",
                "--est",
                "u",
                "--est",
                "nystrom",
                "--landmarks",
                "6",
                "--format",
                "csv",
                "--output",
                str(out),
                "--median-gamma",
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "estimator,scale,value,n,d,blocks,gamma,seed"
        assert len(lines) == 4
        assert "median-heuristic gamma" in capsys.readouterr().out

    @pytest.mark.parametrize("kernel", ["gaussian", "laplace"])
    def test_median_gamma_matches_dense_pairwise_distances(self, tmp_path, capsys, kernel):
        # 150 rows span several row tiles; blocks of width <= 2 sum their
        # coordinates in the same order as the dense difference tensor
        x = np.random.default_rng(3).normal(size=(150, 3))
        path = tmp_path / "wide.csv"
        write_csv(path, x.tolist())
        argv = ["estimate", "--input", str(path), "--blocks", "2,1", "--kernel", kernel]
        assert main(argv + ["--median-gamma", "--output", str(tmp_path / "o.json")]) == 0
        out = capsys.readouterr().out
        for m, cols in enumerate((x[:, :2], x[:, 2:])):
            diff = cols[:, None, :] - cols[None, :, :]
            dists = (diff**2 if kernel == "gaussian" else np.abs(diff)).sum(axis=2)
            upper = dists[np.triu_indices(len(cols), k=1)]
            expected = float(1.0 / np.median(upper[upper > 0]))
            assert f"median-heuristic gamma for block {m}: {expected!r} (not applied)" in out

    # 2..7 rows give 1, 3, 6, 10, 15 and 21 pairs, odd and even counts; the
    # rounded rows tie often; 130 rows leave a short last tile; 2100 rows
    # are subsampled to the cap, and the cap's 2096128 pairs are even
    MEDIAN_CASES = {
        **{f"rows{m}": np.random.default_rng(m).normal(size=(m, 3)) for m in range(2, 8)},
        "ties": np.random.default_rng(8).normal(size=(150, 3)).round(0),
        "equal": np.ones((20, 3)),
        "short_tile": np.random.default_rng(9).normal(size=(130, 3)),
        "over_cap_seed0": np.random.default_rng(10).normal(size=(2100, 3)),
        "over_cap_seed5": np.random.default_rng(10).normal(size=(2100, 3)),
    }

    @pytest.mark.parametrize("kernel", ["gaussian", "laplace"])
    @pytest.mark.parametrize("case", sorted(MEDIAN_CASES))
    def test_median_gamma_is_the_dense_median(self, tmp_path, capsys, case, kernel):
        x = self.MEDIAN_CASES[case]
        seed = 5 if case.endswith("seed5") else 0
        path = tmp_path / "rows.csv"
        write_csv(path, x.tolist())
        argv = ["estimate", "--input", str(path), "--blocks", "2,1", "--kernel", kernel, "--seed", str(seed)]
        assert main(argv + ["--median-gamma", "--output", str(tmp_path / "o.json")]) == 0
        out = capsys.readouterr().out
        if len(x) > estimators.MEDIAN_HEURISTIC_CAP:
            x = x[rng.stream(seed, "median").choice(len(x), size=estimators.MEDIAN_HEURISTIC_CAP, replace=False)]
        for m, cols in enumerate((x[:, :2], x[:, 2:])):
            # one coordinate at a time, in LagTiles' order, without an
            # (m, m, d) difference tensor
            diffs = (c[:, None] - c[None, :] for c in cols.T)
            dists = sum(diff**2 if kernel == "gaussian" else abs(diff) for diff in diffs)
            upper = dists[np.triu_indices(len(cols), k=1)]
            positive = upper[upper > 0]
            expected = f"{float(1.0 / np.median(positive))!r} (not applied)" if positive.size else NO_SUGGESTION
            assert f"median-heuristic gamma for block {m}: {expected}\n" in out
        if case == "equal":
            assert out.count(f": {NO_SUGGESTION}\n") == 2 and "(not applied)" not in out

    def test_median_gamma_of_a_constant_block_says_there_is_none(self, tmp_path, capsys):
        # a constant column has no positive lag: no bandwidth, and no bare nan
        x = np.random.default_rng(4).normal(size=(50, 3))
        x[:, 2] = 1.5
        path = tmp_path / "const.csv"
        write_csv(path, x.tolist())
        argv = ["estimate", "--input", str(path), "--blocks", "2,1", "--est", "v", "--median-gamma"]
        assert main(argv + ["--output", str(tmp_path / "o.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("median-heuristic gamma for block 0: ") and lines[0].endswith(" (not applied)")
        assert lines[1] == f"median-heuristic gamma for block 1: {NO_SUGGESTION}"

    def test_median_gamma_of_huge_middle_lags_is_finite(self, tmp_path, capsys):
        # four lags of 1e308: the two middle ones sum past the float maximum,
        # so each is halved first, and numpy warns of nothing
        path = tmp_path / "huge.csv"
        write_csv(path, [[0, 1], [0, 2], [1e308, 3], [1e308, 4]])
        argv = ["estimate", "--input", str(path), "--blocks", "1,1", "--kernel", "laplace", "--median-gamma"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv + ["--output", str(tmp_path / "o.json")]) == 0
        assert "median-heuristic gamma for block 0: 1e-308 (not applied)" in capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_follows_format(self, two_col_csv, tmp_path, capsys, fmt):
        # without --output stdout is the records alone and the median
        # suggestions go to stderr; with --output they stay on stdout
        argv = ["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--median-gamma", "--format", fmt]
        assert main(argv) == 0
        records, status = capsys.readouterr()
        assert [line.split(":")[0] for line in status.splitlines()] == [
            f"median-heuristic gamma for block {m}" for m in range(2)
        ]
        assert main(argv + ["--output", str(tmp_path / "records")]) == 0
        assert tuple(capsys.readouterr()) == (status, "")
        assert records == (tmp_path / "records").read_text()
        if fmt == "json":
            assert [rec["estimator"] for rec in json.loads(records)] == ["v"]
        else:
            assert records.splitlines()[0] == ",".join(cli.ESTIMATE_CSV_COLUMNS)

    def test_block_sum_mismatch_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "three.csv"
        write_csv(path, np.zeros((5, 3)).tolist())
        code = main(["estimate", "--input", str(path), "--blocks", "1,1", "--est", "v"])
        assert code == 3
        assert "block dims sum 2 ≠ 3 columns" in capsys.readouterr().err

    def test_u_statistic_needs_four_rows(self, tmp_path, capsys):
        path = tmp_path / "small.csv"
        write_csv(path, np.random.default_rng(1).normal(size=(3, 2)).tolist())
        code = main(["estimate", "--input", str(path), "--blocks", "1,1", "--est", "u"])
        assert code == 3
        assert "U-statistic requires n ≥ 4" in capsys.readouterr().err

    def test_malformed_csv_names_offending_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1.0,2.0\n1.0,oops\n")
        code = main(["estimate", "--input", str(path), "--blocks", "1,1", "--est", "v"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "oops" in err

    def test_ragged_row_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "ragged.csv"
        path.write_text("1.0,2.0\n1.0\n")
        assert main(["estimate", "--input", str(path), "--blocks", "1,1"]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_nystrom_requires_landmarks(self, two_col_csv):
        code = main(
            ["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--est", "nystrom"]
        )
        assert code == 3

    def test_header_flag_skips_first_line(self, tmp_path):
        path = tmp_path / "headed.csv"
        path.write_text("a,b\n0.1,0.2\n0.3,0.4\n0.5,0.6\n")
        args = ["estimate", "--input", str(path), "--blocks", "1,1", "--est", "v"]
        assert main(args) == 2  # header line is malformed data without the flag
        assert main(args + ["--header"]) == 0

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_is_data_error(self, tmp_path, capsys, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1.0,2.0\n0.5,{cell}\n3.0,4.0\n")
        out = tmp_path / "out.json"
        code = main(["estimate", "--input", str(path), "--blocks", "1,1", "--output", str(out)])
        assert code == 2
        assert f"line 2, column 2: {cell!r} is not a finite number" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_flag_exits_three(self, two_col_csv):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--bogus"])
        assert err.value.code == 3

    def test_v_and_u_share_one_tiled_pass(self, two_col_csv, tmp_path, monkeypatch):
        calls = []

        def counting_block_stats(pk, data):
            calls.append(data.n)
            return block_stats(pk, data)

        block_stats = cli.block_stats
        monkeypatch.setattr(cli, "block_stats", counting_block_stats)
        out = tmp_path / "vu.json"
        argv = ["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--gamma", "0.7"]
        assert main(argv + ["--est", "v", "--est", "u", "--output", str(out)]) == 0
        assert calls == [12]
        records = json.loads(out.read_text())
        ds = read_dataset(str(two_col_csv), B11)
        pk = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 0.7)
        assert [r["value_hsic2"] for r in records] == [hsic_v(pk, ds), hsic_u(pk, ds)]

    def test_single_block_is_usage_error(self, two_col_csv, capsys):
        assert main(["estimate", "--input", str(two_col_csv), "--blocks", "2", "--est", "v"]) == 3
        assert "need at least 2 blocks" in capsys.readouterr().err


class TestMedianWorkers:
    """``--median-gamma`` runs the blocks in pairs, the second of each on a
    helper thread, when more than one CPU is usable, and prints its lines
    after the document."""

    @staticmethod
    def rows_over_cap():
        # blocks 2,1,3 over more rows than the cap, the last block constant
        x = np.random.default_rng(12).normal(size=(estimators.MEDIAN_HEURISTIC_CAP + 100, 6))
        x[:, 3:] = -0.25
        return x

    @pytest.mark.parametrize("kernel", ["gaussian", "laplace"])
    def test_suggestions_do_not_depend_on_the_cpu_count(self, tmp_path, capsys, monkeypatch, kernel):
        write_csv(tmp_path / "rows.csv", self.rows_over_cap().tolist())
        argv = ["estimate", "--input", str(tmp_path / "rows.csv"), "--blocks", "2,1,3", "--kernel", kernel]
        argv += ["--median-gamma", "--seed", "3", "--output", str(tmp_path / "o.json")]
        median_lag, threads = estimators._median_lag, []

        def recording(family, x):
            threads.append((x.shape[1], threading.current_thread() is threading.main_thread()))
            return median_lag(family, x)

        monkeypatch.setattr(estimators, "_median_lag", recording)
        texts = {}
        for cpus in (1, 64):
            monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
            del threads[:]
            assert main(argv) == 0
            texts[cpus] = capsys.readouterr().out
            # block 1 of three is the helper's, blocks 0 and 2 the caller's
            assert sorted(threads) == [(1, cpus == 1), (2, True), (3, True)]
        assert texts[1] == texts[64]
        lines = texts[1].splitlines()
        assert [line.split(":")[0] for line in lines] == [f"median-heuristic gamma for block {m}" for m in range(3)]
        assert lines[0].endswith(" (not applied)") and lines[1].endswith(" (not applied)")
        assert lines[2] == f"median-heuristic gamma for block 2: {NO_SUGGESTION}"

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_no_thread_outlives_the_call(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        write_csv(tmp_path / "rows.csv", np.random.default_rng(13).normal(size=(300, 3)).tolist())
        before = threading.enumerate()
        argv = ["estimate", "--input", str(tmp_path / "rows.csv"), "--blocks", "1,1,1", "--median-gamma"]
        assert main(argv + ["--output", str(tmp_path / "o.json")]) == 0
        assert threading.enumerate() == before

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_memory_error_in_one_block_exits_three_with_only_its_error_line(self, tmp_path, capsys, monkeypatch, cpus):
        # block 1 of blocks 1,2,3 is the one of width 2; on two workers it
        # runs on the helper thread
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        median_lag = estimators._median_lag

        def failing(family, x):
            if x.shape[1] == 2:
                raise MemoryError("injected")
            return median_lag(family, x)

        monkeypatch.setattr(estimators, "_median_lag", failing)
        x = np.random.default_rng(14).normal(size=(40, 6))
        write_csv(tmp_path / "rows.csv", x.tolist())
        before = threading.enumerate()
        argv = ["estimate", "--input", str(tmp_path / "rows.csv"), "--blocks", "1,2,3", "--median-gamma"]
        assert main(argv + ["--output", str(tmp_path / "o.json")]) == 3
        # the suggestion lines follow the document, so block 0's never shows
        assert capsys.readouterr() == ("", "error: out of memory: injected\n")
        assert not (tmp_path / "o.json").exists()
        assert threading.enumerate() == before

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_unwritable_output_exits_two_with_nothing_on_stdout(self, tmp_path, two_col_csv, capsys, monkeypatch, cpus):
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        argv = ["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--median-gamma"]
        assert main(argv + ["--output", str(tmp_path / "missing" / "x.json")]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("error: cannot write ") and len(stderr.splitlines()) == 1

    def test_one_row_exits_three_with_one_error_line(self, tmp_path, capsys):
        # the V-statistic refuses one row; no suggestion line comes before it
        write_csv(tmp_path / "one.csv", [[0.5, -1.0]])
        assert main(["estimate", "--input", str(tmp_path / "one.csv"), "--blocks", "1,1", "--median-gamma"]) == 3
        assert capsys.readouterr() == ("", "error: V-statistic requires n ≥ 2, got 1\n")

    @pytest.mark.parametrize("cpus", [1, 64])
    def test_lags_past_the_float_range_raise_no_warning(self, monkeypatch, cpus):
        # every Gaussian lag overflows in its square or its difference; of
        # block 1's Laplace lags one overflows in its difference, and the
        # median of the three is finite
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
        data = Dataset(np.array([[1e154, 1e308, 0.0], [-1e154, -1e308, 0.0], [1e154, 1.0, 1e154]]), BlockStructure((1, 2)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            gaussian = list(estimators.median_lags(KernelFamily.GAUSSIAN, data, 0))
            laplace = list(estimators.median_lags(KernelFamily.LAPLACE, data, 0))
        assert gaussian == [math.inf, math.inf]
        assert laplace == [2e154, 1e308]

    def test_suggestion_words_each_case_without_a_bandwidth(self):
        assert cli._median_suggestion(None) == NO_SUGGESTION
        assert cli._median_suggestion(math.inf) == "none, the median pairwise lag overflows"
        assert cli._median_suggestion(1e-320) == "none, the median pairwise lag 1e-320 is too small to invert"
        assert cli._median_suggestion(1e308) == "1e-308 (not applied)"
        assert cli._median_suggestion(4.0) == "0.25 (not applied)"

    def test_subnormal_median_lag_is_worded(self, tmp_path):
        # the median lag of block 0 is (1e-160)^2 = 1e-320, whose reciprocal
        # overflows; this printed "inf (not applied)"
        write_csv(tmp_path / "d.csv", [[0, 0], [1e-160, 1], [0, 2]])
        argv = ["-W", "error::RuntimeWarning", "-m", "hsiclab.cli", "estimate", "--input", "d.csv"]
        child = run_fresh(argv + ["--blocks", "1,1", "--median-gamma"], tmp_path)
        assert (child.returncode, child.stderr.splitlines()) == (
            0,
            [
                "median-heuristic gamma for block 0: none, the median pairwise lag 1e-320 is too small to invert",
                "median-heuristic gamma for block 1: 1.0 (not applied)",
            ],
        )
        assert [rec["estimator"] for rec in json.loads(child.stdout)] == ["v"]


def _parse(path, header, reader):
    """What ``reader`` makes of the file: its array's shape and bytes, or its
    error's exit code and message."""
    try:
        values = reader(str(path), header=header)
    except cli.CliError as err:
        return ("error", err.code, str(err))
    return ("array", values.dtype.str, values.shape, values.tobytes())


def _rows(count, start=0):
    return [f"{i * 0.5!r},{-i / 3!r},{i}" for i in range(start, start + count)]


NUMBERS = st.one_of(st.integers(-999, 999).map(str), st.floats(allow_nan=False, allow_infinity=False).map(repr))
# a cell's padding: whitespace (NBSP too), the ASCII separators \x1c-\x1f,
# a byte-order mark, a lone \r and an underscore
PADDING = st.sampled_from(["", " ", "\t", "\xa0", "\x1c", "\x1d", "\x1e", "\x1f", "\ufeff", "\r", "_"])
TOKENS = st.sampled_from([*"0123456789", ".", "e", "+", "-", "_", "inf", "nan", " ", "\xa0", "\x1c", "\x1f", "\r", ""])
# mostly plain numbers, so that a fair share of the files reads as arrays
CELLS = st.one_of(
    *[NUMBERS] * 6, st.tuples(PADDING, NUMBERS, PADDING).map("".join), st.lists(TOKENS, max_size=4).map("".join)
)


@st.composite
def csv_texts(draw):
    """A small CSV text and whether its first line is a header: rows mostly
    of one width, ragged rows, empty cells, and blank and whitespace-only
    lines, under one of three line endings."""
    width = draw(st.integers(1, 3))
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row", "row", "row", "ragged", "blank"]))
        if kind == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", "\xa0", " \xa0 ", "\x1c", "\ufeff"])))
        else:
            count = width if kind == "row" else draw(st.integers(1, 4))
            lines.append(",".join(draw(CELLS) for _ in range(count)))
    ending = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return ending.join(lines) + draw(st.sampled_from(["", ending])), draw(st.booleans())


# runs minimax with argv[2:] in the directory argv[1]; "pin" as argv[1]
# restricts the process to one CPU first
MINIMAX_CHILD = """
import os, sys
if sys.argv[1] == "pin":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from hsiclab.cli import main
sys.exit(main(["minimax", *sys.argv[2:]]))
"""


class TestMinimaxCpuCount:
    """``minimax`` writes the same report on one CPU as on all of them."""

    ARGV = ["--blocks", "2,2", "--n-grid", "32,64,128,256", "--reps", "40", "--est", "v", "--est", "u"]
    ARGV += ["--est", "nystrom", "--landmarks", "4"]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no affinity call")
    def test_report_bytes_do_not_depend_on_the_cpu_count(self, tmp_path):
        reports = {}
        for cpus in ("pin", "all"):
            child = run_fresh(["-c", MINIMAX_CHILD, cpus, *self.ARGV, "--output", cpus], tmp_path)
            assert child.returncode == 0, child.stderr
            reports[cpus] = [(tmp_path / f"{cpus}{suffix}").read_bytes() for suffix in (".json", ".csv")]
        assert reports["pin"] == reports["all"]


class TestReadMatrix:
    """numpy's reader, with the line reader for the files it refuses, gives
    the per-line reader's arrays and messages."""

    CASES = {
        "crlf": (b"1,2\r\n3,4\r\n5,6\r\n", False),
        "lone_cr": (b"1,2\r3,4\r5,6\r", False),
        "mixed_endings": (b"1,2\r\n3,4\n5,6\r7,8", False),
        "whitespace_lines": (b"\n  \n1,2\n\t\n3,4\n \r\n5,6\n\n", False),
        "odd_cells": (b"1_0, 1.5 \n+1e3,-0\n1e-320,  -2_5.5_0  \n", False),
        "plus_inf": (b"1,2\n 3 , +inf \n", False),
        "huge_exponent": (b"1,2\n1e400,3\n", False),
        "empty_cell": (b"1,2,3\n4,,6\n", False),
        "nan_in_a_later_block": ("\n".join(_rows(1500) + ["7,nan,8"] + _rows(700)).encode(), False),
        "width_before_bad_cell": (b"1,2\n3\n4,x\n", False),
        "width_after_bad_cell": (b"1,2\n3,x\n4\n", False),
        "bad_cell_on_a_short_line": (b"1,2\nx\n", False),
        "width_from_first_data_line": (b"\n\n1,2,3\n4,5\n", False),
        "wide_line_in_a_later_block": ("\n".join(_rows(2000) + ["1,2,3,4"]).encode(), False),
        "non_utf8_past_the_first_block": ("\n".join(_rows(3000)).encode() + b"\n1,\xff\n", False),
        "bad_cell_before_non_utf8": ("\n".join(["1,oops,2"] + _rows(3000)).encode() + b"\n1,\xfe\n", False),
        "non_utf8_before_bad_cell": ("\n".join(_rows(3000)).encode() + b"\n1,\xff\n1,oops,2\n", False),
        "bad_cell_and_non_utf8_one_block": ("\n".join(_rows(900) + ["1,oops,2"] + _rows(100)).encode() + b"\n\xff\n", False),
        # the bad cell is decoded in an earlier 8 KB chunk than the bad byte
        "bad_cell_chunks_before_non_utf8": ("\n".join(_rows(99) + ["1,oops,2"] + _rows(800)).encode() + b"\n\xff\n", False),
        "header_blank_first_line": (b"\n1,2\n3,4\n", True),
        "header_blank_then_names": (b"\na,b\n1,2\n", True),
        "header": (b"a,b\n1,2\n", True),
        "header_only": (b"a,b\n", True),
        "no_trailing_newline": (b"1,2\n3,4", False),
        "empty": (b"", False),
        "blank_only": (b"\n \n\r\n", False),
        "byte_order_mark": (b"\xef\xbb\xbf1,2\n", False),
        "exactly_one_block": ("\n".join(_rows(cli.CSV_BLOCK_ROWS)).encode() + b"\n", False),
        "many_blocks": ("\n".join(_rows(3 * cli.CSV_BLOCK_ROWS + 7)).encode(), False),
    }

    @staticmethod
    def _refuse(real, consume):
        """An ``np.loadtxt`` that refuses every file, after ``real`` has read
        the handle to its end when ``consume`` is set, so that the line reader
        reads it."""

        def loadtxt(fname, **kwargs):
            if consume:
                with contextlib.suppress(ValueError):
                    real(fname, **kwargs)
            raise ValueError("refused")

        return loadtxt

    # file: numpy's reader first; line_reader: numpy refuses at once; rewound:
    # numpy reads the handle to its end, then refuses; pipe: input that cannot
    # be rewound goes to the line reader alone
    @pytest.mark.parametrize("route", ["file", "line_reader", "rewound", "pipe"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_arrays_and_messages_as_the_line_reader(self, tmp_path, monkeypatch, case, route):
        content, header = self.CASES[case]
        path = tmp_path / "m.csv"
        path.write_bytes(content)
        expected = _parse(path, header, line_read_matrix)
        if route in ("line_reader", "rewound"):
            monkeypatch.setattr(np, "loadtxt", self._refuse(np.loadtxt, consume=route == "rewound"))
        # numpy's "input contained no data" warning never shows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if route == "pipe":
                pipe, got = self._read_pipe(content, header)
                expected = (*expected[:2], expected[2].replace(str(path), pipe)) if expected[0] == "error" else expected
            else:
                got = _parse(path, header, cli.read_matrix)
        assert got == expected

    @given(text_and_header=csv_texts())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_generated_files_read_as_the_line_reader_reads_them(self, tmp_path_factory, text_and_header):
        text, header = text_and_header
        path = tmp_path_factory.getbasetemp() / "generated.csv"
        path.write_bytes(text.encode())
        expected = _parse(path, header, line_read_matrix)
        got = _parse(path, header, cli.read_matrix)
        if got != expected:
            # Python's float refuses the ASCII separators \x1c-\x1f, which
            # numpy's reader and str.strip take as whitespace at a cell's ends:
            # whichever reader reads such a file, it reads as if they were
            # spaces, up to the cell a message names
            assert re.search("[\x1c-\x1f]", text)
            path.write_bytes(re.sub("[\x1c-\x1f]", " ", text).encode())
            if got[0] == "error":
                got = (*got[:2], re.sub(r"\\x1[c-f]", " ", got[2]))
            assert got == _parse(path, header, line_read_matrix)

    @pytest.mark.parametrize("tail", [b"", b" \n"], ids=["numpy", "line_reader"])
    def test_ascii_separators_at_a_cells_ends_read_as_whitespace(self, tmp_path, tail):
        # Python's float refuses them; a trailing whitespace-only line sends
        # the file to the line reader, which strips the cell as numpy does
        path = tmp_path / "m.csv"
        path.write_bytes(b"1,\x1c2\n3\x1f,4\n" + tail)
        assert _parse(path, False, line_read_matrix)[0] == "error"
        assert cli.read_matrix(str(path)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    @staticmethod
    def _read_pipe(content, header=False):
        """The path ``read_matrix`` reads a pipe by, and what it makes of
        ``content`` written to that pipe by a thread (a pipe holds 64 KB)."""
        read_end, write_end = os.pipe()

        def write():
            # the reader may stop at an error and close its end first
            with contextlib.suppress(BrokenPipeError), open(write_end, "wb") as handle:
                handle.write(content)

        writer = threading.Thread(target=write)
        writer.start()
        path = f"/dev/fd/{read_end}"
        try:
            return path, _parse(path, header, cli.read_matrix)
        finally:
            os.close(read_end)
            writer.join()

    def test_a_pipe_is_read_once_by_the_line_reader(self):
        # numpy refuses the whitespace-only line, and a pipe cannot be read
        # a second time, so its lines go to the line reader alone
        _, got = self._read_pipe(b"1,2\n \n3,4\n")
        assert got == ("array", "<f8", (2, 2), np.array([[1.0, 2.0], [3.0, 4.0]]).tobytes())
        path, got = self._read_pipe(b"1,2\n3,x\n")
        assert got == ("error", 2, f"{path}: line 2, column 2: 'x' is not a finite number")

    def test_no_line_list_of_the_whole_file_is_held(self, tmp_path):
        # a list of 20000 rows of Python floats took 4.5 MB; numpy's reader
        # and the line reader's one np.fromiter each hold the array and its
        # growth. The trailing whitespace-only line of the second read takes
        # the line reader.
        x = np.random.default_rng(15).normal(size=(20000, 3))
        write_dataset(tmp_path / "m.csv", Dataset(x, BlockStructure((2, 1))))
        for tail in ["", " \n"]:
            with open(tmp_path / "m.csv", "a", encoding="utf-8") as handle:
                handle.write(tail)
            tracemalloc.start()
            try:
                values = cli.read_matrix(str(tmp_path / "m.csv"))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.array_equal(values, x)
            assert peak < 2 * x.nbytes + 1_000_000


class TestAnalytic:
    def test_rho_shorthand(self, capsys):
        assert main(["analytic", "--blocks", "1,1", "--gamma", "1", "--rho", "0.6"]) == 0
        out = capsys.readouterr().out
        assert "hsic2 = 0.0166159996" in out
        assert "term_i" in out

    def test_zero_rho(self, capsys):
        assert main(["analytic", "--blocks", "1,1", "--rho", "0"]) == 0
        assert "hsic2 = 0.0" in capsys.readouterr().out

    def test_unit_rho_is_data_error(self):
        assert main(["analytic", "--blocks", "1,1", "--rho", "1.0"]) == 2

    def test_covariance_from_file(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        write_csv(path, [[1.0, 0.6], [0.6, 1.0]])
        assert main(["analytic", "--blocks", "1,1", "--input", str(path)]) == 0
        assert "hsic2 = 0.0166159996" in capsys.readouterr().out

    def test_non_positive_definite_matrix(self, tmp_path):
        path = tmp_path / "bad_cov.csv"
        write_csv(path, [[1.0, 2.0], [2.0, 1.0]])
        assert main(["analytic", "--blocks", "1,1", "--input", str(path)]) == 2

    def test_covariance_that_is_not_square_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "cov.csv"
        write_csv(path, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        assert main(["analytic", "--blocks", "1,1", "--input", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: covariance must be square, got shape (2, 3)\n")

    def test_requires_exactly_one_source(self):
        assert main(["analytic", "--blocks", "1,1"]) == 3

    @pytest.mark.parametrize("fmt", [None, "json", "csv"], ids=["default", "json", "csv"])
    def test_output_holds_the_printed_values(self, tmp_path, capsys, fmt):
        out = tmp_path / "analytic.out"
        argv = ["analytic", "--blocks", "2,1", "--gamma", "0.5", "--rho", "0.3", "--output", str(out)]
        assert main(argv + (["--format", fmt] if fmt else [])) == 0
        printed = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
        assert sorted(printed) == ["hsic", "hsic2", "term_i", "term_ii", "term_iii"]
        if fmt == "csv":
            (written,) = csv.DictReader(io.StringIO(out.read_text()))
            assert written["blocks"] == "2,1"
            assert all(written[name] == text for name, text in printed.items())
        else:
            written = json.loads(out.read_text())
            assert written["blocks"] == [2, 1]
            assert all(written[name] == float(text) for name, text in printed.items())
        assert (float(written["gamma"]), float(written["rho"])) == (0.5, 0.3)

    def test_format_without_output_is_usage_error(self, capsys):
        assert main(["analytic", "--blocks", "1,1", "--rho", "0.6", "--format", "csv"]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == "error: --format is read only with --output\n"

    def test_header_without_input_is_usage_error(self, capsys):
        assert main(["analytic", "--blocks", "1,1", "--rho", "0.5", "--header"]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == "error: --header is read only with --input\n"

    # printed by the direct determinant form, before gamma was factored out
    DIRECT_RHO05 = {
        "0.5": (0.008492518136382854, 0.09215485953753526, 0.5163977794943222, 0.49999999999999994, 0.5039526306789697),
        "1": (0.010763320143793997, 0.10374642231804429, 0.3535533905932738, 0.33333333333333337, 0.3380617018914066),
        "1e150": (4.455471020098897e-152, 2.1107986687741912e-76, 5.773502691896497e-151, 5.00000000000005e-151, 5.163977794943329e-151),
    }

    @staticmethod
    def _printed(gamma, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analytic", "--blocks", "1,1", "--gamma", gamma, "--rho", "0.5"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        names = ("hsic2", "hsic", "term_i", "term_ii", "term_iii")
        found = dict(line.split(" = ") for line in captured.out.splitlines())
        return tuple(float(found[name]) for name in names)

    @pytest.mark.parametrize("gamma", ["1e16", "1e300", "1e308"])
    def test_huge_gamma_prints_finite_values_without_warnings(self, gamma, capsys):
        assert all(math.isfinite(v) and v >= 0 for v in self._printed(gamma, capsys))

    @pytest.mark.parametrize("gamma", sorted(DIRECT_RHO05))
    def test_values_match_direct_determinants(self, gamma, capsys):
        assert self._printed(gamma, capsys) == pytest.approx(self.DIRECT_RHO05[gamma], rel=1e-12, abs=0.0)


class TestMinimax:
    def run_small(self, tmp_path, name, seed="1"):
        base = tmp_path / name
        code = main(
            [
                "minimax",
                "--blocks",
                "1,1",
                "--gamma",
                "1",
                "--n-grid",
                "16,32,64",
                "--reps",
                "3",
                "--est",
                "v",
                "--seed",
                seed,
                "--output",
                str(base),
            ]
        )
        return code, base.with_suffix(".json"), base.with_suffix(".csv")

    @staticmethod
    def assert_finite(node):
        if isinstance(node, dict):
            for value in node.values():
                TestMinimax.assert_finite(value)
        elif isinstance(node, list):
            for value in node:
                TestMinimax.assert_finite(value)
        elif isinstance(node, float):
            assert np.isfinite(node)

    def test_small_run_writes_both_files(self, tmp_path, capsys):
        code, json_path, csv_path = self.run_small(tmp_path, "report")
        assert code == 0
        payload = json.loads(json_path.read_text())
        assert set(payload) == {"config", "records", "certificates", "rate_fits", "lecam_value"}
        assert payload["certificates"] == {"hsic_gap": True, "kl_budget": True}
        assert payload["lecam_value"] == pytest.approx(0.10471529247895256, abs=1e-12)
        self.assert_finite(payload)
        for record in payload["records"]:
            assert set(record["sup_risk"]) == {"v"}
        header = csv_path.read_text().splitlines()[0]
        assert header.startswith("n,rho,estimator,sup_risk")
        assert "rate fit [v]" in capsys.readouterr().out

    def test_byte_identical_reruns(self, tmp_path):
        _, json_a, csv_a = self.run_small(tmp_path, "a")
        _, json_b, csv_b = self.run_small(tmp_path, "b")
        assert json_a.read_bytes() == json_b.read_bytes()
        assert csv_a.read_bytes() == csv_b.read_bytes()

    def test_single_grid_point_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["minimax", "--blocks", "1,1", "--n-grid", "2", "--output", str(tmp_path / "x")]
        )
        assert code == 3
        assert "rate fit needs ≥ 3 distinct grid points" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["8,8,8", "8,8,16", "8,8,16,32"])
    def test_repeated_budgets_are_usage_error(self, tmp_path, grid):
        # a repeat would be simulated again with the same seed and weigh twice
        # in the rate fit; a fit through fewer than 3 distinct budgets reads
        # r2 = 1, and numpy prints its RankWarning whatever the warning
        # filters say
        argv = ["-m", "hsiclab.cli", "minimax", "--blocks", "1,1", "--n-grid", grid, "--reps", "2", "--output", "x"]
        child = run_fresh(argv, tmp_path)
        assert (child.returncode, child.stdout) == (3, "")
        assert child.stderr == "error: grid budgets must be distinct, got 8 more than once\n"
        assert not list(tmp_path.iterdir())

    def test_csv_rows_equal_json_records(self, tmp_path, capsys):
        base = tmp_path / "agree"
        ests = ["v", "u", "nystrom"]
        argv = ["minimax", "--blocks", "2,2", "--n-grid", "8,16,32", "--reps", "3", "--landmarks", "4"]
        assert main(argv + [arg for est in ests for arg in ("--est", est)] + ["--output", str(base)]) == 0
        capsys.readouterr()
        payload = json.loads(base.with_suffix(".json").read_text())
        with open(base.with_suffix(".csv"), newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert tuple(rows[0]) == cli.MINIMAX_CSV_COLUMNS
        # budgets outer, estimators inner in --est order
        assert [(int(row["n"]), row["estimator"]) for row in rows] == [(n, est) for n in (8, 16, 32) for est in ests]
        records = {rec["n"]: rec for rec in payload["records"]}
        for row in rows:
            rec, est = records[int(row["n"])], row["estimator"]
            for key in ("rho", "kl_exact", "kl_bound", "analytic_gap", "gap_floor"):
                assert float(row[key]) == rec[key], key
            for key in ("sup_risk", "exceed_prob", "rmse_null", "rmse_alt"):
                assert float(row[key]) == rec[key][est], key
            assert float(row["threshold"]) == rec["minimax_c"] / math.sqrt(rec["n"])

    def test_injected_certificate_failure_names_family_and_n(self, tmp_path, monkeypatch, capsys):
        # kl_bound is 0.5646 at n = 16 and 0.5317 at n = 32, below 0.53 from n = 64 on
        monkeypatch.setattr(lecam, "KL_BUDGET", 0.53)
        code, json_path, _ = self.run_small(tmp_path, "failing")
        assert code == 1
        out = capsys.readouterr().out
        violations = [line for line in out.splitlines() if "violated" in line]
        assert len(violations) == 1
        assert violations[0].startswith("certificate violated at n=16: kl_bound ≤ 5/4, budget_margin=-0.03458")
        assert violations[0] == f"certificate violated at n=16: kl_bound ≤ 5/4, budget_margin={0.53 - 1 / 32 - 16 / 30!r}"
        payload = json.loads(json_path.read_text())
        assert payload["certificates"] == {"hsic_gap": True, "kl_budget": False}


class TestCertify:
    def test_small_grid_all_pass(self, capsys, tmp_path):
        out = tmp_path / "cert.csv"
        code = main(
            [
                "certify",
                "--blocks",
                "1,1",
                "--gamma",
                "1",
                "--n-grid",
                "1..40",
                "--format",
                "csv",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        console = capsys.readouterr().out
        assert "note: n=1 excluded" in console
        assert console.count("PASS") == 4
        assert "FAIL" not in console
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 1 + 39  # header + budgets 2..40

    def test_json_output(self, tmp_path):
        out = tmp_path / "cert.json"
        code = main(
            ["certify", "--blocks", "2,2", "--gamma", "2", "--n-grid", "2..20", "--output", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] == {
            "kl_exact_le_bound": True,
            "kl_bound_le_budget": True,
            "gap_ge_floor": True,
            "hsic2_ge_partii": True,
        }
        # each family's smallest margin and its budget; the KL budget is
        # attained at n = 2
        assert set(payload["margins"]) == set(payload["pass"])
        assert payload["margins"]["kl_bound_le_budget"] == {"min_margin": 0.0, "argmin_n": 2}
        assert all(m["min_margin"] > 0 and m["argmin_n"] == 20 for f, m in payload["margins"].items() if f != "kl_bound_le_budget")
        # rows hold numbers, the floats the CSV form writes
        rows = payload["rows"]
        assert [row["n"] for row in rows] == list(range(2, 21))
        assert all(type(v) is float for row in rows for k, v in row.items() if k != "n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_stdout_follows_format(self, capsys, tmp_path, fmt):
        # without --output stdout is the table alone, in the --format asked
        # for, and the status lines go to stderr; with --output they stay on
        # stdout, where perfbench reads the verdicts
        argv = ["certify", "--blocks", "2,2", "--gamma", "2", "--n-grid", "1..20", "--format", fmt]
        assert main(argv) == 0
        table, status = capsys.readouterr()
        lines = status.splitlines()
        assert lines[0] == "note: n=1 excluded (the construction needs a sample budget of at least 2)"
        assert lines[1].startswith("part-(ii) gap constant estimate:")
        assert lines[2:] == [line for line in lines if line.endswith(": PASS")]
        assert len(lines) == 6
        assert main(argv + ["--output", str(tmp_path / "table")]) == 0
        assert tuple(capsys.readouterr()) == (status, "")
        assert table == (tmp_path / "table").read_text()
        if fmt == "json":
            assert len(json.loads(table)["rows"]) == 19
        else:
            assert table.startswith(",".join(cli.CERTIFY_CSV_COLUMNS) + "\n")
            assert len(table.splitlines()) == 1 + 19

    def test_excluded_budgets_take_one_note(self, capsys, tmp_path):
        note = "(the construction needs a sample budget of at least 2)"
        assert main(["certify", "--blocks", "1,1", "--n-grid=-200000..1"]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.splitlines() == [
            f"note: 200002 budgets excluded, the first n=-200000 {note}",
            "error: no usable budgets in --n-grid (all below 2)",
        ]
        assert main(["certify", "--blocks", "1,1", "--n-grid", "5,1,-3,0,8", "--output", str(tmp_path / "c.json")]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"note: 3 budgets excluded, the first n=1 {note}"
        assert len(lines) == 6
        assert [row["n"] for row in json.loads((tmp_path / "c.json").read_text())["rows"]] == [5, 8]

    @pytest.mark.parametrize(
        "extra",
        [["--gamma", "1e-3"], ["--n-grid", "12341703,20000000,100000000"], ["--n-grid", "9007199254740992"]],
        ids=["gamma-1e-3", "large-budgets", "largest-budget"],
    )
    def test_true_certificates_pass_at_the_edge_of_rounding(self, tmp_path, capsys, extra):
        # the columns of each family agree to first order and compared as
        # rounded floats read FAIL here; their margins hold with room to spare
        code = main(["certify", "--blocks", "1,1", *extra, "--output", str(tmp_path / "g.json")])
        lines = capsys.readouterr().out.splitlines()
        # perfbench reads the verdict after the last ": "
        assert [line.rsplit(": ", 1)[-1] for line in lines if " (min margin " in line] == ["PASS"] * 4
        assert code == 0
        if extra[-1] == "9007199254740992":
            assert "hsic gap ≥ 2c/√n (min margin 2.66e-34 at n=9007199254740992): PASS" in lines

    def test_injected_failure_fails_one_family(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(lecam, "KL_BUDGET", 0.53)
        code = main(["certify", "--blocks", "1,1", "--n-grid", "8..64", "--output", str(tmp_path / "c.csv")])
        assert code == 1
        out = capsys.readouterr().out
        # kl_bound is 0.6339 at n = 8, the first and the smallest margin
        assert "kl_bound ≤ 5/4 (min margin -0.104 at n=8): FAIL" in out
        assert out.count("PASS") == 3

    def test_byte_identical_reruns(self, tmp_path, capsys):
        outputs = []
        for name in ("a.json", "b.json"):
            argv = ["certify", "--blocks", "3,1,2", "--gamma", "0.5", "--n-grid", "2..300,1000"]
            assert main(argv + ["--seed", "9", "--output", str(tmp_path / name)]) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]
        assert b"np.float64" not in outputs[0]
        assert "np.float64" not in capsys.readouterr().out


class TestInputContract:
    @pytest.mark.parametrize("subcommand", ["estimate", "analytic", "minimax", "certify"])
    @pytest.mark.parametrize("gamma", ["-1", "0", "nan", "inf", "one"])
    def test_gamma_must_be_positive_finite(self, two_col_csv, capsys, subcommand, gamma):
        argv = [subcommand, "--blocks", "1,1", "--gamma", gamma, "--input", str(two_col_csv)]
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 3
        assert "--gamma" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["estimate", "analytic"])
    def test_invalid_utf8_is_data_error(self, tmp_path, capsys, subcommand):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"1.0,0.5\n0.5,1\xff\n")
        assert main([subcommand, "--input", str(path), "--blocks", "1,1"]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr == f"error: {path}: not UTF-8 text: cannot decode byte 0xff\n"

    def test_json_output_rejects_non_finite_numbers(self):
        with pytest.raises(cli.CliError) as err:
            cli._json_text({"value": float("nan")})
        assert err.value.code == 2

    def test_invalid_landmarks_is_usage_error(self, tmp_path, capsys):
        argv = ["minimax", "--blocks", "1,1", "--est", "nystrom", "--n-grid", "8,16,32", "--reps", "2"]
        argv += ["--output", str(tmp_path / "x")]
        # the same line as estimate's for a missing --landmarks
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: nystrom estimator requires --landmarks\n")
        assert main(argv + ["--landmarks", "1"]) == 3
        assert capsys.readouterr() == ("", "error: estimator 'nystrom': need at least 2 landmarks, got 1\n")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("subcommand", ["minimax", "certify"])
    def test_huge_n_grid_is_usage_error_before_allocating(self, tmp_path, capsys, subcommand):
        argv = [subcommand, "--blocks", "1,1", "--n-grid", "2..100000000000", "--output", str(tmp_path / "x")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 3
        assert f"--n-grid expands to more than {cli.MAX_GRID_BUDGETS} budgets" in capsys.readouterr().err
        assert peak < 1_000_000

    def test_grid_cap_counts_every_token(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_GRID_BUDGETS", 10)
        base = ["certify", "--blocks", "1,1", "--output", str(tmp_path / "c.csv"), "--n-grid"]
        assert main(base + ["2..11"]) == 0
        assert main(base + ["2..6,7..11,12"]) == 3
        assert main(base + ["2..12"]) == 3
        assert "more than 10 budgets" in capsys.readouterr().err


class TestFlagSurface:
    @staticmethod
    def subparsers():
        (action,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        return action.choices

    def test_every_flag_is_read_by_its_subcommand(self):
        subs = self.subparsers()
        assert sorted(subs) == ["analytic", "certify", "estimate", "minimax"]
        for name, sub in subs.items():
            source = inspect.getsource(sub.get_default("func"))
            for action in sub._actions:
                if action.dest != "help":
                    assert re.search(rf"\bargs\.{action.dest}\b", source), f"{name} ignores --{action.dest}"

    @pytest.mark.parametrize(
        "argv",
        [
            ["estimate", "--blocks", "1,1", "--input", "data.csv"],
            ["analytic", "--blocks", "1,1", "--rho", "0.6"],
            ["minimax", "--blocks", "1,1", "--n-grid", "8,16,32", "--reps", "2"],
            ["certify", "--blocks", "1,1", "--n-grid", "2..10"],
        ],
    )
    def test_threads_is_not_a_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv + ["--threads", "2"])
        assert err.value.code == 3
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("subcommand", ["estimate", "minimax"])
    @pytest.mark.parametrize("est", [[], ["--est", "v"]], ids=["default-est", "est-v"])
    def test_landmarks_without_nystrom_is_usage_error(self, two_col_csv, tmp_path, capsys, subcommand, est):
        argv = [subcommand, "--blocks", "1,1", *est, "--landmarks", "3", "--output", str(tmp_path / "x")]
        if subcommand == "estimate":
            argv += ["--input", str(two_col_csv)]
        else:
            argv += ["--n-grid", "8,16,32", "--reps", "2"]
        assert main(argv) == 3
        assert "--landmarks is read only with --est nystrom" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("subcommand", ["minimax", "certify"])
    @pytest.mark.parametrize("budget", [str(2**53 + 1), "1" + "0" * 400], ids=["2^53+1", "10^400"])
    def test_budget_beyond_float64_integers_is_usage_error(self, tmp_path, capsys, subcommand, budget):
        argv = [subcommand, "--blocks", "1,1", "--n-grid", f"2,3,{budget}", "--output", str(tmp_path / "x")]
        assert main(argv) == 3
        assert "--n-grid budgets above 2^53" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analytic", "--blocks", "1,1", "--rho", "0.6"],
            ["minimax", "--blocks", "1,1", "--n-grid", "8,16,32", "--reps", "2"],
            ["certify", "--blocks", "1,1", "--n-grid", "2..10"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_kernel_is_not_a_flag(self, argv, capsys):
        # these subcommands rest on the closed-form Gaussian oracle
        with pytest.raises(SystemExit) as err:
            main(argv + ["--kernel", "gaussian"])
        assert err.value.code == 3
        assert "unrecognized arguments: --kernel gaussian" in capsys.readouterr().err

    def test_budget_two_to_the_53_is_accepted(self):
        assert cli._parse_n_grid(f"2..4,{2**53}") == (2, 3, 4, 2**53)


class TestErrorBoundary:
    """A rule the library enforces, reached through the CLI, exits 3 with one
    ``error:`` line, before any simulation runs or any document is written."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["estimate", "--blocks", "1,1", "--est", "u", "--input", "3x2"], "U-statistic requires n ≥ 4, got 3"),
            (["estimate", "--blocks", "1,1", "--input", "1x2"], "V-statistic requires n ≥ 2, got 1"),
            (
                ["estimate", "--blocks", "1,1,1", "--est", "u", "--input", "12x3"],
                "U-statistic requires exactly 2 blocks, got 3",
            ),
            (
                ["estimate", "--blocks", "1,1", "--est", "nystrom", "--landmarks", "13", "--input", "12x2"],
                "cannot select 13 landmarks from 12 rows",
            ),
            # one block exits before the (missing) input is read
            (["estimate", "--blocks", "2", "--input", "missing"], "need at least 2 blocks"),
            (["analytic", "--blocks", "2", "--rho", "0.5"], "need at least 2 blocks"),
            (["minimax", "--blocks", "2", "--n-grid", "8,16,32"], "need at least 2 blocks"),
            (["certify", "--blocks", "2"], "need at least 2 blocks"),
            # checked at the smallest budget before any replicate is drawn
            (
                ["minimax", "--blocks", "1,1", "--est", "u", "--n-grid", "64,128,3"],
                "estimator 'u': U-statistic requires n ≥ 4, got 3",
            ),
            (
                ["minimax", "--blocks", "1,1", "--est", "nystrom", "--landmarks", "100", "--n-grid", "64,128,256"],
                "estimator 'nystrom': cannot select 100 landmarks from 64 rows",
            ),
        ],
        ids=[
            "u-n3", "v-n1", "u-3-blocks", "landmarks-above-n", "estimate-1-block", "analytic-1-block",
            "minimax-1-block", "certify-1-block", "minimax-u-budget-3", "minimax-landmarks-above-budget",
        ],
    )
    def test_library_rule_exits_three_with_one_error_line(self, tmp_path, monkeypatch, capsys, argv, message):
        simulated = []
        monkeypatch.setattr(lecam, "_simulate", lambda *args: simulated.append(args))
        argv = list(argv)
        if "--input" in argv:
            i = argv.index("--input") + 1
            if argv[i] != "missing":
                rows, cols = map(int, argv[i].split("x"))
                write_csv(tmp_path / argv[i], np.random.default_rng(rows).normal(size=(rows, cols)).tolist())
            argv[i] = str(tmp_path / argv[i])
        assert main(argv + ["--output", str(tmp_path / "out")]) == 3
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: ") and message in stderr
        assert not simulated
        assert not list(tmp_path.glob("out*"))

    @pytest.mark.parametrize("blocks", ["1,1", "3,1,2"])
    @pytest.mark.parametrize("gamma", ["1e154", "5e153", "1e200", "1.7e308"])
    def test_huge_bandwidth_certify_passes(self, tmp_path, gamma, blocks):
        # w_i w_j overflows in the part-(ii) draw, but no inf * 0 is formed:
        # the estimate is 0, and under -W error any numpy warning would exit 1
        argv = ["certify", "--blocks", blocks, "--gamma", gamma, "--n-grid", "2..4,1000"]
        child = run_fresh(["-W", "error", "-m", "hsiclab.cli", *argv, "--output", "c.json"], tmp_path)
        assert (child.returncode, child.stderr) == (0, "")
        assert child.stdout.startswith("part-(ii) gap constant estimate: 0.0 ± 0.0 (1 SE)")
        assert [line.rsplit(": ", 1)[1] for line in child.stdout.splitlines()[1:]] == ["PASS"] * 4
        payload = json.loads((tmp_path / "c.json").read_text(), parse_constant=lambda name: pytest.fail(name))
        assert all(payload["pass"].values()) and len(payload["rows"]) == 4

    def test_huge_bandwidth_certify_writes_finite_csv(self, tmp_path, capsys):
        # in process, with numpy warnings raised as errors: every CSV cell is
        # a finite number and every verdict is PASS
        argv = ["certify", "--blocks", "1,1", "--gamma", "1e200", "--n-grid", "2..4", "--format", "csv"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--output", str(tmp_path / "t.csv")]) == 0
        stdout, stderr = capsys.readouterr()
        assert stderr == ""
        assert [line.rsplit(": ", 1)[1] for line in stdout.splitlines()[1:]] == ["PASS"] * 4
        header, *rows = csv.reader(io.StringIO((tmp_path / "t.csv").read_text()))
        assert header == list(cli.CERTIFY_CSV_COLUMNS)
        assert [row[0] for row in rows] == ["2", "3", "4"]
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    @pytest.mark.parametrize(
        "blocks, est",
        [("1,1", ["--est", "v", "--est", "u"]), ("2,2", ["--est", "nystrom", "--landmarks", "4"])],
        ids=["v-u", "nystrom"],
    )
    def test_huge_bandwidth_minimax_runs_to_finite_numbers(self, tmp_path, blocks, est):
        # the closed forms hold no z * z that overflows, so gamma = 1e200
        # gives a finite report and no numpy warning
        argv = ["minimax", "--blocks", blocks, "--gamma", "1e200", "--n-grid", "8,16,32", "--reps", "4", *est]
        child = run_fresh(["-m", "hsiclab.cli", *argv, "--output", "m"], tmp_path)
        assert (child.returncode, child.stderr) == (0, "")
        assert "certificates = {'kl_budget': True, 'hsic_gap': True}" in child.stdout
        payload = json.loads((tmp_path / "m.json").read_text(), parse_constant=lambda name: pytest.fail(name))
        assert [rec["n"] for rec in payload["records"]] == [8, 16, 32]
        assert all(math.isfinite(rec["analytic_gap"]) and rec["analytic_gap"] >= rec["gap_floor"] for rec in payload["records"])

    def test_nan_part_two_estimate_exits_three_with_one_error_line(self, tmp_path, monkeypatch, capsys):
        # a bound floored with max(0.0, nan) read 0 and PASSed
        monkeypatch.setattr(cli, "verify_gap_partii", lambda *args: (math.nan, 0.0))
        argv = ["certify", "--blocks", "1,1", "--n-grid", "2..4", "--format", "csv", "--output", str(tmp_path / "t.csv")]
        assert main(argv) == 3
        assert capsys.readouterr() == ("", "error: certificate column partii_bound is not finite at n=2 (gamma=1.0)\n")
        assert not list(tmp_path.iterdir())

    def test_tiny_bandwidth_minimax_runs_to_finite_numbers(self, tmp_path):
        # 1/gamma = 1e300 squared overflowed a Python float into a traceback
        argv = ["minimax", "--blocks", "1,1", "--gamma", "1e-300", "--n-grid", "8,16,32", "--reps", "3"]
        child = run_fresh(["-m", "hsiclab.cli", *argv, "--output", "m"], tmp_path)
        assert (child.returncode, child.stderr) == (0, "")
        payload = json.loads((tmp_path / "m.json").read_text(), parse_constant=lambda name: pytest.fail(name))
        assert [rec["n"] for rec in payload["records"]] == [8, 16, 32]

    def test_tiny_bandwidth_certify_prints_no_traceback(self, tmp_path):
        # every verdict line is printed; the part-(ii) one still reads margins
        # that underflow at this bandwidth
        argv = ["certify", "--blocks", "1,1", "--gamma", "1e-160", "--n-grid", "2..50"]
        child = run_fresh(["-m", "hsiclab.cli", *argv, "--output", "c.json"], tmp_path)
        assert child.returncode in (0, 1)
        assert child.stderr == ""
        verdicts = [line.rsplit(": ", 1)[1] for line in child.stdout.splitlines()[1:]]
        assert len(verdicts) == 4 and set(verdicts) <= {"PASS", "FAIL"}
        assert json.loads((tmp_path / "c.json").read_text())["gamma"] == 1e-160

    def test_huge_bandwidth_laplace_estimate_prints_no_warning(self, tmp_path):
        # the Laplace lags scale to -inf, whose exp is the exact limit 0
        write_csv(tmp_path / "d.csv", np.random.default_rng(0).normal(size=(12, 2)).tolist())
        argv = ["estimate", "--blocks", "1,1", "--kernel", "laplace", "--gamma", "1e308", "--est", "v", "--est", "u"]
        child = run_fresh(["-m", "hsiclab.cli", *argv, "--input", "d.csv"], tmp_path)
        assert (child.returncode, child.stderr) == (0, "")
        records = json.loads(child.stdout)
        assert [rec["estimator"] for rec in records] == ["v", "u"]
        assert all(math.isfinite(rec["value_hsic2"]) for rec in records)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/statm")
    def test_out_of_memory_exits_three_with_one_error_line(self, tmp_path):
        # the child caps its own address space 1 GiB above what it maps after
        # import; --reps asks _simulate for a 745 GiB error buffer
        script = (
            "import resource, sys\n"
            "from hsiclab.cli import main\n"
            "with open('/proc/self/statm') as f:\n"
            "    mapped = int(f.read().split()[0]) * resource.getpagesize()\n"
            "resource.setrlimit(resource.RLIMIT_AS, (mapped + 2**30, mapped + 2**30))\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        argv = ["minimax", "--blocks", "1,1", "--n-grid", "64,128,256", "--reps", "100000000000"]
        child = run_fresh(["-c", script, *argv], tmp_path, OPENBLAS_NUM_THREADS="1")
        assert child.returncode == 3
        assert child.stdout == ""
        assert len(child.stderr.splitlines()) == 1
        assert child.stderr.startswith("error: out of memory: ")
        assert not list(tmp_path.iterdir())


class TestUnwritableOutput:
    """An --output that cannot be written is a data error: exit 2 with one
    ``error: cannot write`` line, not a traceback with exit 1."""

    RUNS = {
        "estimate": ["estimate", "--blocks", "1,1", "--est", "v", "--est", "nystrom", "--landmarks", "4"],
        "analytic": ["analytic", "--blocks", "1,1", "--rho", "0.5"],
        "minimax": ["minimax", "--blocks", "1,1", "--n-grid", "8,16,32", "--reps", "2"],
        "certify": ["certify", "--blocks", "1,1", "--n-grid", "2..5"],
    }

    @pytest.mark.parametrize("where", ["missing-directory", "directory"])
    @pytest.mark.parametrize("subcommand", list(RUNS))
    def test_exits_two_with_one_error_line(self, tmp_path, two_col_csv, capsys, subcommand, where):
        argv = list(self.RUNS[subcommand])
        if subcommand == "estimate":
            argv += ["--input", str(two_col_csv)]
        if where == "directory":
            # minimax writes <output>.json first
            output = tmp_path / "out"
            (tmp_path / ("out.json" if subcommand == "minimax" else "out")).mkdir()
        else:
            output = tmp_path / "missing" / "out.json"
        assert main(argv + ["--output", str(output)]) == 2
        stdout, stderr = capsys.readouterr()
        assert len(stderr.splitlines()) == 1
        assert stderr.startswith("error: cannot write ")
        assert stdout == ""
        assert not (tmp_path / "missing").exists()

    def test_minimax_leaves_neither_document_when_the_csv_cannot_be_written(self, tmp_path, capsys):
        (tmp_path / "out.csv").mkdir()
        assert main(self.RUNS["minimax"] + ["--output", str(tmp_path / "out")]) == 2
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith(f"error: cannot write {tmp_path / 'out.csv'}: ")
        assert len(stderr.splitlines()) == 1
        assert sorted(path.name for path in tmp_path.iterdir()) == ["out.csv"]

    def test_closed_stdout_pipe_exits_two_with_one_error_line(self, tmp_path):
        # the reader keeps 100 bytes of a 3.1 MB document and closes the pipe;
        # the interpreter's last flush must not add an "Exception ignored" line
        argv = ["certify", "--blocks", "1,1", "--n-grid", "2..20000", "--format", "csv"]
        child = subprocess.Popen(
            [sys.executable, "-m", "hsiclab.cli", *argv], cwd=tmp_path, env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
        )
        head = child.stdout.read(100)
        child.stdout.close()
        stderr = child.stderr.read().decode()
        child.stderr.close()
        assert child.wait(timeout=120) == 2
        assert head.startswith(b"n,rho,")
        assert stderr == "error: cannot write stdout: [Errno 32] Broken pipe\n"


class TestWithoutScipy:
    def test_every_subcommand_runs_with_numpy_alone(self, tmp_path):
        # a None entry makes any import of scipy raise ImportError
        script = (
            "import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import numpy as np\n"
            "import hsiclab\n"
            "from hsiclab.cli import main\n"
            "np.savetxt('data.csv', np.random.default_rng(0).normal(size=(12, 2)), delimiter=',')\n"
            "nystrom = ['--est', 'nystrom', '--landmarks', '4']\n"
            "runs = [\n"
            "    ['certify', '--blocks', '1,1', '--n-grid', '2..20', '--output', 'c.json'],\n"
            "    ['analytic', '--blocks', '1,1', '--rho', '0.5'],\n"
            "    ['estimate', '--blocks', '1,1', '--input', 'data.csv', '--est', 'v', '--est', 'u', *nystrom],\n"
            "    ['minimax', '--blocks', '1,1', '--n-grid', '8,16,32', '--reps', '2', '--est', 'v', '--est', 'u', *nystrom],\n"
            "]\n"
            "codes = [main(argv) for argv in runs]\n"
            "loaded = sorted(name for name in sys.modules if name.partition('.')[0] == 'scipy')\n"
            "print(json.dumps({'codes': codes, 'loaded': loaded, 'blocked': sys.modules['scipy'] is None}))\n"
        )
        child = run_fresh(["-c", script], tmp_path)
        assert child.returncode == 0, child.stderr
        result = json.loads(child.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0, 0, 0], "loaded": ["scipy"], "blocked": True}


class TestReadme:
    def test_library_tour_runs_as_written(self, capsys):
        # the one python block of the README, with any warning an error
        path = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(path, encoding="utf-8") as handle:
            (tour,) = re.findall(r"^```python\n(.*?)^```$", handle.read(), re.S | re.M)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            exec(compile(tour, "README.md", "exec"), {"__name__": "readme"})
        assert capsys.readouterr().out.splitlines()[-1] == "0.10471529247895256"


class TestLibraryShape:
    HEAVY = (
        "scipy", "numpy.ma", "decimal", "fractions", "statistics", "multiprocessing", "subprocess", "importlib.metadata",
        "concurrent.futures", "logging",
    )

    def heavy_modules(self, added):
        return [name for name in added if any(name == h or name.startswith(h + ".") for h in self.HEAVY)]

    def test_no_module_reads_another_modules_private_names(self):
        # neither "from .x import _name" nor "x._name" on a module of the package
        src = os.path.dirname(cli.__file__)
        found = []
        for filename in sorted(os.listdir(src)):
            if not filename.endswith(".py"):
                continue
            with open(os.path.join(src, filename), encoding="utf-8") as handle:
                tree = ast.parse(handle.read(), filename)
            modules = set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("hsiclab")):
                    package = (node.level == 1 and not node.module) or node.module == "hsiclab"
                    for alias in node.names:
                        if alias.name.startswith("_") and not alias.name.startswith("__"):
                            found.append(f"{filename}:{node.lineno} imports {alias.name}")
                        elif package:
                            modules.add(alias.asname or alias.name)
                elif isinstance(node, ast.Import):
                    for alias in node.names:
                        if alias.name.startswith("hsiclab."):
                            modules.add(alias.asname or alias.name.split(".")[0])
            for node in ast.walk(tree):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                ):
                    found.append(f"{filename}:{node.lineno} reads {node.value.id}.{node.attr}")
        assert found == []

    def test_cli_import_loads_no_heavy_module(self, tmp_path):
        # what importing the command line adds to a bare numpy import costs
        # every run's start-up; none of these is needed
        script = (
            "import json, sys\n"
            "import numpy\n"
            "before = set(sys.modules)\n"
            "import hsiclab.cli\n"
            "print(json.dumps(sorted(set(sys.modules) - before)))\n"
        )
        child = run_fresh(["-c", script], tmp_path)
        assert child.returncode == 0, child.stderr
        added = json.loads(child.stdout)
        assert "hsiclab.cli" in added
        assert self.heavy_modules(added) == []

    def test_minimax_run_loads_no_heavy_module(self, tmp_path):
        # a module a run imports stays resident: numpy.ma alone, which
        # np.unique imports, raised the benchmark's peak RSS by 4 MB
        script = (
            "import json, sys\n"
            "from hsiclab.cli import main\n"
            "before = set(sys.modules)\n"
            "code = main(['minimax', '--blocks', '2,2', '--n-grid', '8,16,32', '--reps', '2', '--est', 'v',"
            " '--est', 'u', '--est', 'nystrom', '--landmarks', '4'])\n"
            "print(json.dumps([code, sorted(set(sys.modules) - before)]))\n"
        )
        child = run_fresh(["-c", script], tmp_path)
        assert child.returncode == 0, child.stderr
        code, added = json.loads(child.stdout.splitlines()[-1])
        assert code == 0
        assert self.heavy_modules(added) == []


class TestCsvDocuments:
    def test_bytes_are_what_the_csv_module_writes(self, tmp_path, two_col_csv, monkeypatch):
        # the cells that hold a comma are quoted and no other cell is; an
        # analytic covariance file leaves the rho cell empty
        monkeypatch.chdir(tmp_path)
        write_csv(tmp_path / "cov.csv", [[1.0, 0.3], [0.3, 1.0]])
        landmarks = ["--est", "nystrom", "--landmarks", "4"]
        runs = {
            "e.csv": ["estimate", "--blocks", "1,1", "--input", str(two_col_csv), "--est", "v", *landmarks, "--gamma", "0.5", "--gamma", "2"],
            "a.csv": ["analytic", "--blocks", "1,1", "--input", "cov.csv"],
            "c.csv": ["certify", "--blocks", "3,1,2", "--n-grid", "2..50"],
        }
        for name, argv in runs.items():
            assert main([*argv, "--format", "csv", "--output", name]) == 0
        assert main(["minimax", "--blocks", "1,1", "--n-grid", "8,16,32", "--reps", "2", *landmarks, "--output", "m"]) == 0
        for name in (*runs, "m.csv"):
            text = (tmp_path / name).read_text()
            rewritten = io.StringIO()
            csv.writer(rewritten, lineterminator="\n").writerows(csv.reader(io.StringIO(text)))
            assert rewritten.getvalue() == text, name
        assert (tmp_path / "e.csv").read_text().splitlines()[1].endswith(',12,2,"1,1","0.5,2.0",0')
        assert (tmp_path / "a.csv").read_text().splitlines()[1].startswith('"1,1",1.0,,')

    def test_rows_of_several_blocks_are_what_the_csv_module_writes(self, tmp_path, capsys):
        # three full row blocks and one row more, against csv.writer of the
        # rows of the JSON document
        base = ["certify", "--blocks", "3,1,2", "--n-grid", f"2..{3 * cli.CSV_BLOCK_ROWS + 2}", "--output"]
        assert main([*base, str(tmp_path / "c.csv"), "--format", "csv"]) == 0
        assert main([*base, str(tmp_path / "c.json")]) == 0
        rows = json.loads((tmp_path / "c.json").read_text())["rows"]
        assert len(rows) == 3 * cli.CSV_BLOCK_ROWS + 1
        expected = io.StringIO()
        writer = csv.writer(expected, lineterminator="\n")
        writer.writerow(cli.CERTIFY_CSV_COLUMNS)
        writer.writerows([row[key] for key in cli.CERTIFY_CSV_COLUMNS] for row in rows)
        assert (tmp_path / "c.csv").read_text() == expected.getvalue()

    def test_certify_csv_holds_neither_document_nor_draw_whole(self, tmp_path, capsys):
        # the part-(ii) integrand and its deviations are the largest arrays:
        # 1.6 MB each
        argv = ["certify", "--blocks", "3,1,2", "--n-grid", "2..5000", "--format", "csv", "--output", str(tmp_path / "c.csv")]
        tracemalloc.start()
        try:
            code = main(argv)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 5_000_000

    @pytest.mark.parametrize("column", [[1.0, math.nan], np.array([0.5, -math.inf]), (2.0, math.inf)])
    def test_a_float_column_that_is_not_finite_is_refused_at_the_call(self, column):
        # before any text is made, as JSON refuses it
        with pytest.raises(cli.CliError) as info:
            cli._csv_blocks(("name", "value"), [["a", "b"], column])
        assert info.value.code == 2
        assert str(info.value) == f"cannot write CSV: column value holds {float(column[1])!r}"

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
    def test_estimate_csv_that_is_not_finite_exits_two(self, tmp_path, capsys, to_file):
        # at gamma = 5e-324 the lags of |x| near 1e154 overflow and V reads
        # nan; the overflow warnings on the way are a known open defect
        write_csv(tmp_path / "d.csv", [[1e154, 0], [-1e154, 1], [0, 2], [3e153, 0.5]])
        argv = ["estimate", "--blocks", "1,1", "--gamma", "5e-324", "--format", "csv", "--input", str(tmp_path / "d.csv")]
        argv += ["--output", str(tmp_path / "e.csv")] if to_file else []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: cannot write CSV: column value holds nan\n")
        assert not (tmp_path / "e.csv").exists()


class TestDatasetRoundTrip:
    def test_identical_estimates_after_round_trip(self, tmp_path):
        rng = np.random.default_rng(33)
        ds = Dataset(rng.normal(size=(40, 2)), B11)
        path = tmp_path / "round.csv"
        write_dataset(str(path), ds)
        back = read_dataset(str(path), B11)
        assert np.array_equal(back.values, ds.values)
        pk = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0)
        assert hsic_v(pk, back) == hsic_v(pk, ds)
