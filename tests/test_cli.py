import json

import numpy as np
import pytest

from hsiclab import BlockStructure, Dataset, KernelFamily, ProductKernel, hsic_v
from hsiclab.cli import main, read_dataset, write_dataset

B11 = BlockStructure((1, 1))


def write_csv(path, rows):
    path.write_text("\n".join(",".join(str(v) for v in row) for row in rows) + "\n")


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

    def test_unknown_flag_exits_three(self, two_col_csv):
        with pytest.raises(SystemExit) as err:
            main(["estimate", "--input", str(two_col_csv), "--blocks", "1,1", "--bogus"])
        assert err.value.code == 3


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

    def test_requires_exactly_one_source(self):
        assert main(["analytic", "--blocks", "1,1"]) == 3


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
        assert "rate fit needs ≥ 3 grid points" in capsys.readouterr().err

    def test_laplace_kernel_rejected(self, tmp_path):
        code = main(
            [
                "minimax",
                "--blocks",
                "1,1",
                "--kernel",
                "laplace",
                "--n-grid",
                "16,32,64",
                "--output",
                str(tmp_path / "x"),
            ]
        )
        assert code == 3


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
