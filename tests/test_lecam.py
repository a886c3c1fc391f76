import contextlib
import io
import json
import math
import os
import signal
import subprocess
import sys
import threading
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from hsiclab import (
    DEFAULT_N_GRID,
    BlockStructure,
    Estimator,
    ExperimentConfig,
    KernelFamily,
    ProductKernel,
    adversarial_hsic2,
    build_pair,
    hsic2_gaussian,
    hsic_nystrom,
    hsic_u,
    hsic_v,
    kl_adversarial_bound,
    kl_adversarial_exact,
    lecam_bound,
    minimax_constant,
    rate_fit,
    run_experiment,
    sample,
    verify_gap_partii,
)
from hsiclab import estimators, lecam
from hsiclab.cli import main as cli_main
from hsiclab import rng as rnglib
from hsiclab.estimators import stack_size
from hsiclab.kernels import LagTiles
from hsiclab.lecam import certificate_table

from helpers import adversarial_terms

B11 = BlockStructure((1, 1))


class TestBuildPair:
    def test_worked_values_at_n_two(self):
        null, alt = build_pair(2, B11)
        assert np.allclose(alt.mean, np.full(2, 1.0 / (2.0 * math.sqrt(2.0))), atol=1e-15)
        assert alt.cov[0, 1] == alt.cov[1, 0] == 1.0 / math.sqrt(2.0)
        assert np.array_equal(null.mean, np.zeros(2))
        assert np.array_equal(null.cov, np.eye(2))

    def test_budget_one_hundred(self):
        _, alt = build_pair(100, B11)
        rho = alt.cov[0, 1]
        assert rho == pytest.approx(0.1, rel=1e-15, abs=0.0)
        kl = kl_adversarial_exact(100, rho)
        assert kl == pytest.approx(0.005 + 50.0 * math.log(1.0 / 0.99), rel=1e-12, abs=0.0)
        assert kl <= 1.25

    def test_null_distribution_is_independent(self):
        null, _ = build_pair(32, B11)
        assert hsic2_gaussian(null, B11, 1.0).value == 0.0

    def test_rejects_budget_below_two(self):
        with pytest.raises(ValueError):
            build_pair(1, B11)


def risk_at(est, n, reps, seed, block=B11):
    """The risk columns of one estimator from a one-budget run, as one
    float each; the simulation there is seeded with rng.derive(seed, "risk", n)."""
    config = ExperimentConfig(gamma=1.0, block=block, n_grid=(n,), estimators=(est,), reps=reps, seed=seed)
    return {key: value for key, (value,) in run_experiment(config).risks[est.name].items()}


class TestRiskSim:
    def test_minimal_replicates_are_legal(self):
        result = risk_at(Estimator("v", "v"), 16, 2, 7)
        assert math.isfinite(result["rmse_null"]) and math.isfinite(result["rmse_alt"])
        assert 0.0 <= result["exceed_prob"] <= 1.0
        assert result["sup_risk"] == max(result["rmse_null"], result["rmse_alt"])

    def test_null_error_equals_estimate(self):
        n, reps, seed = 16, 3, 99
        null, _ = build_pair(n, B11)
        result = risk_at(Estimator("v", "v"), n, reps, seed)
        pk = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0)
        risk_seed = rnglib.derive(seed, "risk", n)
        manual = []
        for r in range(reps):
            ds = sample(null, n, rnglib.derive(risk_seed, "null", r), B11)
            manual.append(math.sqrt(max(0.0, hsic_v(pk, ds))))
        # the null's true HSIC is 0, so each error is the estimate itself
        manual = np.array(manual)
        assert result["rmse_null"] == pytest.approx(float(np.sqrt(np.mean(manual * manual))), abs=1e-15)

    def test_estimator_validation(self):
        with pytest.raises(ValueError):
            Estimator("bad", "w")
        with pytest.raises(ValueError):
            Estimator("ny", "nystrom")  # missing landmarks
        with pytest.raises(ValueError):
            Estimator("v", "v", landmarks=4)
        with pytest.raises(ValueError):
            risk_at(Estimator("ny", "nystrom", landmarks=16), 8, 2, 0)  # > n
        with pytest.raises(ValueError):
            risk_at(Estimator("v", "v"), 8, 1, 0)
        with pytest.raises(ValueError):
            risk_at(Estimator("u", "u"), 8, 2, 0, block=BlockStructure((1, 1, 1)))

    def test_nystrom_kind_runs(self):
        result = risk_at(Estimator("ny", "nystrom", landmarks=8), 16, 2, 3)
        assert math.isfinite(result["sup_risk"])


class TestHarnessEqualsLibrary:
    """The harness stacks replicates through the estimators; replicate by
    replicate it sees the datasets and landmark sets, and gives the
    statistics, of the library called on each dataset alone."""

    @pytest.mark.parametrize("n", [8, 65, 256])
    def test_replicate_by_replicate(self, monkeypatch, n):
        self.check_replicates(monkeypatch, n)

    def test_replicate_by_replicate_across_key_chunks(self, monkeypatch):
        # 9 replicates keyed 3 at a time: each landmark stream family must
        # read every seed itself, or block 0 and block 1 of one replicate
        # would come from different replicates' seeds
        monkeypatch.setattr(rnglib, "_KEY_CHUNK", 3)
        self.check_replicates(monkeypatch, 8)

    def test_replicate_by_replicate_across_tile_stacks(self, monkeypatch):
        # 40 replicates at n = 256 go in chunks of one Nystrom stack, 16,
        # each of which the tile pass splits into stacks of 4
        chunks = self.check_replicates(monkeypatch, 256, reps=40)
        assert [len(values) for values in chunks] == [16, 16, 8] * 2
        assert stack_size(256) == 4

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
    @pytest.mark.parametrize("n", [2048, 3000])
    def test_lane_stacks_replicate_by_replicate(self, monkeypatch, n, dims, workers):
        # from THREAD_MIN_N on the tile pass runs in lanes: 3 replicates at
        # n = 2048 go in a lane stack of two and a short one, at n = 3000
        # one at a time, on one or on two lane workers; both distributions
        # run in this process, where the calls are recorded
        block = BlockStructure(dims)
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: workers)
        monkeypatch.setattr(lecam, "in_two_processes", lambda run, units: {})
        tile_pass, stacks, chunks = estimators._tile_pass, [], []
        real_stats = lecam.block_stats_batch

        def recording_pass(pk, values, in_line):
            stacks.append(len(values))
            return tile_pass(pk, values, in_line)

        def stats_batch(pk, values, *args):
            out = real_stats(pk, values, *args)
            chunks.append((values, out))
            return out

        monkeypatch.setattr(estimators, "_tile_pass", recording_pass)
        monkeypatch.setattr(lecam, "block_stats_batch", stats_batch)
        reps, seed = 3, 5
        vu = (Estimator("v", "v"), Estimator("u", "u"))
        config = ExperimentConfig(gamma=1.0, block=block, n_grid=(n,), estimators=vu, reps=reps, seed=seed)
        risks = run_experiment(config).risks
        assert stacks == {2048: [2, 1], 3000: [1, 1, 1]}[n] * 2
        risk_seed = rnglib.derive(seed, "risk", n)
        null, alt = build_pair(n, block)
        datasets = [ds for values, _ in chunks for ds in values]
        v_stats = [v for _, stats in chunks for v in stats.v_statistic()]
        u_stats = [u for _, stats in chunks for u in stats.u_statistic()]
        labelled = [(label, measure, r) for label, measure in (("null", null), ("alt", alt)) for r in range(reps)]
        assert len(datasets) == len(labelled)
        errors = {"v": [], "u": []}
        for (label, measure, r), ds, v, u in zip(labelled, datasets, v_stats, u_stats):
            alone = sample(measure, n, rnglib.derive(risk_seed, label, r), block)
            assert np.array_equal(ds, alone.values)
            assert v.hex() == hsic_v(pk, alone).hex()
            assert u.hex() == hsic_u(pk, alone).hex()
            true_hsic = hsic2_gaussian(measure, block, 1.0).hsic
            errors["v"].append(abs(math.sqrt(max(0.0, v)) - true_hsic))
            errors["u"].append(abs(math.sqrt(max(0.0, u)) - true_hsic))
        # each distribution's risks are its own, whichever unit ran it
        for name, err in errors.items():
            null_err, alt_err = np.array(err[:reps]), np.array(err[reps:])
            assert risks[name]["rmse_null"] == [float(np.sqrt(np.mean(null_err * null_err)))]
            assert risks[name]["rmse_alt"] == [float(np.sqrt(np.mean(alt_err * alt_err)))]

    def check_replicates(self, monkeypatch, n, reps=9):
        block = BlockStructure((2, 2))
        pk = ProductKernel.homogeneous(block, KernelFamily.GAUSSIAN, 1.0)
        seed, landmarks = 17, 4
        calls = {"stats": [], "nystrom": []}
        real_stats, real_nystrom = lecam.block_stats_batch, lecam.hsic_nystrom_batch

        def stats_batch(pk, values, *args):
            out = real_stats(pk, values, *args)
            calls["stats"].append((values, out))
            return out

        def nystrom_batch(pk, values, picks):
            out = real_nystrom(pk, values, picks)
            calls["nystrom"].append((values, picks, out))
            return out

        monkeypatch.setattr(lecam, "block_stats_batch", stats_batch)
        monkeypatch.setattr(lecam, "hsic_nystrom_batch", nystrom_batch)
        estimators = (Estimator("v", "v"), Estimator("u", "u"), Estimator("ny", "nystrom", landmarks=landmarks))
        config = ExperimentConfig(gamma=1.0, block=block, n_grid=(n,), estimators=estimators, reps=reps, seed=seed)
        risks = run_experiment(config).risks
        risk_seed = rnglib.derive(seed, "risk", n)
        null, alt = build_pair(n, block)

        # a stack holds more than one replicate, and both kinds see the same stacks
        assert max(len(values) for values, _ in calls["stats"]) > 1
        assert len(calls["stats"]) == len(calls["nystrom"])
        assert all(a is b for (a, _), (b, _, _) in zip(calls["stats"], calls["nystrom"]))
        datasets = [ds for chunk, _ in calls["stats"] for ds in chunk]
        v_stats = [v for _, chunk in calls["stats"] for v in chunk.v_statistic()]
        u_stats = [u for _, chunk in calls["stats"] for u in chunk.u_statistic()]
        picks = [p for _, chunk, _ in calls["nystrom"] for p in chunk]
        nystrom = [v for _, _, chunk in calls["nystrom"] for v in chunk]
        assert len(datasets) == len(v_stats) == len(u_stats) == len(picks) == len(nystrom) == 2 * reps
        labelled = [(label, measure, r) for label, measure in (("null", null), ("alt", alt)) for r in range(reps)]
        errors = {"v": [], "u": []}
        for (label, measure, r), ds, v, u, rows, ny in zip(labelled, datasets, v_stats, u_stats, picks, nystrom):
            alone = sample(measure, n, rnglib.derive(risk_seed, label, r), block)
            assert np.array_equal(ds, alone.values)
            assert v.hex() == hsic_v(pk, alone).hex()
            assert u.hex() == hsic_u(pk, alone).hex()
            nystrom_seed = rnglib.derive(risk_seed, label, r, "nystrom")
            for m in range(2):
                expected_rows = rnglib.stream(nystrom_seed, "landmarks", m).choice(n, size=landmarks, replace=False)
                assert np.array_equal(rows[m], expected_rows)
            assert ny.hex() == hsic_nystrom(pk, alone, landmarks, nystrom_seed).hex()
            true_hsic = hsic2_gaussian(measure, block, 1.0).hsic
            errors["v"].append(abs(math.sqrt(max(0.0, hsic_v(pk, alone))) - true_hsic))
            errors["u"].append(abs(math.sqrt(max(0.0, hsic_u(pk, alone))) - true_hsic))
        # the reported risks are those of the library's values
        for name, err in errors.items():
            null, alt = np.array(err[:reps]), np.array(err[reps:])
            assert risks[name]["rmse_null"] == [float(np.sqrt(np.mean(null * null)))]
            assert risks[name]["rmse_alt"] == [float(np.sqrt(np.mean(alt * alt)))]
        return [values for values, _ in calls["stats"]]


class TestRateFit:
    def test_exact_inverse_root_power_law(self):
        ns = np.array([64, 128, 256, 512])
        fit = rate_fit(ns, 3.0 / np.sqrt(ns))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10, abs=0.0)

    def test_exact_inverse_power_law(self):
        ns = np.array([10, 100, 1000])
        fit = rate_fit(ns, 7.0 / ns)
        assert fit.slope == pytest.approx(-1.0, abs=1e-12)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            rate_fit([10, 100], [1.0, 0.1])
        with pytest.raises(ValueError):
            rate_fit([10, 100, 1000], [1.0, 0.0, 0.1])
        with pytest.raises(ValueError):
            rate_fit([10, 100, 1000], [1.0, 0.1])
        # three points through two distinct budgets fit a line exactly
        with pytest.raises(ValueError, match="^rate fit needs ≥ 3 distinct grid points$"):
            rate_fit([8, 8, 16], [0.3, 0.2, 0.1])


class TestRunExperiment:
    CONFIG = ExperimentConfig(
        gamma=1.0,
        block=B11,
        n_grid=(16, 32, 64),
        estimators=(Estimator("v", "v"), Estimator("ny", "nystrom", landmarks=8)),
        reps=3,
        seed=11,
    )

    def test_deterministic_reports(self):
        a = run_experiment(self.CONFIG)
        b = run_experiment(self.CONFIG)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(b.to_dict(), sort_keys=True)

    def test_report_structure_and_certificates(self):
        report = run_experiment(self.CONFIG)
        assert list(report.risks) == ["v", "ny"]
        for columns in (report.columns, *report.risks.values()):
            assert all(len(column) == 3 and all(type(v) is float for v in column) for column in columns.values())
        assert report.certificates == {"kl_budget": True, "hsic_gap": True}
        assert report.lecam_value == pytest.approx(lecam_bound(1.25), abs=1e-15)
        assert set(report.rate_fits) <= {"v", "ny"}
        cols = report.columns
        for i in range(3):
            assert cols["kl_exact"][i] <= cols["kl_bound"][i] <= 1.25
            assert cols["analytic_gap"][i] >= cols["gap_floor"][i]

    def test_empty_estimator_list_gives_analytic_report(self):
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=(4, 8, 16), reps=2, seed=0)
        report = run_experiment(config)
        assert report.rate_fits == {}
        assert report.risks == {}
        assert all(record["sup_risk"] == {} for record in report.to_dict()["records"])
        assert all(report.certificates.values())

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(), reps=2))
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(1, 4, 8), reps=2))
        # a repeated budget is refused before any replicate is drawn
        for n_grid in ((8, 8, 16), (8, 16, 8, 32)):
            config = ExperimentConfig(gamma=1.0, block=B11, n_grid=n_grid, estimators=(Estimator("v", "v"),), reps=2)
            with pytest.raises(ValueError, match="grid budgets must be distinct, got 8 more than once"):
                run_experiment(config)
        # two budgets give no rate fit
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=(8, 16), estimators=(Estimator("v", "v"),), reps=2)
        assert run_experiment(config).rate_fits == {}

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ExperimentConfig(gamma=1.0, block=B11, n_grid=(8.5, 16, 32)),
            lambda: ExperimentConfig(gamma=1.0, block=B11, n_grid=(8, 16, 32), reps=2.5),
            lambda: Estimator("ny", "nystrom", landmarks=2.5),
            lambda: build_pair(8.5, B11),
            lambda: BlockStructure((1.5, 1)),
        ],
        ids=["n_grid", "reps", "landmarks", "pair", "block-dims"],
    )
    def test_counts_that_are_not_integers_are_refused(self, build):
        # 8.5 of a count is refused, never truncated to 8 or left to fail later
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_numpy_and_whole_float_counts_are_written_as_plain_ints(self):
        est = Estimator("ny", "nystrom", landmarks=np.int64(4))
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=(np.int32(8), 16.0, 32), estimators=(est,), reps=np.int64(2))
        written = run_experiment(config).to_dict()["config"]
        assert (written["n_grid"], written["reps"], written["estimators"][0]["landmarks"]) == ([8, 16, 32], 2, 4)
        assert all(type(v) is int for v in (*written["n_grid"], written["reps"], written["estimators"][0]["landmarks"]))
        json.dumps(written)


# the gamma x blocks combinations of the benchmark's certify sweep, and
# bandwidths far on either side of them
SWEEP_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
SWEEP_BLOCKS = ((1, 1), (2, 2), (3, 1, 2), (4, 4))
EDGE_GAMMAS = (1e-6, 1e-3, 1e6)
# log-spaced budgets from 2 to 2^53, the largest the CLI accepts
LOG_GRID = tuple(int(v) for v in np.unique(np.geomspace(2, 2**53, 400).round()))


def _math_hsic2(gamma, d, rho):
    """Adversarial HSIC^2 from its three terms, evaluated with math alone."""
    t1, t2, t3 = adversarial_terms(gamma, d, rho)
    return t1 + t2 - 2.0 * t3


def _decimal_margins(gamma, d, n):
    """hsic2, hsic2 - (2c)^2/n and kl_bound - kl_exact at budget n, from
    their definitions in 200-digit decimals.  With u = (gamma/z)^2/n, the
    terms of hsic2 cancel down to about u^2 relative, and u reaches 1e-28
    on this grid: 60 digits would leave rounding of their own."""
    with localcontext() as ctx:
        ctx.prec = 200
        g, x = Decimal(gamma), 1 / Decimal(n)
        z = 2 * g + 1
        u = (g / z) ** 2 * x
        scale = 1 / z.sqrt() ** d
        hsic2 = scale * (1 / (1 - 4 * u).sqrt() + 1 - 2 / (1 - u).sqrt())
        # (2c)^2 = gamma^2 z^(-d/2 - 2), so (2c)^2 / n = scale * u
        kl_margin = n * (x / (1 - x) + (1 - x).ln()) / 2
        return float(hsic2), float(hsic2 - scale * u), float(kl_margin)


class TestCertificateTable:
    @pytest.mark.parametrize("dims", SWEEP_BLOCKS)
    def test_columns_match_scalar_closed_forms(self, dims):
        block = BlockStructure(dims)
        d = block.total
        grid = range(2, 5001)
        for gamma in SWEEP_GAMMAS:
            estimate, se = verify_gap_partii(gamma, block, 2_000, 5)
            columns, inequalities = certificate_table(gamma, block, grid, (estimate, se))
            cols = {name: col.tolist() for name, col in columns.items()}
            low = max(0.0, estimate - 4.0 * se)
            c = minimax_constant(gamma, d)
            for i, n in enumerate(grid):
                rho = 1.0 / math.sqrt(n)
                hsic2 = _math_hsic2(gamma, d, rho)
                kl_exact = 1.0 / (2 * n) + 0.5 * n * math.log(1.0 / (1.0 - rho * rho))
                kl_bound = 1.0 / (2 * n) + 0.5 * n * rho * rho / (1.0 - rho * rho)
                expected = {
                    "rho": rho,
                    "kl_exact": kl_exact,
                    "kl_bound": kl_bound,
                    "kl_budget": 1.25,
                    "hsic2": hsic2,
                    "analytic_gap": math.sqrt(hsic2),
                    "gap_floor": 2.0 * c / math.sqrt(n),
                    "partii_bound": rho * rho * low,
                    "partii_margin": hsic2 - rho * rho * low,
                    # kl_bound - kl_exact at rho^2 = 1/n, with the logarithm taken by log1p
                    "kl_margin": 0.5 * n * (1.0 / (n - 1.0) + math.log1p(-1.0 / n)),
                    # 5/4 - 1/(2n) - n/(2(n-1)) in exact rationals: 0 at n = 2
                    "budget_margin": float(Fraction(5, 4) - Fraction(1, 2 * n) - Fraction(n, 2 * (n - 1))),
                }
                for name, value in expected.items():
                    assert abs(cols[name][i] - value) <= 1e-9 * abs(value), (name, gamma, n)
                # the public scalar forms are views of the same formulas
                assert cols["kl_exact"][i] == kl_adversarial_exact(n, rho)
                assert cols["kl_bound"][i] == kl_adversarial_bound(n, rho)
                assert cols["hsic2"][i] == adversarial_hsic2(gamma, d, n)
                assert cols["analytic_gap"][i] == math.sqrt(adversarial_hsic2(gamma, d, n))
            assert [ineq.family for ineq in inequalities] == [family[0] for family in lecam.CERTIFICATE_FAMILIES]
            assert all(ineq.ok for ineq in inequalities)

    def test_inequality_rows_report_first_failure(self, monkeypatch):
        # kl_bound is 0.5646 at n = 16, 0.5317 at n = 32 and 0.5157 at n = 64
        monkeypatch.setattr(lecam, "KL_BUDGET", 0.53)
        columns, inequalities = certificate_table(1.0, B11, (64, 32, 16, 8))
        rows = {ineq.family: ineq for ineq in inequalities}
        assert list(rows) == ["kl_exact_le_bound", "kl_bound_le_budget", "gap_ge_floor"]
        assert rows["kl_exact_le_bound"].ok and rows["gap_ge_floor"].ok
        budget = rows["kl_bound_le_budget"]
        assert (budget.family, budget.margin, budget.n) == ("kl_bound_le_budget", "budget_margin", 32)
        assert not budget.ok
        # the margin is smallest at n = 8, last in the grid
        margins = columns["budget_margin"]
        assert budget.argmin_n == 8 and budget.min_margin == margins[3] < margins[2] < margins[1] < 0 < margins[0]
        assert budget.min_margin == pytest.approx(0.53 - columns["kl_bound"][3], abs=1e-15)
        assert budget.violation() == f"certificate violated at n=32: kl_bound ≤ 5/4, budget_margin={budget.min_margin!r} at n=8"
        # in increasing order the first failure is also the smallest margin
        (_, budget, _) = certificate_table(1.0, B11, (8, 16, 32, 64))[1]
        assert (budget.n, budget.argmin_n) == (8, 8)
        assert budget.violation() == f"certificate violated at n=8: kl_bound ≤ 5/4, budget_margin={budget.min_margin!r}"

    def test_rejects_bad_grids(self):
        for grid in ((), (1, 4), (4.5, 8)):
            with pytest.raises(ValueError):
                certificate_table(1.0, B11, grid)

    def test_non_finite_column_is_named_with_its_budget(self):
        # a NaN part-(ii) estimate would otherwise read as a passing
        # certificate: a NaN margin compares false both ways
        with pytest.raises(ValueError, match=r"^certificate column partii_bound is not finite at n=3 "):
            certificate_table(1.0, B11, (3, 4), (math.nan, 0.0))

    @pytest.mark.parametrize("dims", SWEEP_BLOCKS)
    def test_closed_forms_are_finite_at_any_finite_bandwidth(self, dims):
        # no z * z is formed and log z is log1p(2 gamma), so nothing
        # overflows into inf * 0
        for gamma in (1e154, 1e200, 1e308):
            columns, inequalities = certificate_table(gamma, BlockStructure(dims), (2, 3, 1000, 2**53))
            assert all(np.all(np.isfinite(column)) for column in columns.values())
            assert all(ineq.ok for ineq in inequalities)

    @pytest.mark.parametrize("dims", SWEEP_BLOCKS)
    def test_closed_forms_are_finite_at_tiny_bandwidths(self, dims):
        # 1/gamma squared overflows to inf in float64, where a Python float
        # raised OverflowError, and u is 0
        for gamma in (5e-324, 1e-310, 1e-300, 1e-200, 7.4e-155, 1e-154):
            columns, _ = certificate_table(gamma, BlockStructure(dims), (2, 3, 1000, 2**53))
            assert all(np.all(np.isfinite(column)) for column in columns.values())

    @pytest.mark.parametrize("gamma", [1e-9, 1.0, 1e6])
    def test_harness_truth_is_the_hsic2_column(self, gamma):
        # minimax scores rmse_alt against hsic2_gaussian of the alternative:
        # the general closed form, which must give the table's value
        for dims in SWEEP_BLOCKS:
            block = BlockStructure(dims)
            columns, _ = certificate_table(gamma, block, DEFAULT_N_GRID)
            truth = [hsic2_gaussian(build_pair(n, block)[1], block, gamma).value for n in DEFAULT_N_GRID]
            np.testing.assert_allclose(truth, columns["hsic2"], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("gamma", SWEEP_GAMMAS + EDGE_GAMMAS)
    def test_margins_match_a_200_digit_reference(self, gamma):
        for dims in SWEEP_BLOCKS:
            block = BlockStructure(dims)
            columns, _ = certificate_table(gamma, block, LOG_GRID)
            for i, n in enumerate(LOG_GRID):
                for name, exact in zip(("hsic2", "gap_margin", "kl_margin"), _decimal_margins(gamma, block.total, n)):
                    if abs(exact) >= 1e-300:
                        assert abs(columns[name][i] - exact) <= 1e-12 * abs(exact), (name, dims, n)

    @pytest.mark.parametrize("gamma", SWEEP_GAMMAS + EDGE_GAMMAS)
    def test_every_family_holds_up_to_the_largest_budget(self, gamma):
        # the KL and gap families are tight to first order in 1/n; compared
        # as two rounded columns they failed from n ~ 3e6 on
        grid = np.unique(np.geomspace(2, 2**53, 20_000).round()).astype(np.int64).tolist()
        for dims in SWEEP_BLOCKS:
            block = BlockStructure(dims)
            columns, inequalities = certificate_table(gamma, block, grid, verify_gap_partii(gamma, block, 2_000, 5))
            assert [ineq.family for ineq in inequalities] == [family[0] for family in lecam.CERTIFICATE_FAMILIES]
            assert all(ineq.ok for ineq in inequalities), (dims, inequalities)
            # the margins are positive but at n = 2, where 5/4 is attained
            assert columns["budget_margin"][0] == 0.0
            assert all(ineq.min_margin > 0 for ineq in inequalities if ineq.family != "kl_bound_le_budget")

    def test_report_carries_the_table_rows(self):
        report = run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(4, 8, 16), reps=2))
        columns, inequalities = certificate_table(1.0, B11, (4, 8, 16))
        assert report.inequalities == inequalities
        for name, column in columns.items():
            assert report.columns[name] == column.tolist()
        c = minimax_constant(1.0, 2)
        assert report.columns["minimax_c"] == [c] * 3
        assert report.columns["threshold"] == [c / math.sqrt(n) for n in (4, 8, 16)]


V_U_NYSTROM = (Estimator("v", "v"), Estimator("u", "u"), Estimator("ny", "nystrom", landmarks=4))
SMALL_GRID = (8, 16, 32, 64, 128, 256)


@pytest.fixture
def forks(monkeypatch):
    """The processes forked while a test runs, counted at ``os.fork``."""
    pids, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return pids


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def minimax_documents(tmp_path, argv):
    """(exit code, stdout, stderr, JSON bytes, CSV bytes) of a ``minimax``
    call, whose documents are then removed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(["minimax", *argv, "--output", str(tmp_path / "report")])
    documents = []
    for path in (tmp_path / "report.json", tmp_path / "report.csv"):
        documents.append(path.read_bytes() if path.exists() else None)
        path.unlink(missing_ok=True)
    return (code, out.getvalue(), err.getvalue(), *documents)


NULL, ALT, WHOLE = ("null",), ("alt",), lecam.DISTRIBUTIONS


class TestTwoProcesses:
    """A grid's budgets split between the calling process and one forked
    worker, below THREAD_MIN_N whole and from there on by distribution, give
    the report of one process, bit for bit."""

    @pytest.mark.parametrize("grid", [SMALL_GRID, (64, 128, 256, 512, 1024, 2048)], ids=["8-256", "64-2048"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 2)])
    def test_the_worker_changes_no_bit(self, monkeypatch, forks, dims, grid):
        self.check_one_report(monkeypatch, forks, dims, grid)

    @pytest.mark.parametrize("grid", [(1024, 2048, 3000, 4096), DEFAULT_N_GRID], ids=["1024-4096", "default"])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
    def test_lanes_in_line_change_no_bit(self, monkeypatch, forks, dims, grid):
        # from THREAD_MIN_N on each side runs its distributions' lanes in
        # line, where one process runs them on two threads
        self.check_one_report(monkeypatch, forks, dims, grid)

    def check_one_report(self, monkeypatch, forks, dims, grid):
        config = ExperimentConfig(gamma=1.0, block=BlockStructure(dims), n_grid=grid, estimators=V_U_NYSTROM, reps=3, seed=4)
        reports = {}
        for cpus in (1, 2):
            monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
            reports[cpus] = json.dumps(run_experiment(config).to_dict())
            assert len(forks) == cpus - 1
        assert reports[1] == reports[2]
        no_child_left()

    def test_cli_documents_do_not_depend_on_the_worker(self, monkeypatch, forks, tmp_path):
        argv = ["--blocks", "2,2", "--n-grid", "8,16,32,64,128,256", "--reps", "3", "--est", "v", "--est", "u"]
        argv += ["--est", "nystrom", "--landmarks", "4"]
        documents = {}
        for cpus in (1, 2):
            monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
            documents[cpus] = minimax_documents(tmp_path, argv)
        assert documents[1][0] == 0 and documents[1] == documents[2]
        assert len(forks) == 1
        no_child_left()

    def test_no_thread_starts_in_either_process(self, monkeypatch, forks, tmp_path):
        # every tile call writes its process and the live thread count to
        # one file, which both processes append to
        log = tmp_path / "tiles"
        real_tile = LagTiles.__call__

        def traced_tile(*args, **kwargs):
            with open(log, "a") as f:
                f.write(f"{os.getpid()} {threading.active_count()}\n")
            return real_tile(*args, **kwargs)

        def thread_counts():
            counts = {}
            for line in log.read_text().splitlines():
                pid, count = map(int, line.split())
                counts.setdefault(pid, set()).add(count)
            log.unlink()
            return counts

        monkeypatch.setattr(LagTiles, "__call__", traced_tile)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=(1024, 2048, 4096), estimators=V_U_NYSTROM[:2], reps=2)
        run_experiment(config)
        assert len(forks) == 1
        assert thread_counts() == {os.getpid(): {1}, forks[0]: {1}}
        no_child_left()
        # outside the split a lone call still runs lane 1 on a helper thread
        null, _ = build_pair(2048, B11)
        hsic_v(ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0), sample(null, 2048, 0, B11))
        assert 2 in thread_counts()[os.getpid()]

    def test_one_small_budget_starts_no_worker(self, monkeypatch, forks):
        # one unit alone runs here; a budget from THREAD_MIN_N on is two
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        for grid in ((256,), (256, 2048)):
            config = ExperimentConfig(gamma=1.0, block=B11, n_grid=grid, estimators=V_U_NYSTROM[:2], reps=3)
            run_experiment(config)
        assert len(forks) == 1
        no_child_left()

    def test_the_split_is_fixed_by_the_sizes(self, monkeypatch, forks):
        # largest first, each to the side with the smaller sum of n^2 per
        # distribution so far; from THREAD_MIN_N on a budget's null goes
        # first, so to the caller, and its alternative to the worker
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        cases = {
            SMALL_GRID: {(256, WHOLE)},
            (100, 2048, 500, 1000, 4096, 600, 1024): {(4096, NULL), (2048, NULL), (1024, WHOLE), (500, WHOLE), (100, WHOLE)},
            DEFAULT_N_GRID: {(4096, NULL), (2048, NULL), (1024, WHOLE)},
            (2048,): {(2048, NULL)},
            (3, 2): {(3, WHOLE)},
        }
        for sizes, mine in cases.items():
            units = lecam._split_units(sizes)
            for _ in range(2):
                ran = estimators.in_two_processes(lambda unit: (unit, os.getpid()), units)
                assert list(ran) == list(units)
                assert all(ran[unit][0] == unit for unit in units)
                assert {unit for unit in units if ran[unit][1] == os.getpid()} == mine
                assert {pid for unit, pid in ran.values() if unit not in mine} == {forks[-1]}
        assert len(forks) == 2 * len(cases)
        no_child_left()

    def test_units_are_whole_budgets_below_thread_min_n(self):
        units = lecam._split_units((4096, 64, 2048, 2047))
        assert units == {
            (4096, NULL): 4096**2,
            (4096, ALT): 4096**2,
            (64, WHOLE): 2 * 64**2,
            (2048, NULL): 2048**2,
            (2048, ALT): 2048**2,
            (2047, WHOLE): 2 * 2047**2,
        }
        assert list(units) == [(4096, NULL), (4096, ALT), (64, WHOLE), (2048, NULL), (2048, ALT), (2047, WHOLE)]

    def test_no_worker_without_a_second_cpu_or_beside_a_thread(self, monkeypatch, forks):
        calls = []
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 1)
        assert estimators.in_two_processes(calls.append, lecam._split_units(DEFAULT_N_GRID)) == {}
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        assert estimators.in_two_processes(calls.append, lecam._split_units((1024,))) == {}
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert estimators.in_two_processes(calls.append, lecam._split_units(DEFAULT_N_GRID)) == {}
        finally:
            release.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert calls == [] and forks == []


# a worker budget that returns far more than a pipe holds, and a failure at
# the calling process's budget once the worker is blocked writing it
BLOCKED_WORKER_CHILD = """
import os, sys, time
from hsiclab import cli, estimators, lecam
estimators._usable_cpus = lambda: 2
def simulate(config, n, *args):
    if n == 256:
        time.sleep(0.5)
        raise MemoryError("injected")
    return {"v": [(float(i), 0.5) for i in range(20000)]}
lecam._simulate = simulate
code = cli.main(["minimax", "--blocks", "1,1", "--n-grid", "8,16,32,64,128,256", "--reps", "2", "--est", "v"])
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    sys.exit(code)
sys.exit(99)
"""


class TestWorkerLifecycle:
    """A failure on either side of the process split, or the worker's death,
    ends the call as one process would, and leaves no process behind."""

    ARGV = ["--blocks", "2,2", "--n-grid", "8,16,32,64,128,256", "--reps", "3", "--est", "v", "--est", "nystrom"]
    ARGV += ["--landmarks", "4"]

    @pytest.fixture(autouse=True)
    def reaped(self):
        yield
        no_child_left()

    def failing_simulate(self, monkeypatch, n_failing, error, label=None):
        # fails at budget n_failing, or only where it runs distribution label
        real = lecam._simulate

        def simulate(config, n, measures, *args):
            if n == n_failing and (label is None or label in measures):
                raise error
            return real(config, n, measures, *args)

        monkeypatch.setattr(lecam, "_simulate", simulate)

    @pytest.mark.parametrize("n", [8, 128, 256], ids=["worker-first", "worker-last", "caller"])
    def test_memory_error_exits_three_with_one_line(self, monkeypatch, forks, tmp_path, n):
        # 256 is the calling process's budget, 8 to 128 the worker's
        self.failing_simulate(monkeypatch, n, MemoryError("injected"))
        self.check_one_error_line(monkeypatch, forks, tmp_path, self.ARGV)

    @pytest.mark.parametrize("label", ["alt", "null"], ids=["worker-alt-half", "caller-null-half"])
    def test_memory_error_in_a_lane_half_exits_three_with_one_line(self, monkeypatch, forks, tmp_path, label):
        # n = 2048's null half is the calling process's, its alternative
        # half the worker's (test_the_split_is_fixed_by_the_sizes); one
        # process meets either in the whole budget
        self.failing_simulate(monkeypatch, 2048, MemoryError("injected"), label)
        argv = ["--blocks", "1,1", "--n-grid", "8,16,2048", "--reps", "2", "--est", "v", "--est", "u"]
        self.check_one_error_line(monkeypatch, forks, tmp_path, argv)

    def check_one_error_line(self, monkeypatch, forks, tmp_path, argv):
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
            results[cpus] = minimax_documents(tmp_path, argv)
        assert results[1] == results[2] == (3, "", "error: out of memory: injected\n", None, None)
        assert len(forks) == 1

    def test_worker_exception_is_raised_in_the_caller(self, monkeypatch, forks):
        # raised in the worker only, so the caller does not meet it itself
        real, caller = lecam._simulate, os.getpid()

        def simulate(config, n, *args):
            if n == 64 and os.getpid() != caller:
                raise ValueError("from the worker")
            return real(config, n, *args)

        monkeypatch.setattr(lecam, "_simulate", simulate)
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=SMALL_GRID, estimators=V_U_NYSTROM[:1], reps=2)
        with pytest.raises(ValueError, match="from the worker"):
            run_experiment(config)
        assert len(forks) == 1

    def test_an_interrupt_in_the_caller_kills_the_worker(self, monkeypatch, forks):
        self.failing_simulate(monkeypatch, 256, KeyboardInterrupt())
        monkeypatch.setattr(estimators, "_usable_cpus", lambda: 2)
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=SMALL_GRID, estimators=V_U_NYSTROM[:1], reps=2)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(config)
        assert len(forks) == 1

    def test_a_caller_failure_does_not_wait_on_a_blocked_worker(self, tmp_path):
        # the worker's result exceeds the 64 KB pipe buffer, so a caller that
        # only waited for it would hang
        src = os.path.dirname(os.path.dirname(estimators.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        child = subprocess.run(
            [sys.executable, "-c", BLOCKED_WORKER_CHILD], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60
        )
        assert (child.returncode, child.stdout, child.stderr) == (3, "", "error: out of memory: injected\n")

    def test_a_killed_worker_leaves_the_report_unchanged(self, monkeypatch, forks, tmp_path):
        real, caller = lecam._simulate, os.getpid()

        def simulate(config, n, *args):
            if n == 32 and os.getpid() != caller:
                os.kill(os.getpid(), signal.SIGKILL)
            return real(config, n, *args)

        monkeypatch.setattr(lecam, "_simulate", simulate)
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr(estimators, "_usable_cpus", lambda: cpus)
            results[cpus] = minimax_documents(tmp_path, self.ARGV)
        assert results[1][0] == 0 and results[1] == results[2]
        assert len(forks) == 1
