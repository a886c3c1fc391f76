import json
import math

import numpy as np
import pytest

from hsiclab import (
    BlockStructure,
    Estimator,
    ExperimentConfig,
    KernelFamily,
    ProductKernel,
    adversarial_hsic2,
    build_pair,
    hsic2_gaussian,
    hsic_v,
    kl_adversarial_bound,
    kl_adversarial_exact,
    lecam_bound,
    minimax_constant,
    rate_fit,
    risk_sim,
    run_experiment,
    sample,
    verify_gap_partii,
)
from hsiclab import lecam
from hsiclab import rng as rnglib
from hsiclab.lecam import certificate_table

B11 = BlockStructure((1, 1))


class TestBuildPair:
    def test_worked_values_at_n_two(self):
        pair = build_pair(2, 1.0, B11)
        assert np.allclose(pair.p1.mean, np.full(2, 1.0 / (2.0 * math.sqrt(2.0))), atol=1e-15)
        assert pair.rho == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert np.array_equal(pair.p0.mean, np.zeros(2))
        assert np.array_equal(pair.p0.cov, np.eye(2))
        assert pair.p1.cov[0, 1] == pair.rho

    def test_budget_one_hundred(self):
        pair = build_pair(100, 1.0, B11)
        assert pair.rho == pytest.approx(0.1, rel=1e-15)
        kl = kl_adversarial_exact(100, pair.rho, B11)
        assert kl == pytest.approx(0.005 + 50.0 * math.log(1.0 / 0.99), rel=1e-12)
        assert kl <= 1.25

    def test_null_distribution_is_independent(self):
        pair = build_pair(32, 1.0, B11)
        assert hsic2_gaussian(pair.p0, B11, 1.0).value == 0.0

    def test_rejects_budget_below_two(self):
        with pytest.raises(ValueError):
            build_pair(1, 1.0, B11)


class TestRiskSim:
    def test_minimal_replicates_are_legal(self):
        pair = build_pair(16, 1.0, B11)
        result = risk_sim(Estimator("v", "v"), pair, 2, 7)
        for summary in (result.null, result.alt):
            assert math.isfinite(summary.rmse)
            assert 0.0 <= summary.exceed_prob <= 1.0
        assert result.sup_risk >= max(result.null.rmse, result.alt.rmse) - 1e-15

    def test_null_error_equals_estimate(self):
        pair = build_pair(16, 1.0, B11)
        reps, seed = 3, 99
        result = risk_sim(Estimator("v", "v"), pair, reps, seed)
        pk = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0)
        manual = []
        for r in range(reps):
            ds = sample(pair.p0, pair.n, rnglib.derive(seed, "null", r), B11)
            manual.append(math.sqrt(max(0.0, hsic_v(pk, ds))))
        assert result.null.true_hsic == 0.0
        assert result.null.mean_error == pytest.approx(float(np.mean(manual)), abs=1e-15)

    def test_matches_run_experiment_records(self):
        config = ExperimentConfig(
            gamma=1.0,
            block=B11,
            n_grid=(16, 32, 64),
            estimators=(Estimator("v", "v"),),
            reps=3,
            seed=5,
        )
        report = run_experiment(config)
        for rec in report.records:
            pair = build_pair(rec.n, 1.0, B11)
            standalone = risk_sim(
                Estimator("v", "v"), pair, 3, rnglib.derive(5, "risk", rec.n)
            )
            assert standalone.sup_risk == rec.risks["v"].sup_risk
            assert standalone.null.rmse == rec.risks["v"].null.rmse

    def test_estimator_validation(self):
        pair = build_pair(8, 1.0, B11)
        with pytest.raises(ValueError):
            Estimator("bad", "w")
        with pytest.raises(ValueError):
            Estimator("ny", "nystrom")  # missing landmarks
        with pytest.raises(ValueError):
            Estimator("v", "v", landmarks=4)
        with pytest.raises(ValueError):
            risk_sim(Estimator("ny", "nystrom", landmarks=16), pair, 2, 0)  # > n
        with pytest.raises(ValueError):
            risk_sim(Estimator("v", "v"), pair, 1, 0)
        block3 = BlockStructure((1, 1, 1))
        pair3 = build_pair(8, 1.0, block3)
        with pytest.raises(ValueError):
            risk_sim(Estimator("u", "u"), pair3, 2, 0)

    def test_nystrom_kind_runs(self):
        pair = build_pair(16, 1.0, B11)
        result = risk_sim(Estimator("ny", "nystrom", landmarks=8), pair, 2, 3)
        assert math.isfinite(result.sup_risk)


class TestRateFit:
    def test_exact_inverse_root_power_law(self):
        ns = np.array([64, 128, 256, 512])
        fit = rate_fit(ns, 3.0 / np.sqrt(ns))
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(3.0, rel=1e-10)

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
        assert [rec.n for rec in report.records] == [16, 32, 64]
        assert report.certificates == {"kl_budget": True, "hsic_gap": True}
        assert report.lecam_value == pytest.approx(lecam_bound(1.25), abs=1e-15)
        assert set(report.rate_fits) <= {"v", "ny"}
        for rec in report.records:
            assert rec.kl_exact <= rec.kl_bound <= 1.25
            assert rec.analytic_gap >= rec.gap_floor

    def test_empty_estimator_list_gives_analytic_report(self):
        config = ExperimentConfig(gamma=1.0, block=B11, n_grid=(4, 8, 16), reps=2, seed=0)
        report = run_experiment(config)
        assert report.rate_fits == {}
        assert all(rec.risks == {} for rec in report.records)
        assert all(report.certificates.values())

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(), reps=2))
        with pytest.raises(ValueError):
            run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(1, 4, 8), reps=2))


# the gamma x blocks combinations of the benchmark's certify sweep
SWEEP_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
SWEEP_BLOCKS = ((1, 1), (2, 2), (3, 1, 2), (4, 4))


def _math_hsic2(gamma, d, rho):
    """Adversarial HSIC^2 from its closed form, evaluated with math alone."""
    z = 2.0 * gamma + 1.0
    t1 = (z ** (d - 2) * (z * z - (2.0 * gamma * rho) ** 2)) ** -0.5
    t3 = (z ** (d - 2) * (z * z - (gamma * rho) ** 2)) ** -0.5
    return t1 + z ** (-d / 2.0) - 2.0 * t3


class TestCertificateTable:
    @pytest.mark.parametrize("dims", SWEEP_BLOCKS)
    def test_columns_match_scalar_closed_forms(self, dims):
        block = BlockStructure(dims)
        d = block.total
        grid = range(2, 5001)
        for gamma in SWEEP_GAMMAS:
            partii = verify_gap_partii(gamma, block, grid, 2_000, 5)
            columns, inequalities = certificate_table(gamma, block, grid, partii)
            cols = {name: col.tolist() for name, col in columns.items()}
            low = max(0.0, partii.estimate - 4.0 * partii.standard_error)
            c = minimax_constant(gamma, d)
            for i, n in enumerate(grid):
                rho = 1.0 / math.sqrt(n)
                hsic2 = _math_hsic2(gamma, d, rho)
                expected = {
                    "rho": rho,
                    "kl_exact": 1.0 / (2 * n) + 0.5 * n * math.log(1.0 / (1.0 - rho * rho)),
                    "kl_bound": 1.0 / (2 * n) + 0.5 * n * rho * rho / (1.0 - rho * rho),
                    "kl_budget": 1.25,
                    "hsic2": hsic2,
                    "analytic_gap": math.sqrt(hsic2),
                    "gap_floor": 2.0 * c / math.sqrt(n),
                    "partii_bound": rho * rho * low,
                    "partii_margin": hsic2 - rho * rho * low,
                }
                for name, value in expected.items():
                    assert abs(cols[name][i] - value) <= 1e-9 * abs(value), (name, gamma, n)
                # the public scalar forms are views of the same formulas
                assert cols["kl_exact"][i] == kl_adversarial_exact(n, rho, block)
                assert cols["kl_bound"][i] == kl_adversarial_bound(n, rho)
                assert cols["hsic2"][i] == adversarial_hsic2(gamma, d, n=n).value
                assert cols["analytic_gap"][i] == adversarial_hsic2(gamma, d, n=n).hsic
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
        assert not budget.ok and budget.n == 32
        assert budget.lower_value == columns["kl_bound"][1] > budget.upper_value == 0.53
        assert budget.violation() == f"certificate violated at n=32: kl_bound={budget.lower_value!r} > kl_budget=0.53"

    def test_rejects_bad_grids(self):
        for grid in ((), (1, 4), (4.5, 8)):
            with pytest.raises(ValueError):
                certificate_table(1.0, B11, grid)
        partii = verify_gap_partii(1.0, B11, (4, 8), 100, 0)
        with pytest.raises(ValueError, match="different grid"):
            certificate_table(1.0, B11, (4, 16), partii)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow in the closed forms
    def test_non_finite_column_is_named_with_its_budget(self):
        # at gamma = 1e200 the adversarial hsic2 is NaN, which would otherwise
        # read as a failing gap certificate
        with pytest.raises(ValueError, match=r"^certificate column hsic2 is not finite at n=3 "):
            certificate_table(1e200, B11, (3, 4))

    def test_report_carries_the_table_rows(self):
        report = run_experiment(ExperimentConfig(gamma=1.0, block=B11, n_grid=(4, 8, 16), reps=2))
        columns, inequalities = certificate_table(1.0, B11, (4, 8, 16))
        assert report.inequalities == inequalities
        for i, rec in enumerate(report.records):
            assert rec.kl_exact == columns["kl_exact"][i]
            assert rec.gap_floor == columns["gap_floor"][i]
