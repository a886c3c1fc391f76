"""Acceptance checklist: the headline numerical guarantees of the library,
each checked at a fixed tolerance, one printed line per criterion.

Run ``pytest -s tests/test_acceptance.py`` to see the checklist inline; the
heavy rate-reproduction run (criterion 7) is shared by a module-scoped
fixture and takes a few minutes.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from hsiclab import (
    BlockStructure,
    Dataset,
    Estimator,
    ExperimentConfig,
    GaussianMeasure,
    KernelFamily,
    KernelSpec,
    ProductKernel,
    adversarial_hsic2,
    gap_constant_partii,
    hsic2_gaussian,
    hsic_nystrom,
    hsic_u,
    hsic_v,
    kl_adversarial_bound,
    kl_adversarial_exact,
    lecam_bound,
    make_adversarial_cov,
    minimax_constant,
    mmd2_gaussian,
    mmd2_spectral,
    run_experiment,
    sample,
    verify_gap_partii,
)
from hsiclab import rng as rnglib
from hsiclab.lecam import certificate_table
from helpers import critical_slope, f_c, mmd_v, product_gram, random_spd, trace_form_hsic_v

B11 = BlockStructure((1, 1))
PK11 = ProductKernel.homogeneous(B11, KernelFamily.GAUSSIAN, 1.0)
GAUSS1 = KernelSpec(KernelFamily.GAUSSIAN, 1.0)

# hand-expanded determinants for gamma=1, blocks=(1,1), rho=0.6
ANALYTIC_HSIC2_RHO06 = 7.56**-0.5 + 9**-0.5 - 2 * 8.64**-0.5


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def alt_measure(rho=0.6):
    return GaussianMeasure(np.zeros(2), make_adversarial_cov(B11, rho))


@pytest.fixture(scope="module")
def rate_experiment():
    config = ExperimentConfig(
        gamma=1.0,
        block=B11,
        n_grid=(64, 128, 256, 512, 1024, 2048, 4096),
        estimators=(Estimator("v", "v"), Estimator("u", "u")),
        reps=200,
        seed=20_240_817,
    )
    start = time.monotonic()
    exp_report = run_experiment(config)
    elapsed = time.monotonic() - start
    return exp_report, elapsed


def test_criterion_01_analytic_oracle_and_v_statistic():
    start = time.monotonic()
    dec = hsic2_gaussian(alt_measure(0.6), B11, 1.0)
    oracle_ok = (
        abs(dec.value - ANALYTIC_HSIC2_RHO06) < 1e-12
        and abs(dec.value - 0.016615) < 1.5e-6
    )
    n, seeds = 2000, 50
    v_values = np.empty(seeds)
    u_values = np.empty(seeds)
    for s in range(seeds):
        ds = sample(alt_measure(0.6), n, rnglib.derive(1101, s), B11)
        v_values[s] = hsic_v(PK11, ds)
        u_values[s] = hsic_u(PK11, ds)
    mean_v = v_values.mean()
    se = u_values.std(ddof=1) / math.sqrt(seeds)
    # the U-statistic is exactly unbiased, so the paired V-U average is an
    # exact estimate of the O(1/n) V-statistic bias on the same draws
    bias = abs(float(np.mean(v_values - u_values)))
    gap = abs(mean_v - ANALYTIC_HSIC2_RHO06)
    elapsed = time.monotonic() - start
    report(
        1,
        oracle_ok and gap <= bias + 3 * se and elapsed < 60,
        f"analytic={dec.value:.9f}, mean V={mean_v:.9f}, |gap|={gap:.2e} "
        f"<= bias {bias:.2e} + 3SE {3 * se:.2e}, {elapsed:.1f}s < 60s",
    )


def test_criterion_02_kl_budget_chain():
    start = time.monotonic()
    worst = 0.0
    ok = True
    for n in range(2, 10_001):
        rho = 1.0 / math.sqrt(n)
        exact = kl_adversarial_exact(n, rho)
        bound = kl_adversarial_bound(n, rho)
        ok &= exact <= bound <= 1.25
        worst = max(worst, exact)
    k2 = kl_adversarial_exact(2, 1.0 / math.sqrt(2.0))
    target = 0.25 + math.log(2.0)
    value_ok = abs(k2 - target) <= 1e-10 * target
    elapsed = time.monotonic() - start
    report(
        2,
        ok and value_ok and elapsed < 1.0,
        f"exact<=bound<=5/4 for n in 2..10^4 (max exact {worst:.6f}), "
        f"kl_exact(2)={k2:.12f} vs {target:.12f}, {elapsed:.2f}s < 1s",
    )


def test_criterion_03_gap_certificate():
    start = time.monotonic()
    ok = True
    for gamma in (0.5, 1.0, 2.0):
        for d in (2, 3, 4):
            c = minimax_constant(gamma, d)
            for n in range(1, 10_001):
                if math.sqrt(adversarial_hsic2(gamma, d, n)) < 2.0 * c / math.sqrt(n):
                    ok = False
    spot = math.sqrt(adversarial_hsic2(1.0, 2, 4))
    floor = 2.0 * minimax_constant(1.0, 2) / 2.0
    spot_ok = abs(spot - 0.103744) < 5e-6 and abs(floor - 0.096225) < 5e-6 and spot >= floor
    elapsed = time.monotonic() - start
    report(
        3,
        ok and spot_ok and elapsed < 5.0,
        f"gap holds on gamma x d x n grid; spot {spot:.6f} >= {floor:.6f}, "
        f"{elapsed:.2f}s < 5s",
    )


def test_criterion_04_slope_function_certificate():
    ok = True
    for gamma in (0.5, 1.0, 2.0):
        for d in (2, 4):
            c_star = critical_slope(gamma, d)
            xs = np.arange(0.01, 1.0001, 0.01)
            values = [f_c(x, gamma, d, c_star) for x in xs]
            ok &= f_c(0.0, gamma, d, c_star) == 0.0
            ok &= all(v >= 0.0 for v in values)
            ok &= all(b - a >= -1e-12 for a, b in zip(values, values[1:]))
    report(4, ok, "f is zero at 0, nonnegative and nondecreasing on (0, 1] "
                  "for gamma in {0.5,1,2}, d in {2,4} at the critical slope")


def test_criterion_05_spectral_oracle():
    start = time.monotonic()
    g1 = GaussianMeasure.standard(1)
    g2 = GaussianMeasure(np.array([1.0]), np.eye(1))
    worked = mmd2_gaussian(g1, g2, 1.0)
    worked_ok = (
        abs(worked - (2.0 / math.sqrt(3.0)) * (1.0 - math.exp(-1.0 / 6.0))) < 1e-12
        and abs(worked - 0.177268) < 1e-6
    )
    est, se = mmd2_spectral(g1, g2, GAUSS1, 100_000, 7701)
    worked_ok &= abs(est - worked) <= 4 * se

    gen = np.random.default_rng(2024)
    pairs_ok = True
    for trial in range(20):
        d = int(gen.integers(1, 4))
        ga = GaussianMeasure(gen.normal(size=d), random_spd(gen, d))
        gb = GaussianMeasure(gen.normal(size=d), random_spd(gen, d))
        est, se = mmd2_spectral(ga, gb, GAUSS1, 100_000, rnglib.derive(7702, trial))
        pairs_ok &= abs(est - mmd2_gaussian(ga, gb, 1.0)) <= 4 * se
    elapsed = time.monotonic() - start
    report(
        5,
        worked_ok and pairs_ok and elapsed < 30,
        f"worked value {worked:.6f} reproduced; 20 random pairs within 4 SE at N=10^5, "
        f"{elapsed:.1f}s < 30s",
    )


def test_criterion_06_part_two_constant():
    start = time.monotonic()
    # independent quadrature oracle for the closed form 1/54
    density = lambda w: math.exp(-w * w / 2.0) / math.sqrt(2.0 * math.pi)
    pair_term, _ = integrate.quad(lambda w: w * w * math.exp(-w * w) * density(w), -np.inf, np.inf)
    quad_value = 0.5 * pair_term * pair_term
    quad_ok = abs(quad_value - 1.0 / 54.0) < 1e-12

    est, se = gap_constant_partii(GAUSS1, B11, 1_000_000, 661)
    mc_ok = abs(est - 1.0 / 54.0) <= 4 * se

    columns, _ = certificate_table(1.0, B11, range(4, 4097), verify_gap_partii(1.0, B11, 400_000, 662))
    margins_ok = all(margin >= 0 for margin in columns["partii_margin"])
    elapsed = time.monotonic() - start
    report(
        6,
        quad_ok and mc_ok and margins_ok and elapsed < 60,
        f"quadrature {quad_value:.9f} = 1/54; MC {est:.7f} ± {se:.1e} within 4 SE; "
        f"margins >= 0 on n in 4..4096, {elapsed:.1f}s < 60s",
    )


def test_criterion_07_rate_reproduction(rate_experiment):
    exp_report, elapsed = rate_experiment
    ok = elapsed < 300
    details = []
    for name in ("v", "u"):
        fit = exp_report.rate_fits[name]
        ok &= -0.65 <= fit.slope <= -0.35 and fit.r_squared >= 0.95
        details.append(f"{name}: slope={fit.slope:.3f}, R2={fit.r_squared:.4f}")
    report(7, ok, "; ".join(details) + f"; {elapsed:.0f}s < 300s")


def test_criterion_08_lecam_bound_value():
    value = lecam_bound(1.25)
    target = (1.0 - math.sqrt(5.0 / 8.0)) / 2.0
    other = math.exp(-1.25) / 4.0
    ok = abs(value - target) <= 1e-9 and other < value
    report(
        8,
        ok,
        f"lecam_bound(5/4)={value:.9f} matches {target:.9f}; "
        f"exp branch {other:.9f} confirmed smaller",
    )


def test_criterion_09_estimator_identities():
    gen = np.random.default_rng(99)
    trace_ok = True
    worst_rel = 0.0
    for _ in range(20):
        n = int(gen.integers(10, 201))
        ds = Dataset(gen.normal(size=(n, 2)), B11)
        v = hsic_v(PK11, ds)
        grams, _ = product_gram(PK11, ds)
        tr = trace_form_hsic_v(grams[0], grams[1])
        rel = abs(v - tr) / max(abs(tr), 1e-300)
        worst_rel = max(worst_rel, rel)
        trace_ok &= rel <= 1e-10

    nystrom_ok = True
    for seed, rho in ((1, 0.6), (2, 0.0), (3, 0.6), (4, 0.0), (5, 0.6)):
        n = 100 + 20 * seed
        g = alt_measure(rho) if rho else GaussianMeasure.standard(2)
        ds = sample(g, n, rnglib.derive(9903, seed), B11)
        value = hsic_nystrom(PK11, ds, n, rnglib.derive(9904, seed))
        target = math.sqrt(max(0.0, hsic_v(PK11, ds)))
        nystrom_ok &= abs(value - target) <= 1e-6 * target
    report(
        9,
        trace_ok and nystrom_ok,
        f"trace form within 1e-10 relative (worst {worst_rel:.2e}) on 20 datasets; "
        f"full-landmark Nystrom within 1e-6 relative on 5 datasets",
    )


def test_criterion_10_u_statistic_unbiasedness():
    reps, n = 10_000, 64
    details = []
    ok = True
    for rho in (0.0, 0.6):
        g = alt_measure(rho) if rho else GaussianMeasure.standard(2)
        truth = hsic2_gaussian(g, B11, 1.0).value
        values = np.empty(reps)
        for r in range(reps):
            values[r] = hsic_u(PK11, sample(g, n, rnglib.derive(1007, rho, r), B11))
        se = values.std(ddof=1) / math.sqrt(reps)
        gap = abs(values.mean() - truth)
        ok &= gap <= 4 * se
        details.append(f"rho={rho}: |mean-truth|={gap:.2e} <= 4SE={4 * se:.2e}")
    report(10, ok, "; ".join(details))


def test_criterion_11_invariance_suite():
    gen = np.random.default_rng(111)
    n = 20
    perm_ok = shift_ok = mean_ok = True

    for trial in range(100):
        ds = sample(alt_measure(0.6), n, rnglib.derive(1111, trial), B11)
        perm = gen.permutation(n)
        permuted = Dataset(ds.values[perm], B11)
        v0, v1 = hsic_v(PK11, ds), hsic_v(PK11, permuted)
        u0, u1 = hsic_u(PK11, ds), hsic_u(PK11, permuted)
        other = sample(GaussianMeasure.standard(2), n, rnglib.derive(1112, trial), B11)
        m0 = mmd_v(GAUSS1, ds, other)
        m1 = mmd_v(GAUSS1, permuted, other)
        perm_ok &= abs(v1 - v0) <= 1e-12 * max(1.0, abs(v0))
        perm_ok &= abs(u1 - u0) <= 1e-12 * max(1.0, abs(u0))
        perm_ok &= abs(m1 - m0) <= 1e-12 * max(1.0, abs(m0))

    for trial in range(100):
        ds = sample(alt_measure(0.6), n, rnglib.derive(1113, trial), B11)
        shift = float(gen.normal(scale=3.0))
        shifted_vals = ds.values.copy()
        shifted_vals[:, 0] += shift
        shifted = Dataset(shifted_vals, B11)
        shift_ok &= abs(hsic_v(PK11, shifted) - hsic_v(PK11, ds)) <= 1e-12
        shift_ok &= abs(hsic_u(PK11, shifted) - hsic_u(PK11, ds)) <= 1e-12

    for trial in range(100):
        mean = gen.normal(size=2, scale=5.0)
        base = hsic2_gaussian(alt_measure(0.45), B11, 1.0).value
        moved = hsic2_gaussian(
            GaussianMeasure(mean, make_adversarial_cov(B11, 0.45)), B11, 1.0
        ).value
        mean_ok &= moved == base

    report(
        11,
        perm_ok and shift_ok and mean_ok,
        "permutation (V/U/MMD, 1e-12 rel), block shift (V/U, 1e-12 abs), "
        "mean translation (exact) all hold over 100 trials each",
    )


def test_sup_risk_shrinks_across_the_grid(rate_experiment):
    exp_report, _ = rate_experiment
    for name in ("v", "u"):
        sup_risk = exp_report.risks[name]["sup_risk"]
        assert sup_risk[-1] < sup_risk[0]
    assert all(exp_report.certificates.values())
