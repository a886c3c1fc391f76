"""Two-point minimax experiment harness.

Builds the adversarial pair for each sample budget n, verifies the KL budget
and the HSIC gap, simulates the risk of concrete estimators over replicated
draws, and fits the empirical convergence rate on a log-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .analytic import adversarial_hsic2_values, hsic2_gaussian, lecam_bound, minimax_constant
from .data import BlockStructure
from .estimators import block_stats, hsic_nystrom
from .gaussian import AdversarialPair, GaussianMeasure, adversarial_kl, make_adversarial_cov, sample
from .kernels import KernelFamily, ProductKernel
from .spectral import GapCertificate

KL_BUDGET = 1.25
DEFAULT_N_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
ESTIMATOR_KINDS = ("v", "u", "nystrom")
# certificate families as (family, statement, lower column, upper column):
# each one asserts lower <= upper at every budget
CERTIFICATE_FAMILIES = (
    ("kl_exact_le_bound", "kl_exact ≤ kl_bound", "kl_exact", "kl_bound"),
    ("kl_bound_le_budget", "kl_bound ≤ 5/4", "kl_bound", "kl_budget"),
    ("gap_ge_floor", "hsic gap ≥ 2c/√n", "gap_floor", "analytic_gap"),
    ("hsic2_ge_partii", "hsic² ≥ ρ²·(part-(ii) estimate − 4 SE)", "partii_bound", "hsic2"),
)


@dataclass(frozen=True)
class Estimator:
    """One concrete estimator entering the risk simulation.

    ``kind`` selects the estimator operation; the U-statistic and the Nystrom
    estimator are defined for two blocks only, and the latter needs a landmark
    count.
    """

    name: str
    kind: str
    landmarks: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in ESTIMATOR_KINDS:
            raise ValueError(f"kind must be one of {ESTIMATOR_KINDS}, got {self.kind!r}")
        if self.kind == "nystrom":
            if self.landmarks is None or self.landmarks < 2:
                raise ValueError("nystrom estimator needs a landmark count >= 2")
        elif self.landmarks is not None:
            raise ValueError(f"landmarks only apply to the nystrom kind, not {self.kind!r}")


def build_pair(n: int, gamma: float, block: BlockStructure) -> AdversarialPair:
    """Null N(0, I_d) versus the correlated alternative with rho_n = n^{-1/2}
    and mean (1/(sqrt(d) n)) 1_d."""
    if int(n) != n or n < 2:
        raise ValueError(f"pair construction needs an integer n >= 2, got {n}")
    n = int(n)
    block.require_multiblock()
    d = block.total
    rho = 1.0 / math.sqrt(n)
    p0 = GaussianMeasure.standard(d)
    p1 = GaussianMeasure(
        np.full(d, 1.0 / (math.sqrt(d) * n)), make_adversarial_cov(block, rho)
    )
    return AdversarialPair(p0=p0, p1=p1, n=n, rho=rho, gamma=float(gamma), block=block)


@dataclass(frozen=True)
class Inequality:
    """One certificate family, ``lower <= upper`` at every budget of a grid.

    ``n`` is the first budget, in grid order, where it fails (None if it
    never does); ``lower_value`` and ``upper_value`` are the two sides there.
    """

    family: str
    statement: str
    lower: str
    upper: str
    n: int | None = None
    lower_value: float = math.nan
    upper_value: float = math.nan

    @property
    def ok(self) -> bool:
        return self.n is None

    def violation(self) -> str:
        return (
            f"certificate violated at n={self.n}: "
            f"{self.lower}={self.lower_value!r} > {self.upper}={self.upper_value!r}"
        )


def certificate_table(
    gamma: float, block: BlockStructure, n_grid, partii: GapCertificate | None = None
) -> tuple[dict[str, np.ndarray], tuple[Inequality, ...]]:
    """The two-point certificates at every budget n of the grid, from one
    vectorised pass over the closed forms: columns ``rho`` = n^{-1/2},
    ``kl_exact``, ``kl_bound``, ``kl_budget``, the adversarial ``hsic2``, its
    square root ``analytic_gap`` and the ``gap_floor`` 2c/sqrt(n) (plus
    ``partii_bound`` and ``partii_margin`` from a part-(ii) check over the
    same grid), and one ``Inequality`` per family whose columns are present.
    Raises ``ValueError`` naming the first column that is not finite.
    """
    grid = tuple(n_grid)
    n = tuple(int(v) for v in grid)
    if not n or min(n) < 2 or n != grid:
        raise ValueError("grid budgets must be integers >= 2")
    block.require_multiblock()
    c = minimax_constant(gamma, block.total)
    budgets = np.asarray(n, dtype=float)
    rho = 1.0 / np.sqrt(budgets)
    kl_exact, kl_bound = adversarial_kl(budgets, rho)
    hsic2 = adversarial_hsic2_values(gamma, block.total, rho)
    columns = {
        "rho": rho,
        "kl_exact": kl_exact,
        "kl_bound": kl_bound,
        "kl_budget": np.full(len(n), KL_BUDGET),
        "hsic2": hsic2,
        "analytic_gap": np.sqrt(np.maximum(hsic2, 0.0)),
        "gap_floor": 2.0 * c / np.sqrt(budgets),
    }
    if partii is not None:
        if not np.array_equal(partii.n, budgets):
            raise ValueError("the part-(ii) check covers a different grid")
        columns["partii_bound"] = partii.bound
        columns["partii_margin"] = partii.margin
    # a NaN compares false both ways and would read as a failing certificate
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(f"certificate column {name} is not finite at n={n[bad[0]]} (gamma={gamma!r})")
    rows = []
    for family, statement, lower, upper in CERTIFICATE_FAMILIES:
        if lower in columns:
            failing = np.flatnonzero(~(columns[lower] <= columns[upper]))
            if failing.size == 0:
                rows.append(Inequality(family, statement, lower, upper))
            else:
                i = int(failing[0])
                values = float(columns[lower][i]), float(columns[upper][i])
                rows.append(Inequality(family, statement, lower, upper, n[i], *values))
    return columns, tuple(rows)


@dataclass(frozen=True)
class DistributionRisk:
    """Risk summary of one estimator under one member of the pair."""

    label: str
    true_hsic: float
    mean_error: float
    rmse: float
    exceed_prob: float


@dataclass(frozen=True)
class RiskResult:
    """Risk of one estimator at one sample budget, worst case over the pair."""

    estimator: str
    n: int
    threshold: float
    null: DistributionRisk
    alt: DistributionRisk

    @property
    def sup_risk(self) -> float:
        return max(self.null.rmse, self.alt.rmse)

    @property
    def sup_exceed_prob(self) -> float:
        return max(self.null.exceed_prob, self.alt.exceed_prob)


def _validate_estimators(estimators: tuple[Estimator, ...], block: BlockStructure, n_min: int) -> None:
    names = [est.name for est in estimators]
    if len(set(names)) != len(names):
        raise ValueError(f"estimator names must be unique, got {names}")
    for est in estimators:
        if est.kind in ("u", "nystrom") and block.m != 2:
            raise ValueError(f"estimator {est.name!r} requires exactly 2 blocks, got {block.m}")
        if est.kind == "nystrom" and est.landmarks > n_min:
            raise ValueError(
                f"estimator {est.name!r} wants {est.landmarks} landmarks but the smallest budget is {n_min}"
            )
        if est.kind == "u" and n_min < 4:
            raise ValueError(f"estimator {est.name!r} requires n >= 4, smallest budget is {n_min}")


def _simulate(
    estimators: tuple[Estimator, ...], pair: AdversarialPair, reps: int, seed: int
) -> dict[str, RiskResult]:
    """Shared-draw risk simulation: every estimator sees the same datasets,
    and dataset streams are keyed by (seed, distribution, replicate) only, so
    single-estimator runs reproduce multi-estimator runs bit for bit."""
    if reps < 2:
        raise ValueError(f"need at least 2 replicates, got {reps}")
    _validate_estimators(estimators, pair.block, pair.n)
    pk = ProductKernel.homogeneous(pair.block, KernelFamily.GAUSSIAN, pair.gamma)
    needs_stats = any(est.kind in ("v", "u") for est in estimators)
    threshold = minimax_constant(pair.gamma, pair.block.total) / math.sqrt(pair.n)

    per_dist: dict[str, list[DistributionRisk]] = {est.name: [] for est in estimators}
    for label, measure in (("null", pair.p0), ("alt", pair.p1)):
        true_sq = hsic2_gaussian(measure, pair.block, pair.gamma).value
        true_hsic = math.sqrt(max(0.0, true_sq))
        errors = {est.name: np.empty(reps) for est in estimators}
        for r in range(reps):
            ds = sample(measure, pair.n, rng.derive(seed, label, r), pair.block)
            stats = block_stats(pk, ds) if needs_stats else None
            for est in estimators:
                if est.kind == "v":
                    est_hsic = math.sqrt(max(0.0, stats.v_statistic()))
                elif est.kind == "u":
                    est_hsic = math.sqrt(max(0.0, stats.u_statistic()))
                else:
                    est_hsic = hsic_nystrom(pk, ds, est.landmarks, rng.derive(seed, label, r, "nystrom"))
                errors[est.name][r] = abs(est_hsic - true_hsic)
        for est in estimators:
            err = errors[est.name]
            per_dist[est.name].append(
                DistributionRisk(
                    label=label,
                    true_hsic=true_hsic,
                    mean_error=float(err.mean()),
                    rmse=float(np.sqrt(np.mean(err * err))),
                    exceed_prob=float(np.mean(err >= threshold)),
                )
            )
    return {
        est.name: RiskResult(est.name, pair.n, threshold, *per_dist[est.name])
        for est in estimators
    }


def risk_sim(est: Estimator, pair: AdversarialPair, reps: int, seed: int) -> RiskResult:
    """Simulated risk of one estimator under both members of the pair.

    Errors are measured on the HSIC scale (V/U outputs pass through
    sqrt(max(0, .))); the exceedance threshold is the explicit constant over
    sqrt(n).
    """
    return _simulate((est,), pair, reps, seed)[est.name]


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float


def rate_fit(ns, risks) -> RateFit:
    """Ordinary least squares of log(risk) on log(n); the slope estimates the
    convergence-rate exponent."""
    ns = np.asarray(ns, dtype=float)
    risks = np.asarray(risks, dtype=float)
    if ns.shape != risks.shape:
        raise ValueError(f"grid and risks disagree: {ns.shape} vs {risks.shape}")
    if ns.size < 3:
        raise ValueError("rate fit needs >= 3 grid points")
    if np.any(risks <= 0):
        raise ValueError("rate fit needs strictly positive risks")
    x = np.log(ns)
    y = np.log(risks)
    slope, intercept = np.polyfit(x, y, 1)
    residual = y - (slope * x + intercept)
    total = y - y.mean()
    ss_tot = float(total @ total)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(residual @ residual) / ss_tot
    return RateFit(float(slope), float(intercept), r2)


@dataclass(frozen=True)
class ExperimentConfig:
    gamma: float
    block: BlockStructure
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    estimators: tuple[Estimator, ...] = ()
    reps: int = 200
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_grid", tuple(int(n) for n in self.n_grid))
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True, eq=False)
class PerNRecord:
    """Certificates and risks at a single sample budget."""

    n: int
    rho: float
    kl_exact: float
    kl_bound: float
    analytic_gap: float
    minimax_c: float
    gap_floor: float
    risks: dict[str, RiskResult] = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    config: ExperimentConfig
    records: tuple[PerNRecord, ...]
    rate_fits: dict[str, RateFit]
    certificates: dict[str, bool]
    inequalities: tuple[Inequality, ...]
    lecam_value: float

    def to_dict(self) -> dict:
        """JSON-ready view with a fixed layout."""
        cfg = self.config
        return {
            "config": {
                "gamma": cfg.gamma,
                "blocks": list(cfg.block.dims),
                "n_grid": list(cfg.n_grid),
                "estimators": [
                    {"name": e.name, "kind": e.kind, "landmarks": e.landmarks}
                    for e in cfg.estimators
                ],
                "reps": cfg.reps,
                "seed": cfg.seed,
            },
            "records": [
                {
                    "n": rec.n,
                    "rho": rec.rho,
                    "kl_exact": rec.kl_exact,
                    "kl_bound": rec.kl_bound,
                    "analytic_gap": rec.analytic_gap,
                    "minimax_c": rec.minimax_c,
                    "gap_floor": rec.gap_floor,
                    "sup_risk": {name: r.sup_risk for name, r in rec.risks.items()},
                    "exceed_prob": {name: r.sup_exceed_prob for name, r in rec.risks.items()},
                    "rmse_null": {name: r.null.rmse for name, r in rec.risks.items()},
                    "rmse_alt": {name: r.alt.rmse for name, r in rec.risks.items()},
                }
                for rec in self.records
            ],
            "certificates": dict(self.certificates),
            "rate_fits": {
                name: {"slope": f.slope, "intercept": f.intercept, "r_squared": f.r_squared}
                for name, f in self.rate_fits.items()
            },
            "lecam_value": self.lecam_value,
        }


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Full harness run: per-n certificates, risk simulation for every
    configured estimator, rate fits, and the testing floor at budget 5/4.

    Deterministic in the configuration, including its seed.
    """
    columns, inequalities = certificate_table(config.gamma, config.block, config.n_grid)
    if config.reps < 2:
        raise ValueError(f"need at least 2 replicates, got {config.reps}")
    if config.estimators:
        _validate_estimators(config.estimators, config.block, min(config.n_grid))

    c = minimax_constant(config.gamma, config.block.total)
    fields = ("rho", "kl_exact", "kl_bound", "analytic_gap", "gap_floor")
    records = []
    for n, cert in zip(config.n_grid, zip(*(columns[name].tolist() for name in fields))):
        pair = build_pair(n, config.gamma, config.block)
        risks = (
            _simulate(config.estimators, pair, config.reps, rng.derive(config.seed, "risk", n))
            if config.estimators
            else {}
        )
        records.append(PerNRecord(n=n, **dict(zip(fields, cert)), minimax_c=c, risks=risks))

    rate_fits = {}
    if len(config.n_grid) >= 3:
        ns = [rec.n for rec in records]
        for est in config.estimators:
            risks = [rec.risks[est.name].sup_risk for rec in records]
            if all(r > 0 for r in risks):
                rate_fits[est.name] = rate_fit(ns, risks)

    ok = {ineq.family: ineq.ok for ineq in inequalities}
    certificates = {
        "kl_budget": ok["kl_exact_le_bound"] and ok["kl_bound_le_budget"],
        "hsic_gap": ok["gap_ge_floor"],
    }
    return ExperimentReport(
        config=config,
        records=tuple(records),
        rate_fits=rate_fits,
        certificates=certificates,
        inequalities=inequalities,
        lecam_value=lecam_bound(KL_BUDGET),
    )
