"""Two-point minimax experiment harness.

Builds the adversarial pair for each sample budget n, verifies the KL budget
and the HSIC gap, simulates the risk of concrete estimators over replicated
draws, and fits the empirical convergence rate on a log-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import rng
from .analytic import adversarial_hsic2_columns, hsic2_gaussian, lecam_bound, minimax_constant
from .data import BlockStructure
from .estimators import block_stats_batch, hsic_nystrom_batch, landmark_picks, require_nystrom, require_u, require_v, stack_size
from .gaussian import AdversarialPair, GaussianMeasure, adversarial_kl, make_adversarial_cov, sample_stack
from .kernels import KernelFamily, ProductKernel

KL_BUDGET = 1.25
DEFAULT_N_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
ESTIMATOR_KINDS = ("v", "u", "nystrom")
# certificate families as (family, statement, margin column): each one
# asserts margin >= 0 at every budget
CERTIFICATE_FAMILIES = (
    ("kl_exact_le_bound", "kl_exact ≤ kl_bound", "kl_margin"),
    ("kl_bound_le_budget", "kl_bound ≤ 5/4", "budget_margin"),
    ("gap_ge_floor", "hsic gap ≥ 2c/√n", "gap_margin"),
    ("hsic2_ge_partii", "hsic² ≥ ρ²·(part-(ii) estimate − 4 SE)", "partii_margin"),
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
    """One certificate family, ``margin >= 0`` at every budget of a grid.

    ``n`` is the first budget, in grid order, where it fails (None if it
    never does); ``min_margin`` is the smallest margin, first reached at
    ``argmin_n``.
    """

    family: str
    statement: str
    margin: str
    n: int | None
    min_margin: float
    argmin_n: int

    @property
    def ok(self) -> bool:
        return self.n is None

    def violation(self) -> str:
        line = f"certificate violated at n={self.n}: {self.statement}, {self.margin}={self.min_margin!r}"
        return line if self.argmin_n == self.n else f"{line} at n={self.argmin_n}"


def certificate_table(
    gamma: float, block: BlockStructure, n_grid, partii: tuple[float, float] | None = None
) -> tuple[dict[str, np.ndarray], tuple[Inequality, ...]]:
    """The two-point certificates at every budget n of the grid, from one
    vectorised pass over the closed forms: columns ``rho`` = n^{-1/2},
    ``kl_exact``, ``kl_bound``, ``kl_budget``, the adversarial ``hsic2``, its
    square root ``analytic_gap``, the ``gap_floor`` 2c/sqrt(n), the margins
    ``kl_margin``, ``budget_margin`` and ``gap_margin`` (hsic2 - floor^2) of
    the three families, each at rho^2 = 1/n without cancellation, and one
    ``Inequality`` per family whose margin is present.  Given the part-(ii)
    gap constant as (estimate, standard error), also ``partii_bound`` =
    rho^2 (estimate - 4 SE, floored at 0) and its ``partii_margin``.
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
    x = 1.0 / budgets
    kl_exact, kl_bound = adversarial_kl(budgets, rho)
    hsic2, gap_margin = adversarial_hsic2_columns(gamma, block.total, x)
    # kl_bound - kl_exact = (x/2) sum_{k>=2} (1 - 1/k) x^(k-2) at x = 1/n: positive
    # terms that fall by 2/3 or more at x <= 1/2, so 60 of them reach rounding
    series = np.zeros_like(x)
    for k in range(61, 1, -1):
        series = series * x + (1.0 - 1.0 / k)
    columns = {
        "rho": rho,
        "kl_exact": kl_exact,
        "kl_bound": kl_bound,
        "kl_budget": np.full(len(n), KL_BUDGET),
        "hsic2": hsic2,
        "analytic_gap": np.sqrt(hsic2),
        "gap_floor": 2.0 * c / np.sqrt(budgets),
        "kl_margin": 0.5 * x * series,
        # exactly 0 at n = 2, where kl_bound = 1/(2n) + n/(2(n-1)) attains 5/4
        "budget_margin": KL_BUDGET - 0.5 / budgets - budgets / (2.0 * (budgets - 1.0)),
        "gap_margin": gap_margin,
    }
    if partii is not None:
        estimate, se = partii
        # np.maximum keeps a NaN estimate NaN, where max(0.0, nan) gives 0.0
        bound = rho * rho * np.maximum(0.0, estimate - 4.0 * se)
        columns["partii_bound"] = bound
        columns["partii_margin"] = hsic2 - bound
    # a NaN compares false both ways, so a NaN margin would read as passing
    for name, column in columns.items():
        bad = np.flatnonzero(~np.isfinite(column))
        if bad.size:
            raise ValueError(f"certificate column {name} is not finite at n={n[bad[0]]} (gamma={gamma!r})")
    rows = []
    for family, statement, margin in CERTIFICATE_FAMILIES:
        if margin in columns:
            values = columns[margin]
            failing = np.flatnonzero(values < 0.0)
            first = n[failing[0]] if failing.size else None
            i = int(np.argmin(values))
            rows.append(Inequality(family, statement, margin, first, float(values[i]), n[i]))
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
    """Fail before any replicate is drawn: each estimator's own rules, checked
    at the smallest budget (every rule holds at all larger ones too)."""
    names = [est.name for est in estimators]
    if len(set(names)) != len(names):
        raise ValueError(f"estimator names must be unique, got {names}")
    for est in estimators:
        try:
            if est.kind == "v":
                require_v(n_min)
            elif est.kind == "u":
                require_u(block.m, n_min)
            else:
                require_nystrom(block.m, n_min, est.landmarks)
        except ValueError as exc:
            raise ValueError(f"estimator {est.name!r}: {exc}") from None


def _simulate(
    estimators: tuple[Estimator, ...], pair: AdversarialPair, reps: int, seed: int
) -> dict[str, RiskResult]:
    """Shared-draw risk simulation: every estimator sees the same datasets,
    and dataset streams are keyed by (seed, distribution, replicate) only, so
    single-estimator runs reproduce multi-estimator runs bit for bit.

    Each replicate has its own streams, as the library would key them for
    its seeds; every family of them is keyed in vectorised passes over many
    replicates (``rng.streams``) and drawn straight into stacks of ``stack_size(n)``
    replicates, which go through the estimators together.  Every dataset,
    landmark set and statistic is the one the library gives for the
    replicate alone.  Errors are on the HSIC scale; ``run_experiment``
    has checked ``reps`` and the estimators."""
    pk = ProductKernel.homogeneous(pair.block, KernelFamily.GAUSSIAN, pair.gamma)
    needs_stats = any(est.kind in ("v", "u") for est in estimators)
    threshold = minimax_constant(pair.gamma, pair.block.total) / math.sqrt(pair.n)
    size = stack_size(pair.n)

    per_dist: dict[str, list[DistributionRisk]] = {est.name: [] for est in estimators}
    for label, measure in (("null", pair.p0), ("alt", pair.p1)):
        true_sq = hsic2_gaussian(measure, pair.block, pair.gamma).value
        true_hsic = math.sqrt(max(0.0, true_sq))
        # the error buffers are the only per-replicate state: a --reps too
        # large for memory fails here, and the seeds are derived lazily, as
        # the streams key them chunk by chunk
        errors = {est.name: np.empty(reps) for est in estimators}
        gens = rng.streams(rng.derive(seed, label, r) for r in range(reps))
        picks = {
            est.name: landmark_picks(pair.n, est.landmarks, (rng.derive(seed, label, r, "nystrom") for r in range(reps)))
            for est in estimators
            if est.kind == "nystrom"
        }
        for r0 in range(0, reps, size):
            count = min(size, reps - r0)
            values = sample_stack(measure, pair.n, islice(gens, count))
            stats = block_stats_batch(pk, values) if needs_stats else None
            for est in estimators:
                if est.kind == "v":
                    est_hsic = [math.sqrt(max(0.0, s.v_statistic())) for s in stats]
                elif est.kind == "u":
                    est_hsic = [math.sqrt(max(0.0, s.u_statistic())) for s in stats]
                else:
                    chunk_picks = np.array(list(islice(picks[est.name], count)))
                    est_hsic = hsic_nystrom_batch(pk, values, chunk_picks)
                errors[est.name][r0 : r0 + count] = np.abs(np.subtract(est_hsic, true_hsic))
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
    inequalities: tuple[Inequality, ...]
    lecam_value: float

    @property
    def certificates(self) -> dict[str, bool]:
        """The KL budget chain and the gap certificate, each as one verdict
        over the grid, read from ``inequalities``."""
        ok = {ineq.family: ineq.ok for ineq in self.inequalities}
        return {
            "kl_budget": ok["kl_exact_le_bound"] and ok["kl_bound_le_budget"],
            "hsic_gap": ok["gap_ge_floor"],
        }

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

    return ExperimentReport(
        config=config,
        records=tuple(records),
        rate_fits=rate_fits,
        inequalities=inequalities,
        lecam_value=lecam_bound(KL_BUDGET),
    )
