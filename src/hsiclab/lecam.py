"""Two-point minimax experiment harness.

Builds the adversarial pair for each sample budget n, verifies the KL budget
and the HSIC gap, simulates the risk of concrete estimators over replicated
draws, and fits the empirical convergence rate on a log-log scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import rng
from .analytic import adversarial_hsic2_columns, hsic2_gaussian, lecam_bound, minimax_constant
from .data import BlockStructure, whole
from .estimators import THREAD_MIN_N, block_stats_batch, hsic_nystrom_batch, in_two_processes, landmark_picks
from .estimators import require_nystrom, require_u, require_v, stack_size
from .gaussian import GaussianMeasure, adversarial_kl, make_adversarial_cov, sample_stack
from .kernels import KernelFamily, ProductKernel

KL_BUDGET = 1.25
DEFAULT_N_GRID = (64, 128, 256, 512, 1024, 2048, 4096)
ESTIMATOR_KINDS = ("v", "u", "nystrom")
# the two points of each budget's pair, in the order ``build_pair`` gives them
DISTRIBUTIONS = ("null", "alt")
# each estimator's risk columns in an ExperimentReport, one float per budget
RISK_COLUMNS = ("sup_risk", "exceed_prob", "rmse_null", "rmse_alt")
# the report columns each JSON record carries after its n
RECORD_COLUMNS = ("rho", "kl_exact", "kl_bound", "analytic_gap", "minimax_c", "gap_floor")
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
            if self.landmarks is None:
                raise ValueError("the nystrom kind needs a landmark count")
            object.__setattr__(self, "landmarks", whole(self.landmarks, "landmarks"))
        elif self.landmarks is not None:
            raise ValueError(f"landmarks only apply to the nystrom kind, not {self.kind!r}")


def build_pair(n: int, block: BlockStructure) -> tuple[GaussianMeasure, GaussianMeasure]:
    """The two-point construction at budget n, as (null, alt): N(0, I_d)
    versus the correlated alternative with rho_n = n^{-1/2} across the first
    block boundary and mean (1/(sqrt(d) n)) 1_d."""
    if whole(n, "n") < 2:
        raise ValueError(f"pair construction needs an integer n >= 2, got {n}")
    block.require_multiblock()
    d = block.total
    alt = GaussianMeasure(np.full(d, 1.0 / (math.sqrt(d) * n)), make_adversarial_cov(block, 1.0 / math.sqrt(n)))
    return GaussianMeasure.standard(d), alt


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
    config: ExperimentConfig, n: int, measures: dict[str, GaussianMeasure], threshold: float, in_line: bool
) -> dict[str, list[tuple[float, float]]]:
    """Risk of the configured estimators at budget n under each distribution
    of ``measures``, {label: measure} for the labels of DISTRIBUTIONS that
    are to run (null, alternative or both), from ``config.reps`` shared
    draws: every estimator sees the same datasets, and dataset streams are
    keyed by (seed, distribution, replicate) only, with seed =
    rng.derive(config.seed, "risk", n), so single-estimator runs reproduce
    multi-estimator runs bit for bit, and a distribution run alone gives
    the bits it gives beside the other.

    Each replicate has its own streams, as the library would key them for
    its seeds; every family of them is keyed in vectorised passes over many
    replicates (``rng.streams``) and drawn straight into chunks of the largest
    ``stack_size`` of the estimators' steps, which go through the estimators
    together; each step splits a chunk into stacks of its own, and
    ``in_line`` keeps the tile pass's lanes in this thread.  Every dataset,
    landmark set and statistic is the one the library gives for the
    replicate alone.  Errors are on the HSIC scale.  Returns, per estimator,
    (rmse, exceedance frequency of ``threshold``) under each distribution,
    in the order of ``measures``; ``run_experiment`` has checked ``reps``
    and the estimators."""
    estimators, reps, seed = config.estimators, config.reps, rng.derive(config.seed, "risk", n)
    pk = ProductKernel.homogeneous(config.block, KernelFamily.GAUSSIAN, config.gamma)
    needs_stats = any(est.kind in ("v", "u") for est in estimators)
    # the tile pass's stacks for V and U, the Nystrom step's for each landmark count
    size = max(stack_size(n, est.landmarks) for est in estimators)

    per_dist: dict[str, list[tuple[float, float]]] = {est.name: [] for est in estimators}
    for label, measure in measures.items():
        true_hsic = hsic2_gaussian(measure, config.block, config.gamma).hsic
        # the error buffers are the only per-replicate state: a --reps too
        # large for memory fails here, and the seeds are derived lazily, as
        # the streams key them chunk by chunk
        errors = {est.name: np.empty(reps) for est in estimators}
        gens = rng.streams(rng.derive(seed, label, r) for r in range(reps))
        picks = {
            est.name: landmark_picks(n, est.landmarks, (rng.derive(seed, label, r, "nystrom") for r in range(reps)))
            for est in estimators
            if est.kind == "nystrom"
        }
        for r0 in range(0, reps, size):
            count = min(size, reps - r0)
            values = sample_stack(measure, n, gens, count)
            stats = block_stats_batch(pk, values, in_line) if needs_stats else None
            for est in estimators:
                if est.kind == "nystrom":
                    chunk_picks = np.array(list(islice(picks[est.name], count)))
                    est_hsic = hsic_nystrom_batch(pk, values, chunk_picks)
                else:
                    hsic2 = stats.v_statistic() if est.kind == "v" else stats.u_statistic()
                    est_hsic = np.sqrt(np.maximum(hsic2, 0.0))
                errors[est.name][r0 : r0 + count] = np.abs(est_hsic - true_hsic)
        for est in estimators:
            err = errors[est.name]
            per_dist[est.name].append((float(np.sqrt(np.mean(err * err))), float(np.mean(err >= threshold))))
    return per_dist


def _unit_labels(n: int) -> list[tuple[str, ...]]:
    """The labels of each unit of budget n in the process split: below
    THREAD_MIN_N the whole budget, from there on each distribution."""
    return [DISTRIBUTIONS] if n < THREAD_MIN_N else [(label,) for label in DISTRIBUTIONS]


def _split_units(n_grid) -> dict[tuple[int, tuple[str, ...]], int]:
    """The units (n, labels) of the process split for the grid, in grid
    order, each weighing n^2 per distribution it runs."""
    return {(n, labels): len(labels) * n * n for n in n_grid for labels in _unit_labels(n)}


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
    if len(set(ns.tolist())) < 3:
        raise ValueError("rate fit needs ≥ 3 distinct grid points")
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
        object.__setattr__(self, "n_grid", tuple(whole(n, "a grid budget") for n in self.n_grid))
        object.__setattr__(self, "reps", whole(self.reps, "reps"))
        object.__setattr__(self, "estimators", tuple(self.estimators))


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """One run over the grid ``config.n_grid``, as columns of one float per
    budget: ``columns`` holds the ``certificate_table`` columns, the
    ``minimax_c`` constant and the risk ``threshold`` c/sqrt(n);
    ``risks[name]`` holds an estimator's ``RISK_COLUMNS``, each sup being
    the larger of the null and alternative values."""

    config: ExperimentConfig
    columns: dict[str, list[float]]
    risks: dict[str, dict[str, list[float]]]
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
                    "n": n,
                    **{key: self.columns[key][i] for key in RECORD_COLUMNS},
                    **{key: {name: risk[key][i] for name, risk in self.risks.items()} for key in RISK_COLUMNS},
                }
                for i, n in enumerate(cfg.n_grid)
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
    budgets = sorted(config.n_grid)
    repeated = [a for a, b in zip(budgets, budgets[1:]) if a == b]
    if repeated:
        # a repeat would be simulated again with the same seed and weigh
        # twice in the rate fit
        raise ValueError(f"grid budgets must be distinct, got {repeated[0]} more than once")
    table, inequalities = certificate_table(config.gamma, config.block, config.n_grid)
    if config.reps < 2:
        raise ValueError(f"need at least 2 replicates, got {config.reps}")
    if config.estimators:
        _validate_estimators(config.estimators, config.block, min(config.n_grid))

    c = minimax_constant(config.gamma, config.block.total)
    columns = {name: column.tolist() for name, column in table.items()}
    columns["minimax_c"] = [c] * len(config.n_grid)
    columns["threshold"] = [c / math.sqrt(n) for n in config.n_grid]
    risks = {est.name: {key: [] for key in RISK_COLUMNS} for est in config.estimators}

    def simulate(n: int, labels: tuple[str, ...], in_line: bool) -> dict[str, list[tuple[float, float]]]:
        pair = dict(zip(DISTRIBUTIONS, build_pair(n, config.block)))
        measures = {label: pair[label] for label in labels}
        return _simulate(config, n, measures, c / math.sqrt(n), in_line) if config.estimators else {}

    # every unit beside a forked worker where one may start, each side with
    # its lanes in line; else every unit here, with its lanes on threads
    units = _split_units(config.n_grid) if config.estimators else {}
    split = in_two_processes(lambda unit: simulate(*unit, True), units)
    for n in config.n_grid:
        parts = [split[n, labels] if split else simulate(n, labels, False) for labels in _unit_labels(n)]
        simulated = {name: [risk for part in parts for risk in part[name]] for name in parts[0]}
        for name, ((rmse_null, exceed_null), (rmse_alt, exceed_alt)) in simulated.items():
            risk = risks[name]
            risk["sup_risk"].append(max(rmse_null, rmse_alt))
            risk["exceed_prob"].append(max(exceed_null, exceed_alt))
            risk["rmse_null"].append(rmse_null)
            risk["rmse_alt"].append(rmse_alt)

    rate_fits = {}
    if len(config.n_grid) >= 3:
        for name, risk in risks.items():
            if all(r > 0 for r in risk["sup_risk"]):
                rate_fits[name] = rate_fit(config.n_grid, risk["sup_risk"])

    return ExperimentReport(
        config=config,
        columns=columns,
        risks=risks,
        rate_fits=rate_fits,
        inequalities=inequalities,
        lecam_value=lecam_bound(KL_BUDGET),
    )
