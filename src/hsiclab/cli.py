"""Command-line harness: dataset ingestion, estimator invocation, closed-form
evaluation, certificate tables, and experiment orchestration.

Subcommands: ``estimate``, ``analytic``, ``minimax``, ``certify``.
Exit codes: 0 success, 1 certificate violation, 2 data error, 3 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import rng
from .analytic import adversarial_hsic2, hsic2_gaussian, minimax_constant
from .data import BlockStructure, Dataset
from .estimators import TILE_ROWS, hsic_nystrom, hsic_u, hsic_v
from .gaussian import (
    GaussianMeasure,
    kl_adversarial_bound,
    kl_adversarial_exact,
    make_adversarial_cov,
)
from .kernels import KernelFamily, KernelSpec, ProductKernel, lag_sum
from .lecam import (
    DEFAULT_N_GRID,
    KL_BUDGET,
    Estimator,
    ExperimentConfig,
    run_experiment,
)
from .spectral import verify_gap_partii

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_DATA = 2
EXIT_USAGE = 3

CERTIFY_SPECTRAL_FREQS = 200_000
MEDIAN_HEURISTIC_CAP = 2048

ESTIMATE_CSV_COLUMNS = ("estimator", "scale", "value", "n", "d", "blocks", "gamma", "seed")
MINIMAX_CSV_COLUMNS = (
    "n",
    "rho",
    "estimator",
    "sup_risk",
    "exceed_prob",
    "rmse_null",
    "rmse_alt",
    "threshold",
    "kl_exact",
    "kl_bound",
    "analytic_gap",
    "gap_floor",
)
CERTIFY_CSV_COLUMNS = (
    "n",
    "rho",
    "kl_exact",
    "kl_bound",
    "kl_budget",
    "analytic_gap",
    "gap_floor",
    "partii_bound",
    "partii_margin",
)


class CliError(Exception):
    """Error with an associated process exit code."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A003 - argparse API
        # flag problems are usage errors (exit 3), not argparse's default 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


# ----------------------------- parsing helpers -----------------------------


def _parse_blocks(text: str) -> BlockStructure:
    try:
        dims = tuple(int(tok) for tok in text.split(","))
        return BlockStructure(dims)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid --blocks {text!r}: {exc}") from exc


def _parse_n_grid(text: str) -> tuple[int, ...]:
    """Comma-separated budgets; a token 'a..b' expands to the inclusive range."""
    out: list[int] = []
    for tok in text.split(","):
        tok = tok.strip()
        try:
            if ".." in tok:
                lo_s, hi_s = tok.split("..")
                lo, hi = int(lo_s), int(hi_s)
                if hi < lo:
                    raise ValueError(f"empty range {tok!r}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(tok))
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"invalid --n-grid token {tok!r}") from exc
    if not out:
        raise CliError(EXIT_USAGE, "empty --n-grid")
    return tuple(out)


def _gammas_for(block: BlockStructure, gammas: list[float] | None) -> list[float]:
    if not gammas:
        return [1.0] * block.m
    if len(gammas) == 1:
        return gammas * block.m
    if len(gammas) != block.m:
        raise CliError(
            EXIT_USAGE, f"got {len(gammas)} --gamma values for {block.m} blocks; give 1 or {block.m}"
        )
    return list(gammas)


def _single_gamma(gammas: list[float] | None) -> float:
    if not gammas:
        return 1.0
    if len(gammas) != 1:
        raise CliError(EXIT_USAGE, "this subcommand uses one shared --gamma")
    return gammas[0]


def _check_seed(seed: int) -> int:
    if not 0 <= seed < 2**64:
        raise CliError(EXIT_USAGE, f"--seed must be an unsigned 64-bit integer, got {seed}")
    return seed


def _require_multiblock(block: BlockStructure) -> None:
    try:
        block.require_multiblock()
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc


def _check_threads(threads: int) -> int:
    # accepted for interface stability; computation is vectorized in-process
    # and the output never depends on the value
    if threads < 1:
        raise CliError(EXIT_USAGE, f"--threads must be >= 1, got {threads}")
    return threads


# ------------------------------- dataset io --------------------------------


def read_matrix(path: str, header: bool = False) -> np.ndarray:
    """Parse a comma-separated numeric file (UTF-8, no header by default)."""
    rows: list[list[float]] = []
    width = None
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from exc
    with handle:
        for lineno, line in enumerate(handle, start=1):
            if header and lineno == 1:
                continue
            if not line.strip():
                continue
            cells = line.strip().split(",")
            try:
                row = [float(cell) for cell in cells]
            except ValueError:
                bad = next(c for c in cells if not _is_float(c))
                raise CliError(
                    EXIT_DATA, f"{path}: line {lineno}: could not parse {bad.strip()!r} as a number"
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise CliError(
                    EXIT_DATA,
                    f"{path}: line {lineno}: expected {width} columns, found {len(row)}",
                )
            rows.append(row)
    if not rows:
        raise CliError(EXIT_DATA, f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def read_dataset(path: str, block: BlockStructure, header: bool = False) -> Dataset:
    values = read_matrix(path, header=header)
    if values.shape[1] != block.total:
        raise CliError(
            EXIT_USAGE, f"block dims sum {block.total} ≠ {values.shape[1]} columns in {path}"
        )
    return Dataset(values, block)


def write_dataset(path: str, dataset: Dataset) -> None:
    """Write rows as comma-separated shortest round-trip decimals."""
    with open(path, "w", encoding="utf-8") as handle:
        for row in dataset.values:
            handle.write(",".join(repr(float(v)) for v in row))
            handle.write("\n")


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _csv_text(columns, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


# ------------------------------- subcommands --------------------------------


def _median_heuristic(spec_family: KernelFamily, block_values: np.ndarray, seed: int) -> float:
    """Bandwidth suggestion 1/median of pairwise (squared or l1) distances."""
    x = block_values
    if x.shape[0] > MEDIAN_HEURISTIC_CAP:
        idx = rng.stream(seed, "median").choice(x.shape[0], size=MEDIAN_HEURISTIC_CAP, replace=False)
        x = x[idx]
    m = x.shape[0]
    positive = np.empty(m * (m - 1) // 2)
    count = 0
    # strict upper triangle, one row tile at a time; the median ignores order
    for i0 in range(0, m, TILE_ROWS):
        lags = lag_sum(spec_family, x[i0 : i0 + TILE_ROWS], x[i0:])
        picked = lags[np.triu(lags > 0, k=1)]
        positive[count : count + picked.size] = picked
        count += picked.size
    if count == 0:
        return float("nan")
    return float(1.0 / np.median(positive[:count], overwrite_input=True))


def cmd_estimate(args) -> int:
    block = _parse_blocks(args.blocks)
    seed = _check_seed(args.seed)
    _check_threads(args.threads)
    family = KernelFamily(args.kernel)
    gammas = _gammas_for(block, args.gamma)
    data = read_dataset(args.input, block, header=args.header)
    kinds = args.est or ["v"]

    if args.median_gamma:
        for m in range(block.m):
            suggestion = _median_heuristic(family, data.block_values(m), seed)
            print(f"median-heuristic gamma for block {m}: {suggestion!r} (not applied)")

    pk = ProductKernel(block, tuple(KernelSpec(family, g) for g in gammas))
    records = []
    for kind in kinds:
        if kind in ("u", "nystrom") and block.m != 2:
            raise CliError(EXIT_USAGE, f"{kind} estimator requires exactly 2 blocks, got {block.m}")
        record = {
            "estimator": kind,
            "n": data.n,
            "d": data.d,
            "blocks": list(block.dims),
            "gamma": gammas,
            "seed": seed,
        }
        if kind == "v":
            if data.n < 2:
                raise CliError(EXIT_USAGE, f"V-statistic requires n ≥ 2, got {data.n}")
            record["value_hsic2"] = hsic_v(pk, data)
        elif kind == "u":
            if data.n < 4:
                raise CliError(EXIT_USAGE, f"U-statistic requires n ≥ 4, got {data.n}")
            record["value_hsic2"] = hsic_u(pk, data)
        else:
            if args.landmarks is None:
                raise CliError(EXIT_USAGE, "nystrom estimator requires --landmarks")
            if not 2 <= args.landmarks <= data.n:
                raise CliError(
                    EXIT_USAGE, f"--landmarks must lie in [2, {data.n}], got {args.landmarks}"
                )
            value, _ = hsic_nystrom(pk, data, args.landmarks, rng.derive(seed, "nystrom"))
            record["value_hsic"] = value
            record["landmarks"] = args.landmarks
        records.append(record)

    if args.format == "json":
        _write_text(args.output, _json_text(records))
    else:
        rows = []
        for rec in records:
            scale = "hsic2" if "value_hsic2" in rec else "hsic"
            rows.append(
                (
                    rec["estimator"],
                    scale,
                    repr(rec.get("value_hsic2", rec.get("value_hsic"))),
                    rec["n"],
                    rec["d"],
                    ",".join(str(v) for v in rec["blocks"]),
                    ",".join(repr(g) for g in rec["gamma"]),
                    rec["seed"],
                )
            )
        _write_text(args.output, _csv_text(ESTIMATE_CSV_COLUMNS, rows))
    return EXIT_OK


def cmd_analytic(args) -> int:
    block = _parse_blocks(args.blocks)
    _require_multiblock(block)
    gamma = _single_gamma(args.gamma)
    if (args.rho is None) == (args.input is None):
        raise CliError(EXIT_USAGE, "give exactly one of --rho and --input")
    try:
        if args.rho is not None:
            cov = make_adversarial_cov(block, args.rho)
        else:
            cov = read_matrix(args.input, header=args.header)
            if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
                raise CliError(EXIT_DATA, f"covariance must be square, got shape {cov.shape}")
            if cov.shape[0] != block.total:
                raise CliError(
                    EXIT_USAGE, f"block dims sum {block.total} ≠ {cov.shape[0]} columns in {args.input}"
                )
        measure = GaussianMeasure(np.zeros(block.total), cov)
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc)) from exc

    dec = hsic2_gaussian(measure, block, gamma)
    print(f"hsic2 = {dec.value!r}")
    print(f"hsic = {dec.hsic!r}")
    print(f"term_i = {dec.term_i!r}")
    print(f"term_ii = {dec.term_ii!r}")
    print(f"term_iii = {dec.term_iii!r}")
    if args.output is not None:
        payload = {
            "blocks": list(block.dims),
            "gamma": gamma,
            "rho": args.rho,
            "hsic2": dec.value,
            "hsic": dec.hsic,
            "term_i": dec.term_i,
            "term_ii": dec.term_ii,
            "term_iii": dec.term_iii,
        }
        if args.format == "json":
            _write_text(args.output, _json_text(payload))
        else:
            cols = tuple(payload.keys())
            _write_text(args.output, _csv_text(cols, [tuple(payload[c] for c in cols)]))
    return EXIT_OK


def _require_gaussian(kernel: str, subcommand: str) -> None:
    if KernelFamily(kernel) is not KernelFamily.GAUSSIAN:
        raise CliError(
            EXIT_USAGE,
            f"{subcommand} relies on the closed-form Gaussian oracle; --kernel laplace is not supported here",
        )


def cmd_minimax(args) -> int:
    block = _parse_blocks(args.blocks)
    _require_multiblock(block)
    _require_gaussian(args.kernel, "minimax")
    gamma = _single_gamma(args.gamma)
    seed = _check_seed(args.seed)
    _check_threads(args.threads)
    n_grid = _parse_n_grid(args.n_grid) if args.n_grid else DEFAULT_N_GRID
    if len(n_grid) < 3:
        raise CliError(EXIT_USAGE, "rate fit needs ≥ 3 grid points")
    if any(n < 2 for n in n_grid):
        raise CliError(EXIT_USAGE, f"all --n-grid budgets must be ≥ 2, got {min(n_grid)}")
    if args.reps < 2:
        raise CliError(EXIT_USAGE, f"--reps must be ≥ 2, got {args.reps}")

    kinds = args.est or ["v", "u"]
    estimators = []
    for kind in dict.fromkeys(kinds):
        if kind == "nystrom":
            if args.landmarks is None:
                raise CliError(EXIT_USAGE, "nystrom estimator requires --landmarks")
            estimators.append(Estimator(name=kind, kind=kind, landmarks=args.landmarks))
        else:
            estimators.append(Estimator(name=kind, kind=kind))
    try:
        config = ExperimentConfig(
            gamma=gamma,
            block=block,
            n_grid=n_grid,
            estimators=tuple(estimators),
            reps=args.reps,
            seed=seed,
        )
        report = run_experiment(config)
    except ValueError as exc:
        raise CliError(EXIT_USAGE, str(exc)) from exc

    base = args.output or "minimax_report"
    for suffix in (".json", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    _write_text(base + ".json", _json_text(report.to_dict()))

    rows = []
    for rec in report.records:
        common = (
            repr(rec.kl_exact),
            repr(rec.kl_bound),
            repr(rec.analytic_gap),
            repr(rec.gap_floor),
        )
        if rec.risks:
            for name, risk in rec.risks.items():
                rows.append(
                    (
                        rec.n,
                        repr(rec.rho),
                        name,
                        repr(risk.sup_risk),
                        repr(risk.sup_exceed_prob),
                        repr(risk.null.rmse),
                        repr(risk.alt.rmse),
                        repr(risk.threshold),
                    )
                    + common
                )
        else:
            rows.append((rec.n, repr(rec.rho), "", "", "", "", "", "") + common)
    _write_text(base + ".csv", _csv_text(MINIMAX_CSV_COLUMNS, rows))

    for name, fit in report.rate_fits.items():
        print(f"rate fit [{name}]: slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    print(f"lecam_value = {report.lecam_value!r}")
    print(f"certificates = {report.certificates}")
    print(f"wrote {base}.json and {base}.csv")

    if not all(report.certificates.values()):
        for rec in report.records:
            if not rec.kl_exact <= rec.kl_bound:
                print(f"certificate violated at n={rec.n}: kl_exact={rec.kl_exact!r} > kl_bound={rec.kl_bound!r}")
                return EXIT_CERTIFICATE
            if not rec.kl_bound <= KL_BUDGET:
                print(f"certificate violated at n={rec.n}: kl_bound={rec.kl_bound!r} > {KL_BUDGET}")
                return EXIT_CERTIFICATE
            if not rec.analytic_gap >= rec.gap_floor:
                print(
                    f"certificate violated at n={rec.n}: analytic_gap={rec.analytic_gap!r} < gap_floor={rec.gap_floor!r}"
                )
                return EXIT_CERTIFICATE
        return EXIT_CERTIFICATE
    return EXIT_OK


def cmd_certify(args) -> int:
    block = _parse_blocks(args.blocks)
    _require_multiblock(block)
    _require_gaussian(args.kernel, "certify")
    gamma = _single_gamma(args.gamma)
    seed = _check_seed(args.seed)
    grid = _parse_n_grid(args.n_grid) if args.n_grid else tuple(range(2, 1001))
    kept = []
    for n in grid:
        if n < 2:
            print(f"note: n={n} excluded (the construction needs a sample budget of at least 2)")
        else:
            kept.append(n)
    if not kept:
        raise CliError(EXIT_USAGE, "no usable budgets in --n-grid (all below 2)")

    cert = verify_gap_partii(gamma, block, kept, CERTIFY_SPECTRAL_FREQS, rng.derive(seed, "partii"))
    c = minimax_constant(gamma, block.total)
    print(
        f"part-(ii) gap constant estimate: {cert.estimate!r} ± {cert.standard_error!r} (1 SE), "
        f"N={CERTIFY_SPECTRAL_FREQS}"
    )

    rows = []
    ok_kl_pair = ok_kl_budget = ok_gap = ok_partii = True
    for margin in cert.margins:
        n = margin.n
        kl_e = kl_adversarial_exact(n, margin.rho, block)
        kl_b = kl_adversarial_bound(n, margin.rho)
        gap = adversarial_hsic2(gamma, block.total, n=n).hsic
        floor = 2.0 * c / math.sqrt(n)
        ok_kl_pair &= kl_e <= kl_b
        ok_kl_budget &= kl_b <= KL_BUDGET
        ok_gap &= gap >= floor
        ok_partii &= margin.ok
        rows.append(
            (
                n,
                repr(margin.rho),
                repr(kl_e),
                repr(kl_b),
                repr(KL_BUDGET),
                repr(gap),
                repr(floor),
                repr(margin.bound),
                repr(margin.margin),
            )
        )

    table = _csv_text(CERTIFY_CSV_COLUMNS, rows)
    if args.output is not None:
        if args.format == "json":
            payload = {
                "gamma": gamma,
                "blocks": list(block.dims),
                "partii_estimate": cert.estimate,
                "partii_se": cert.standard_error,
                "rows": [dict(zip(CERTIFY_CSV_COLUMNS, row)) for row in rows],
                "pass": {
                    "kl_exact_le_bound": ok_kl_pair,
                    "kl_bound_le_budget": ok_kl_budget,
                    "gap_ge_floor": ok_gap,
                    "hsic2_ge_partii": ok_partii,
                },
            }
            _write_text(args.output, _json_text(payload))
        else:
            _write_text(args.output, table)
    else:
        sys.stdout.write(table)

    print(f"kl_exact ≤ kl_bound: {'PASS' if ok_kl_pair else 'FAIL'}")
    print(f"kl_bound ≤ 5/4: {'PASS' if ok_kl_budget else 'FAIL'}")
    print(f"hsic gap ≥ 2c/√n: {'PASS' if ok_gap else 'FAIL'}")
    print(f"hsic² ≥ ρ²·(part-(ii) estimate − 4 SE): {'PASS' if ok_partii else 'FAIL'}")
    return EXIT_OK if (ok_kl_pair and ok_kl_budget and ok_gap and ok_partii) else EXIT_CERTIFICATE


# --------------------------------- parser ----------------------------------


def _add_common(sub: argparse.ArgumentParser, *, input_required: bool = False) -> None:
    sub.add_argument("--blocks", required=True, help="comma-separated block dims, e.g. 1,1")
    sub.add_argument("--kernel", choices=["gaussian", "laplace"], default="gaussian")
    sub.add_argument(
        "--gamma", action="append", type=float, default=None, help="bandwidth; repeat per block"
    )
    sub.add_argument("--seed", type=int, default=0, help="unsigned 64-bit master seed")
    sub.add_argument("--output", default=None, help="output path (default: stdout)")
    sub.add_argument("--format", choices=["csv", "json"], default="json")
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--header", action="store_true", help="skip one header line on input")
    if input_required:
        sub.add_argument("--input", required=True, help="CSV input path")
    else:
        sub.add_argument("--input", default=None, help="CSV input path")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsiclab", description=__doc__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    est = subparsers.add_parser("estimate", parents=[], help="run estimators on a CSV dataset")
    _add_common(est, input_required=True)
    est.add_argument("--est", action="append", choices=["v", "u", "nystrom"], default=None)
    est.add_argument("--landmarks", type=int, default=None)
    est.add_argument(
        "--median-gamma",
        action="store_true",
        help="print per-block median-heuristic bandwidths (informational only, never applied)",
    )
    est.set_defaults(func=cmd_estimate)

    ana = subparsers.add_parser("analytic", help="closed-form HSIC for a Gaussian")
    _add_common(ana)
    ana.add_argument("--rho", type=float, default=None, help="single-correlation covariance shorthand")
    ana.set_defaults(func=cmd_analytic)

    mini = subparsers.add_parser("minimax", help="risk simulation over an n-grid")
    _add_common(mini)
    mini.add_argument("--n-grid", default=None, help="e.g. 64,128,256 or 64..256")
    mini.add_argument("--reps", type=int, default=200)
    mini.add_argument("--est", action="append", choices=["v", "u", "nystrom"], default=None)
    mini.add_argument("--landmarks", type=int, default=None)
    mini.set_defaults(func=cmd_minimax)

    cert = subparsers.add_parser("certify", help="tabulate the KL and gap certificates")
    _add_common(cert)
    cert.add_argument("--n-grid", default=None, help="e.g. 2..1000 (default)")
    cert.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
