"""Command-line harness: dataset ingestion, estimator invocation, closed-form
evaluation, certificate tables, and experiment orchestration.

Subcommands: ``estimate``, ``analytic``, ``minimax``, ``certify``.
Exit codes: 0 success, 1 certificate violation, 2 data error, 3 usage error.
A ``ValueError`` from the library is a rule the arguments broke, and a
``MemoryError`` a request too large for the machine: both exit 3.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import rng
from .analytic import hsic2_gaussian
from .data import BlockStructure, Dataset
from .estimators import TILE_ROWS, block_stats, hsic_nystrom
from .gaussian import GaussianMeasure, make_adversarial_cov
from .kernels import KernelFamily, KernelSpec, ProductKernel, coordinate_major, lag_sum
from .lecam import DEFAULT_N_GRID, Estimator, ExperimentConfig, certificate_table, run_experiment
from .spectral import verify_gap_partii

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_DATA = 2
EXIT_USAGE = 3

CERTIFY_SPECTRAL_FREQS = 200_000
MEDIAN_HEURISTIC_CAP = 2048
# largest number of budgets an --n-grid may expand to
MAX_GRID_BUDGETS = 10**6
# largest budget; every integer up to 2^53 is exact in float64
MAX_BUDGET = 2**53
# rows of a CSV document formatted and written at a time, so that its text
# is never held whole
CSV_BLOCK_ROWS = 1024

ESTIMATE_CSV_COLUMNS = ("estimator", "scale", "value", "n", "d", "blocks", "gamma", "seed")
MINIMAX_CSV_COLUMNS = (
    "n", "rho", "estimator", "sup_risk", "exceed_prob", "rmse_null", "rmse_alt", "threshold",
    "kl_exact", "kl_bound", "analytic_gap", "gap_floor",
)
# every column after n is a certificate-table column
CERTIFY_CSV_COLUMNS = (
    "n", "rho", "kl_exact", "kl_bound", "kl_budget", "analytic_gap", "gap_floor",
    "partii_bound", "partii_margin",
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


def _positive_float(text: str) -> float:
    """argparse type for bandwidths: a positive finite float."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _parse_blocks(text: str) -> BlockStructure:
    try:
        block = BlockStructure(tuple(int(tok) for tok in text.split(",")))
        block.require_multiblock()
    except ValueError as exc:
        raise CliError(EXIT_USAGE, f"invalid --blocks {text!r}: {exc}") from exc
    return block


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
            else:
                lo = hi = int(tok)
        except ValueError as exc:
            raise CliError(EXIT_USAGE, f"invalid --n-grid token {tok!r}") from exc
        if hi > MAX_BUDGET:
            raise CliError(EXIT_USAGE, f"--n-grid budgets above 2^53 = {MAX_BUDGET} are not exact in float64")
        if len(out) + hi - lo + 1 > MAX_GRID_BUDGETS:
            raise CliError(EXIT_USAGE, f"--n-grid expands to more than {MAX_GRID_BUDGETS} budgets")
        out.extend(range(lo, hi + 1))
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


def _require_nystrom_for_landmarks(kinds: list[str], landmarks: int | None) -> None:
    """--est nystrom and --landmarks come together or not at all."""
    if "nystrom" in kinds and landmarks is None:
        raise CliError(EXIT_USAGE, "nystrom estimator requires --landmarks")
    if landmarks is not None and "nystrom" not in kinds:
        raise CliError(EXIT_USAGE, "--landmarks is read only with --est nystrom")


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
        try:
            for lineno, line in enumerate(handle, start=1):
                if header and lineno == 1:
                    continue
                if not line.strip():
                    continue
                cells = line.strip().split(",")
                try:
                    row = [float(cell) for cell in cells]
                    finite = all(map(math.isfinite, row))
                except ValueError:
                    finite = False
                if not finite:
                    column = next(j for j, cell in enumerate(cells) if not _is_finite_number(cell))
                    raise CliError(
                        EXIT_DATA,
                        f"{path}: line {lineno}, column {column + 1}: {cells[column].strip()!r} is not a finite number",
                    )
                if width is None:
                    width = len(row)
                elif len(row) != width:
                    raise CliError(
                        EXIT_DATA,
                        f"{path}: line {lineno}: expected {width} columns, found {len(row)}",
                    )
                rows.append(row)
        except UnicodeDecodeError as exc:
            raise CliError(EXIT_DATA, f"{path}: not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}") from exc
    if not rows:
        raise CliError(EXIT_DATA, f"{path}: no data rows")
    return np.asarray(rows, dtype=float)


def _is_finite_number(cell: str) -> bool:
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def read_dataset(path: str, block: BlockStructure, header: bool = False) -> Dataset:
    values = read_matrix(path, header=header)
    if values.shape[1] != block.total:
        raise CliError(
            EXIT_USAGE, f"block dims sum {block.total} ≠ {values.shape[1]} columns in {path}"
        )
    return Dataset(values, block)


def _write_text(path: str | None, chunks) -> None:
    """Write the text chunks in turn to path, or to stdout without one."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def _status_stream(output: str | None):
    """stdout, unless it carries the document itself (no --output)."""
    return sys.stderr if output is None else sys.stdout


def _json_text(obj) -> str:
    try:
        return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"
    except ValueError as exc:  # NaN or infinity has no JSON form
        raise CliError(EXIT_DATA, f"cannot write JSON: {exc}") from exc


def _joined(values) -> str:
    """One CSV cell for a list, e.g. blocks "1,1": quoted, as it holds a comma."""
    return '"' + ",".join(map(str, values)) + '"'


def _csv_blocks(header, columns):
    """CSV text of equal-length columns: the header line, then the rows in
    blocks of CSV_BLOCK_ROWS.  In each block a column of strings is taken as
    it is and a column of numbers through repr (a float's shortest round
    trip), an array column after ``tolist`` of the block's rows, which gives
    Python numbers.  No cell is quoted here; the only cells that need it come
    from ``_joined``."""
    columns = list(columns)
    yield ",".join(header) + "\n"
    for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
        cells = []
        for column in columns:
            part = column[start : start + CSV_BLOCK_ROWS]
            if isinstance(part, np.ndarray):
                part = part.tolist()
            cells.append(part if isinstance(part[0], str) else map(repr, part))
        yield "\n".join(map(",".join, zip(*cells))) + "\n"


# ------------------------------- subcommands --------------------------------


def _median_heuristic(spec_family: KernelFamily, block_values: np.ndarray, seed: int) -> float:
    """Bandwidth suggestion 1/median of pairwise (squared or l1) distances:
    the exact median of the positive strict-upper-triangle lags, found by one
    selection."""
    x = block_values
    if x.shape[0] > MEDIAN_HEURISTIC_CAP:
        idx = rng.stream(seed, "median").choice(x.shape[0], size=MEDIAN_HEURISTIC_CAP, replace=False)
        x = x[idx]
    # lag_sum then reads each coordinate of a tile's columns on unit stride
    x = coordinate_major(x)
    m = x.shape[0]
    positive = np.empty(m * (m - 1) // 2)
    count = 0
    # strict upper triangle, one row tile at a time into one pair of buffers:
    # the diagonal and lower triangle of a tile's t x t head are zeroed, so
    # "lags > 0" keeps the triangle's positive lags, row-major
    out, scratch = np.empty(TILE_ROWS * m), np.empty(TILE_ROWS * m)
    lower = np.tri(TILE_ROWS, dtype=bool)
    for i0 in range(0, m, TILE_ROWS):
        t, width = min(TILE_ROWS, m - i0), m - i0
        tile_out, tile_scratch = (buf[: t * width].reshape(t, width) for buf in (out, scratch))
        lags = lag_sum(spec_family, x[i0 : i0 + t], x[i0:], tile_out, tile_scratch)
        np.copyto(lags[:, :t], 0.0, where=lower[:t, :t])
        picked = lags[lags > 0]
        positive[count : count + picked.size] = picked
        count += picked.size
    if count == 0:
        return float("nan")
    # np.median's value, the mean of the two middle order statistics when
    # count is even, from a single-kth partition; in Python floats, whose sum
    # overflows to inf without a warning, and where it does each is halved first
    k = count // 2
    p = positive[:count]
    p.partition(k)
    if count % 2:
        median = float(p[k])
    else:
        a, b = float(p[:k].max()), float(p[k])
        median = (a + b) / 2 if math.isfinite(a + b) else a / 2 + b / 2
    return 1.0 / median


def cmd_estimate(args) -> int:
    block = _parse_blocks(args.blocks)
    seed = _check_seed(args.seed)
    family = KernelFamily(args.kernel)
    gammas = _gammas_for(block, args.gamma)
    kinds = args.est or ["v"]
    _require_nystrom_for_landmarks(kinds, args.landmarks)
    data = read_dataset(args.input, block, header=args.header)

    if args.median_gamma:
        status = _status_stream(args.output)
        for m in range(block.m):
            suggestion = _median_heuristic(family, data.block_values(m), seed)
            print(f"median-heuristic gamma for block {m}: {suggestion!r} (not applied)", file=status)

    pk = ProductKernel(block, tuple(KernelSpec(family, g) for g in gammas))
    stats = None  # one tiled pass serves both the V and the U record
    records = []
    for kind in kinds:
        record = {
            "estimator": kind,
            "n": data.n,
            "d": data.d,
            "blocks": list(block.dims),
            "gamma": gammas,
            "seed": seed,
        }
        if kind == "nystrom":
            record["value_hsic"] = hsic_nystrom(pk, data, args.landmarks, rng.derive(seed, "nystrom"))
            record["landmarks"] = args.landmarks
        else:
            stats = stats or block_stats(pk, data)
            record["value_hsic2"] = float(stats.v_statistic() if kind == "v" else stats.u_statistic())
        records.append(record)

    if args.format == "json":
        _write_text(args.output, [_json_text(records)])
    else:
        rows = [
            (
                rec["estimator"],
                "hsic2" if "value_hsic2" in rec else "hsic",
                rec.get("value_hsic2", rec.get("value_hsic")),
                rec["n"],
                rec["d"],
                _joined(rec["blocks"]),
                _joined(rec["gamma"]),
                rec["seed"],
            )
            for rec in records
        ]
        _write_text(args.output, _csv_blocks(ESTIMATE_CSV_COLUMNS, zip(*rows)))
    return EXIT_OK


def cmd_analytic(args) -> int:
    block = _parse_blocks(args.blocks)
    gamma = _single_gamma(args.gamma)
    if (args.rho is None) == (args.input is None):
        raise CliError(EXIT_USAGE, "give exactly one of --rho and --input")
    if args.format is not None and args.output is None:
        raise CliError(EXIT_USAGE, "--format is read only with --output")
    if args.header and args.input is None:
        raise CliError(EXIT_USAGE, "--header is read only with --input")
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
        if args.format == "csv":
            # no --rho (a covariance file) is an empty cell
            cells = dict(payload, blocks=_joined(block.dims), rho="" if args.rho is None else args.rho)
            _write_text(args.output, _csv_blocks(tuple(cells), ([value] for value in cells.values())))
        else:
            _write_text(args.output, [_json_text(payload)])
    return EXIT_OK


def cmd_minimax(args) -> int:
    block = _parse_blocks(args.blocks)
    gamma = _single_gamma(args.gamma)
    seed = _check_seed(args.seed)
    n_grid = _parse_n_grid(args.n_grid) if args.n_grid else DEFAULT_N_GRID
    if len(n_grid) < 3:
        raise CliError(EXIT_USAGE, "rate fit needs ≥ 3 distinct grid points")
    kinds = list(dict.fromkeys(args.est or ["v", "u"]))
    _require_nystrom_for_landmarks(kinds, args.landmarks)
    estimators = tuple(
        Estimator(name=kind, kind=kind, landmarks=args.landmarks if kind == "nystrom" else None) for kind in kinds
    )
    report = run_experiment(ExperimentConfig(gamma, block, n_grid, estimators, args.reps, seed))

    base = args.output or "minimax_report"
    for suffix in (".json", ".csv"):
        if base.endswith(suffix):
            base = base[: -len(suffix)]
    _write_text(base + ".json", [_json_text(report.to_dict())])

    # one row per budget and estimator, budgets outer; the CLI always runs
    # at least one estimator
    rows = [
        {"n": n, "estimator": name, **{key: column[i] for key, column in {**report.columns, **risk}.items()}}
        for i, n in enumerate(report.config.n_grid)
        for name, risk in report.risks.items()
    ]
    table = ([row[key] for row in rows] for key in MINIMAX_CSV_COLUMNS)
    _write_text(base + ".csv", _csv_blocks(MINIMAX_CSV_COLUMNS, table))

    for name, fit in report.rate_fits.items():
        print(f"rate fit [{name}]: slope={fit.slope:.4f} r2={fit.r_squared:.4f}")
    print(f"lecam_value = {report.lecam_value!r}")
    print(f"certificates = {report.certificates}")
    print(f"wrote {base}.json and {base}.csv")

    violations = [ineq.violation() for ineq in report.inequalities if not ineq.ok]
    for line in violations:
        print(line)
    return EXIT_CERTIFICATE if violations else EXIT_OK


def cmd_certify(args) -> int:
    block = _parse_blocks(args.blocks)
    gamma = _single_gamma(args.gamma)
    seed = _check_seed(args.seed)
    grid = _parse_n_grid(args.n_grid) if args.n_grid else tuple(range(2, 1001))
    status = _status_stream(args.output)
    kept = []
    for n in grid:
        if n < 2:
            print(f"note: n={n} excluded (the construction needs a sample budget of at least 2)", file=status)
        else:
            kept.append(n)
    if not kept:
        raise CliError(EXIT_USAGE, "no usable budgets in --n-grid (all below 2)")

    estimate, se = verify_gap_partii(gamma, block, CERTIFY_SPECTRAL_FREQS, rng.derive(seed, "partii"))
    columns, inequalities = certificate_table(gamma, block, kept, (estimate, se))
    print(
        f"part-(ii) gap constant estimate: {estimate!r} ± {se!r} (1 SE), "
        f"N={CERTIFY_SPECTRAL_FREQS}",
        file=status,
    )

    numbers = [columns[name] for name in CERTIFY_CSV_COLUMNS[1:]]
    if args.format == "json":
        # tolist() yields Python floats, which JSON writes as their repr
        rows = zip(kept, *(column.tolist() for column in numbers))
        payload = {
            "gamma": gamma,
            "blocks": list(block.dims),
            "partii_estimate": estimate,
            "partii_se": se,
            "rows": [dict(zip(CERTIFY_CSV_COLUMNS, row)) for row in rows],
            "pass": {ineq.family: ineq.ok for ineq in inequalities},
            "margins": {
                ineq.family: {"min_margin": ineq.min_margin, "argmin_n": ineq.argmin_n} for ineq in inequalities
            },
        }
        _write_text(args.output, [_json_text(payload)])
    else:
        _write_text(args.output, _csv_blocks(CERTIFY_CSV_COLUMNS, [kept, *numbers]))

    # the verdict stays last, after the only ": " of the line
    for ineq in inequalities:
        verdict = "PASS" if ineq.ok else "FAIL"
        print(f"{ineq.statement} (min margin {ineq.min_margin:.3g} at n={ineq.argmin_n}): {verdict}", file=status)
    return EXIT_OK if all(ineq.ok for ineq in inequalities) else EXIT_CERTIFICATE


# --------------------------------- parser ----------------------------------


def _add_shared(sub: argparse.ArgumentParser, output_help: str) -> None:
    """The flags every subcommand reads."""
    sub.add_argument("--blocks", required=True, help="comma-separated block dims, e.g. 1,1")
    sub.add_argument(
        "--gamma", action="append", type=_positive_float, default=None, help="bandwidth; repeat per block"
    )
    sub.add_argument("--output", default=None, help=output_help)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hsiclab", description=__doc__)
    subparsers = parser.add_subparsers(dest="subcommand", required=True)

    est = subparsers.add_parser("estimate", help="run estimators on a CSV dataset")
    _add_shared(est, "output path (default: stdout)")
    est.add_argument("--input", required=True, help="CSV input path")
    est.add_argument("--header", action="store_true", help="skip one header line on input")
    est.add_argument("--kernel", choices=[family.value for family in KernelFamily], default="gaussian")
    est.add_argument("--seed", type=int, default=0, help="unsigned 64-bit master seed")
    est.add_argument("--format", choices=["csv", "json"], default="json")
    est.add_argument("--est", action="append", choices=["v", "u", "nystrom"], default=None)
    est.add_argument("--landmarks", type=int, default=None)
    est.add_argument(
        "--median-gamma",
        action="store_true",
        help="print per-block median-heuristic bandwidths (informational only, never applied)",
    )
    est.set_defaults(func=cmd_estimate)

    ana = subparsers.add_parser("analytic", help="closed-form HSIC for a Gaussian")
    _add_shared(ana, "also write the result to this path")
    ana.add_argument("--input", default=None, help="CSV covariance path")
    ana.add_argument("--header", action="store_true", help="skip one header line on input")
    ana.add_argument("--format", choices=["csv", "json"], default=None, help="with --output (default: json)")
    ana.add_argument("--rho", type=float, default=None, help="single-correlation covariance shorthand")
    ana.set_defaults(func=cmd_analytic)

    mini = subparsers.add_parser("minimax", help="risk simulation over an n-grid")
    _add_shared(mini, "report path without suffix (default: minimax_report)")
    mini.add_argument("--seed", type=int, default=0, help="unsigned 64-bit master seed")
    mini.add_argument("--n-grid", default=None, help="e.g. 64,128,256 or 64..256")
    mini.add_argument("--reps", type=int, default=200)
    mini.add_argument("--est", action="append", choices=["v", "u", "nystrom"], default=None)
    mini.add_argument("--landmarks", type=int, default=None)
    mini.set_defaults(func=cmd_minimax)

    cert = subparsers.add_parser("certify", help="tabulate the KL and gap certificates")
    _add_shared(cert, "output path (default: stdout)")
    cert.add_argument("--seed", type=int, default=0, help="unsigned 64-bit master seed")
    cert.add_argument("--format", choices=["csv", "json"], default="json")
    cert.add_argument("--n-grid", default=None, help="e.g. 2..1000 (default)")
    cert.set_defaults(func=cmd_certify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return err.code if isinstance(err, CliError) else EXIT_USAGE
    except MemoryError as err:
        # arguments that ask for more memory than the machine has, e.g. --reps
        print(f"error: out of memory: {str(err) or 'an allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
