"""Command-line harness: dataset ingestion, estimator invocation, closed-form
evaluation, certificate tables, and experiment orchestration.

Subcommands: ``estimate``, ``analytic``, ``minimax``, ``certify``.
Exit codes: 0 success, 1 certificate violation, 2 data error, 3 usage error.
A ``ValueError`` from the library is a rule the arguments broke, and a
``MemoryError`` a request too large for the machine: both exit 3.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
import warnings

import numpy as np

from . import rng
from .analytic import hsic2_gaussian
from .data import BlockStructure, Dataset
from .estimators import block_stats, hsic_nystrom, median_lags
from .gaussian import GaussianMeasure, make_adversarial_cov
from .kernels import KernelFamily, KernelSpec, ProductKernel
from .lecam import DEFAULT_N_GRID, Estimator, ExperimentConfig, certificate_table, run_experiment
from .spectral import verify_gap_partii

EXIT_OK = 0
EXIT_CERTIFICATE = 1
EXIT_DATA = 2
EXIT_USAGE = 3

CERTIFY_SPECTRAL_FREQS = 200_000
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
    """Parse a comma-separated numeric file (UTF-8, no header by default)
    with numpy's reader. Input that it refuses or cannot read twice, or that
    holds no rows or a value that is not finite, is read by ``_data_rows``."""
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot read {path}: {exc}") from exc
    with handle, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)  # _data_rows says so
        if handle.seekable():
            with contextlib.suppress(ValueError):  # a UnicodeDecodeError too
                values = np.loadtxt(handle, delimiter=",", ndmin=2, comments=None, skiprows=int(header))
                if values.size and np.isfinite(values).all():
                    return values
            handle.seek(0)
        rows = _data_rows(path, handle, header)
        first = next(rows, None)
        if first is None:
            raise CliError(EXIT_DATA, f"{path}: no data rows")
        return np.fromiter(itertools.chain(first, itertools.chain.from_iterable(rows)), float).reshape(-1, len(first))


def _data_rows(path: str, lines, header: bool):
    """The data lines in turn, each as Python's floats of its stripped cells
    (numpy strips U+001C-U+001F from a cell too, where ``float`` does not).
    Raises the data error of the first line that holds a cell that is not a
    finite number or another number of cells than the first, or of a byte
    that is not UTF-8."""
    width = None
    try:
        for i, line in enumerate(lines, start=1):
            cells = line.strip().split(",")
            if cells == [""] or (header and i == 1):
                continue
            row = list(map(_finite, cells))
            if None in row:
                j = row.index(None)
                message = f"{path}: line {i}, column {j + 1}: {cells[j].strip()!r} is not a finite number"
                raise CliError(EXIT_DATA, message)
            width = width or len(row)
            if len(row) != width:
                raise CliError(EXIT_DATA, f"{path}: line {i}: expected {width} columns, found {len(row)}")
            yield row
    except UnicodeDecodeError as exc:
        raise CliError(EXIT_DATA, f"{path}: not UTF-8 text: cannot decode byte 0x{exc.object[exc.start]:02x}") from exc


def _finite(cell: str) -> float | None:
    try:
        value = float(cell.strip())
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def read_dataset(path: str, block: BlockStructure, header: bool = False) -> Dataset:
    values = read_matrix(path, header=header)
    if values.shape[1] != block.total:
        raise CliError(EXIT_USAGE, f"block dims sum {block.total} ≠ {values.shape[1]} columns in {path}")
    return Dataset(values, block)


def _write_text(path: str | None, chunks) -> None:
    """Write the text chunks in turn to path, or to stdout without one.  An
    unwritable path is a data error; a closed stdout is left to ``entrypoint``."""
    if path is None:
        sys.stdout.writelines(chunks)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise CliError(EXIT_DATA, f"cannot write {path}: {exc}") from exc


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
    from ``_joined``.  As in JSON, nan and inf are refused: a float column
    that holds one is a data error at the call, before any text is made."""
    columns = list(columns)
    for name, column in zip(header, columns):
        if isinstance(column, np.ndarray) or isinstance(column[0], float):
            values = np.asarray(column, dtype=float)
            finite = np.isfinite(values)
            if not finite.all():
                raise CliError(EXIT_DATA, f"cannot write CSV: column {name} holds {float(values[~finite][0])!r}")

    def blocks():
        yield ",".join(header) + "\n"
        for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
            cells = []
            for column in columns:
                part = column[start : start + CSV_BLOCK_ROWS]
                if isinstance(part, np.ndarray):
                    part = part.tolist()
                cells.append(part if isinstance(part[0], str) else map(repr, part))
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    return blocks()


# ------------------------------- subcommands --------------------------------


def _median_suggestion(median: float | None) -> str:
    """The text of one block's median-heuristic line: the bandwidth 1/median,
    or in words why there is none."""
    if median is None:
        return "none, no pairwise lag is positive"
    if median == math.inf:
        return "none, the median pairwise lag overflows"
    gamma = 1.0 / median
    if gamma == math.inf:
        return f"none, the median pairwise lag {median!r} is too small to invert"
    return f"{gamma!r} (not applied)"


def cmd_estimate(args) -> int:
    block = _parse_blocks(args.blocks)
    seed = _check_seed(args.seed)
    family = KernelFamily(args.kernel)
    gammas = _gammas_for(block, args.gamma)
    kinds = args.est or ["v"]
    _require_nystrom_for_landmarks(kinds, args.landmarks)
    data = read_dataset(args.input, block, header=args.header)

    medians = median_lags(family, data, seed) if args.median_gamma else []
    pk = ProductKernel(block, tuple(KernelSpec(family, g) for g in gammas))
    stats = None  # one tiled pass serves both the V and the U result
    results = []  # (estimator, scale, value), one per --est
    for kind in kinds:
        if kind == "nystrom":
            results.append((kind, "hsic", hsic_nystrom(pk, data, args.landmarks, rng.derive(seed, "nystrom"))))
        else:
            stats = stats or block_stats(pk, data)
            results.append((kind, "hsic2", float(stats.v_statistic() if kind == "v" else stats.u_statistic())))

    if args.format == "json":
        shared = {"n": data.n, "d": data.d, "blocks": list(block.dims), "gamma": gammas, "seed": seed}
        records = [{"estimator": kind, f"value_{scale}": value, **shared} for kind, scale, value in results]
        for record in records:
            if record["estimator"] == "nystrom":
                record["landmarks"] = args.landmarks
        _write_text(args.output, [_json_text(records)])
    else:
        rows = [(*result, data.n, data.d, _joined(block.dims), _joined(gammas), seed) for result in results]
        _write_text(args.output, _csv_blocks(ESTIMATE_CSV_COLUMNS, zip(*rows)))
    # the lines follow the document, so a failed run leaves only its error line
    for m, median in enumerate(medians):
        print(f"median-heuristic gamma for block {m}: {_median_suggestion(median)}", file=_status_stream(args.output))
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
            if cov.shape[0] != cov.shape[1]:
                raise CliError(EXIT_DATA, f"covariance must be square, got shape {cov.shape}")
            if cov.shape[0] != block.total:
                raise CliError(EXIT_USAGE, f"block dims sum {block.total} ≠ {cov.shape[0]} columns in {args.input}")
        measure = GaussianMeasure(np.zeros(block.total), cov)
    except ValueError as exc:
        raise CliError(EXIT_DATA, str(exc)) from exc

    dec = hsic2_gaussian(measure, block, gamma)
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
    # the lines follow the document, so an unwritable one leaves only its
    # error line
    print(f"hsic2 = {dec.value!r}")
    print(f"hsic = {dec.hsic!r}")
    print(f"term_i = {dec.term_i!r}")
    print(f"term_ii = {dec.term_ii!r}")
    print(f"term_iii = {dec.term_iii!r}")
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
    try:
        _write_text(base + ".csv", _csv_blocks(MINIMAX_CSV_COLUMNS, table))
    except CliError:
        # the report is both documents or neither
        with contextlib.suppress(OSError):
            os.remove(base + ".json")
        raise

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
    kept = [n for n in grid if n >= 2]
    # one note, however many budgets are below 2
    excluded = len(grid) - len(kept)
    if excluded:
        first = next(n for n in grid if n < 2)
        what = f"n={first} excluded" if excluded == 1 else f"{excluded} budgets excluded, the first n={first}"
        print(f"note: {what} (the construction needs a sample budget of at least 2)", file=status)
    if not kept:
        raise CliError(EXIT_USAGE, "no usable budgets in --n-grid (all below 2)")

    estimate, se = verify_gap_partii(gamma, block, CERTIFY_SPECTRAL_FREQS, rng.derive(seed, "partii"))
    columns, inequalities = certificate_table(gamma, block, kept, (estimate, se))

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

    # status lines follow the document, so an unwritable one leaves only its
    # error line; the verdict stays last, after the only ": " of the line
    print(f"part-(ii) gap constant estimate: {estimate!r} ± {se!r} (1 SE), N={CERTIFY_SPECTRAL_FREQS}", file=status)
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
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError as exc:
        # stdout's reader left early, e.g. `| head`: stdout now goes to the
        # null device, so the interpreter's last flush has no pipe to fail on
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        code = EXIT_DATA
    raise SystemExit(code)


if __name__ == "__main__":
    entrypoint()
