"""The four benchmark workloads: their inputs (made from the benchmark seed),
the CLI calls of one iteration, and the correctness gates that feed
``error_rate``.

An iteration is the unit of timed work: a fixed set of CLI calls.  All
iterations of a run go to one child process, one after another.  Iteration k
of seed s passes the program the seed ``derive(s, name, k)``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CERTIFY_GAMMAS = (0.25, 0.5, 1.0, 2.0, 4.0)
CERTIFY_BLOCKS = ("1,1", "2,2", "3,1,2", "4,4")
ESTIMATE_REL_TOL = 1e-9
# criterion 7 of the acceptance suite: the n^-1/2 rate band
RATE_BAND = (-0.65, -0.35)
RATE_MIN_R2 = 0.95
# pooled replicates per budget below which the rate gate is too noisy to hold
# for every seed (measured: 20 pooled replicates miss the band 3 times in 40)
RATE_MIN_POOLED_REPS = 40


def derive(seed: int, *labels) -> int:
    """64-bit seed for the program, keyed by the benchmark seed and labels."""
    h = hashlib.sha256(str(seed).encode())
    for label in labels:
        h.update(b"\0" + str(label).encode())
    return int.from_bytes(h.digest()[:8], "little")


@dataclass
class Op:
    """One attempted operation: a CLI call or an output check."""

    name: str
    ok: bool
    detail: str = ""


def _call_op(name: str, call: dict) -> Op:
    if call["code"] == 0:
        return Op(name, True)
    return Op(name, False, f"exit {call['code']}: {call['stderr'].strip()[-300:]}")


def _finite_positive(x) -> bool:
    return isinstance(x, (int, float)) and math.isfinite(x) and x > 0


class Minimax:
    """``hsiclab minimax`` on one grid; one CLI call per iteration."""

    item = "replicates"

    def __init__(self, name, why, blocks, grid, estimators, landmarks, reps, min_iterations, rate_gate):
        self.name, self.why = name, why
        self.blocks, self.grid, self.estimators = blocks, grid, estimators
        self.landmarks, self.reps = landmarks, reps
        self.min_iterations, self.rate_gate = min_iterations, rate_gate
        self.items_per_iteration = len(grid) * 2 * reps
        self.rmse: list[dict] = []  # per checked iteration: (n, est) -> (null, alt)

    def prepare(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def calls(self, k: int) -> list[dict]:
        base = self.work / f"{self.name}_{k}"
        argv = ["minimax", "--blocks", self.blocks, "--gamma", "1", "--reps", str(self.reps)]
        argv += ["--n-grid", ",".join(map(str, self.grid))]
        for est in self.estimators:
            argv += ["--est", est]
        if self.landmarks:
            argv += ["--landmarks", str(self.landmarks)]
        argv += ["--seed", str(derive(self.seed, self.name, k)), "--output", str(base)]
        return [{"argv": argv, "outputs": [f"{base}.json", f"{base}.csv"]}]

    def check(self, k: int, reply: dict) -> list[Op]:
        (call,) = reply["calls"]
        ops = [_call_op(f"{self.name}[{k}] minimax", call)]
        if not ops[0].ok:
            return ops
        report = json.loads((self.work / f"{self.name}_{k}.json").read_text())
        problems = []
        if not all(report["certificates"].values()) or len(report["certificates"]) != 2:
            problems.append(f"certificates {report['certificates']}")
        if [rec["n"] for rec in report["records"]] != list(self.grid):
            problems.append("grid mismatch")
        rmse = {}
        for rec in report["records"]:
            for est in self.estimators:
                risk = rec["sup_risk"].get(est)
                if not _finite_positive(risk):
                    problems.append(f"sup_risk[{est}] at n={rec['n']} is {risk!r}")
                rmse[(rec["n"], est)] = (rec["rmse_null"].get(est), rec["rmse_alt"].get(est))
        self.rmse.append(rmse)
        ops.append(Op(f"{self.name}[{k}] report", not problems, "; ".join(problems)))
        return ops

    def check_run(self) -> list[Op]:
        """Criterion-7 rate band on risks pooled over the run's iterations
        (each one an independent draw of ``reps`` replicates per budget)."""
        if not self.rate_gate or len(self.rmse) * self.reps < RATE_MIN_POOLED_REPS:
            return []
        ops = []
        x = np.log(np.asarray(self.grid, dtype=float))
        for est in ("v", "u"):
            sup = []
            for n in self.grid:
                null = [it[(n, est)][0] for it in self.rmse]
                alt = [it[(n, est)][1] for it in self.rmse]
                sup.append(max(math.sqrt(np.mean(np.square(null))), math.sqrt(np.mean(np.square(alt)))))
            y = np.log(sup)
            slope, intercept = np.polyfit(x, y, 1)
            resid = y - (slope * x + intercept)
            r2 = 1.0 - float(resid @ resid) / float((y - y.mean()) @ (y - y.mean()))
            ok = RATE_BAND[0] <= slope <= RATE_BAND[1] and r2 >= RATE_MIN_R2
            detail = f"slope={slope:.4f} r2={r2:.4f} over {len(self.rmse) * self.reps} pooled reps"
            ops.append(Op(f"{self.name} rate fit [{est}]", ok, detail))
        return ops


class CertifySweep:
    """``hsiclab certify`` over gamma x block structures; 20 calls per iteration."""

    item = "budgets"

    def __init__(self, name, why, n_max, min_iterations):
        self.name, self.why = name, why
        self.n_max, self.min_iterations = n_max, min_iterations
        self.combos = [(g, b) for b in CERTIFY_BLOCKS for g in CERTIFY_GAMMAS]
        self.items_per_iteration = len(self.combos) * (n_max - 1)

    def prepare(self, work: Path, seed: int) -> None:
        self.work, self.seed = work, seed

    def _out(self, k: int, i: int) -> Path:
        return self.work / f"certify_{k}_{i}.csv"

    def calls(self, k: int) -> list[dict]:
        out = []
        for i, (gamma, blocks) in enumerate(self.combos):
            argv = ["certify", "--blocks", blocks, "--gamma", repr(gamma), "--n-grid", f"2..{self.n_max}"]
            argv += ["--seed", str(derive(self.seed, self.name, k, i))]
            argv += ["--output", str(self._out(k, i)), "--format", "csv"]
            out.append({"argv": argv, "outputs": [str(self._out(k, i))]})
        return out

    def check(self, k: int, reply: dict) -> list[Op]:
        ops = []
        for i, call in enumerate(reply["calls"]):
            label = f"{self.name}[{k}] certify {self.combos[i]}"
            ops.append(_call_op(label, call))
            if not ops[-1].ok:
                continue
            problems = []
            verdicts = [line.rsplit(": ", 1)[-1] for line in call["stdout"].splitlines() if ": PASS" in line or ": FAIL" in line]
            if verdicts != ["PASS"] * 4:
                problems.append(f"verdicts {verdicts}")
            with open(self._out(k, i), newline="", encoding="utf-8") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != self.n_max - 1:
                problems.append(f"{len(rows)} rows for {self.n_max - 1} budgets")
            bad = [r["n"] for r in rows if not float(r["partii_margin"]) > 0]
            if bad:
                problems.append(f"non-positive part-(ii) margin at n={bad[:5]}")
            ops.append(Op(label + " table", not problems, "; ".join(problems)))
        return ops

    def check_run(self) -> list[Op]:
        return []


def reference_hsic_vu(values: np.ndarray, split: int, tile: int = 256) -> tuple[float, float]:
    """Two-block V and U statistics under unit-bandwidth Gaussian kernels,
    recomputed over row tiles with compensated (fsum) accumulation.  The
    diagonal of each Gram is exactly 1 (zero lag)."""
    n = values.shape[0]
    blocks = (values[:, :split], values[:, split:])
    partial = []
    k_rows, l_rows = np.empty(n), np.empty(n)
    for i0 in range(0, n, tile):
        i1 = min(i0 + tile, n)
        grams = []
        for b in blocks:
            sq = np.zeros((i1 - i0, n))
            for q in range(b.shape[1]):
                diff = b[i0:i1, q, None] - b[None, :, q]
                sq += diff * diff
            grams.append(np.exp(-0.5 * sq))
        k, l = grams
        partial.append(math.fsum((k * l).sum(axis=1)))
        k_rows[i0:i1] = k.sum(axis=1)
        l_rows[i0:i1] = l.sum(axis=1)
    total = math.fsum(partial)
    v = total / n**2 + math.fsum(k_rows) * math.fsum(l_rows) / n**4 - 2.0 * math.fsum(k_rows * l_rows) / n**3
    sk, sl = k_rows - 1.0, l_rows - 1.0
    t2 = math.fsum(sk) * math.fsum(sl) / ((n - 1) * (n - 2))
    t3 = 2.0 * math.fsum(sk * sl) / (n - 2)
    u = (total - n + t2 - t3) / (n * (n - 3))
    return v, u


class EstimateCsv:
    """``hsiclab estimate`` on one generated CSV; one CLI call per iteration."""

    item = "rows"
    blocks = "2,1"

    def __init__(self, name, why, n, landmarks, min_iterations):
        self.name, self.why = name, why
        self.n, self.landmarks, self.min_iterations = n, landmarks, min_iterations
        self.items_per_iteration = n

    def prepare(self, work: Path, seed: int) -> None:
        """Write the dataset and recompute V and U outside the timed phase:
        block 0 is two coordinates, block 1 one coordinate correlated with
        the first of them (rho 0.6)."""
        self.work, self.seed = work, seed
        z = np.random.default_rng(derive(seed, self.name, "data")).standard_normal((self.n, 3))
        z[:, 2] = 0.6 * z[:, 0] + 0.8 * z[:, 2]
        self.csv = work / "estimate_input.csv"
        with open(self.csv, "w", encoding="utf-8") as handle:
            for row in z:
                handle.write(",".join(repr(float(v)) for v in row) + "\n")
        self.v_ref, self.u_ref = reference_hsic_vu(z, 2)

    def _out(self, k: int) -> Path:
        return self.work / f"estimate_{k}.json"

    def calls(self, k: int) -> list[dict]:
        argv = ["estimate", "--input", str(self.csv), "--blocks", self.blocks]
        argv += ["--est", "v", "--est", "u", "--est", "nystrom", "--landmarks", str(self.landmarks)]
        argv += ["--median-gamma", "--seed", str(derive(self.seed, self.name, k)), "--output", str(self._out(k))]
        return [{"argv": argv, "outputs": [str(self._out(k))]}]

    def check(self, k: int, reply: dict) -> list[Op]:
        (call,) = reply["calls"]
        ops = [_call_op(f"{self.name}[{k}] estimate", call)]
        if not ops[0].ok:
            return ops
        records = {r["estimator"]: r for r in json.loads(self._out(k).read_text())}
        problems = []
        for est, ref in (("v", self.v_ref), ("u", self.u_ref)):
            got = records.get(est, {}).get("value_hsic2")
            if not isinstance(got, float) or not abs(got - ref) <= ESTIMATE_REL_TOL * abs(ref):
                problems.append(f"{est}={got!r} vs reference {ref!r}")
        nys = records.get("nystrom", {}).get("value_hsic")
        if not (isinstance(nys, float) and math.isfinite(nys) and nys >= 0):
            problems.append(f"nystrom={nys!r}")
        if call["stdout"].count("median-heuristic gamma") != 2:
            problems.append("median-heuristic lines missing")
        ops.append(Op(f"{self.name}[{k}] values", not problems, "; ".join(problems)))
        return ops

    def check_run(self) -> list[Op]:
        return []


def build(name: str, smoke: bool):
    """The workload called ``name``; ``smoke`` shrinks it to a few seconds
    (and drops the rate gate, which needs many replicates)."""
    if name == "minimax_default":
        return Minimax(
            name,
            "README headline minimax run on the default grid 64..4096: bandwidth-bound Gram passes",
            "1,1",
            (64, 128, 256) if smoke else (64, 128, 256, 512, 1024, 2048, 4096),
            ("v", "u"),
            None,
            reps=2 if smoke else 4,
            min_iterations=1 if smoke else 10,
            rate_gate=not smoke,
        )
    if name == "minimax_small_n":
        return Minimax(
            name,
            "minimax at n 8..256 with Nystrom: cache-resident Grams, per-replicate overhead dominates",
            "2,2",
            (8, 16, 32, 64, 128, 256),
            ("v", "u", "nystrom"),
            4,
            reps=4 if smoke else 100,
            min_iterations=1 if smoke else 5,
            rate_gate=False,
        )
    if name == "estimate_n4096":
        return EstimateCsv(
            name,
            "estimate on an n=4096 CSV: dense 134 MB Grams, CSV parse, median heuristic, V/U/Nystrom estimators",
            512 if smoke else 4096,
            64,
            min_iterations=1 if smoke else 5,
        )
    if name == "certify_sweep":
        return CertifySweep(
            name,
            "certify tables over 5 gammas x 4 block structures: closed forms, no Gram (control)",
            50 if smoke else 5000,
            min_iterations=1 if smoke else 3,
        )
    raise KeyError(name)


NAMES = ("minimax_default", "minimax_small_n", "estimate_n4096", "certify_sweep")
