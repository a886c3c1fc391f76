"""Benchmark child process: imports ``hsiclab.cli``, says "ready" on stdout,
then does the job named by its one argument (a JSON file).

Job kinds:
  serve  - the workload client's server side: for each JSON line on stdin (a
           list of CLI calls), run ``hsiclab.cli.main`` on each argv in turn
           and answer with one JSON line; stop at end of input.  With
           ``trace`` set, every call runs inside the per-layer tracer;
  setup  - only the import, the handshake and three calibrations;
  probe  - memory bandwidth: repeated copies between two float64 arrays.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import traceback
from time import perf_counter

CAL_SLICES = 8


def calibrate() -> float:
    """Median seconds of CAL_SLICES fixed slices of numpy and interpreter work:
    the CPU speed this process gets right now, unrelated to hsiclab's code."""
    import numpy as np

    a = np.linspace(0.0, 1.0, 192)
    times = []
    for _ in range(CAL_SLICES):
        t0 = perf_counter()
        for _ in range(10):
            float(np.exp(-0.5 * (a[:, None] - a[None, :]) ** 2).sum())
            sum(i * i for i in range(1500))
        times.append(perf_counter() - t0)
    return sorted(times)[CAL_SLICES // 2]


def run_calls(calls: list[dict], cli, tracer) -> dict:
    """Run one iteration; calibrate (untimed) after each call."""
    if tracer is not None:
        tracer.reset()
    results, cal = [], []
    for call in calls:
        argv = call["argv"]
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = cli.main(argv)
                else:
                    code = tracer.run(f"cli.{argv[0]}", cli.main, argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed operation, not a benchmark failure
                code = None
                err.write(traceback.format_exc())
        wall = perf_counter() - t0
        cal.append(calibrate())
        results.append({"code": code, "wall_s": wall, "stdout": out.getvalue(), "stderr": err.getvalue()})

    output_bytes = sum(len(r["stdout"].encode("utf-8")) for r in results)
    for call in calls:
        output_bytes += sum(os.path.getsize(p) for p in call["outputs"] if os.path.exists(p))
    reply = {"wall_s": sum(r["wall_s"] for r in results), "cal_s": cal, "calls": results, "output_bytes": output_bytes}
    if tracer is not None:
        reply["trace"] = tracer.summary()
    return reply


def serve(job: dict, cli, proto) -> None:
    tracer = None
    if job["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    for line in sys.stdin:
        reply = run_calls(json.loads(line), cli, tracer)
        proto.write(json.dumps(reply) + "\n")
        proto.flush()


def probe(job: dict, proto) -> None:
    import numpy as np

    n = job["probe_bytes"] // 8
    src = np.ones(n)
    dst = np.full(n, 2.0)
    np.copyto(dst, src)  # every page touched and mapped before timing
    seconds = []
    for _ in range(job["probe_repeats"]):
        t0 = perf_counter()
        np.copyto(dst, src)
        seconds.append(perf_counter() - t0)
    # a copy reads one array and writes the other
    proto.write(json.dumps({"copy_gbs": [2 * 8 * n / s / 1e9 for s in seconds]}) + "\n")


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as handle:
        job = json.load(handle)
    t0 = perf_counter()
    from hsiclab import cli

    import_s = perf_counter() - t0
    proto = sys.stdout
    proto.write(json.dumps({"ready": True, "import_s": import_s}) + "\n")
    proto.flush()
    if job["kind"] == "serve":
        serve(job, cli, proto)
    elif job["kind"] == "probe":
        probe(job, proto)
    else:
        proto.write(json.dumps({"cal_s": [calibrate() for _ in range(3)]}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
