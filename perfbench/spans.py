"""Per-layer tracing for the benchmark child: spans around hsiclab's public
functions, installed from outside the package by rebinding module globals.

Only public names are wrapped.  ``lecam`` calls private estimator helpers
(``_two_block_stats`` and friends) inline; their time therefore lands in
``lecam.run_experiment.self_s``.  ``cli.<subcommand>`` is the root span of
each CLI call, so its self time is parsing, formatting, writing and the
median heuristic.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>"
SPAN_TARGETS = (
    ("rng", "stream"),
    ("rng", "derive"),
    ("gaussian", "sample"),
    ("gaussian", "kl_adversarial_exact"),
    ("gaussian", "kl_adversarial_bound"),
    ("kernels", "gram"),
    ("analytic", "adversarial_hsic2"),
    ("analytic", "hsic2_gaussian"),
    ("estimators", "hsic_v"),
    ("estimators", "hsic_u"),
    ("estimators", "hsic_nystrom"),
    ("spectral", "verify_gap_partii"),
    ("spectral", "gap_constant_partii"),
    ("lecam", "run_experiment"),
    ("cli", "read_matrix"),
)


def gram_computed_bytes(rows: int, cols: int, dims: int) -> int:
    """Bytes `kernels.gram` streams through its (rows x cols) float64 result,
    counted from array sizes (cache hits ignored): lag of the first coordinate
    (write + read/write = 3 passes), 6 passes per further coordinate (scratch
    write, square in place, accumulate), then scale and exp in place (4)."""
    return 8 * rows * cols * (7 + 6 * (dims - 1))


class Tracer:
    """Aggregated spans: per name a call count and self time (duration minus
    the time of traced children).  Everything stays in memory."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.budget_s: dict[int, float] = {}
        self.gram_bytes = 0
        self.gram_self_calls = 0  # n x n Grams of the current dataset
        self.datasets = 0
        self._dataset_n = None
        self._stack: list[list[float]] = []
        self._budget: tuple[int, float] | None = None

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "self_s": self.self_s,
            "budget_s": {str(n): s for n, s in self.budget_s.items()},
            "gram_bytes": self.gram_bytes,
            "gram_self_calls": self.gram_self_calls,
            "datasets": self.datasets,
        }

    def _close(self, name: str, start: float, frame: list[float]) -> None:
        dur = perf_counter() - start
        self._stack.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    def run(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called ``name``."""
        frame = [0.0]
        self._stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(name, start, frame)

    def wrap(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.run(name, fn, *args, **kwargs)

        return wrapper

    # --- layer-specific hooks ---

    def _wrap_gram(self, fn):
        def gram(spec, x, y, *args, **kwargs):
            out = self.run("kernels.gram", fn, spec, x, y, *args, **kwargs)
            rows, cols = out.shape
            self.gram_bytes += gram_computed_bytes(rows, cols, x.shape[-1])
            if rows == cols == self._dataset_n:
                self.gram_self_calls += 1
            return out

        return gram

    def _wrap_dataset_init(self, fn):
        def __post_init__(ds):
            self.run("data.Dataset", fn, ds)
            self.datasets += 1
            self._dataset_n = ds.values.shape[0]

        return __post_init__

    def _wrap_run_experiment(self, fn):
        def run_experiment(*args, **kwargs):
            try:
                return self.run("lecam.run_experiment", fn, *args, **kwargs)
            finally:
                self._end_budget()

        return run_experiment

    def _wrap_build_pair(self, fn):
        # not a span: marks where run_experiment moves on to the next budget n
        def build_pair(n, *args, **kwargs):
            self._end_budget()
            self._budget = (int(n), perf_counter())
            return fn(n, *args, **kwargs)

        return build_pair

    def _end_budget(self) -> None:
        if self._budget is not None:
            n, start = self._budget
            self.budget_s[n] = self.budget_s.get(n, 0.0) + perf_counter() - start
            self._budget = None


def _rebind(original, replacement) -> None:
    """Point every hsiclab module global bound to ``original`` at ``replacement``."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "hsiclab" or mod_name.startswith("hsiclab.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every traced name; raise if one of them no longer exists."""
    import importlib

    special = {
        ("kernels", "gram"): tracer._wrap_gram,
        ("lecam", "run_experiment"): tracer._wrap_run_experiment,
        ("lecam", "build_pair"): tracer._wrap_build_pair,
    }
    for mod_name, attr in SPAN_TARGETS + (("lecam", "build_pair"),):
        mod = importlib.import_module(f"hsiclab.{mod_name}")
        original = getattr(mod, attr, None)
        if not callable(original):
            raise RuntimeError(f"traced name hsiclab.{mod_name}.{attr} is missing")
        make = special.get((mod_name, attr))
        replacement = make(original) if make else tracer.wrap(f"{mod_name}.{attr}", original)
        _rebind(original, replacement)

    data = importlib.import_module("hsiclab.data")
    dataset = getattr(data, "Dataset", None)
    post_init = getattr(dataset, "__post_init__", None)
    if post_init is None:
        raise RuntimeError("traced name hsiclab.data.Dataset.__post_init__ is missing")
    dataset.__post_init__ = tracer._wrap_dataset_init(post_init)
