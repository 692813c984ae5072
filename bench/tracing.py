"""Per-layer numbers from an in-process run of ``splitgamma.cli.main``.

Nothing inside the package is edited.  Before a traced pass every public
function of every ``splitgamma`` module is replaced, in every module
namespace that binds it, by a wrapper that records a span (name, start, end,
parent span, job) and bumps counters computed from the call's arguments and
result.  ``from .core import gamma`` gives ``periodicity`` and ``density``
their own binding, which is why all namespaces are patched, and why one
wrapper object stands for one function everywhere.

A layer's self time is the time of its spans minus the time covered by their
direct children.  Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import importlib
import inspect
import io
import math
import statistics
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

LAYERS = ("core", "sequences", "periodicity", "density", "explorer", "cli")

# per-layer metric name -> unit; BENCHMARK.json lists the same names
PER_LAYER = {
    "core.self_s": "s",
    "core.calls.gamma": "count",
    "core.calls.solve_split": "count",
    "core.calls.mod_inverse": "count",
    "core.inverses_per_pair": "ratio",
    "core.operand_bits_max": "bits",
    "sequences.self_s": "s",
    "sequences.calls.term_mod": "count",
    "sequences.calls.fib_pair": "count",
    "sequences.terms_yielded": "count",
    "periodicity.self_s": "s",
    "periodicity.calls.state_period_mod": "count",
    "periodicity.states": "count",
    "periodicity.alloc_peak_mb": "MB",
    "periodicity.window_bits": "count",
    "periodicity.window_useful_ratio": "ratio",
    "density.self_s": "s",
    "density.steps": "count",
    "explorer.self_s": "s",
    "explorer.calls.rs_solve": "count",
    "explorer.dp_cells": "count",
    "explorer.dp_useful_ratio": "ratio",
    "explorer.records_written": "count",
    "explorer.records_reread": "count",
    "explorer.bytes_written": "bytes",
    "explorer.pool_speedup": "ratio",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """Spans in flat arrays (index = span id) plus named counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.parent = array("l")
        self.job = array("l")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.job_id = 0
        self.counts: Counter = Counter()
        self.pair_depth = 0  # open gamma/solve_split spans
        self.last_state_period = None
        self.state_period_args: list[tuple] = []
        self.scan_walls: dict[tuple, dict[int, float]] = {}

    def name_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def parent_name(self) -> str:
        top = self.stack[-1]
        return self.names[self.name[top]] if top >= 0 else ""

    def calls(self, qual: str) -> int:
        """Calls of a traced function: its span count (generators: creations)."""
        if f"{qual}.calls" in self.counts:
            return self.counts[f"{qual}.calls"]
        nid = self.name_ids.get(qual)
        return 0 if nid is None else self.name.tolist().count(nid)

    def self_times(self, overhead_s: float = 0.0) -> dict[str, float]:
        """Self seconds per layer: span time minus direct children's time.

        Each child span also costs its parent ``overhead_s`` of tracing
        work, which is taken off the parent's self time.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i] + overhead_s
        layer_of = [name.split(".", 1)[0] for name in self.names]
        out = dict.fromkeys(LAYERS, 0.0)
        for i in range(n):
            out[layer_of[self.name[i]]] += max(self.end[i] - self.start[i] - child[i], 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="", compresslevel=1) as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(("span", "parent", "job", "name", "start_s", "end_s"))
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                w.writerow((i, self.parent[i], self.job[i], self.names[self.name[i]],
                            f"{self.start[i] - t0:.7f}", f"{self.end[i] - t0:.7f}"))


# ---------------- Counters taken at the boundaries ----------------


def _rs_cells(tr: Tracer, a: int, b: int, r: int, s: int, cap: int) -> None:
    # rs_solve fills a 2-coin table over 0..rhs and reads one or two cells
    num = (a - r) * (b - s)
    if num % 2 == 0 and 0 <= num // 2 <= cap and a >= 1 and b >= 1 and math.gcd(a, b) == 1:
        rhs = num // 2
        tr.counts["explorer.dp_cells"] += (rhs + 1) * 2
        tr.counts["explorer.dp_reads"] += 1 + (rhs >= 1)


def _bound_args(qual: str, args: tuple, kwargs: dict) -> tuple:
    """All positional arguments of a call, defaults filled in."""
    fn = _ORIGINALS[qual]
    if not kwargs and len(args) == fn.__code__.co_argcount:
        return args  # the package's own callers pass everything positionally
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.args


def _before(tr: Tracer, qual: str, args: tuple, kwargs: dict):
    if qual == "periodicity.gamma_row" and tr.parent_name() == "periodicity.row_period":
        tr.counts["periodicity.window_bits"] += args[3] if len(args) > 3 else kwargs["count"]
    elif qual == "periodicity.row_period":
        tr.last_state_period = None
    elif qual == "density.build_density_sequence":
        tr.counts["density.steps"] += args[1] if len(args) > 1 else kwargs["n_max"]
    elif qual == "explorer.rs_solve":
        _rs_cells(tr, *_bound_args(qual, args, kwargs))
    elif qual == "explorer.nvar_classify":
        coeffs, cap = _bound_args(qual, args, kwargs)
        coeffs = tuple(coeffs)
        num = math.prod(c - 1 for c in coeffs)
        if num % 2 == 0 and all(c >= 1 for c in coeffs) and num // 2 <= cap:
            rhs = num // 2
            tr.counts["explorer.dp_cells"] += (rhs + 1) * len(coeffs)
            tr.counts["explorer.dp_reads"] += sum(1 for i in range(len(coeffs)) if rhs - i >= 0)
    elif qual == "explorer.run_scan":
        return _scan_before(tr, args, kwargs)
    return None


def _after(tr: Tracer, qual: str, args: tuple, kwargs: dict, result, state) -> None:
    if qual == "periodicity.state_period_mod":
        tr.counts["periodicity.states"] += result.preperiod + result.period
        tr.last_state_period = result
        tr.state_period_args.append((args, kwargs))
    elif qual == "periodicity.row_period":
        sp = tr.last_state_period
        if sp is not None:
            base = max(result.preperiod, sp.preperiod)
            tr.counts["periodicity.window_needed"] += base + sp.period + result.period
    elif qual == "explorer.run_scan":
        _scan_after(tr, result, state)


def _scan_before(tr: Tracer, args: tuple, kwargs: dict):
    names = inspect.signature(_ORIGINALS["explorer.run_scan"]).parameters
    p = dict(zip(names, _bound_args("explorer.run_scan", args, kwargs)))
    out = Path(p["out_path"])
    ckpt = out.with_name(out.name + ".checkpoint")
    done = 0
    if p["resume"] and ckpt.exists() and out.exists():
        done = min(int(ckpt.read_text().strip() or 0), p["x_max"])
    size = out.stat().st_size if done else 0
    reread = 0
    if done:
        with out.open() as fh:
            reread = sum(1 for line in fh if line.strip()) - (p["fmt"] == "csv")
    shards = range(done + 1, p["x_max"] + 1)
    if p["jobs"] > 1 and len(shards) > 1:
        # shards run in forked workers whose spans are lost: count their
        # rs_solve calls and table cells here, from the scan's arguments
        for a in shards:
            for b in range(1, p["x_max"] + 1):
                if math.gcd(a, b) == 1:
                    tr.counts["explorer.rs_solve_in_workers"] += 1
                    _rs_cells(tr, a, b, p["r"], p["s"], p["cap"])
    key = (p["r"], p["s"], p["x_max"], p["fmt"], bool(done))
    return out, size, reread, key, p["jobs"], time.perf_counter()


def _scan_after(tr: Tracer, result: dict, state) -> None:
    out, size, reread, key, jobs, t0 = state
    tr.counts["explorer.records_reread"] += reread
    tr.counts["explorer.records_written"] += result["pairs"] - reread
    tr.counts["explorer.bytes_written"] += out.stat().st_size - size
    tr.scan_walls.setdefault(key, {})[jobs] = time.perf_counter() - t0


_ORIGINALS: dict[str, object] = {}

# functions whose arguments or results feed a counter; all others get the bare span
HOOKED = {
    "periodicity.gamma_row", "periodicity.row_period", "periodicity.state_period_mod",
    "density.build_density_sequence", "explorer.rs_solve", "explorer.nvar_classify", "explorer.run_scan",
}
PAIR_ENTRY = {"core.gamma", "core.solve_split"}


def _wrap(tr: Tracer, qual: str, fn):
    nid = tr.name_id(qual)
    perf = time.perf_counter
    parent, job, name, start, end, stack = tr.parent, tr.job, tr.name, tr.start, tr.end, tr.stack

    def span_call(*args, **kwargs):
        sid = len(start)
        parent.append(stack[-1])
        job.append(tr.job_id)
        name.append(nid)
        end.append(0.0)
        stack.append(sid)
        start.append(perf())
        try:
            return fn(*args, **kwargs)
        finally:
            end[sid] = perf()
            stack.pop()

    if inspect.isgeneratorfunction(fn):
        def wrapper(*args, **kwargs):
            tr.counts[f"{qual}.calls"] += 1
            inner = fn(*args, **kwargs)

            def resumed():
                # one span per resumption, so the spans cover the time in __next__
                while True:
                    try:
                        value = span_call_next(inner)
                    except StopIteration:
                        return
                    tr.counts["sequences.terms_yielded"] += 1
                    yield value

            return resumed()

        span_call_next = _wrap(tr, qual, next)
    elif qual in PAIR_ENTRY:
        def wrapper(a, b):
            if tr.pair_depth == 0:
                tr.counts["core.pairs"] += 1
                bits = max(a.bit_length(), b.bit_length())
                if bits > tr.counts["core.operand_bits_max"]:
                    tr.counts["core.operand_bits_max"] = bits
            tr.pair_depth += 1
            try:
                return span_call(a, b)
            finally:
                tr.pair_depth -= 1
    elif qual in HOOKED:
        def wrapper(*args, **kwargs):
            state = _before(tr, qual, args, kwargs)
            result = span_call(*args, **kwargs)
            _after(tr, qual, args, kwargs, result, state)
            return result
    else:
        wrapper = span_call

    # same __module__/__qualname__ as the original: a pool pickles the
    # function by name, and the name now resolves to this wrapper
    wrapper.__module__ = getattr(fn, "__module__", None)
    wrapper.__qualname__ = getattr(fn, "__qualname__", qual)
    wrapper.__name__ = getattr(fn, "__name__", qual)
    wrapper.__doc__ = fn.__doc__
    return wrapper


def span_overhead_s(repeats: int = 20000) -> float:
    """Time one traced call adds to its caller, from a no-op wrapped in a scratch tracer."""
    def noop():
        return None

    tr = Tracer()
    traced_noop = _wrap(tr, "cli.noop", noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            noop()
        bare = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(repeats):
            traced_noop()
        best = min(best, (time.perf_counter() - t0 - bare) / repeats)
        del tr.start[:], tr.end[:], tr.parent[:], tr.job[:], tr.name[:]
    return max(best, 0.0)


@contextlib.contextmanager
def patched(tr: Tracer):
    """Swap every public splitgamma function for its traced wrapper, then restore."""
    mods = [importlib.import_module("splitgamma")] + [importlib.import_module(f"splitgamma.{m}") for m in LAYERS]
    wrappers: dict[int, object] = {}
    undo = []
    for mod in mods:
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith("splitgamma.") or obj.__module__.split(".")[1] not in LAYERS:
                continue
            qual = f"{obj.__module__.split('.')[1]}.{obj.__name__}"
            _ORIGINALS[qual] = obj
            if id(obj) not in wrappers:
                wrappers[id(obj)] = _wrap(tr, qual, obj)
            setattr(mod, name, wrappers[id(obj)])
            undo.append((mod, name, obj))
    try:
        yield
    finally:
        for mod, name, obj in undo:
            setattr(mod, name, obj)


def alloc_peak_mb(calls: list[tuple]) -> float:
    """Largest tracemalloc peak over the recorded state_period_mod calls, re-run untraced."""
    fn = _ORIGINALS["periodicity.state_period_mod"]
    seen, peak = set(), 0
    for args, kwargs in calls:
        key = repr((args, sorted(kwargs.items())))
        if key in seen:
            continue
        seen.add(key)
        tracemalloc.start()
        try:
            fn(*args, **kwargs)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return peak / 2**20


# ---------------- Passes ----------------


def run_inprocess(main, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(argv)
    return rc, out.getvalue()


def per_layer(tr: Tracer, self_s: dict[str, float], stdout_bytes: int, import_s: float, overhead: float) -> dict:
    c = tr.counts
    pool = [walls[1] / walls[2] for walls in tr.scan_walls.values() if 1 in walls and 2 in walls]
    values = {f"{layer}.self_s": self_s[layer] for layer in LAYERS}
    values.update({
        "core.calls.gamma": tr.calls("core.gamma"),
        "core.calls.solve_split": tr.calls("core.solve_split"),
        "core.calls.mod_inverse": tr.calls("core.mod_inverse"),
        "core.inverses_per_pair": tr.calls("core.mod_inverse") / c["core.pairs"] if c["core.pairs"] else 0.0,
        "core.operand_bits_max": c["core.operand_bits_max"],
        "sequences.calls.term_mod": tr.calls("sequences.term_mod"),
        "sequences.calls.fib_pair": tr.calls("sequences.fib_pair"),
        "sequences.terms_yielded": c["sequences.terms_yielded"],
        "periodicity.calls.state_period_mod": tr.calls("periodicity.state_period_mod"),
        "periodicity.states": c["periodicity.states"],
        "periodicity.alloc_peak_mb": alloc_peak_mb(tr.state_period_args),
        "periodicity.window_bits": c["periodicity.window_bits"],
        "periodicity.window_useful_ratio": (
            c["periodicity.window_needed"] / c["periodicity.window_bits"] if c["periodicity.window_bits"] else 0.0
        ),
        "density.steps": c["density.steps"],
        "explorer.calls.rs_solve": tr.calls("explorer.rs_solve") + c["explorer.rs_solve_in_workers"],
        "explorer.dp_cells": c["explorer.dp_cells"],
        "explorer.dp_useful_ratio": c["explorer.dp_reads"] / c["explorer.dp_cells"] if c["explorer.dp_cells"] else 0.0,
        "explorer.records_written": c["explorer.records_written"],
        "explorer.records_reread": c["explorer.records_reread"],
        "explorer.bytes_written": c["explorer.bytes_written"],
        "explorer.pool_speedup": statistics.median(pool) if pool else 0.0,
        "cli.import_s": import_s,
        "cli.stdout_bytes": stdout_bytes,
        "trace.overhead_ratio": overhead,
    })
    return values
