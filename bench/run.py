"""splitgamma benchmark: the CLI end to end, and a traced per-layer run.

    python3 bench/run.py --workload classify|rows|scan --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src`` (never
installed).  ``--trace 0`` runs a closed loop, one client and one job at a
time, each job a fresh ``python -m splitgamma.cli`` process, and reports the
end-to-end metrics.  ``--trace 1`` calls ``splitgamma.cli.main`` in-process
on the workload's first pass, untraced and traced in turn, and reports the
per-layer metrics.  Every job's output goes through the independent verifier
in ``check.py``.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import check
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_EVERY = 8  # one timed `--help` start per this many jobs, spread over the run
JOB_TIMEOUT_S = 60
TAIL_PERCENTILE = 80
MIN_QUERIES = 50  # so that TAIL_PERCENTILE always has at least 10 samples beyond it
# median probe time on the reference host (2-core Xeon VM, Python 3.11); end-to-end
# times are reported at this host speed, see "Host drift" in README.md
PROBE_REF_S = 0.010


def probe_s() -> float:
    """Host-speed probe: a fixed pure-Python integer loop, timed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def git_rev() -> str:
    # read .git directly: a checkout without one reports "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def provenance(seed: int, workload: str) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_rev": git_rev(),
        "seed": seed,
        "workload": workload,
    }


# ---------------- One CLI process per job ----------------


class Runner:
    """Runs ``python -m splitgamma.cli`` and reaps it with wait4 for its own rusage."""

    def __init__(self, tmp: Path):
        self.tmp = tmp
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run(self, argv: list[str]) -> tuple[int, str, float, float, float]:
        """(exit code, stdout, wall s, cpu s incl. reaped pool workers, peak RSS MB)."""
        out_path, err_path = self.tmp / "stdout", self.tmp / "stderr"
        with out_path.open("wb") as out, err_path.open("wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "splitgamma.cli", *argv],
                stdin=subprocess.DEVNULL, stdout=out, stderr=err, cwd=ROOT, env=self.env,
            )
            timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, ru = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out_path.read_text(), wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024


def run_job(job: workloads.Job, execute) -> tuple[bool, int, str]:
    """Run one job and verify it: (ok, items, reason)."""
    if job.before:
        job.before()
    rc, out = execute(job.argv)
    if rc != 0:
        return False, 0, f"exit {rc}"
    try:
        return True, job.check(out), ""
    except (check.CheckError, ValueError, KeyError, IndexError, OSError) as exc:
        return False, 0, f"{type(exc).__name__}: {exc}"


class Record(NamedTuple):
    kind: str
    role: str
    ok: bool
    items: int
    wall: float
    cpu: float
    rss_mb: float


def tail(values: list[float]) -> tuple[float, int]:
    """Nearest-rank TAIL_PERCENTILE and the number of samples beyond it."""
    ordered = sorted(values)
    rank = math.ceil(TAIL_PERCENTILE / 100 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    runner = Runner(tmp)
    meta = {"provenance": provenance(seed, name), "probe_start_s": probe_s()}

    def execute(argv):
        rc, out, *_ = runner.run(argv)
        return rc, out

    ok, _, why = run_job(workloads.Job("help", "setup", ["--help"], check.check_help), execute)  # warm caches
    if not ok:
        raise SystemExit(f"the CLI does not start: {why}")
    probes = []  # one before every timed process, so the run's median tracks host speed
    setup = []

    def time_setup() -> None:
        probes.append(probe_s())
        rc, out, wall, _, _ = runner.run(["--help"])
        if rc != 0:
            raise SystemExit(f"--help exited {rc}")
        setup.append(wall)

    records: list[Record] = []
    failures = []
    last: dict = {}

    def execute_measured(argv):
        rc, out, wall, cpu, rss = runner.run(argv)
        last.update(wall=wall, cpu=cpu, rss=rss)
        return rc, out

    deadline = time.perf_counter() + seconds
    stream = workloads.passes(workloads.WORKLOADS[name], seed, tmp)
    queries = 0
    running = lambda: time.perf_counter() < deadline or queries < MIN_QUERIES
    while running():
        for job in next(stream):
            if not running():
                break
            if len(records) % SETUP_EVERY == 0:
                time_setup()
            queries += job.role == "query"
            probes.append(probe_s())
            ok, items, why = run_job(job, execute_measured)
            records.append(Record(job.kind, job.role, ok, items, last["wall"], last["cpu"], last["rss"]))
            if not ok:
                failures.append({"kind": job.kind, "argv": job.argv, "why": why})
    meta["probe_end_s"] = probe_s()

    by_kind: dict[str, list[Record]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec)
    sweep_kinds = [k for k, recs in by_kind.items() if recs[0].role == "sweep"]

    def med(kind: str, field: str) -> float:
        good = [getattr(r, field) for r in by_kind[kind] if r.ok]
        return statistics.median(good) if good else 0.0

    sweep_wall = sum(med(k, "wall") for k in sweep_kinds)
    query_walls = [r.wall for r in records if r.role == "query"]
    tail_value, beyond = tail(query_walls)
    raw = {
        "setup_s": statistics.median(setup),
        "items_per_s": sum(med(k, "items") for k in sweep_kinds) / sweep_wall if sweep_wall else 0.0,
        "query_p50_s": statistics.median(query_walls),
        "query_tail_s": tail_value,
        "cpu_s": sum(med(k, "cpu") for k in by_kind),
    }
    # host drift moves every timing of a run together; divide it out
    speed = statistics.median(probes) / PROBE_REF_S
    metrics = {k: (v / speed, "s") for k, v in raw.items()}
    metrics["items_per_s"] = (raw["items_per_s"] * speed, "1/s")
    metrics["peak_rss_mb"] = (max(r.rss_mb for r in records), "MB")
    q = statistics.quantiles(probes, n=4)
    meta["summary"] = {
        "host": {"probe_median_s": statistics.median(probes), "probe_q1_s": q[0], "probe_q3_s": q[2],
                 "probes": len(probes), "slowdown": speed},
        "raw": raw,
        "fail_ratio": len(failures) / len(records),
        "query_tail": {"percentile": TAIL_PERCENTILE, "samples": len(query_walls), "beyond": beyond},
        "setup_samples": len(setup),
        "kinds": {
            k: {"role": recs[0].role, "jobs": len(recs), "median_wall_s": med(k, "wall"),
                "median_cpu_s": med(k, "cpu"), "median_items": med(k, "items"), "max_rss_mb": max(r.rss_mb for r in recs)}
            for k, recs in sorted(by_kind.items())
        },
        "failures": failures[:20],
    }
    return {"meta": meta, "records": records, "failures": failures, "metrics": metrics}


# ---------------- In-process traced run ----------------


def traced(name: str, seed: int, seconds: float, tmp: Path) -> dict:
    meta = {"provenance": provenance(seed, name), "probe_start_s": probe_s()}
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import splitgamma.cli as cli  # first import in this process

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[name]
    attempted, failures = 0, []
    untraced_walls, traced_walls, selfs = [], [], []
    deadline = time.perf_counter() + seconds

    def one_pass(tracer: tracing.Tracer | None) -> tuple[float, int]:
        nonlocal attempted
        shutil.rmtree(tmp / "pass", ignore_errors=True)
        (tmp / "pass").mkdir()
        jobs = next(workloads.passes(workload, seed, tmp / "pass"))
        stdout_bytes = 0
        wall = 0.0
        for job_id, job in enumerate(jobs):
            captured = {}

            def execute(argv):
                t = time.perf_counter()
                if tracer is not None:
                    tracer.job_id = job_id
                rc, out = tracing.run_inprocess(cli.main, argv)
                captured["wall"] = time.perf_counter() - t
                captured["bytes"] = len(out.encode())
                return rc, out

            attempted += 1
            try:
                ok, _, why = run_job(job, execute)
            except Exception as exc:  # a crash inside main counts as a failed job
                ok, why = False, f"{type(exc).__name__}: {exc}"
            wall += captured.get("wall", 0.0)
            stdout_bytes += captured.get("bytes", 0)
            if not ok:
                failures.append({"kind": job.kind, "argv": job.argv, "why": why})
        return wall, stdout_bytes

    span_cost = tracing.span_overhead_s()
    tracer = None
    while True:
        untraced_walls.append(one_pass(None)[0])
        tracer = tracing.Tracer()
        with tracing.patched(tracer):
            wall, stdout_bytes = one_pass(tracer)
        traced_walls.append(wall)
        selfs.append(tracer.self_times(span_cost))
        if time.perf_counter() >= deadline:
            break
    meta["probe_end_s"] = probe_s()
    self_med = {layer: statistics.median(s[layer] for s in selfs) for layer in tracing.LAYERS}
    overhead = statistics.median(traced_walls) / statistics.median(untraced_walls)
    values = tracing.per_layer(tracer, self_med, stdout_bytes, import_s, overhead)
    tracer.write(ROOT / ".bench_out" / f"spans-{name}.csv.gz")
    total_self = sum(self_med.values()) or 1.0
    meta["summary"] = {
        "passes": len(traced_walls),
        "span_overhead_us": span_cost * 1e6,
        "untraced_pass_s": untraced_walls,
        "traced_pass_s": traced_walls,
        "self_share": {layer: round(self_med[layer] / total_self, 4) for layer in tracing.LAYERS},
        "failures": failures[:20],
    }
    metrics = {k: (values[k], unit) for k, unit in tracing.PER_LAYER.items()}
    return {"meta": meta, "attempted": attempted, "failures": failures, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "splitgamma" / "cli.py").is_file():
        print(f"no splitgamma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.trace:
            res = traced(args.workload, args.seed, args.seconds, tmp)
            attempted = res["attempted"]
        else:
            res = end_to_end(args.workload, args.seed, args.seconds, tmp)
            attempted = len(res["records"])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(res["meta"]))
    failed = len(res["failures"])
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
