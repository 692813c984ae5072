"""Seeded workloads: the CLI argument lists the benchmark runs, with their checks.

A workload is an endless stream of passes.  One pass runs every sweep kind
once, each sweep followed by a few queries; sweeps carry the throughput
figure and queries the latency figures.  Every input comes from the seed:
the same seed gives the same argv lists in the same order.  Sizes are held
in narrow bands so that different seeds cost about the same.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterator

import check


@dataclass
class Job:
    kind: str
    role: str  # "sweep" or "query"
    argv: list[str]
    check: Callable[[str], int]  # stdout -> domain items; raises check.CheckError
    before: Callable[[], None] | None = None  # runs just before the job starts


def _digits(rng: random.Random, d: int) -> int:
    return rng.randrange(10 ** (d - 1), 10**d)


def _coprime(rng: random.Random, draw: Callable[[], int]) -> tuple[int, int]:
    while True:
        a, b = draw(), draw()
        if a != b and math.gcd(a, b) == 1:
            return a, b


def _file_hash(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------- classify: core's bigint arithmetic at full width ----------------


def _verify_job(kind: str, family: str, lo: int, hi: int) -> Job:
    return Job(
        kind,
        "sweep",
        ["verify", "--family", family, "--range", f"{lo}:{hi}"],
        lambda out: check.check_verify(family, lo, hi, out),
    )


def classify_sweeps(rng: random.Random, tmp: Path) -> list[Job]:
    lo = rng.randrange(4300, 4336, 6)
    fib = _verify_job("verify-fib", "fib", lo, lo + 299)  # 100 pairs of ~900 digits
    lo = rng.randrange(1600, 1618, 6)
    fib2 = _verify_job("verify-fib2", "fib2", lo, lo + 119)  # 80 squared pairs
    lo = rng.randrange(650, 656)
    fib3 = _verify_job("verify-fib3", "fib3", lo, lo + 79)  # 80 cubed pairs
    lo = rng.randrange(20, 24)
    mod64 = _verify_job("verify-mod6-4", "mod6-4", lo, lo + 59)
    den = rng.randrange(3, 13)
    p = Fraction(rng.randrange(1, den), den)
    n = rng.randrange(5400, 5420)
    density = Job(
        "density",
        "sweep",
        ["density", "--p", str(p), "--n", str(n)],
        lambda out: check.check_density(p, n, out),
    )
    return [fib, fib2, density, fib3, mod64]


def classify_queries(rng: random.Random, tmp: Path) -> Iterator[Job]:
    kinds = [("gamma", 3), ("solve", 3), ("gamma", 200), ("solve", 200), ("gamma", 2000), ("solve", 2000), ("oracle", 3)]
    while True:
        for op, d in kinds:
            a, b = _coprime(rng, lambda: _digits(rng, d))
            if rng.random() < 0.5:
                g = rng.randrange(2, 1000)
                a, b = a * g, b * g
            if op == "gamma":
                yield Job(f"gamma-{d}", "query", ["gamma", str(a), str(b)], lambda out, a=a, b=b: check.check_gamma(a, b, out))
            else:
                oracle = op == "oracle"
                yield Job(
                    f"solve-{d}" + ("-oracle" if oracle else ""),
                    "query",
                    ["solve", str(a), str(b)] + (["--oracle"] if oracle else []),
                    lambda out, a=a, b=b, o=oracle: check.check_solve(a, b, o, out),
                )


# ---------------- rows: sequences and periodicity, many small core calls ----------------


def _row_job(kind: str, role: str, k: int, spec: str, start: int, count: int) -> Job:
    return Job(
        kind,
        role,
        ["row", "--k", str(k), "--seq", spec, "--start", str(start), "--count", str(count)],
        lambda out: check.check_row(k, spec, start, count, out),
    )


def _full_period_prime(rng: random.Random, lo: int, hi: int) -> int:
    # primes p = +-2 mod 5 with Fibonacci period exactly 2(p + 1), so the
    # residue-state count, and with it the memory, barely moves with the seed
    while True:
        p = rng.randrange(lo, hi) | 1
        if p % 5 in (2, 3) and check.is_prime(p) and check.is_pisano(p, 2 * (p + 1)):
            return p


def _k_with_residue_period(rng: random.Random, spec: str, lo: int, hi: int) -> int:
    # the certification window grows with the residue period mod 2k, which
    # swings by a factor of 100 between neighbouring k; hold it in a band
    while True:
        k = rng.randrange(lo // 6, 2 * hi)
        if lo <= check.residue_cycle(spec, 2 * k)[2] <= hi:
            return k


def rows_sweeps(rng: random.Random, tmp: Path) -> list[Job]:
    k = lambda: rng.randrange(5, 60)
    u, v = _coprime(rng, lambda: rng.randrange(1, 50))
    kpow = rng.randrange(5, 8)
    a = rng.randrange(1, 20)
    c2 = rng.randrange(1, 4)
    i1, i2 = rng.randrange(1, 10), rng.randrange(1, 10)
    jobs = [
        _row_job("row-fib", "sweep", k(), "fib", rng.randrange(20000, 20500), 6000),
        _row_job("row-bal", "sweep", k(), "bal", rng.randrange(3000, 3200), 6000),
        _row_job("row-lucasbal", "sweep", k(), "lucasbal", 1, 8000),
        _row_job("row-npow", "sweep", k(), f"n^{kpow}", rng.randrange(10**5, 10**6), 60000),
        _row_job("row-geo", "sweep", k(), f"geo:{a},3", 1, 10000),
        _row_job("row-fiblike", "sweep", k(), f"fiblike:{u},{v}", 1, 20000),
        _row_job("row-factpow", "sweep", k(), "factpow", 1, 40000),
        _row_job("row-powrec", "sweep", k(), f"powrec:c=1,{c2};t=1,2;init={i1},{i2}", 1, 1100),
    ]
    for spec in ("fib", "bal"):
        kk = _k_with_residue_period(rng, spec, 2400, 2600)
        jobs.append(
            Job(
                f"period-{spec}",
                "sweep",
                ["period", "--k", str(kk), "--seq", spec],
                lambda out, kk=kk, spec=spec: check.check_period(kk, spec, out),
            )
        )
    m = _full_period_prime(rng, 200_000, 204_000)
    jobs.append(Job("pisano", "sweep", ["pisano", str(m)], lambda out: check.check_pisano(m, out)))
    kmax = rng.randrange(95, 98)
    jobs.append(Job("table1", "sweep", ["table1", "--kmax", str(kmax)], lambda out: check.check_table1(kmax, out)))
    rng.shuffle(jobs)
    return jobs


ROW_FAMILIES = ("fib", "bal", "lucasbal", "n^3", "geo:2,3", "fiblike:2,5", "factpow", "powrec:c=1,1;t=1,2;init=1,1")


def rows_queries(rng: random.Random, tmp: Path) -> Iterator[Job]:
    while True:
        for fixed in (
            Job("period-2", "query", ["period", "--k", "2", "--seq", "fib"], lambda out: check.check_period(2, "fib", out)),
            Job("pisano-10", "query", ["pisano", "10"], lambda out: check.check_pisano(10, out)),
            Job("table1-10", "query", ["table1", "--kmax", "10"], lambda out: check.check_table1(10, out)),
        ):
            spec = rng.choice(ROW_FAMILIES)
            yield _row_job("row-short", "query", rng.randrange(1, 30), spec, rng.randrange(1, 20), rng.randrange(10, 60))
            yield fixed


# ---------------- scan: the pair explorer and its output files ----------------


def scan_sweeps(rng: random.Random, tmp: Path) -> list[Job]:
    x = 78
    # odd shifts: (a - r)(b - s) is then even for every coprime pair, so
    # every pair runs the DP and the cost does not depend on the seed
    r, s = rng.choice((1, 3)), rng.choice((1, 3))
    params = ["--r", str(r), "--s", str(s), "--xmax", str(x)]
    tag = f"x{x}r{r}s{s}-{rng.randrange(10**9)}"
    ref = tmp / f"{tag}.csv"
    pooled = tmp / f"{tag}.j2.csv"
    jsonl = tmp / f"{tag}.jsonl"
    state: dict[str, str] = {}

    def check_csv(out: str) -> int:
        pairs, hits = check.check_scan_file(str(ref), "csv", r, s, x)
        check.check_scan_summary(out, "csv", pairs, hits, str(ref))
        state["hash"] = _file_hash(ref)
        return pairs

    def check_jsonl(out: str) -> int:
        pairs, hits = check.check_scan_file(str(jsonl), "jsonl", r, s, x)
        check.check_scan_summary(out, "jsonl", pairs, hits, str(jsonl))
        return pairs

    def check_pooled(out: str) -> int:
        check.expect("hash" in state, "pooled scan ran before its single-process reference")
        check.expect(_file_hash(pooled) == state["hash"], "--jobs 2 output differs from --jobs 1")
        pairs = len(check.coprime_pairs(x))
        check.expect(out.startswith(f"pairs={pairs} "), "pooled scan summary")
        return pairs

    def before_resume() -> None:
        state["before"] = _file_hash(ref) if ref.exists() else ""

    def check_resume(out: str) -> int:
        check.expect(state.get("before") == state.get("hash"), "resume ran on an unfinished scan")
        check.expect(_file_hash(ref) == state["hash"], "resume of a finished scan changed the file")
        pairs, hits = check.check_scan_file(str(ref), "csv", r, s, x)
        check.check_scan_summary(out, "csv", pairs, hits, str(ref))
        return pairs

    xm = 58
    rm, sm = rng.choice((1, 3)), rng.choice((1, 3))
    return [
        Job("scan-csv", "sweep", ["beiter-scan", *params, "--out", str(ref)], check_csv),
        Job("scan-jsonl", "sweep", ["beiter-scan", *params, "--format", "json", "--out", str(jsonl)], check_jsonl),
        Job("scan-csv-jobs2", "sweep", ["beiter-scan", *params, "--jobs", "2", "--out", str(pooled)], check_pooled),
        Job(
            "scan-json-memory",
            "sweep",
            ["beiter-scan", "--r", str(rm), "--s", str(sm), "--xmax", str(xm), "--format", "json"],
            lambda out: check.check_scan_json(rm, sm, xm, out),
        ),
        Job("scan-resume", "sweep", ["beiter-scan", *params, "--resume", "--out", str(ref)], check_resume,
            before=before_resume),
    ]


def scan_queries(rng: random.Random, tmp: Path) -> Iterator[Job]:
    while True:
        for _ in range(3):
            a, b = _coprime(rng, lambda: rng.randrange(1150, 1350))
            r, s = rng.choice((1, 3, 5)), rng.choice((1, 3, 5))
            yield Job(
                "rs",
                "query",
                ["rs", "--a", str(a), "--b", str(b), "--r", str(r), "--s", str(s)],
                lambda out, a=a, b=b, r=r, s=s: check.check_rs(a, b, r, s, out),
            )
        while True:
            coeffs = tuple(sorted(rng.sample(range(2, 40), 3)))
            if math.prod(c - 1 for c in coeffs) % 2 == 0:
                break
        yield Job("nvar", "query", ["nvar", *map(str, coeffs)], lambda out, c=coeffs: check.check_nvar(c, out))


# ---------------- Streams ----------------


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: Callable[[random.Random, Path], list[Job]]
    queries: Callable[[random.Random, Path], Iterator[Job]]
    queries_per_sweep: int


WORKLOADS = {
    "classify": Workload("classify", classify_sweeps, classify_queries, 3),
    "rows": Workload("rows", rows_sweeps, rows_queries, 2),
    "scan": Workload("scan", scan_sweeps, scan_queries, 2),
}


def passes(workload: Workload, seed: int, tmp: Path) -> Iterator[list[Job]]:
    """Endless passes; each runs every sweep kind once, interleaved with queries."""
    rng = random.Random(f"{workload.name}:{seed}")
    queries = workload.queries(random.Random(f"{workload.name}:{seed}:queries"), tmp)
    while True:
        jobs = []
        for sweep in workload.sweeps(rng, tmp):
            jobs.append(sweep)
            jobs.extend(next(queries) for _ in range(workload.queries_per_sweep))
        yield jobs
