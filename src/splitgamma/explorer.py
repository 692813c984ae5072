"""Wider searches around the split equations.

Three generalizations: more variables (i + sum a_j x_j = prod (a_j - 1)/2 for
i = 0..n-1), shifted right-hand sides ((a-r)(b-s)/2 in place of (1,1)), and
aggregate statistics over coprime pairs.  Every count goes through the core's
one-inverse representability kernel ``_witness``: a shifted right-hand side
(and so every scan) asks it once per equation, in O(log) per pair, and the
n-variable counts read Popoviciu's two-coin count off its witness, summing
over the multiples of the largest coefficient when there are more.  No table
is built; the saturating coin DP is the tests' oracle.

Pair scans shard by the first coordinate.  Every scan draws its shards from
``iter_scan``, in this process: a pair costs microseconds, so worker start-up
and pickling would outweigh it.  ``ScanRecord``'s fields are the scan schema,
and one private kernel (``_rs_row``) gives them for a pair as a plain tuple in
field order.  Scans read one shard's rows (``_shard_rows``) as they are, and
the public ``rs_solve`` checks its arguments and wraps the same row in a
``ScanRecord``, so a scan builds no object per pair.  ``run_scan`` renders
each shard to bytes once (``_shard_bytes``: one table holds each file
format's line template, and one comprehension fills it with the rows for CSV
and JSON lines alike), streams them and keeps a plain-text checkpoint holding
the last completed shard id; a scan printed to stdout goes through the CLI's
``_emit`` instead, by the rule every command prints with.  The checkpoint is
one handle, opened when the first new shard is written and rewritten in place
after each flushed shard.  A resumed scan runs the same loop: it recomputes
the checkpointed shards and compares their bytes with the file instead of
parsing records back, so a file from other parameters is refused and the
partial shard a crash left is cut off.  The CLI handlers of ``nvar``, ``rs``
and ``beiter-scan`` live here too.
"""

from __future__ import annotations

import math
from typing import Iterator

from .core import DomainError, Record, ResourceLimitError, _witness, _word, mod_inverse

SCAN_METADATA = {
    "pair_order": "ordered pairs (a, b), both orientations counted",
    "includes_equal_pair": "yes, (1, 1) is the only coprime pair with a = b",
    "shard_key": "a",
}


class NVarInstance(Record):
    """Coefficients with the common right-hand side prod(a_j - 1)/2."""

    coeffs: tuple[int, ...]
    rhs_numerator: int
    rhs: int | None  # None when the numerator is odd
    setwise_coprime: bool
    pairwise_coprime: bool

    @classmethod
    def from_coeffs(cls, coeffs) -> "NVarInstance":
        coeffs = tuple(coeffs)
        if len(coeffs) < 2:
            raise DomainError(f"need at least two coefficients, got {len(coeffs)}")
        if any(a < 1 for a in coeffs):
            raise DomainError(f"coefficients must be positive, got {coeffs}")
        num = math.prod(a - 1 for a in coeffs)
        rhs = num // 2 if num % 2 == 0 else None
        return cls(coeffs, num, rhs, math.gcd(*coeffs) == 1, math.lcm(*coeffs) == math.prod(coeffs))


class NVarReport(Record):
    instance: NVarInstance
    counts: tuple[int, ...]  # per equation index, saturated at 2
    solvable: tuple[int, ...]
    exactly_one: bool


class ScanRecord(Record):
    """One pair-scan row; its fields, in order, are the scan schema."""

    a: int
    b: int
    r: int
    s: int
    rhs: int | None
    integral: bool
    solvable_i0: bool
    solvable_i1: bool
    exactly_one: bool


SCAN_CSV_HEADER = ScanRecord._fields
COUNT_SPARE = 1000  # _count calls an equation may spend past the m - 1 that nvar_classify's bound proves


def _count(coins: tuple[int, ...], t: int, budget: Iterator | None = None) -> int:
    """Representations of t by the sorted coins, saturated at 2.

    Two coins are Popoviciu's count (Beck & Robins, Thm 1.5): from the least-x
    witness (x, y) the others are (x + kb, y - ka), so t has y // a + 1 of
    them.  More coins sum over the multiples k of the largest, taking only
    k = t * c^-1 (mod h), h the gcd of the rest, since any other k leaves a
    remainder the rest cannot pay.  Each call takes one item of budget, if any.
    """
    if budget is not None and next(budget, None) is None:
        raise ResourceLimitError("an n-variable count ran past its call budget")
    if t < 0:
        return 0
    g = math.gcd(*coins)
    if t % g:
        return 0
    if g > 1:
        coins, t = tuple(c // g for c in coins), t // g
    if t == 0 or len(coins) == 1:
        return 1
    if coins[0] == 1:
        return 1 if coins[1] > t else 2
    if len(coins) == 2:
        a, b = coins
        w = _witness(a, b, mod_inverse(a, b), t)
        return 0 if w is None else min(w[1] // a + 1, 2)
    rest, c = coins[:-1], coins[-1]
    h = math.gcd(*rest)
    total = 0
    for k in range(t * pow(c, -1, h) % h if h > 1 else 0, t // c + 1, h):
        total += _count(rest, t - k * c, budget)
        if total >= 2:
            return 2
    return total


def nvar_classify(coeffs, cap: float = math.inf) -> NVarReport:
    """Count solutions of every shifted equation for one coefficient tuple.

    The coefficients are sorted once, each value kept at most twice (m coins),
    and each equation is one ``_count``; cap, when given, bounds rhs.  With
    c' <= c the two largest coins, a count of t >= 2c'c takes the first
    multiple at every level: at most m - 1 calls (proof: tests/test_explorer.py).
    Other counts may spend COUNT_SPARE calls more; one that needs more exits 4,
    as do coins too many for ``_count``'s one frame per coin.
    """
    inst = NVarInstance.from_coeffs(coeffs)
    n = len(inst.coeffs)
    if inst.rhs is None:
        return NVarReport(inst, tuple([0] * n), (), False)
    if inst.rhs > cap:
        raise ResourceLimitError(f"rhs {inst.rhs} exceeds cap {cap}")
    # a third equal coin cannot change a count saturated at 2
    ordered = sorted(inst.coeffs)
    coins = tuple(c for i, c in enumerate(ordered) if i < 2 or c != ordered[i - 2])
    try:
        counts = tuple(_count(coins, inst.rhs - i, iter(range(len(coins) - 1 + COUNT_SPARE))) for i in range(n))
    except RecursionError:
        raise ResourceLimitError(f"{len(coins)} coins nest deeper than the recursion limit") from None
    solvable = tuple(i for i, c in enumerate(counts) if c)
    return NVarReport(inst, counts, solvable, len(solvable) == 1)


def _rs_row(a: int, b: int, r: int, s: int, cap: float) -> tuple:
    # the scan kernel: one ScanRecord's fields, in order, for a checked coprime pair
    num = (a - r) * (b - s)
    if num % 2:
        return (a, b, r, s, None, False, False, False, False)
    rhs = num // 2
    if rhs > cap:
        raise ResourceLimitError(f"rhs {rhs} exceeds cap {cap}")
    inv = mod_inverse(a, b) if b > 1 else 0
    s0 = _witness(a, b, inv, rhs) is not None
    s1 = _witness(a, b, inv, rhs - 1) is not None
    return (a, b, r, s, rhs, True, s0, s1, s0 != s1)


def rs_solve(a: int, b: int, r: int = 1, s: int = 1, cap: float = math.inf) -> ScanRecord:
    """Solvability of i + ax + by = (a-r)(b-s)/2 for i in {0, 1}; needs gcd(a, b) = 1.

    Two O(log) witness calls at any width; cap, when given, bounds rhs.  A
    non-integral or negative right-hand side is unsolvable, not an error.
    """
    if a < 1 or b < 1:
        raise DomainError(f"need positive a, b, got ({a}, {b})")
    if math.gcd(a, b) != 1:
        raise DomainError(f"need gcd(a, b) = 1, got gcd = {math.gcd(a, b)}")
    return ScanRecord(*_rs_row(a, b, r, s, cap))


# ---------------- Aggregates ----------------


def _shard_rows(a: int, r: int, s: int, x_max: int, cap: float) -> list[tuple]:
    # one shard: the kernel's row for every b <= x_max coprime to a, for a checked a >= 1
    return [_rs_row(a, b, r, s, cap) for b in range(1, x_max + 1) if math.gcd(a, b) == 1]


def iter_scan(r: int, s: int, x_max: int, cap: float = math.inf) -> Iterator[tuple[int, list[tuple]]]:
    """(shard id, rows) for the shards 1..x_max, in shard order.

    A row is a plain tuple of ``ScanRecord``'s fields, in order, from the same
    kernel as ``rs_solve``.  Arguments are checked here, before anything is
    yielded.
    """
    if x_max < 1:
        raise DomainError(f"need x_max >= 1, got {x_max}")
    return ((a, _shard_rows(a, r, s, x_max, cap)) for a in range(1, x_max + 1))


def beiter_density(r: int, s: int, x_max: int) -> Fraction:
    """Fraction of ordered coprime pairs in [1, x_max]^2 with exactly one solvable side."""
    from fractions import Fraction
    hits = total = 0
    for _, rows in iter_scan(r, s, x_max):
        total, hits = total + len(rows), hits + sum([row[-1] for row in rows])
    return Fraction(hits, total)


# ---------------- Serialization ----------------


# per file format: the line template over ScanRecord's fields, rhs when None,
# rhs when an int, and the words for (False, True)
_SCAN_LINES = {
    "csv": ("%d,%d,%d,%d,%s,%s,%s,%s,%s\n", "", "%d", ("0", "1")),
    "jsonl": ('{"a": "%d", "b": "%d", "r": "%d", "s": "%d", "rhs": %s, "integral": %s, '
              '"solvable_i0": %s, "solvable_i1": %s, "exactly_one": %s}\n', "null", '"%d"', ("false", "true")),
}


def _shard_bytes(shard_id: int, rows: list[tuple], fmt: str) -> bytes:
    # the bytes one shard adds to a scan file; the CSV header opens shard 1
    line, null, num, word = _SCAN_LINES[fmt]
    text = "".join([
        line % (a, b, r, s, null if rhs is None else num % rhs, word[i], word[s0], word[s1], word[one])
        for a, b, r, s, rhs, i, s0, s1, one in rows
    ])
    if fmt == "csv" and shard_id == 1:
        text = ",".join(SCAN_CSV_HEADER) + "\n" + text
    return text.encode()


# ---------------- Resumable scans ----------------


def run_scan(
    r: int,
    s: int,
    x_max: int,
    out_path: str | Path,
    fmt: str = "csv",
    resume: bool = False,
    jobs: int = 1,
    cap: float = math.inf,
) -> dict:
    """Stream all shards to out_path with checkpointing; returns a summary.

    The checkpoint sits next to the output file and holds the id of the last
    shard fully written.  Fresh and resumed scans run one loop: each shard is
    computed and rendered, and a shard the checkpoint covers is compared byte
    for byte with the file instead of written, so a file from other
    parameters, another format or a shorter write is refused (DomainError)
    before any byte changes.  Bytes past the last checkpointed shard, left by
    a crash, are cut off.  Output bytes and the summary do not depend on where
    a previous run stopped.  The checkpoint is opened (and truncated) once,
    when the first new shard is written, and after each shard's data is
    flushed its id is rewritten at offset 0; ids only grow, so a kill leaves
    it empty (a resume starts over) or holding one whole id.  A refused
    resume, or a resume of a finished scan, never touches it.  jobs is
    accepted and ignored: every scan runs in this process.
    """
    from pathlib import Path
    if fmt not in ("csv", "jsonl"):
        raise DomainError(f"scan format must be csv or jsonl, got {fmt!r}")
    out_path = Path(out_path)
    ckpt_path = out_path.with_name(out_path.name + ".checkpoint")
    done = 0
    if resume and ckpt_path.exists() and out_path.exists():
        text = ckpt_path.read_bytes().strip() or b"0"
        if not text.isdigit():  # bytes: ASCII digits only, so no sign
            raise DomainError(f"checkpoint {ckpt_path} does not hold a shard id")
        done = min(int(text), x_max)
    shards = iter_scan(r, s, x_max, cap)  # a bad x_max raises before the file is opened
    pairs = hits = 0
    ckpt = None
    try:
        with out_path.open("r+b" if done else "wb") as fh:
            for shard_id, rows in shards:
                pairs += len(rows)
                hits += sum([row[-1] for row in rows])
                data = _shard_bytes(shard_id, rows, fmt)
                if shard_id > done:
                    fh.write(data)
                    fh.flush()
                    if ckpt is None:
                        ckpt = ckpt_path.open("wb", buffering=0)  # unbuffered: each write reaches the file
                    ckpt.seek(0)
                    ckpt.write(b"%d\n" % shard_id)
                elif fh.read(len(data)) != data:
                    raise DomainError(f"{out_path} does not hold shards 1..{done} of this {fmt} scan "
                                      f"(r={r}, s={s}, x_max={x_max})")
                elif shard_id == done:
                    fh.truncate()  # drop whatever a crash left past the checkpointed shards
    finally:
        if ckpt is not None:
            ckpt.close()
    return {
        "r": r,
        "s": s,
        "x_max": x_max,
        "pairs": pairs,
        "exactly_one": hits,
        "metadata": dict(SCAN_METADATA),
    }


# ---------------- Command handlers ----------------


def _cmd_nvar(args) -> tuple:
    rep = nvar_classify(tuple(args.coeffs), args.cap)
    inst = rep.instance
    payload = {
        "command": "nvar",
        "coeffs": inst.coeffs,
        "rhs_numerator": inst.rhs_numerator,
        "rhs": inst.rhs,
        "integral": inst.rhs is not None,
        "counts": rep.counts,
        "solvable": rep.solvable,
        "exactly_one": rep.exactly_one,
        "setwise_coprime": inst.setwise_coprime,
        "pairwise_coprime": inst.pairwise_coprime,
    }
    text = (
        f"coeffs={','.join(map(str, inst.coeffs))}"
        f" rhs={_word(inst.rhs)}"
        f" counts={','.join(map(str, rep.counts))}"
        f" solvable={','.join(map(str, rep.solvable)) or '-'}"
        f" exactly_one={_word(rep.exactly_one)}"
        f" setwise={_word(inst.setwise_coprime)} pairwise={_word(inst.pairwise_coprime)}"
    )
    return payload, [text]


def _cmd_rs(args) -> tuple:
    record = vars(rs_solve(args.a, args.b, args.r, args.s, args.cap))
    text = " ".join(f"{key}={_word(value)}" for key, value in record.items())
    return {**record, "command": "rs"}, [text]


def _cmd_beiter_scan(args) -> tuple:
    if args.resume and not args.out:
        raise DomainError("--resume needs --out")
    if args.out:
        fmt = "jsonl" if args.format == "json" else "csv"
        summary = run_scan(args.r, args.s, args.xmax, args.out, fmt, args.resume, args.jobs, args.cap)
        pairs, hits, table = summary["pairs"], summary["exactly_one"], None
        json_only = {"out": args.out, "metadata": summary["metadata"]}
    else:
        rows, pairs, hits = [], 0, 0
        for _, shard in iter_scan(args.r, args.s, args.xmax, args.cap):
            pairs, hits = pairs + len(shard), hits + sum([row[-1] for row in shard])
            rows += shard if args.format != "text" else ()  # text prints the summary only
        table = (SCAN_CSV_HEADER, rows)
        records = (dict(zip(SCAN_CSV_HEADER, row)) for row in rows)
        json_only = {"metadata": dict(SCAN_METADATA), "records": records}
    g = math.gcd(hits, pairs)  # pairs >= 1: (1, 1) is always scanned
    num, den = hits // g, pairs // g
    payload = {
        "command": "beiter-scan",
        "r": args.r,
        "s": args.s,
        "x_max": args.xmax,
        "pairs": pairs,
        "exactly_one": hits,
        "density_num": num,
        "density_den": den,
    }
    text = [f"pairs={pairs} exactly_one={hits} density={num}/{den}"]
    if args.out:
        text.append(f"written={args.out}")
    return payload, text, table, json_only
