"""Independent output verifier for the benchmark.

Stdlib only; never imports splitgamma.  Every answer the CLI prints is
re-derived here by a route that shares no code with the package:

* witnesses by substitution, classifications from one modular inverse
  (Sylvester: exactly one of R and R - 1 is representable by a', b');
* rows from this module's own residue recurrences modulo 2k;
* Pisano periods by fast doubling at pi and at pi / q for each prime q | pi;
* scan records from the closed form "N >= 0 is representable by coprime
  a, b iff N - b*((N * b^-1) mod a) >= 0".

Each ``check_*`` function takes the command's stdout, raises ``CheckError``
on any mismatch, and returns the number of domain items the job completed.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction


class CheckError(AssertionError):
    """The program's output disagrees with the independent reference."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckError(what)


# ---------------- Arithmetic references ----------------


def representable(n: int, a: int, b: int) -> bool:
    """n = a x + b y with x, y >= 0, for coprime a, b >= 1."""
    if n < 0:
        return False
    return n - b * ((n * pow(b, -1, a)) % a) >= 0


def split_ref(a: int, b: int) -> tuple[int, int, int]:
    """(delta, x, y) through one inverse of a' modulo b'."""
    g = math.gcd(a, b)
    ar, br = a // g, b // g
    rhs = (ar - 1) * (br - 1) // 2
    if rhs == 0:
        return 0, 0, 0
    inv = pow(ar, -1, br)
    for delta in (0, 1):
        x = (rhs - delta) * inv % br
        rem = rhs - delta - ar * x
        if rem >= 0:
            return delta, x, rem // br
    raise CheckError(f"neither equation solvable for ({a}, {b})")


def gamma_ref(a: int, b: int) -> int:
    return split_ref(a, b)[0]


class GammaTable:
    """gamma(k, b) depends on b only through b mod 2k; memoise per residue."""

    def __init__(self, k: int):
        self.k = k
        self.m = 2 * k
        self.bits: dict[int, int] = {}

    def __call__(self, residue: int) -> int:
        bit = self.bits.get(residue)
        if bit is None:
            bit = self.bits[residue] = gamma_ref(self.k, residue or self.m)
        return bit


def fib_pair_mod(n: int, m: int) -> tuple[int, int]:
    """(F_n, F_{n+1}) mod m by fast doubling."""
    f, g = 0, 1
    for bit in bin(n)[2:]:
        f, g = f * (2 * g - f) % m, (f * f + g * g) % m
        if bit == "1":
            f, g = g, (f + g) % m
    return f % m, g % m


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def is_pisano(m: int, pi: int) -> bool:
    """pi is the Fibonacci period mod m: F_pi = 0, F_pi+1 = 1, no prime cofactor works."""
    if pi < 1 or fib_pair_mod(pi, m) != (0, 1 % m):
        return False
    return all(fib_pair_mod(pi // q, m) != (0, 1 % m) for q in prime_factors(pi))


# ---------------- Sequence residues ----------------


def _linear2(x: int, y: int, c1: int, c2: int):
    # a_1 = x, a_2 = y, a_n = c1 a_{n-1} + c2 a_{n-2}
    def gen(start: int, count: int, m: int):
        u, v = x % m, y % m
        for n in range(1, start + count):
            if n >= start:
                yield u
            u, v = v, (c1 * v + c2 * u) % m

    return gen


def _fib(start: int, count: int, m: int):
    u, v = fib_pair_mod(start, m)
    for _ in range(count):
        yield u
        u, v = v, (u + v) % m


def _kth(k: int):
    def gen(start: int, count: int, m: int):
        for n in range(start, start + count):
            yield pow(n, k, m)

    return gen


def _geo(a: int, r: int):
    def gen(start: int, count: int, m: int):
        p = pow(r, start - 1, m)
        for _ in range(count):
            yield (a * p + 1) % m
            p = p * r % m

    return gen


def _factpow(start: int, count: int, m: int):
    # (n!)^(n!) mod m.  Once n reaches every prime of m, and n! exceeds every
    # exponent in m, each prime power of m divides the term and it is 0.
    big = max([4] + prime_factors(m))
    f = math.factorial(start - 1)
    for n in range(start, start + count):
        f *= n
        if n >= big:
            yield 0
        else:
            yield pow(f % m, f, m)


def _powrec(coeffs: tuple[int, ...], powers: tuple[int, ...], init: tuple[int, ...]):
    def gen(start: int, count: int, m: int):
        window = [a % m for a in init]
        order = len(init)
        for n in range(1, start + count):
            if n <= order:
                t = window[n - 1]
            else:
                t = sum(c * pow(window[-1 - i], p, m) for i, (c, p) in enumerate(zip(coeffs, powers))) % m
                window = window[1:] + [t]
            if n >= start:
                yield t

    return gen


def residues_for(spec: str):
    """Residue generator (start, count, m) -> a_n mod m for a CLI sequence spec."""
    if spec == "fib":
        return _fib
    if spec == "bal":
        return _linear2(1, 6, 6, -1)
    if spec == "lucasbal":
        return _linear2(3, 17, 6, -1)
    if spec == "factpow":
        return _factpow
    if spec.startswith("n^"):
        return _kth(int(spec[2:]))
    if spec.startswith("fiblike:"):
        t1, t2 = map(int, spec[8:].split(","))
        return _linear2(t1, t2, 1, 1)
    if spec.startswith("geo:"):
        a, r = map(int, spec[4:].split(","))
        return _geo(a, r)
    if spec.startswith("powrec:"):
        fields = dict(part.split("=") for part in spec[7:].split(";"))
        c, t, i = (tuple(map(int, fields[key].split(","))) for key in ("c", "t", "init"))
        return _powrec(c, t, i)
    raise ValueError(f"no reference recurrence for {spec!r}")


def row_ref(k: int, spec: str, start: int, count: int) -> list[int]:
    table = GammaTable(k)
    return [table(r) for r in residues_for(spec)(start, count, 2 * k)]


def _eventual_period(values: list[int], pre: int, period: int) -> tuple[int, int]:
    """Minimal (preperiod, period) of a sequence known periodic with `period` from `pre`."""
    best = period
    for q in prime_factors(period):
        while best % q == 0 and all(values[i] == values[i + best // q] for i in range(pre, pre + period)):
            best //= q
    while pre > 0 and values[pre - 1] == values[pre - 1 + best]:
        pre -= 1
    return pre, best


def residue_cycle(spec: str, m: int) -> tuple[list[int], int, int]:
    """Residues of a linear family long enough to hold its eventual period.

    Returns (a_1.. mod m, residue preperiod, residue period).  The state of
    every family used here is its last two residues, so the first repeated
    state bounds both.
    """
    seen: dict[tuple[int, int], int] = {}
    values: list[int] = []
    gen = residues_for(spec)(1, 10 * m * m + 2, m)
    prev = next(gen)
    for cur in gen:
        state = (prev, cur)
        if state in seen:
            break
        seen[state] = len(values)
        values.append(prev)
        prev = cur
    s0 = seen[state]
    t0 = len(values) - s0
    values.extend(values[s0 : s0 + t0 + 2])
    pre, per = _eventual_period(values, s0, t0)
    return values, pre, per


def period_ref(k: int, spec: str) -> dict[str, int]:
    """Exact row and residue periods of gamma(k, a_n) from one residue cycle."""
    values, rpre, rper = residue_cycle(spec, 2 * k)
    table = GammaTable(k)
    bits = [table(r) for r in values]
    pre, per = _eventual_period(bits, rpre, rper)
    zeros = bits[pre : pre + per].count(0)
    return {
        "preperiod": pre,
        "period": per,
        "zeros": zeros,
        "ones": per - zeros,
        "residue_preperiod": rpre,
        "residue_period": rper,
    }


# ---------------- Output checks, one per command ----------------


def _fields(line: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in line.split())


def check_help(out: str) -> int:
    expect(out.startswith("usage: splitgamma"), "help text does not start with the usage line")
    return 1


def check_gamma(a: int, b: int, out: str) -> int:
    expect(out.strip() == str(gamma_ref(a, b)), f"gamma({a}, {b}) printed {out.strip()!r}")
    return 1


def check_solve(a: int, b: int, oracle: bool, out: str) -> int:
    f = _fields(out)
    delta, x, y = int(f["delta"]), int(f["x"]), int(f["y"])
    g = math.gcd(a, b)
    ar, br = a // g, b // g
    rhs = (ar - 1) * (br - 1) // 2
    expect(delta + ar * x + br * y == rhs, f"witness fails substitution for ({a}, {b})")
    expect(0 <= x < max(br, 1) and y >= 0, f"witness out of range for ({a}, {b})")
    expect(delta == gamma_ref(a, b), f"solve({a}, {b}) picked the unsolvable delta")
    expect((f.get("oracle") == "ok") == oracle, "oracle flag missing or unexpected")
    return 1


def check_row(k: int, spec: str, start: int, count: int, out: str) -> int:
    bits = out.split()
    expect(len(bits) == count, f"row printed {len(bits)} bits, asked for {count}")
    ref = row_ref(k, spec, start, count)
    bad = next((j for j, (got, want) in enumerate(zip(bits, ref)) if got != str(want)), None)
    expect(bad is None, f"row k={k} seq={spec} differs at n={start + (bad or 0)}")
    return count


def check_period(k: int, spec: str, out: str) -> int:
    f = _fields(out)
    ref = period_ref(k, spec)
    for key, want in ref.items():
        expect(int(f[key]) == want, f"period k={k} seq={spec}: {key}={f[key]}, reference {want}")
    expect(f["certified"] == "yes", f"period k={k} seq={spec} not certified")
    return ref["residue_preperiod"] + ref["residue_period"]


def check_pisano(m: int, out: str) -> int:
    pi = int(out)
    expect(is_pisano(m, pi), f"pisano({m}) printed {pi}")
    return pi


def check_table1(kmax: int, out: str) -> int:
    lines = out.strip().splitlines()
    expect(lines[0].split() == ["k", "t_k", "pi(2k)"], "table1 header")
    expect(len(lines) == kmax + 1, f"table1 printed {len(lines) - 1} rows, asked for {kmax}")
    states = 0
    for k, line in enumerate(lines[1:], start=1):
        kk, t, pi = map(int, line.split())
        ref = period_ref(k, "fib")
        expect(kk == k and t == ref["period"], f"table1 row period at k={k}")
        expect(pi == ref["residue_period"] and is_pisano(2 * k, pi), f"table1 pisano at k={k}")
        states += pi
    return states


def verify_labels(family: str, lo: int, hi: int) -> list[str]:
    """Labels the verify command must report for a family and range."""
    if family == "fib":
        return [f"n={n}" for n in range(max(lo, 6), hi + 1) if n % 6 in (0, 4)]
    if family == "fib2":
        return [f"n={n}" for n in range(max(lo, 2), hi + 1) if n % 6 in (0, 2, 3, 5)]
    if family == "fib3":
        return [f"m={m}" for m in range(max(lo, 2), hi + 1)]
    span = range(max(lo, 1), hi + 1)
    return [f"u={u},v={v}" for u in span for v in span if math.gcd(u, v) == 1]


def check_verify(family: str, lo: int, hi: int, out: str) -> int:
    lines = out.strip().splitlines()
    labels = verify_labels(family, lo, hi)
    expect(lines[-1] == f"checked={len(labels)} failed=0", f"verify {family} summary {lines[-1]!r}")
    expect(lines[:-1] == [f"ok {label}" for label in labels], f"verify {family} item lines")
    return len(labels)


def density_ref(p: Fraction, n_max: int) -> tuple[int, int, int]:
    """(zeros, crossings, last crossing) of the greedy chain.

    Doubling a >= 1 gives gamma(a, 2a) = 0.  The other branch gives
    gamma(a, 2a - 1) = 1 for a >= 2: (a-1)^2 = a x + (2a-1) y forces
    y = a - 1 mod a, and y = a - 1 already overshoots.  So bits follow the
    branch, and the chain needs no big integers.
    """
    if p == 1:
        bits = [0] * n_max
    elif p == 0:
        bits = [1] * n_max
    else:
        bits, zeros = [0], 1
        for n in range(2, n_max + 1):
            bit = 0 if zeros < p * (n - 1) else 1
            bits.append(bit)
            zeros += 1 - bit
    zeros, below, crossings, last = 0, [], 0, 0
    for n, bit in enumerate(bits, start=1):
        zeros += 1 - bit
        below.append(zeros < p * n)
        if n >= 2 and below[-1] != below[-2]:
            crossings, last = crossings + 1, n
    return bits.count(0), crossings, last


def check_density(p: Fraction, n_max: int, out: str) -> int:
    lines = out.strip().splitlines()
    zeros, crossings, last = density_ref(p, n_max)
    ratio = Fraction(zeros, n_max)
    want = [
        f"p={p}",
        f"terms={n_max + 1}",
        f"final_ratio={ratio.numerator}/{ratio.denominator}",
        f"crossings={crossings}" + (f" last={last}" if crossings else ""),
        "growth_bounds=yes",
    ]
    expect(lines == want, f"density p={p} n={n_max}: {lines} != {want}")
    return n_max


# ---------------- Explorer ----------------


def rs_ref(a: int, b: int, r: int, s: int) -> tuple[str, bool, bool, bool, bool]:
    """(rhs text, integral, solvable_i0, solvable_i1, exactly_one) in closed form."""
    num = (a - r) * (b - s)
    if num % 2:
        return "", False, False, False, False
    rhs = num // 2
    s0 = representable(rhs, a, b)
    s1 = representable(rhs - 1, a, b)
    return str(rhs), True, s0, s1, s0 != s1


def coprime_pairs(x_max: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(1, x_max + 1) for b in range(1, x_max + 1) if math.gcd(a, b) == 1]


def _check_records(rows: list[tuple], r: int, s: int, x_max: int) -> tuple[int, int]:
    pairs = coprime_pairs(x_max)
    expect(len(rows) == len(pairs), f"scan holds {len(rows)} records, expected {len(pairs)} pairs")
    hits = 0
    for row, (a, b) in zip(rows, pairs):
        want = (str(a), str(b), str(r), str(s)) + rs_ref(a, b, r, s)
        expect(tuple(row) == want, f"scan record {row} != {want}")
        hits += want[-1]
    return len(pairs), hits


def _csv_record(row: list[str]) -> tuple:
    return tuple(row[:5]) + tuple(v == "1" for v in row[5:])


def _json_record(obj: dict) -> tuple:
    rhs = "" if obj["rhs"] is None else obj["rhs"]
    return (obj["a"], obj["b"], obj["r"], obj["s"], rhs, obj["integral"], obj["solvable_i0"], obj["solvable_i1"], obj["exactly_one"])


SCAN_CSV_HEADER = ["a", "b", "r", "s", "rhs", "integral", "solvable_i0", "solvable_i1", "exactly_one"]


def check_scan_file(path: str, fmt: str, r: int, s: int, x_max: int) -> tuple[int, int]:
    with open(path, newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh)
            expect(next(reader) == SCAN_CSV_HEADER, "scan csv header")
            rows = [_csv_record(row) for row in reader]
        else:
            rows = [_json_record(json.loads(line)) for line in fh]
    return _check_records(rows, r, s, x_max)


def check_scan_summary(out: str, fmt: str, pairs: int, hits: int, path: str) -> None:
    d = Fraction(hits, pairs)
    if fmt == "csv":
        lines = out.strip().splitlines()
        want = [f"pairs={pairs} exactly_one={hits} density={d.numerator}/{d.denominator}", f"written={path}"]
        expect(lines == want, f"scan summary {lines} != {want}")
        return
    payload = json.loads(out)
    got = (payload["pairs"], payload["exactly_one"], payload["density_num"], payload["density_den"], payload["out"])
    want = (str(pairs), str(hits), str(d.numerator), str(d.denominator), path)
    expect(got == want, f"scan summary {got} != {want}")


def check_scan_json(r: int, s: int, x_max: int, out: str) -> int:
    payload = json.loads(out)
    rows = [_json_record(obj) for obj in payload["records"]]
    pairs, hits = _check_records(rows, r, s, x_max)
    d = Fraction(hits, pairs)
    want = (str(pairs), str(hits), str(d.numerator), str(d.denominator))
    got = (payload["pairs"], payload["exactly_one"], payload["density_num"], payload["density_den"])
    expect(got == want, f"in-memory scan totals {got} != {want}")
    return pairs


def check_rs(a: int, b: int, r: int, s: int, out: str) -> int:
    f = _fields(out)
    rhs, integral, s0, s1, one = rs_ref(a, b, r, s)
    yn = lambda flag: "yes" if flag else "no"
    want = {
        "a": str(a), "b": str(b), "r": str(r), "s": str(s), "rhs": rhs or "none",
        "integral": yn(integral), "solvable_i0": yn(s0), "solvable_i1": yn(s1), "exactly_one": yn(one),
    }
    expect(f == want, f"rs {a} {b} {r} {s}: {f} != {want}")
    return 1


def nvar_counts(coeffs: tuple[int, ...], rhs: int) -> list[int]:
    """Representation counts of rhs - i for i < n, saturated at 2."""
    ways = [1] + [0] * rhs
    for c in coeffs:
        for t in range(c, rhs + 1):
            ways[t] = min(2, ways[t] + ways[t - c])
    return [ways[rhs - i] if rhs - i >= 0 else 0 for i in range(len(coeffs))]


def check_nvar(coeffs: tuple[int, ...], out: str) -> int:
    f = _fields(out)
    num = math.prod(c - 1 for c in coeffs)
    expect(num % 2 == 0, "nvar queries use integral right-hand sides")
    counts = nvar_counts(coeffs, num // 2)
    solvable = [i for i, c in enumerate(counts) if c]
    pairwise = all(math.gcd(x, y) == 1 for i, x in enumerate(coeffs) for y in coeffs[i + 1 :])
    yn = lambda flag: "yes" if flag else "no"
    want = {
        "coeffs": ",".join(map(str, coeffs)),
        "rhs": str(num // 2),
        "counts": ",".join(map(str, counts)),
        "solvable": ",".join(map(str, solvable)) or "-",
        "exactly_one": yn(len(solvable) == 1),
        "setwise": yn(math.gcd(*coeffs) == 1),
        "pairwise": yn(pairwise),
    }
    expect(f == want, f"nvar {coeffs}: {f} != {want}")
    return 1
