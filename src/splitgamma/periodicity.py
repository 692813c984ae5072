"""Eventual periodicity of classifier bit rows.

Fix k and a sequence (a_n).  The row of bits gamma(k, a_n) is eventually
periodic whenever the residues a_n mod 2k are, because adding a multiple of
2k to the second argument never changes gamma.  The machinery here computes
rows from the residues mod 2k that ``sequences`` supplies, detects their
periods from finite windows, computes exact residue-state periods by running
the residue engine of ``sequences`` until its state repeats, and certifies a
detected row period by checking one full residue period beyond the preperiod
and divisibility into it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import DomainError, InvariantViolation, gamma, gcd, solve_split
from .sequences import Explicit, FibonacciPower, SequenceSpec, iter_terms, residue_engine, residues

__all__ = [
    "BitRow",
    "PeriodReport",
    "StatePeriod",
    "InconclusiveError",
    "gamma_row",
    "pair_row",
    "detect_period",
    "state_period_mod",
    "pisano",
    "row_period",
    "gamma_shift_check",
    "halfperiod_reflection",
    "fibonacci_period_table",
    "first_alternation_index",
]


class InconclusiveError(RuntimeError):
    """No period could be certified inside the examined window."""

    def __init__(self, window: int):
        super().__init__(f"no period found within a window of {window} terms; retry with a larger window")
        self.window = window


@dataclass(frozen=True)
class BitRow:
    """gamma(k, a_n) for n = start .. start + len(bits) - 1."""

    k: int
    spec: SequenceSpec
    start: int
    bits: tuple[int, ...]


@dataclass(frozen=True)
class PeriodReport:
    preperiod: int
    period: int
    zeros: int
    ones: int
    certified: bool
    verified_repeats: int


@dataclass(frozen=True)
class StatePeriod:
    preperiod: int
    period: int


def gamma_row(k: int, spec: SequenceSpec, start: int, count: int) -> BitRow:
    """Row of classifier bits against a fixed k.

    Every family is read through its residues mod 2k, which is exact because
    gamma(k, b) only depends on b mod 2k, so the classifier runs at most once
    per residue: min(count, 2k) calls.  Power recurrences that may turn
    nonpositive and explicit lists reduce exact terms (see residues).
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    m = 2 * k
    table: dict[int, int] = {}
    bits = []
    for r in residues(spec, start, count, m):
        bit = table.get(r)
        if bit is None:
            bit = table[r] = gamma(k, r or m)
        bits.append(bit)
    return BitRow(k, spec, start, tuple(bits))


def pair_row(spec: SequenceSpec, start: int, count: int) -> tuple[int, ...]:
    """Bits gamma(a_n, a_{n+1}) for n = start .. start + count - 1."""
    terms = list(iter_terms(spec, start, count + 1))
    return tuple(gamma(terms[j], terms[j + 1]) for j in range(count))


def detect_period(bits: Sequence[int], min_repeats: int = 3) -> PeriodReport | None:
    """Smallest (preperiod, period) consistent with the window, or None.

    A candidate period T is accepted only when the tail after the preperiod
    contains at least min_repeats full copies of it.  zeros/ones count one
    period starting at the preperiod.
    """
    if min_repeats < 2:
        raise DomainError(f"min_repeats must be >= 2, got {min_repeats}")
    bits = list(bits)
    n = len(bits)
    best: tuple[int, int] | None = None
    for period in range(1, n // min_repeats + 1):
        if bits[period:] == bits[:-period]:
            s = 0
        else:
            s = 0
            for i in range(n - period - 1, -1, -1):
                if bits[i] != bits[i + period]:
                    s = i + 1
                    break
        if n - s >= min_repeats * period:
            if s == 0:
                # nothing can beat a zero preperiod at the smallest period so far
                best = (s, period)
                break
            if best is None or (s, period) < best:
                best = (s, period)
    if best is None:
        return None
    s, period = best
    window = bits[s : s + period]
    z = window.count(0)
    return PeriodReport(s, period, z, period - z, False, (n - s) // period)


# ---------------- Residue-state periods ----------------


def _divisors(n: int) -> list[int]:
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def state_period_mod(spec: SequenceSpec, m: int) -> StatePeriod:
    """Exact preperiod and period of the residue sequence (a_n mod m).

    Iterates the recurrence state until it repeats, then refines to the
    minimal period of the output residues and walks the preperiod back.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    state_at, step, out = residue_engine(spec, m)
    seen: dict[tuple[int, ...], int] = {}
    outputs: list[int] = []
    st = state_at(1)
    while st not in seen:
        seen[st] = len(outputs)
        outputs.append(out(st))
        st = step(st)
    s0 = seen[st]
    t0 = len(outputs) - s0
    cycle = outputs[s0:]
    period = t0
    for d in _divisors(t0):
        if all(cycle[i] == cycle[(i + d) % t0] for i in range(t0)):
            period = d
            break
    pre = s0
    while pre > 0 and outputs[pre - 1] == outputs[pre - 1 + period]:
        pre -= 1
    return StatePeriod(pre, period)


def pisano(m: int) -> int:
    """Period of the Fibonacci numbers modulo m."""
    sp = state_period_mod(FibonacciPower(1), m)
    if sp.preperiod:
        raise InvariantViolation(f"Fibonacci residues mod {m} reported preperiod {sp.preperiod}")
    return sp.period


# ---------------- Row periods with certification ----------------


def row_period(k: int, spec: SequenceSpec, window: int | None = None, min_repeats: int = 3) -> PeriodReport:
    """Eventual period of the bit row gamma(k, a_n), certified when possible.

    The detected period is certified once it divides the residue period
    pi = period of (a_n mod 2k) and the bits repeat across one full pi-length
    stretch beyond the preperiod.  Those two facts pin the row period exactly,
    not just over the window.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    sp: StatePeriod | None
    try:
        sp = state_period_mod(spec, 2 * k)
    except DomainError:
        sp = None
    if window is None:
        window = max(4 * sp.period, 200) + sp.preperiod if sp else 1000
        if isinstance(spec, Explicit):
            window = min(window, len(spec.terms))
    row = gamma_row(k, spec, 1, window)
    rep = detect_period(row.bits, min_repeats)
    if rep is None:
        raise InconclusiveError(window)
    certified = False
    if sp is not None and sp.period % rep.period == 0:
        base = max(rep.preperiod, sp.preperiod)
        end = base + sp.period
        bits = row.bits
        if end + rep.period <= len(bits) and all(bits[i] == bits[i + rep.period] for i in range(base, end)):
            certified = True
    return PeriodReport(rep.preperiod, rep.period, rep.zeros, rep.ones, certified, rep.verified_repeats)


def gamma_shift_check(a: int, b: int, n_shift: int) -> bool:
    """Test the sufficient condition under which gamma(a, b + N) = gamma(a, b).

    With y the second witness coordinate for (a, b), the condition is that
    N*((a-1)/2 - y) is an integer divisible by a.  Returns False when the
    condition does not apply; when it does, the equality is also asserted.
    """
    if a < 1 or b < 1 or n_shift < 1:
        raise DomainError(f"need positive a, b, N, got ({a}, {b}, {n_shift})")
    if gcd(a, b) != 1:
        raise DomainError(f"need gcd(a, b) = 1, got gcd({a}, {b}) = {gcd(a, b)}")
    if gcd(a, b + n_shift) != 1:
        raise DomainError(f"need gcd(a, b + N) = 1, got {gcd(a, b + n_shift)}")
    y = solve_split(a, b).y
    doubled = n_shift * (a - 1 - 2 * y)
    if doubled % 2 or (doubled // 2) % a:
        return False
    if gamma(a, b + n_shift) != gamma(a, b):
        raise InvariantViolation(f"shift condition held but gamma moved for ({a}, {b}) + {n_shift}")
    return True


def halfperiod_reflection(k: int) -> bool:
    """Reflection property inside one period of the row against naturals.

    Odd k: gamma(k, s) differs from gamma(k, k - s) for 1 <= s <= (k-1)/2.
    Even k: gamma(k, s) differs from gamma(k, 2k - s) for 1 <= s <= k - 1.
    """
    if k < 2:
        raise DomainError(f"need k >= 2, got {k}")
    if k % 2:
        return all(gamma(k, s) != gamma(k, k - s) for s in range(1, (k - 1) // 2 + 1))
    return all(gamma(k, s) != gamma(k, 2 * k - s) for s in range(1, k))


def fibonacci_period_table(kmax: int) -> list[tuple[int, int, int]]:
    """Rows (k, row period against Fibonacci, Fibonacci period mod 2k)."""
    if kmax < 1:
        raise DomainError(f"need kmax >= 1, got {kmax}")
    rows = []
    for k in range(1, kmax + 1):
        rep = row_period(k, FibonacciPower(1))
        rows.append((k, rep.period, pisano(2 * k)))
    return rows


def first_alternation_index(bits: Sequence[int]) -> int:
    """Smallest index j such that bits[j:] strictly alternates through the end."""
    bits = list(bits)
    if not bits:
        raise DomainError("empty bit row")
    j = len(bits) - 1
    while j > 0 and bits[j - 1] != bits[j]:
        j -= 1
    return j
