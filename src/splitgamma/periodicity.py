"""Eventual periodicity of classifier bit rows.

Fix k and a sequence (a_n).  The row of bits gamma(k, a_n) is eventually
periodic whenever the residues a_n mod 2k are, because adding a multiple of
2k to the second argument never changes gamma.  So for every family with a
residue engine in ``sequences`` the exact row period is read off one cycle of
residues and certified: ``state_period_mod`` finds the residue preperiod mu
and period lam, exit 4 past ``sequences.ORBIT_MAX``: with no walk for every
order-2 linear family, whatever the signs of its coefficients (``pisano`` is
the Fibonacci case), else, for nonlinear and order >= 3 power recurrences,
by Brent's cycle finding (``sequences._orbit``).  ``row_period`` classifies
the mu + lam terms of that cycle once.  ``gamma_row`` returns a row as the
one bytearray it fills, a byte a bit, and along a long order-2 linear row
read from residues it repeats one state period's bits in place.  Only that
cycle certifies:
factorial powers, explicit lists, power recurrences reduced from exact terms
and an explicit window detect a period on a finite window (``detect_period``,
O(window)), uncertified, and ``PeriodReport`` (the ``period`` schema) carries
the residue period exactly when it certifies.  The CLI handlers of ``row``,
``period``, ``pisano`` and ``table1`` live here too; the last two call
``row_period``.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

from . import sequences
from .core import DomainError, InconclusiveError, InvariantViolation, Record, ResourceLimitError, _word, gamma
from .sequences import Explicit, FibonacciPower, SequenceSpec, _exact_only, _factorize, _linear, _linear_pair
from .sequences import _orbit, format_spec, iter_terms, parse_spec, residue_engine, residues


class PeriodReport(Record):
    """A row's preperiod and least period, with the zeros and ones of one period.

    The fields, in order, are the ``period`` command's schema.  residue_preperiod
    and residue_period are the (mu, lam) mod 2k a certified report was read
    from; they are set exactly when certified is, never by detect_period.
    """

    preperiod: int
    period: int
    zeros: int
    ones: int
    certified: bool
    verified_repeats: int
    residue_preperiod: int | None = None
    residue_period: int | None = None


class StatePeriod(Record):
    preperiod: int
    period: int


def _row_bits(k: int, spec: SequenceSpec, start: int, count: int) -> bytearray:
    # gamma_row's bits, one byte each: a row at least 2k long classifies each residue once
    # through a residue-indexed memo (2 = not classified yet), a shorter one classifies each term
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    m = 2 * k
    if count < m:
        return bytearray(gamma(k, r or m) for r in residues(spec, start, count, m))
    # every bytearray repeat in this module is in place: out of memory, CPython 3.11
    # prints a SystemError line for bytearray * n before it raises
    memo = bytearray(b"\x02")
    memo *= m
    bits = bytearray()
    for r in residues(spec, start, count, m):
        bit = memo[r]
        if bit == 2:
            bit = memo[r] = gamma(k, r or m)
        bits.append(bit)
    return bits


def gamma_row(k: int, spec: SequenceSpec, start: int, count: int) -> bytearray:
    """gamma(k, a_n) for n = start .. start + count - 1, one byte a bit.

    Every family is read through its residues mod 2k, which is exact because
    gamma(k, b) only depends on b mod 2k, so the classifier runs at most
    min(count, 2k) times, with an O(2k) memo once the row is at least 2k long.
    An order-2 linear family whose row is at least 2k long steps its residues
    only through one state period lam past max(start, 1 + mu), (mu, lam) from
    _linear_period, and repeats those lam bits in place to the end; the other
    families step all count residues.  Power recurrences that may turn
    nonpositive and explicit lists reduce all count exact terms (see
    residues), so a nonpositive term is refused wherever it falls.
    """
    lin = _linear(spec)
    # bad arguments fail in _row_bits; _linear_period refuses only 2k past 10**12, a row that no path can hold
    if lin and not _exact_only(spec) and k >= 1 and start >= 1 and 2 * k <= count:
        mu, lam = _linear_period(lin, 2 * k)
        pre = max(start, 1 + mu) - start  # the bits from pre on repeat with period lam
        if pre + lam < count:
            bits = _row_bits(k, spec, start, pre + lam)
            row = bits[pre:]  # one period, repeated in place to at least count bytes, so the head fits in front
            row *= -(-count // lam)
            del row[count - pre :]
            row[:0] = bits[:pre]
            return row
    return _row_bits(k, spec, start, count)


def pair_row(spec: SequenceSpec, start: int, count: int) -> tuple[int, ...]:
    """Bits gamma(a_n, a_{n+1}) for n = start .. start + count - 1."""
    terms = list(iter_terms(spec, start, count + 1))
    return tuple(gamma(terms[j], terms[j + 1]) for j in range(count))


def detect_period(bits: Sequence[int], min_repeats: int = 3) -> PeriodReport | None:
    """Least preperiod, then least period, shown min_repeats times in the window, or None.

    bits[s:] reversed is the prefix rev[:n - s] of the reversed window, so one
    border table of rev (Knuth, Morris & Pratt 1977) gives each tail's least
    period in O(n), and the answer is the least s whose tail holds min_repeats
    copies of it.  zeros/ones count one period starting at the preperiod.
    """
    if min_repeats < 2:
        raise DomainError(f"min_repeats must be >= 2, got {min_repeats}")
    rev = list(bits)[::-1]
    n = len(rev)
    border, b = [0] * (n + 1), 0  # border[L]: the longest proper border of rev[:L]
    for i in range(1, n):
        while b and rev[i] != rev[b]:
            b = border[b]
        if rev[i] == rev[b]:
            b += 1
        border[i + 1] = b
    for s in range(n):
        length = n - s
        period = length - border[length]
        if min_repeats * period <= length:
            z = rev[length - period : length].count(0)
            return PeriodReport(s, period, z, period - z, False, length // period)
    return None


# ---------------- Residue-state periods ----------------


def _least_period(n: int, factors: list[tuple[int, int]], is_period: Callable[[int], bool]) -> int:
    """Least d dividing n with is_period(d), given that is_period(n) holds.

    Valid when the d | n passing the test are exactly the multiples of the
    answer (rotations fixing a cyclic word, multiples of a state period):
    each p of a pair (p, e) in factors, which cover n's primes, is divided
    out while the quotient still passes.
    """
    for r, _ in factors:
        while n % r == 0 and is_period(n // r):
            n //= r
    return n


def _shift_agrees(engine, start: int, shift: int, count: int) -> bool:
    # a_n = a_{n+shift} mod m for n in [start, start + count), by re-stepping two engine cursors
    state_at, step, out = engine
    a, b = state_at(start), state_at(start + shift)
    for _ in range(count):
        if out(a) != out(b):
            return False
        a, b = step(a), step(b)
    return True


def _linear_period(lin: tuple[int, ...], m: int) -> tuple[int, int]:
    """(mu, lam) of the states (a_n, a_{n+1}) mod m of a _linear family, with no walk.

    Mod p^e || m the companion matrix is invertible on its image from power 2e
    on (Fitting): on all states if p does not divide c_2, on 0 if p divides c_1
    and c_2, else on the unit root's line.  So from n0 = 2 bits(m) > 2e the
    state period divides p^e (p^2 - 1) (Wall 1960; Renault, Math. Mag. 86,
    2013): the least divisor fixing state n0, one O(log m) doubling a try.  lam
    is their lcm, mu < n0, and a bound or tail that fails means a wrong factoring.
    """
    n0, lam = 2 * m.bit_length(), 1
    for p, e in _factorize(m):
        q, bound = p**e, p**e * (p * p - 1)
        first = _linear_pair(lin, n0, q)
        if _linear_pair(lin, n0 + bound, q) != first:
            raise InvariantViolation(f"the state period mod {q} does not divide {bound}")
        primes = [(p, e)] + _factorize(p - 1) + _factorize(p + 1)
        lam = math.lcm(lam, _least_period(bound, primes, lambda n: _linear_pair(lin, n0 + n, q) == first))
    mu = next((n for n in range(n0) if _linear_pair(lin, 1 + n, m) == _linear_pair(lin, 1 + n + lam, m)), None)
    if mu is None:
        raise InvariantViolation(f"no state of the first {n0} mod {m} recurs {lam} later")
    return mu, lam


def state_period_mod(spec: SequenceSpec, m: int) -> StatePeriod:
    """Exact preperiod and period of the residue sequence (a_n mod m).

    _linear families, every power recurrence of order <= 2 with powers 1
    among them, take _linear_period with no walk.  Nonlinear and order >= 3
    power recurrences, and m past trial division, take Brent's cycle finding
    (sequences._orbit, O(mu + lam) steps, two states).  Both refuse the
    same lam, past sequences.ORBIT_MAX.  At power 1 the output period is
    lam; fib^I and n^K take the least divisor of lam two cursors agree on.
    """
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    engine = residue_engine(spec, m)
    lin = _linear(spec)
    try:
        found = _linear_period(lin, m) if lin else None
    except ResourceLimitError:  # m needs a trial divisor past sequences.FACTOR_TRIAL_MAX
        found = None
    mu, lam = found or _orbit(engine[0](1), engine[1], m)
    if lam > 1 << sequences.ORBIT_MAX.bit_length():  # past the window where _orbit stops
        raise ResourceLimitError(f"the residue orbit mod {m} is longer than {sequences.ORBIT_MAX} states")
    if lin and lin[4] > 1:
        lam = _least_period(lam, _factorize(lam), lambda d: _shift_agrees(engine, 1 + mu, d, lam - d))
    return StatePeriod(mu, lam)


def pisano(m: int) -> int:
    """Period of the Fibonacci numbers modulo m, by _linear_period; they have no tail."""
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    return _linear_period(_linear(FibonacciPower()), m)[1]


# ---------------- Row periods with certification ----------------


def row_period(k: int, spec: SequenceSpec, window: int | None = None, min_repeats: int = 3) -> PeriodReport:
    """Eventual period of the bit row gamma(k, a_n), certified only when read off the residue cycle.

    With no window, a family whose residues need no exact terms gets the exact
    report: the bits for n = 1 .. mu + lam, (mu, lam) the residue preperiod and
    period mod 2k, hold the whole row, and the least bit period divides lam.
    min_repeats then only has to be >= 2.  An explicit window (which walks no
    residues), factpow, explicit lists and power recurrences reduced from exact
    terms take detect_period on a window instead, uncertified.  So the report
    carries (mu, lam) exactly when it is certified.
    """
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if window is not None and window < 1:
        raise DomainError(f"need window >= 1, got {window}")
    if min_repeats < 2:
        raise DomainError(f"min_repeats must be >= 2, got {min_repeats}")
    if window is None:
        try:
            sp = state_period_mod(spec, 2 * k)
        except DomainError:  # factpow and explicit lists have no residue engine
            window = min(1000, len(spec.terms)) if isinstance(spec, Explicit) else 1000
        else:
            mu, lam = sp.preperiod, sp.period
            window = max(4 * lam, 200) + mu  # the default window, which the exact report counts its repeats in
            if not _exact_only(spec):
                # the bits are a function of the residues, so mu + lam of them hold the whole row
                bits = _row_bits(k, spec, 1, mu + lam)
                cycle = memoryview(bits)[mu:]  # views: a period test copies no bits
                period = _least_period(lam, _factorize(lam), lambda d: cycle[d:] == cycle[:-d])
                pre = mu
                while pre and bits[pre - 1] == bits[pre - 1 + period]:
                    pre -= 1
                zeros = bits[pre : pre + period].count(0)
                return PeriodReport(pre, period, zeros, period - zeros, True, (window - pre) // period, mu, lam)
    rep = detect_period(gamma_row(k, spec, 1, window), min_repeats)
    if rep is None:
        raise InconclusiveError(window)
    return rep


def fibonacci_period_table(kmax: int) -> list[tuple[int, int, int]]:
    """Rows (k, row period against Fibonacci, Fibonacci period mod 2k), the last read off the row's residue period."""
    if kmax < 1:
        raise DomainError(f"need kmax >= 1, got {kmax}")
    reps = (row_period(k, FibonacciPower(1)) for k in range(1, kmax + 1))
    return [(k, rep.period, rep.residue_period) for k, rep in enumerate(reps, 1)]


# ---------------- Command handlers ----------------


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bit_line(bits) -> str:
    # "0 1 1 ..." from the 0/1 bits: a byte per bit and per space, not a str object per bit
    line = bytearray(b" ")
    line *= 2 * len(bits) - 1
    line[::2] = bits.translate(_DIGITS)
    return line.decode("ascii")


def _cmd_row(args) -> tuple:
    spec = parse_spec(args.seq)
    bits = gamma_row(args.k, spec, args.start, args.count)
    payload = {"command": "row", "k": args.k, "seq": format_spec(spec), "start": args.start, "bits": bits}
    table = (("n", "bit"), enumerate(bits, args.start))
    return payload, map(_bit_line, (bits,)), table  # the line is built only when text is printed


def _cmd_period(args) -> tuple:
    spec = parse_spec(args.seq)
    rep = row_period(args.k, spec, args.window, args.min_repeats)
    payload = {"command": "period", "k": args.k, "seq": format_spec(spec), **vars(rep)}
    text = (
        f"period={rep.period} preperiod={rep.preperiod} zeros={rep.zeros} ones={rep.ones}"
        f" certified={_word(rep.certified)} verified_repeats={rep.verified_repeats}"
    )
    if rep.residue_period is not None:
        text += f" residue_period={rep.residue_period} residue_preperiod={rep.residue_preperiod}"
    return payload, [text]


def _cmd_pisano(args) -> tuple:
    value = pisano(args.m)
    return {"command": "pisano", "m": args.m, "pisano": value}, [str(value)]


def _cmd_table1(args) -> tuple:
    rows = fibonacci_period_table(args.kmax)
    payload = {"command": "table1", "rows": [{"k": k, "t_k": t, "pi_2k": p} for k, t, p in rows]}
    text = ["  k   t_k  pi(2k)"] + [f"{k:>3} {t:>5} {p:>7}" for k, t, p in rows]
    return payload, text, (("k", "t_k", "pi_2k"), rows)
