"""Integer sequence families fed to the split-equation classifier.

All sequences are 1-indexed.  How each family recurs is written down once,
here: ``_linear`` tabulates the order-2 linear families (the eight named ones,
n^K, and every power recurrence of order <= 2 with powers 1, whatever its
signs), whose residues all come from one Lucas doubling, ``_linear_pair``;
``residue_engine`` steps every family with a finite residue state and jumps
the other power recurrences into their orbit's cycle (``_orbit``, Brent's
cycle finding).  How terms are read is ``_exact_only``'s question alone: a
recurrence whose terms may turn nonpositive, and an explicit list, yield
exact terms walked and checked one by one, and their residues reduce them.
Otherwise exact terms (``iter_terms``, ``term``) and residues (``residues``,
``term_mod``) are both read off the one description; an exact term past
MAX_TERM_BITS is refused, and the modular route answers where factorial powers
and squared-lag recurrences outgrow memory.  The text grammar is one table,
read by both ``parse_spec`` and ``format_spec``.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterator, Union

from .core import DomainError, Record, ResourceLimitError

MAX_TERM_BITS = 1_000_000
# Brent's walk (_orbit) finds every orbit with mu < ORBIT_MAX and lam <= ORBIT_MAX and
# refuses longer ones (exit 4) after ~4 * ORBIT_MAX steps, ~10 s for a powrec (~2-2.5 us
# a step, CPython 3.11, 2-core Xeon).  Linear families find (mu, lam) with no walk when m
# factors, and refuse the same lam, past 1 << ORBIT_MAX.bit_length(), at once.  A walk
# from n = 1 that cannot jump refuses a start past it
ORBIT_MAX = 2_000_000
# trial division stops here, so every m <= 10**12 factors, in at most ~5e5 divisions
FACTOR_TRIAL_MAX = 1_000_000


# ---------------- Order-2 terms by doubling ----------------


def _too_big(n: int) -> ResourceLimitError:
    try:
        at = f"n={n}"
    except ValueError:  # past the interpreter's int->str digit limit: name the index by its width
        at = f"an index of {n.bit_length()} bits"
    return ResourceLimitError(f"term at {at} exceeds {MAX_TERM_BITS} bits; use term_mod instead")


def _linear_pair(lin: tuple[int, ...], n: int, mod: int | None = None) -> tuple[int, int]:
    # (a_n, a_{n+1}), n >= 1, of a_j = c1 a_{j-1} + c2 a_{j-2} from (U_{n-1}, U_n) of U_0 = 0, U_1 = 1 and the
    # same recurrence, by doubling (Lucas 1878): U_2j = U_j (2 U_{j+1} - c1 U_j), U_2j+1 = U_{j+1}^2 + c2 U_j^2.
    # At full width no operand past 2 MAX_TERM_BITS is squared, and a_n past MAX_TERM_BITS is refused.
    # c1 = 2, c2 = -1 (nat, odds, arith, n^K) has U_j = j and needs no doubling
    a1, a2, c1, c2 = lin[:4]
    u, w, bits = (n - 1, n, "") if (c1, c2) == (2, -1) else (0, 1, bin(n - 1)[2:])
    for bit in bits:
        if mod is not None:
            u, w = u % mod, w % mod
        elif max(u.bit_length(), w.bit_length()) > 2 * MAX_TERM_BITS:
            raise _too_big(n)
        c = u * (2 * w - c1 * u)
        d = w * w + c2 * (u * u)
        if bit == "1":
            u, w = d, c1 * d + c2 * c
        else:
            u, w = c, d
    x = a1 * (w - c1 * u) + a2 * u
    y = a1 * c2 * u + a2 * w
    if mod is not None:
        return x % mod, y % mod
    if x.bit_length() > MAX_TERM_BITS:
        raise _too_big(n)
    return x, y


def fib_pair(n: int, mod: int | None = None) -> tuple[int, int]:
    """(F_n, F_{n+1}) with F_0 = 0, by fast doubling, optionally modulo mod."""
    if n < 0:
        raise DomainError(f"need n >= 0, got {n}")
    if mod is not None and mod < 1:
        raise DomainError(f"need mod >= 1, got {mod}")
    try:  # the seeds F_0, F_1 are a_1, a_2: F_n is a_{n+1}
        return _linear_pair((0, 1, 1, 1), n + 1, mod)
    except ResourceLimitError:
        raise _too_big(n) from None


def fib(n: int) -> int:
    """F_n with F_1 = F_2 = 1."""
    return fib_pair(n)[0]


def fiblike_pair(u: int, v: int, n: int) -> tuple[int, int]:
    """(t_n, t_{n+1}) for the sequence seeded t_1 = u, t_2 = v."""
    if n < 1:
        raise DomainError(f"need n >= 1, got {n}")
    return _linear_pair((u, v, 1, 1), n)


# ---------------- Sequence specs ----------------


class FibonacciPower(Record):
    """Terms F_n ** power."""

    power: int = 1

    def __post_init__(self) -> None:
        if self.power < 1:
            raise DomainError(f"power must be >= 1, got {self.power}")


class FibonacciLike(Record):
    """t_1 = t1, t_2 = t2 coprime, then t_n = t_{n-1} + t_{n-2}."""

    t1: int
    t2: int

    def __post_init__(self) -> None:
        if self.t1 < 1 or self.t2 < 1:
            raise DomainError(f"seeds must be positive, got ({self.t1}, {self.t2})")
        if math.gcd(self.t1, self.t2) != 1:
            raise DomainError(f"seeds must be coprime, got ({self.t1}, {self.t2})")


class Balancing(Record):
    """1, 6, 35, 204, ... with b_n = 6 b_{n-1} - b_{n-2}."""


class LucasBalancing(Record):
    """3, 17, 99, 577, ... same recurrence as Balancing."""


class Naturals(Record):
    """1, 2, 3, ..."""


class Odds(Record):
    """1, 3, 5, ..."""


class Arithmetic(Record):
    """a_n = p*n - r with p >= 1 and 0 <= r < p."""

    p: int
    r: int

    def __post_init__(self) -> None:
        if self.p < 1 or not 0 <= self.r < self.p:
            raise DomainError(f"need p >= 1 and 0 <= r < p, got (p={self.p}, r={self.r})")


class KthPower(Record):
    """a_n = n ** k."""

    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError(f"k must be >= 1, got {self.k}")


class ShiftedGeometric(Record):
    """a_n = a * r**(n-1) + 1 with r >= 2."""

    a: int
    r: int

    def __post_init__(self) -> None:
        if self.a < 1:
            raise DomainError(f"a must be >= 1, got {self.a}")
        if self.r < 2:
            raise DomainError(f"r must be >= 2, got {self.r}")


class PowerRecurrence(Record):
    """a_n = sum_i coeffs[i] * a_{n-1-i} ** powers[i], seeded by init."""

    coeffs: tuple[int, ...]
    powers: tuple[int, ...]
    init: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        object.__setattr__(self, "powers", tuple(self.powers))
        object.__setattr__(self, "init", tuple(self.init))
        s = len(self.coeffs)
        if s == 0 or len(self.powers) != s or len(self.init) != s:
            raise DomainError("coeffs, powers and init must be nonempty and equally long")
        if any(t < 0 for t in self.powers):
            raise DomainError("powers must be nonnegative")
        if any(a < 1 for a in self.init):
            raise DomainError("initial terms must be positive")

    @property
    def order(self) -> int:
        return len(self.coeffs)


class FactorialPower(Record):
    """a_n = (n!) ** (n!).  Exact terms stop at MAX_TERM_BITS, after n = 8; use term_mod beyond."""


class Explicit(Record):
    """A finite list of positive terms given verbatim."""

    terms: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "terms", tuple(self.terms))
        if not self.terms or any(t < 1 for t in self.terms):
            raise DomainError("explicit terms must be a nonempty list of positive integers")


SequenceSpec = Union[
    FibonacciPower,
    FibonacciLike,
    Balancing,
    LucasBalancing,
    Naturals,
    Odds,
    Arithmetic,
    KthPower,
    ShiftedGeometric,
    PowerRecurrence,
    FactorialPower,
    Explicit,
]


# ---------------- The recurrence of each family ----------------


def _linear(spec: SequenceSpec) -> tuple[int, int, int, int, int] | None:
    """(a_1, a_2, c_1, c_2, power) of the order-2 linear families, else None.

    The base sequence starts a_1, a_2 and continues a_n = c_1 a_{n-1} +
    c_2 a_{n-2}; the family's terms are its power-th powers (power > 1 for
    fib^I and n^K).  A power recurrence with all powers 1 and order at most
    2 is one of them, whatever its signs; order 1 has c_2 = 0.  Whether its
    exact terms may be read off this recurrence is _exact_only's question.
    """
    if isinstance(spec, FibonacciPower):
        return 1, 1, 1, 1, spec.power
    if isinstance(spec, FibonacciLike):
        return spec.t1, spec.t2, 1, 1, 1
    if isinstance(spec, Balancing):
        return 1, 6, 6, -1, 1
    if isinstance(spec, LucasBalancing):
        return 3, 17, 6, -1, 1
    if isinstance(spec, Naturals):
        return 1, 2, 2, -1, 1
    if isinstance(spec, KthPower):
        return 1, 2, 2, -1, spec.k
    if isinstance(spec, Odds):
        return 1, 3, 2, -1, 1
    if isinstance(spec, Arithmetic):
        return spec.p - spec.r, 2 * spec.p - spec.r, 2, -1, 1
    if isinstance(spec, ShiftedGeometric):
        return spec.a + 1, spec.a * spec.r + 1, spec.r + 1, -spec.r, 1
    if isinstance(spec, PowerRecurrence) and spec.order <= 2 and set(spec.powers) == {1}:
        c1, c2 = (spec.coeffs + (0,))[:2]
        a1 = spec.init[0]
        return a1, spec.init[1] if spec.order == 2 else c1 * a1, c1, c2, 1
    return None


def _powrec_step(spec: PowerRecurrence, window: tuple[int, ...], m: int | None = None) -> int:
    # window holds (a_{n-s}, ..., a_{n-1}); lag i counts back from the end
    if m is None:
        return sum(c * w**p for c, w, p in zip(spec.coeffs, reversed(window), spec.powers) if c)
    return sum(spec.coeffs[i] * pow(window[-1 - i], spec.powers[i], m) for i in range(spec.order)) % m


def _exact_only(spec: SequenceSpec) -> bool:
    # Residues cannot show a term turning nonpositive, so power recurrences
    # that may do so (a negative coefficient, or all coefficients zero) are
    # reduced from exact terms, which iter_terms checks; so are explicit lists.
    if isinstance(spec, PowerRecurrence):
        return min(spec.coeffs) < 0 or max(spec.coeffs) == 0
    return isinstance(spec, Explicit)


def residue_engine(
    spec: SequenceSpec, m: int
) -> tuple[Callable[[int], tuple], Callable[[tuple], tuple], Callable[[tuple], int]]:
    """(state_at, step, out) for the residues of spec mod m.

    out(state_at(n)) = a_n mod m and step(state_at(n)) = state_at(n + 1).
    state_at is O(log n) for the linear families, including those whose
    exact terms _exact_only walks.  Other power recurrences walk n - 1 steps,
    but past ORBIT_MAX only to 1 + mu + (n - 1 - mu) mod lam, after _orbit
    finds the tail mu and cycle lam.  Families without a finite residue
    state raise DomainError.
    """
    lin = _linear(spec)
    if lin is not None:
        c1, c2, power = lin[2:]
        step = lambda st: (st[1], (c1 * st[1] + c2 * st[0]) % m)
        return (lambda n: _linear_pair(lin, n, m)), step, (lambda st: pow(st[0], power, m))
    if isinstance(spec, PowerRecurrence):
        step = lambda st: st[1:] + (_powrec_step(spec, st, m),)
        x0 = tuple(a % m for a in spec.init)

        def state_at(n: int) -> tuple[int, ...]:
            if n > ORBIT_MAX:  # into the cycle; n itself while n - 1 is still in the tail
                mu, lam = _orbit(x0, step, m)
                n = min(n, 1 + mu + (n - 1 - mu) % lam)
            st = x0
            for _ in range(n - 1):
                st = step(st)
            return st

        return state_at, step, lambda st: st[0]
    raise DomainError(f"no residue recurrence available for {spec!r}")


def _orbit(x0: tuple, step: Callable[[tuple], tuple], m: int) -> tuple[int, int]:
    """(mu, lam), the tail and cycle lengths of the states x0, step(x0), ... mod m.

    Brent's cycle finding (BIT 1980) holds two states and takes O(mu + lam)
    steps: the hare then steps lam times from x0 and walks in step with the
    tortoise to the cycle's first state.  See ORBIT_MAX.
    """
    power = lam = 1
    tortoise, hare = x0, step(x0)
    while tortoise != hare:
        if power == lam:
            if power > ORBIT_MAX:
                raise ResourceLimitError(f"the residue orbit mod {m} is longer than {ORBIT_MAX} states")
            tortoise, power, lam = hare, 2 * power, 0
        hare = step(hare)
        lam += 1
    hare = x0
    for _ in range(lam):
        hare = step(hare)
    mu, tortoise = 0, x0
    while tortoise != hare:
        mu, tortoise, hare = mu + 1, step(tortoise), step(hare)
    return mu, lam


# ---------------- Terms and residues ----------------


def _check_window(start: int, count: int) -> None:
    if start < 1 or count < 0:
        raise DomainError(f"need start >= 1 and count >= 0, got ({start}, {count})")


def iter_terms(spec: SequenceSpec, start: int, count: int) -> Iterator[int]:
    """Yield exact terms a_start, ..., a_{start+count-1}."""
    _check_window(start, count)
    end = start + count
    lin = _linear(spec)
    if lin is not None and not _exact_only(spec):
        c1, c2, power = lin[2:]
        x, y = _linear_pair(lin, start)
        for n in range(start, end):
            if (x.bit_length() - 1) * power >= MAX_TERM_BITS or (t := x**power).bit_length() > MAX_TERM_BITS:
                raise _too_big(n)
            yield t
            x, y = y, c1 * y + c2 * x
    elif isinstance(spec, PowerRecurrence):
        if start > ORBIT_MAX:
            raise ResourceLimitError(f"exact power recurrence terms walk from n = 1; start {start} is past {ORBIT_MAX}")
        window = spec.init
        for n in range(1, end):
            if n <= spec.order:
                t = spec.init[n - 1]
            else:  # refuse a summand past the operand bound of _linear_pair before powering it
                if any(c and (w.bit_length() - 1) * p >= 2 * MAX_TERM_BITS
                       for c, w, p in zip(spec.coeffs, reversed(window), spec.powers)):
                    raise _too_big(n)
                t = _powrec_step(spec, window)
                if t < 1:
                    raise DomainError(f"power recurrence produced a nonpositive term at n={n}")
                if t.bit_length() > MAX_TERM_BITS:
                    raise _too_big(n)
                window = window[1:] + (t,)
            if n >= start:
                yield t
    elif isinstance(spec, FactorialPower):
        for n in range(start, end):
            f = math.factorial(n)
            if (f.bit_length() - 1) * f >= MAX_TERM_BITS or (t := f**f).bit_length() > MAX_TERM_BITS:
                raise _too_big(n)
            yield t
    elif isinstance(spec, Explicit):
        if end - 1 > len(spec.terms):
            raise DomainError(f"explicit sequence has {len(spec.terms)} terms, asked through {end - 1}")
        yield from spec.terms[start - 1 : end - 1]
    else:
        raise DomainError(f"unknown sequence spec {spec!r}")


def residues(spec: SequenceSpec, start: int, count: int, m: int) -> Iterator[int]:
    """Yield a_start mod m, ..., a_{start+count-1} mod m without full terms.

    Families with a residue engine jump to a_start and step from there;
    (n!)^(n!) comes from one running n! by Euler's theorem, then zeros.
    Explicit lists and power recurrences that may turn nonpositive reduce
    exact terms, so they keep the positivity and size guards of iter_terms.
    """
    _check_window(start, count)
    if m < 1:
        raise DomainError(f"modulus must be >= 1, got {m}")
    if _exact_only(spec):
        for t in iter_terms(spec, start, count):
            yield t % m
    elif isinstance(spec, FactorialPower):
        # Below cap = m.bit_length(), which exceeds every exponent of m, n! is
        # raised exactly.  Past it every dead p^e || m (p <= n) divides
        # (n!)^(n!), and on the live part (p > n, prime to n!) Euler's theorem
        # needs only n! mod its phi: one running n! is kept mod the live part
        # and mod its phi, and lift is 0 mod the dead part and 1 mod the live
        # part.  Once no prime is live and n! >= cap, m | (n!)^(n!): zeros
        # follow, and a window that starts there skips the pass.
        factors = _factorize(m)
        cap = m.bit_length()
        end = start + count
        n0 = next(n for n in itertools.count(1) if math.factorial(n) >= cap)
        stop = min(end, max(n0, factors[-1][0] if factors else 1))
        if ORBIT_MAX < start < stop:
            raise ResourceLimitError(f"(n!)^(n!) mod {m} walks n! from 1; start {start} is past {ORBIT_MAX}")
        live = factors[::-1]
        lift, m_live, phi = 1, m, math.prod((p - 1) * p ** (e - 1) for p, e in factors)
        f_m = f_phi = 1
        for n in range(1, stop if start < stop else 1):
            while live and live[-1][0] <= n:
                p, e = live.pop()
                m_live, phi = m_live // p**e, phi // ((p - 1) * p ** (e - 1))
                lift = m // m_live * pow(m // m_live, -1, m_live)
            f_m, f_phi = f_m * n % m_live, f_phi * n % phi
            if n >= start:
                yield pow(g := math.factorial(n), g, m) if n < n0 else pow(f_m, f_phi, m_live) * lift % m
        yield from itertools.repeat(0, end - max(start, stop))
    else:
        state_at, step, out = residue_engine(spec, m)
        st = state_at(start)
        for _ in range(count):
            yield out(st)
            st = step(st)


def term(spec: SequenceSpec, n: int) -> int:
    """Exact value of a_n (1-indexed)."""
    return next(iter_terms(spec, n, 1))


def term_mod(spec: SequenceSpec, n: int, m: int) -> int:
    """a_n mod m without materializing the full term."""
    return next(residues(spec, n, 1, m))


def _factorize(m: int) -> list[tuple[int, int]]:
    # (prime, exponent) pairs of m >= 1, by trial division up to FACTOR_TRIAL_MAX
    whole = m
    out = []
    d = 2
    while d * d <= m:
        if d > FACTOR_TRIAL_MAX:
            raise ResourceLimitError(f"factoring {whole} needs trial divisors above {FACTOR_TRIAL_MAX}")
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            out.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


# ---------------- Text round-trip ----------------


def _ints(body: str, what: str, text: str) -> list[int]:
    try:
        return [int(p) for p in body.split(",")]
    except ValueError as exc:
        raise DomainError(f"bad {what} in sequence spec: {text!r}") from exc


# The grammar: plain names, and prefix -> (family, what its fields are called),
# the fields comma-separated in field order; powrec and explicit parse apart
_NAMES = {
    "fib": FibonacciPower(1),
    "nat": Naturals(),
    "odds": Odds(),
    "bal": Balancing(),
    "lucasbal": LucasBalancing(),
    "factpow": FactorialPower(),
}
_PREFIXES = {
    "fib^": (FibonacciPower, "exponent"),
    "n^": (KthPower, "exponent"),
    "fiblike:": (FibonacciLike, "seeds"),
    "arith:": (Arithmetic, "parameters"),
    "geo:": (ShiftedGeometric, "parameters"),
}


def parse_spec(text: str) -> SequenceSpec:
    """Parse the compact CLI form, e.g. fib^2, fiblike:3,5, powrec:c=1,1;t=1,2;init=1,1."""
    t = text.strip()
    if t in _NAMES:
        return _NAMES[t]
    for prefix, (family, what) in _PREFIXES.items():
        if t.startswith(prefix):
            vals = _ints(t[len(prefix):], what, text)
            if len(vals) != len(family._fields):
                raise DomainError(f"{prefix} takes {','.join(family._fields)}, got {text!r}")
            # outside _ints' try: the family's own DomainError is also a ValueError
            return family(*vals)
    if t.startswith("explicit:"):
        return Explicit(tuple(_ints(t[9:], "terms", text)))
    if t.startswith("powrec:"):
        parts = dict()
        for piece in t[7:].split(";"):
            key, _, body = piece.partition("=")
            if key.strip() in parts:
                raise DomainError(f"powrec field {key.strip()!r} given twice in {text!r}")
            parts[key.strip()] = _ints(body, f"powrec field {key!r}", text)
        if set(parts) != {"c", "t", "init"}:
            raise DomainError(f"powrec needs c=, t= and init=, got {text!r}")
        return PowerRecurrence(parts["c"], parts["t"], parts["init"])
    raise DomainError(f"unrecognized sequence spec: {text!r}")


def format_spec(spec: SequenceSpec) -> str:
    """Canonical text form; parse_spec(format_spec(s)) == s."""
    fields = [",".join(map(str, v)) if isinstance(v, tuple) else str(v) for v in vars(spec).values()]
    if isinstance(spec, PowerRecurrence):
        return "powrec:c={};t={};init={}".format(*fields)
    if isinstance(spec, Explicit):
        return "explicit:" + fields[0]
    for name, named in _NAMES.items():
        if named == spec:
            return name
    for prefix, (family, _) in _PREFIXES.items():
        if type(spec) is family:
            return prefix + ",".join(fields)
    raise DomainError(f"unknown sequence spec {spec!r}")
