"""The paper's closed forms, its checks of the classifier, and ``verify``.

Closed-form witnesses for consecutive Fibonacci pairs, squared and cubed
Fibonacci pairs, and general coprime-seeded Fibonacci-like pairs at indices n
with n mod 6 = 4, where one ``oddr`` serves every index of a seed pair
(``_mod6_4_witnesses``).  Also the first alternation index of a pair row,
which no command calls yet.  ``verify`` checks each family's closed form
against the solver.

This module imports ``core`` and ``sequences`` only, so a ``verify`` process
compiles no row or period code.
"""

from __future__ import annotations

import math
from itertools import product
from typing import Callable, Iterable, Iterator, Sequence

from .core import DomainError, InvariantViolation, Record, SplitSolution, _split, mod_inverse, solve_split
from .sequences import FibonacciPower, fib_pair, fiblike_pair, iter_terms


# ---------------- Closed-form witnesses ----------------


class OddrResult(Record):
    """The unique odd r in [1, u] with v*r = sign mod (u odd ? u : 2u)."""

    r: int
    sign: int


def oddr(u: int, v: int) -> OddrResult:
    """Find the odd multiplier certifying which equation variant applies.

    For coprime u, v there is exactly one odd r in [1, u] with v*r = +-1
    modulo u (u odd) or modulo 2u (u even).  u = 1 returns (1, +1) by
    convention.
    """
    if u < 1 or v < 1:
        raise DomainError(f"need positive u, v, got ({u}, {v})")
    if math.gcd(u, v) != 1:
        raise DomainError(f"u and v must be coprime, got ({u}, {v})")
    if u == 1:
        return OddrResult(1, 1)
    modulus = u if u % 2 else 2 * u
    # v*r = 1 has one root r in [1, modulus-1] and v*r = -1 has modulus - r.
    # For odd u the two differ in parity; for even u both are odd and sum to
    # 2u.  Either way exactly one of them is odd and at most u.
    r = mod_inverse(v, modulus)
    res = OddrResult(r, 1) if r % 2 and r <= u else OddrResult(modulus - r, -1)
    if not (res.r % 2 and 1 <= res.r <= u and (v * res.r - res.sign) % modulus == 0):
        raise InvariantViolation(f"no odd r in [1, {u}] for ({u}, {v})")
    return res


def phi_psi(u: int, v: int, n: int, r: int, variant: int) -> tuple[Fraction, Fraction]:
    """Closed-form candidate (x, y) for the seed pair (u, v) at even index n.

    variant 1 uses the inner fractions ((u-r)v + 1)/u and (vr - 1)/u, variant 0
    flips both signs.  The inner fractions must be integers; the returned pair
    is exact and may be negative or half-integral, which callers validate.
    """
    from fractions import Fraction
    doubled = _phi_psi_doubled(u, v, r, variant)
    if n < 2 or n % 2:
        raise DomainError(f"n must be even and >= 2, got {n}")
    phi2, psi2 = doubled(*fib_pair(n - 2))
    return Fraction(phi2, 2), Fraction(psi2, 2)


def _phi_psi_doubled(u: int, v: int, r: int, variant: int) -> Callable[[int, int], tuple[int, int]]:
    # (F_{n-2}, F_{n-1}) -> (2 phi, 2 psi), phi_psi's numerators as integers; the inner fractions are checked here, once
    if variant not in (0, 1):
        raise DomainError(f"variant must be 0 or 1, got {variant}")
    if u == 0:
        raise DomainError("u must be nonzero")
    s = 1 if variant == 1 else -1
    num_phi = (u - r) * v + s
    if num_phi % u:
        raise DomainError(f"((u-r)*v {'+' if s > 0 else '-'} 1)/u is not an integer for u={u}, v={v}, r={r}")
    num_psi = v * r - s
    if num_psi % u:
        raise DomainError(f"(v*r {'-' if s > 0 else '+'} 1)/u is not an integer for u={u}, v={v}, r={r}")
    p, q = num_phi // u, num_psi // u
    return lambda f2, f1: ((u - r) * f1 + p * (f2 + f1) - 1, r * f2 + q * f1 - 1)  # F_n = f2 + f1


def closed_form_mod6_4(u: int, v: int, n: int) -> SplitSolution:
    """Solve the pair (t_n, t_{n+1}) in closed form when n mod 6 = 4.

    The sign attached to the odd multiplier from ``oddr`` picks the variant;
    the resulting witness is validated against the pair before returning.
    This is the one-index call of the route that ``verify --family mod6-4``
    takes at four indices per seed pair with one ``oddr``.
    """
    if u < 1 or v < 1 or math.gcd(u, v) != 1:
        raise DomainError(f"seeds must be positive and coprime, got ({u}, {v})")
    if n < 4 or n % 6 != 4:
        raise DomainError(f"need n = 4 mod 6 and n >= 4, got {n}")
    return SplitSolution(*next(_mod6_4_witnesses(u, v, ((n, *fib_pair(n - 2)),))))


def _mod6_4_witnesses(u: int, v: int, fibs: Iterable[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    # (delta, x, y) of (t_n, t_{n+1}) for each (n, F_{n-2}, F_{n-1}) in fibs, n = 4 mod 6 and coprime
    # seeds: one oddr and the inner fractions once, then O(1) small-integer operations and checks an index
    sel = oddr(u, v)
    variant = 1 if sel.sign > 0 else 0
    doubled = _phi_psi_doubled(u, v, sel.r, variant)
    for n, f2, f1 in fibs:
        phi2, psi2 = doubled(f2, f1)
        if phi2 & 1 or psi2 & 1:
            from fractions import Fraction
            phi, psi = Fraction(phi2, 2), Fraction(psi2, 2)
            raise InvariantViolation(f"half-integral witness for ({u}, {v}, {n}): {phi}, {psi}")
        x, y = phi2 >> 1, psi2 >> 1
        if x < 0 or y < 0:
            raise InvariantViolation(f"negative witness for ({u}, {v}, {n}): ({x}, {y})")
        tn, tn1 = u * f2 + v * f1, u * f1 + v * (f2 + f1)  # t_n = u F_{n-2} + v F_{n-1}
        if math.gcd(tn, tn1) != 1:
            raise InvariantViolation(f"pair ({tn}, {tn1}) not coprime for seeds ({u}, {v})")
        if variant + tn * x + tn1 * y != (tn - 1) * (tn1 - 1) >> 1:
            raise InvariantViolation(f"witness fails the equation for ({u}, {v}, {n})")
        yield variant, x, y


def fib_identity_solution(n: int) -> SplitSolution:
    """Witness for the pair (F_n, F_{n+1}) when n mod 6 is 0 or 4."""
    if n < 6 or n % 6 not in (0, 4):
        raise DomainError(f"need n >= 6 with n mod 6 in {{0, 4}}, got {n}")
    f2, f1 = fib_pair(n - 2)  # (F_{n-2}, F_{n-1})
    # n = 0 mod 6: x = y = (F_{n-1} - 1)/2; n = 4 mod 6: delta = 1, x = (F_n - 1)/2, y = (F_{n-2} - 1)/2
    delta = int(n % 6 == 4)
    x, y = (f2 + f1 - 1, f2 - 1) if delta else (f1 - 1, f1 - 1)
    if (x | y) & 1:
        raise InvariantViolation(f"parity failure at n={n}")
    return SplitSolution(delta, x >> 1, y >> 1)


def fib_square_solution(n: int) -> SplitSolution:
    """Witness for (F_n^2, F_{n+1}^2); needs n mod 6 in {0, 2, 3, 5}."""
    if n < 2 or n % 6 not in (0, 2, 3, 5):
        raise DomainError(f"need n >= 2 with n mod 6 in {{0, 2, 3, 5}}, got {n}")
    f1, f0 = fib_pair(n - 1)  # (F_{n-1}, F_n)
    half, rem = divmod(f1 * f1 - 1, 2)
    if rem:
        raise InvariantViolation(f"F_{n - 1} is even at n={n}")
    return SplitSolution(0, f0 * f0 - half - 1, half)


def fib_cube_solution(m: int) -> SplitSolution:
    """Witness for (F_{2m-1}^3, F_{2m}^3), m >= 2, in O(log m) bigint steps.

    The witness is the alternating sum x of the cubes F_1^3 .. F_{2m-1}^3 (newest
    term positive) and the plain sum y of F_2^3 .. F_{2m-2}^3.  Vajda's
    5 F_k^3 = F_{3k} + 3 (-1)^(k+1) F_k telescopes both sums:
    x = ((F_{6m-2} + 1)/2 + 3 (F_{2m+1} - 1)) / 5 and
    y = ((F_{6m-4} - 1)/2 - 3 (F_{2m-3} - 1)) / 5 - 1.
    """
    if m < 2:
        raise DomainError(f"need m >= 2, got {m}")
    f6a, f6b = fib_pair(6 * m - 4)  # F_{6m-4}, F_{6m-3}
    f2a, f2b = fib_pair(2 * m - 3)  # F_{2m-3}, F_{2m-2}
    x = ((f6a + f6b + 1) // 2 + 3 * (3 * f2b + 2 * f2a - 1)) // 5  # F_{2m+1} = 3 F_{2m-2} + 2 F_{2m-3}
    y = ((f6a - 1) // 2 - 3 * (f2a - 1)) // 5 - 1
    return SplitSolution(0, x, y)


# ---------------- Row helper ----------------


def first_alternation_index(bits: Sequence[int]) -> int:
    """Smallest index j such that bits[j:] strictly alternates through the end."""
    bits = list(bits)
    if not bits:
        raise DomainError("empty bit row")
    j = len(bits) - 1
    while j > 0 and bits[j - 1] != bits[j]:
        j -= 1
    return j


# ---------------- The verify command ----------------


# default LO:HI per family; LO is also the smallest index the family accepts
_VERIFY_DEFAULT_RANGE = {
    "fib": (6, 30),
    "fib2": (2, 30),
    "fib3": (2, 8),
    "fiblike": (1, 8),
    "mod6-4": (1, 8),
}


def _fiblike_ok(u: int, v: int) -> bool:
    x, y = u, v
    for n in range(1, 31):
        if fiblike_pair(u, v, n) != (x, y) or math.gcd(x, y) != 1:
            return False
        x, y = y, x + y
    return True


# (n, F_{n-2}, F_{n-1}) at the four indices n = 4 mod 6 that each mod6-4 seed pair checks
_MOD6_4_FIBS = ((4, 1, 2), (10, 21, 34), (16, 377, 610), (22, 6765, 10946))


def _mod6_4_ok(u: int, v: int) -> bool:
    t = [u, v]  # t_1, t_2, ... by additions
    while len(t) < 23:
        t.append(t[-1] + t[-2])
    witnesses = _mod6_4_witnesses(u, v, _MOD6_4_FIBS)  # one oddr; stops at the first mismatch
    return all(w == _split(t[n - 1], t[n]) for (n, _, _), w in zip(_MOD6_4_FIBS, witnesses))


def _verify_items(family: str, lo: int, hi: int):
    lo = max(lo, _VERIFY_DEFAULT_RANGE[family][0])
    if family == "fib":
        for n in range(lo, hi + 1):
            if n % 6 in (0, 4):
                yield f"n={n}", solve_split(*iter_terms(FibonacciPower(1), n, 2)) == fib_identity_solution(n)
    elif family == "fib2":
        for n in range(lo, hi + 1):
            if n % 6 in (0, 2, 3, 5):
                yield f"n={n}", solve_split(*iter_terms(FibonacciPower(2), n, 2)) == fib_square_solution(n)
    elif family == "fib3":
        for m in range(lo, hi + 1):
            yield f"m={m}", solve_split(*iter_terms(FibonacciPower(3), 2 * m - 1, 2)) == fib_cube_solution(m)
    else:
        ok = _fiblike_ok if family == "fiblike" else _mod6_4_ok
        for u, v in product(range(lo, hi + 1), repeat=2):
            if math.gcd(u, v) == 1:
                yield f"u={u},v={v}", ok(u, v)


def _cmd_verify(args) -> tuple:
    if args.range:
        try:
            lo, _, hi = args.range.partition(":")
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise DomainError(f"range must look like LO:HI, got {args.range!r}") from exc
    else:
        lo, hi = _VERIFY_DEFAULT_RANGE[args.family]
    items = list(_verify_items(args.family, lo, hi))
    failed = sum(not ok for _, ok in items)
    payload = {
        "command": "verify",
        "family": args.family,
        "range": f"{lo}:{hi}",
        "items": ({"item": label, "ok": ok} for label, ok in items),
        "checked": len(items),
        "failed": failed,
    }
    text = [("ok " if ok else "FAIL ") + label for label, ok in items] + [f"checked={len(items)} failed={failed}"]
    table = (("family", "item", "ok"), ((args.family, label, ok) for label, ok in items))
    return payload, text, table
