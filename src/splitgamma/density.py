"""Greedy pair chains realizing any rational zero-bit density.

Walk a chain a_n in {2a_{n-1}, 2a_{n-1} - 1}.  Doubling appends a 0 bit to the
row gamma(a_{n-1}, a_n), the other branch appends a 1, so steering by the
running zero ratio drives the ratio to any target p in [0, 1].  The bit is the
branch taken, so no step calls the classifier:

    gamma(a, 2a) = 0 for a >= 1: the pair reduces to (1, 2), where R = 0
    and x = y = 0 solve the delta = 0 equation.
    gamma(a, 2a - 1) = 1 for a >= 2: R = (a - 1)^2, and x = a - 2, y = 0
    solve ax + (2a - 1)y + 1 = R, so by the dichotomy delta = 1.

Hence a_n = 2a_{n-1} - bit_n.  Building the terms is O(n^2) bit work; the
classifier would have taken one inverse a step on operands up to n bits wide.
Ratios are exact fractions throughout; no floats.  The steering compares
integers, zeros * den < num * n.  The chain keeps every term, about n^2/2 bits
in all, so a walk of more than DENSITY_MAX_STEPS steps is refused (exit 4)
before it starts.  The CLI's ``density`` handler lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .core import DomainError, Record, ResourceLimitError, _word

# the chain holds all n + 1 terms, about n^2 / 2 bits: 2**15 steps hold about 5.4e8 bits (67 MB)
DENSITY_MAX_STEPS = 2**15


class DensityTrace(Record):
    p: Fraction
    terms: tuple[int, ...]  # a_0 .. a_N
    bits: tuple[int, ...]  # gamma(a_{n-1}, a_n) for n = 1 .. N
    ratios: tuple[Fraction, ...]  # zero-bit ratio over the first n bits
    crossings: tuple[int, ...]  # n >= 2 where the ratio moved across p


def build_density_sequence(p: Fraction | int | str, n_max: int) -> DensityTrace:
    """Construct the chain out to a_N and record bits, ratios and crossings.

    One rule serves every target: p = 0 seeds a_0 = 2 and never doubles (the
    2^n + 1 chain), p = 1 always doubles (2^n), and otherwise a_0 = 1, step 1
    doubles and each later step doubles while the ratio so far is below p.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DomainError(f"target density must lie in [0, 1], got {p}")
    if n_max < 2:
        raise DomainError(f"need at least two steps, got {n_max}")
    if n_max > DENSITY_MAX_STEPS:
        raise ResourceLimitError(f"{n_max} steps exceed {DENSITY_MAX_STEPS}: the chain holds about n^2/2 bits")
    num, den = p.numerator, p.denominator
    a = 2 if p == 0 else 1
    terms = [a]
    bits = []
    ratios = []
    crossings = []
    zeros = 0
    below = p != 0  # whether the ratio over the bits so far lies below p; step 1 doubles unless p = 0
    for n in range(1, n_max + 1):
        bit = 0 if below or p == 1 else 1
        a = 2 * a - bit
        terms.append(a)
        bits.append(bit)
        zeros += 1 - bit
        ratios.append(Fraction(zeros, n))
        was_below, below = below, zeros * den < num * n
        if n >= 2 and below != was_below:
            crossings.append(n)
    return DensityTrace(p, tuple(terms), tuple(bits), tuple(ratios), tuple(crossings))


def verify_growth_bounds(trace: DensityTrace) -> bool:
    """Strict increase plus 2^(n-1) < a_n <= 2^(n+1) for every n >= 1."""
    terms = trace.terms
    if any(terms[i] >= terms[i + 1] for i in range(len(terms) - 1)):
        return False
    # 2^(n-1) < a <= 2^(n+1) is 2^(n-1) <= a - 1 < 2^(n+1)
    return all(a > 0 and n <= (a - 1).bit_length() <= n + 1 for n, a in enumerate(terms[1:], 1))


# ---------------- Command handler ----------------


def _cmd_density(args) -> tuple:
    try:
        p = Fraction(args.p)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse target density {args.p!r}") from exc
    trace = build_density_sequence(p, args.n)
    bounds = verify_growth_bounds(trace)
    final = trace.ratios[-1]
    payload = {
        "p_num": p.numerator,
        "p_den": p.denominator,
        "terms": trace.terms,
        "bits": trace.bits,
        "ratios": ({"num": r.numerator, "den": r.denominator} for r in trace.ratios),
        "crossings": trace.crossings,
        "command": "density",
        "growth_bounds_ok": bounds,
    }
    text = [
        f"p={p}",
        f"terms={len(trace.terms)}",
        f"final_ratio={final.numerator}/{final.denominator}",
        f"crossings={len(trace.crossings)}" + (f" last={trace.crossings[-1]}" if trace.crossings else ""),
        f"growth_bounds={_word(bounds)}",
    ]
    rows = chain([(0, trace.terms[0], None, None, None)],  # the seed row n = 0 has no bit or ratio
                 ((n, t, bit, r.numerator, r.denominator) for n, (t, bit, r) in
                  enumerate(zip(trace.terms[1:], trace.bits, trace.ratios), 1)))
    return payload, text, (("n", "a_n", "gamma_bit", "ratio_num", "ratio_den"), rows)
