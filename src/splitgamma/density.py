"""Greedy pair chains realizing any rational zero-bit density.

Walk a chain a_0 = 1, a_1 = 2, a_n in {2a_{n-1}, 2a_{n-1} - 1}.  Doubling
appends a 0 bit to the row gamma(a_{n-1}, a_n), the other branch appends a 1,
so steering by the running zero ratio drives the ratio to any target p in
[0, 1].  Ratios are exact fractions throughout; no floats.  Each step makes
one classifier call, and the bit it returns is both recorded and steers the
next step; the steering compares integers, zeros * den < num * (n - 1).
The chain keeps every term, about n^2/2 bits in all, so a walk of more than
DENSITY_MAX_STEPS steps is refused (exit 4) before it starts.  The CLI's
``density`` handler lives here too.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain

from .core import DomainError, Record, ResourceLimitError, _word, gamma

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

    p = 1 gives the pure doubling chain, p = 0 the 2^n + 1 chain; in between
    the branch is chosen by comparing the previous ratio to p.  Bits are
    always evaluated by the classifier, once per step, never assumed from the
    branch taken.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DomainError(f"target density must lie in [0, 1], got {p}")
    if n_max < 2:
        raise DomainError(f"need at least two steps, got {n_max}")
    if n_max > DENSITY_MAX_STEPS:
        raise ResourceLimitError(f"{n_max} steps exceed {DENSITY_MAX_STEPS}: the chain holds about n^2/2 bits")
    num, den = p.numerator, p.denominator
    if p == 1:
        terms = [2**n for n in range(n_max + 1)]
    elif p == 0:
        terms = [2**n + 1 for n in range(n_max + 1)]
    else:
        terms = [1, 2]
    bits = []
    ratios = []
    crossings = []
    zeros = 0
    below = False  # whether the ratio over the bits so far lies below p
    for n in range(1, n_max + 1):
        prev = terms[n - 1]
        if n == len(terms):  # a steered chain: double while the ratio over n - 1 bits is below p
            terms.append(2 * prev if below else 2 * prev - 1)
        bit = gamma(prev, terms[n])
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
