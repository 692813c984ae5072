"""Greedy pair chains realizing any rational zero-bit density.

Walk a chain a_0 = 1, a_1 = 2, a_n in {2a_{n-1}, 2a_{n-1} - 1}.  Doubling
appends a 0 bit to the row gamma(a_{n-1}, a_n), the other branch appends a 1,
so steering by the running zero ratio drives the ratio to any target p in
[0, 1].  Ratios are exact fractions throughout; no floats.
"""

from __future__ import annotations

from fractions import Fraction

from .core import DomainError, Record, gamma


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
    always evaluated by the classifier, never assumed from the branch taken.
    """
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise DomainError(f"target density must lie in [0, 1], got {p}")
    if n_max < 2:
        raise DomainError(f"need at least two steps, got {n_max}")
    if p == 1:
        terms = [2**n for n in range(n_max + 1)]
    elif p == 0:
        terms = [2**n + 1 for n in range(n_max + 1)]
    else:
        terms = [1, 2]
        zeros = 1 - gamma(terms[0], terms[1])
        for n in range(2, n_max + 1):
            prev = terms[-1]
            if Fraction(zeros, n - 1) < p:
                nxt = 2 * prev
            else:
                nxt = 2 * prev - 1
            terms.append(nxt)
            zeros += 1 - gamma(prev, nxt)
    bits = tuple(gamma(terms[n - 1], terms[n]) for n in range(1, n_max + 1))
    zeros = 0
    ratios = []
    for n, bit in enumerate(bits, start=1):
        zeros += 1 - bit
        ratios.append(Fraction(zeros, n))
    crossings = tuple(
        n for n in range(2, n_max + 1) if (ratios[n - 2] < p) != (ratios[n - 1] < p)
    )
    return DensityTrace(p, tuple(terms), bits, tuple(ratios), crossings)


def verify_growth_bounds(trace: DensityTrace) -> bool:
    """Strict increase plus 2^(n-1) < a_n <= 2^(n+1) for every n >= 1."""
    terms = trace.terms
    if any(terms[i] >= terms[i + 1] for i in range(len(terms) - 1)):
        return False
    return all(2 ** (n - 1) < terms[n] <= 2 ** (n + 1) for n in range(1, len(terms)))
