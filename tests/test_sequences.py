import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from splitgamma import (
    Arithmetic,
    Balancing,
    DomainError,
    Explicit,
    FactorialPower,
    FibonacciLike,
    FibonacciPower,
    InvariantViolation,
    KthPower,
    LucasBalancing,
    Naturals,
    Odds,
    PowerRecurrence,
    ResourceLimitError,
    ShiftedGeometric,
    SplitSolution,
    closed_form_mod6_4,
    fib,
    fib_cube_solution,
    fib_identity_solution,
    fib_pair,
    fib_square_solution,
    fiblike_pair,
    format_spec,
    iter_terms,
    oddr,
    parse_spec,
    phi_psi,
    solve_split,
    state_period_mod,
    term,
    term_mod,
)
from splitgamma import identities, sequences
from splitgamma.sequences import residues

from conftest import (
    count_calls,
    deadline,
    oracle_factpow_mod,
    oracle_fib_cube_solution,
    oracle_powrec_residues,
    oracle_solutions,
)

FIB = [0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597]


# ---------------- fibonacci helpers ----------------


def test_fib_small_values():
    for n, want in enumerate(FIB):
        assert fib(n) == want


def test_fib_pair_consistency():
    # against a plain additive walk: fib and fib_pair share the one doubling
    for m in (None, 1, 2, 10, 97):
        a, b = 0, 1
        for n in range(501):
            assert fib_pair(n, m) == ((a, b) if m is None else (a % m, b % m)), (n, m)
            a, b = b, a + b
    assert fib_pair(0) == (0, 1)
    assert fib_pair(0, 1) == (0, 0)


def test_fib_pair_modular():
    for n in range(0, 60):
        for m in (2, 3, 7, 10, 97):
            a, b = fib_pair(n, m)
            assert a == fib(n) % m
            assert b == fib(n + 1) % m


# ---------------- term values ----------------


def test_term_examples():
    assert term(Balancing(), 3) == 35
    assert term(FibonacciPower(1), 7) == 13
    assert term(FibonacciLike(1, 2), 4) == 5
    assert term(KthPower(3), 1) == 1
    assert term(LucasBalancing(), 1) == 3
    assert term(LucasBalancing(), 2) == 17
    assert term(Naturals(), 12) == 12
    assert term(Odds(), 4) == 7
    assert term(Arithmetic(5, 2), 3) == 13
    assert term(ShiftedGeometric(2, 3), 3) == 19
    assert term(FactorialPower(), 3) == 6**6
    assert term(Explicit((4, 9, 25)), 2) == 9


def test_term_formula_families():
    for n in range(1, 25):
        assert term(Naturals(), n) == n
        assert term(Odds(), n) == 2 * n - 1
        assert term(KthPower(4), n) == n**4
        assert term(Arithmetic(7, 3), n) == 7 * n - 3
        assert term(ShiftedGeometric(3, 2), n) == 3 * 2 ** (n - 1) + 1


def test_spec_validation():
    with pytest.raises(DomainError):
        FibonacciLike(2, 4)
    with pytest.raises(DomainError):
        Arithmetic(3, 3)
    with pytest.raises(DomainError):
        ShiftedGeometric(2, 1)
    with pytest.raises(DomainError):
        ShiftedGeometric(0, 2)
    with pytest.raises(DomainError):
        KthPower(0)
    with pytest.raises(DomainError):
        FibonacciPower(0)
    with pytest.raises(DomainError):
        Explicit(())
    with pytest.raises(DomainError):
        Explicit((3, 0))
    with pytest.raises(DomainError):
        PowerRecurrence((1,), (1, 2), (1,))


def test_term_index_errors():
    with pytest.raises(DomainError):
        term(FibonacciPower(1), 0)
    with pytest.raises(DomainError):
        term(Explicit((4, 9)), 3)
    for start, count, m in ((0, 3, 5), (1, -1, 5), (1, 3, 0)):
        with pytest.raises(DomainError):
            list(residues(Naturals(), start, count, m))


# ---------------- recurrence fidelity ----------------


def test_balancing_recurrences():
    for spec in (Balancing(), LucasBalancing()):
        terms = list(iter_terms(spec, 1, 30))
        for n in range(2, 30):
            assert terms[n] == 6 * terms[n - 1] - terms[n - 2]


def test_fiblike_closed_form():
    """t_n = F_{n-2} t_1 + F_{n-1} t_2 for n >= 3."""
    for t1, t2 in ((1, 1), (1, 2), (2, 3), (3, 4), (5, 8), (4, 9)):
        spec = FibonacciLike(t1, t2)
        terms = list(iter_terms(spec, 1, 40))
        for n in range(3, 41):
            assert terms[n - 1] == fib(n - 2) * t1 + fib(n - 1) * t2
        for n in range(1, 40):
            assert math.gcd(terms[n - 1], terms[n]) == 1
        for n in range(1, 40):
            assert fiblike_pair(t1, t2, n) == (terms[n - 1], terms[n])


def test_powrec_reproduces_plain_families():
    fib_like = PowerRecurrence((1, 1), (1, 1), (1, 1))
    for n in range(1, 20):
        assert term(fib_like, n) == fib(n)
    squared = PowerRecurrence((1, 1), (1, 2), (1, 1))
    terms = list(iter_terms(squared, 1, 12))
    for n in range(2, 12):
        assert terms[n] == terms[n - 1] + terms[n - 2] ** 2


# ---------------- modular evaluation ----------------

MOD_SPECS = (
    FibonacciPower(1),
    FibonacciPower(2),
    FibonacciLike(2, 3),
    Balancing(),
    LucasBalancing(),
    Naturals(),
    Odds(),
    Arithmetic(4, 1),
    KthPower(3),
    ShiftedGeometric(2, 3),
    PowerRecurrence((1, 1), (1, 2), (1, 1)),
    PowerRecurrence((2, -1), (1, 1), (1, 2)),
    Explicit((4, 9, 25, 49)),
)


def test_term_mod_matches_term():
    for spec in MOD_SPECS:
        count = 4 if isinstance(spec, Explicit) else 15
        terms = [term(spec, n) for n in range(1, count + 1)]
        for m in (1, 2, 3, 5, 9, 10, 16, 97):
            want = [t % m for t in terms]
            assert [term_mod(spec, n, m) for n in range(1, count + 1)] == want, (spec, m)
            for start in (2, 4):
                assert list(residues(spec, start, count - start + 1, m)) == want[start - 1 :], (spec, m, start)


def test_term_mod_factorial_power():
    # exact terms exist through n = 8; beyond that compare against pow()
    for n in range(1, 9):
        t = term(FactorialPower(), n)
        for m in (2, 5, 12, 30, 97):
            assert term_mod(FactorialPower(), n, m) == t % m
    facts = [math.factorial(n) for n in range(1, 201)]
    for m in range(1, 301):
        want = [pow(f, f, m) for f in facts]
        factors = sequences._factorize(m)
        # Kempner's bound max p*e (m | n!) and the pass's zero bound (every p | m
        # divides n! and n! >= m.bit_length(), past every exponent of m)
        kempner = max((p * e for p, e in factors), default=1)
        bound = max(factors[-1][0] if factors else 1, next(n for n in range(1, 9) if facts[n - 1] >= m.bit_length()))
        assert want[bound - 1 :] == [0] * (201 - bound), m
        for start in {1, 2, 5, kempner - 1, kempner, kempner + 1, bound - 1, bound, bound + 1, 200} & set(range(1, 201)):
            assert list(residues(FactorialPower(), start, 201 - start, m)) == want[start - 1 :], (m, start)
    for m in (1, 1001, 2**40, 3**20 * 5, 10**12 + 39, 2**1001, 2**1000 * 1009, 2 * 999983**2):
        want = [pow(f, f, m) for f in facts]
        assert list(residues(FactorialPower(), 1, 200, m)) == want, m


def test_factpow_residues_match_prime_power_route_at_huge_starts():
    # start 10**6 stays below the zero bound of 10**12 + 39, a prime, where the
    # oracle would need 10**6! itself
    for m in [*range(1, 301), 2**40, 3**20 * 5, 10**12 + 39]:
        for start in (10**6, 10**30) if m < 10**12 else (10**30,):
            got = list(residues(FactorialPower(), start, 3, m))
            assert got == [oracle_factpow_mod(n, m) for n in range(start, start + 3)], (m, start)
    rng = random.Random(2031)
    for _ in range(60):
        n, m = rng.randrange(1, 3000), rng.randrange(1, 10**12)
        assert term_mod(FactorialPower(), n, m) == oracle_factpow_mod(n, m), (n, m)


def test_factpow_residues_are_linear_and_lazy():
    # one running n! up to the zero bound 59 of 118 = 2 * 59, then zeros
    with deadline(2):
        got = list(residues(FactorialPower(), 1, 10**6, 118))
    assert got[:70] == [oracle_factpow_mod(n, 118) for n in range(1, 71)]
    assert got.count(0) == 10**6 - 58
    with deadline(1):
        assert next(residues(FactorialPower(), 1, 10**15, 6)) == 1


def test_factpow_residues_stay_cheap_on_wide_smooth_moduli():
    # zeros start once every prime of m divides n! and n! >= m.bit_length(), not
    # at Kempner's max p*e (2002 for 2**1001); a prime power that is already
    # zero costs one product per term, not a pow as wide as m
    with deadline(2):
        got = {m: list(residues(FactorialPower(), 1, 2000, m)) for m in (2**1001, 2**1000 * 1009, 2**13000 * 1009)}
    for m in got:
        # the oracle factors m on each call, so it is asked at a sample of n
        for n in {*range(1, 13), *range(13, 1011, 37), 1007, 1008, 1009, 1010}:
            assert got[m][n - 1] == oracle_factpow_mod(n, m), (m, n)
        assert got[m][1010:] == [0] * 990, m


def test_factorial_power_guards():
    # exact terms share MAX_TERM_BITS: 8!^8! has 616,865 bits, and 9!^9! is refused before it is built
    assert term(FactorialPower(), 8).bit_length() == 616_865
    with pytest.raises(ResourceLimitError, match=r"^term at n=9 exceeds 1000000 bits; use term_mod instead$"):
        term(FactorialPower(), 9)
    with pytest.raises(ResourceLimitError):
        list(iter_terms(FactorialPower(), 7, 3))
    # m | n! for n >= m forces residue 0
    for n in range(8, 13):
        for m in range(2, n + 1):
            assert term_mod(FactorialPower(), n, m) == 0


def test_powrec_growth_guard():
    doubling_bits = PowerRecurrence((1,), (2,), (2,))
    with pytest.raises(ResourceLimitError):
        list(iter_terms(doubling_bits, 1, 25))
    # modular path stays cheap where full terms are impossible:
    # a_n = 2^(2^(n-1)) cycles 2, 4, 2, 4, ... mod 7
    assert term_mod(doubling_bits, 40, 7) == 4


def test_exact_linear_terms_past_the_bit_cap_are_refused_fast():
    # the doubling stops before its operands outgrow 2 * MAX_TERM_BITS, and a
    # power is refused from its base's bit length before it is built
    for call, args in ((term, (FibonacciPower(1), 10**12)), (fib_pair, (10**12,)), (fib_cube_solution, (10**9,)),
                       (term, (KthPower(10**12), 2)), (term, (FibonacciPower(10**7), 5)),
                       (fiblike_pair, (3, 7, 10**12)), (term, (parse_spec("powrec:c=0,3;t=1,1;init=1,1"), 10**12))):
        with deadline(2):
            with pytest.raises(ResourceLimitError, match="exceeds 1000000 bits"):
                call(*args)
    # F_16 = 987 < 2**10 < F_17 = 1597: at power 10**5 the base's bit length refuses
    # F_17's power unbuilt; at 99,999 it is built (1,064,108 bits) and then refused
    for power in (10**5, 99_999):
        assert len(list(iter_terms(FibonacciPower(power), 1, 16))) == 16
        with deadline(2):
            with pytest.raises(ResourceLimitError, match="^term at n=17 exceeds"):
                list(iter_terms(FibonacciPower(power), 1, 20))


def test_exact_powrec_summands_past_the_operand_bound_are_refused_unbuilt():
    # 3 ** 10**7 has ~1.6e7 bits and 3 ** 10**8 ~1.6e8: each summand is refused from its
    # base's bit length, at the doubling's operand bound, before it is built (~2.7 s for the first)
    for spec, n in ((PowerRecurrence((1,), (10**7,), (3,)), 2), (parse_spec("powrec:c=1,-1;t=100000000,1;init=1,3"), 3)):
        with deadline(1):
            with pytest.raises(ResourceLimitError, match=f"^term at n={n} exceeds 1000000 bits"):
                term(spec, n)
    # a lag with coefficient 0 is never powered: a_n = 0 * a_(n-1)^(10**8) + a_(n-2) is 1, 3, 1, 3, ...
    with deadline(1):
        assert list(iter_terms(PowerRecurrence((0, 1), (10**8, 1), (1, 3)), 1, 6)) == [1, 3, 1, 3, 1, 3]
    # summands past MAX_TERM_BITS but under the operand bound are built, and a sum that cancels is answered
    wide = 2**1_500_000
    assert term(PowerRecurrence((1, -1), (1, 1), (wide, wide + 5)), 3) == 5


def test_polynomial_terms_at_a_wide_index_take_no_doubling():
    # c_1 = 2, c_2 = -1 has U_j = j: a term at an 8,001-digit index is a few
    # products, where doubling took ~26,600 steps on index-wide operands
    n = 10**8000
    with deadline(0.1):
        assert term(Naturals(), n) == n
        assert term(Arithmetic(7, 3), n) == 7 * n - 3
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # the refusal names its index, as the CLI does with no digit limit
    try:
        with pytest.raises(ResourceLimitError, match="exceeds 1000000 bits"):
            term(Naturals(), 2**sequences.MAX_TERM_BITS)
    finally:
        sys.set_int_max_str_digits(old)


def test_refusal_at_an_index_too_wide_to_print_is_still_a_resource_limit():
    # under the interpreter's default int->str digit limit the refusal names the index by its width
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(ResourceLimitError, match="^term at an index of 1000001 bits exceeds 1000000 bits"):
            term(Naturals(), 2**sequences.MAX_TERM_BITS)
    finally:
        sys.set_int_max_str_digits(old)


def test_exact_term_bit_cap_boundary():
    # F_n has about 0.694 n bits: 1,440,000 is the last thousand under 10**6 bits
    assert term(FibonacciPower(1), 1_440_000).bit_length() == 999_708
    assert fib_pair(1_440_000)[0].bit_length() == 999_708
    for call in (lambda n: term(FibonacciPower(1), n), fib_pair, lambda n: fiblike_pair(1, 1, n)):
        with pytest.raises(ResourceLimitError, match="^term at n=1441000 exceeds 1000000 bits"):
            call(1_441_000)


def test_powrec_positivity_guard():
    with pytest.raises(DomainError):
        list(iter_terms(PowerRecurrence((1, -2), (1, 1), (1, 1)), 1, 5))
    # residues cannot show a term turning nonpositive (here a_3 = -1, and
    # a_2 = 0), so these recurrences are reduced from checked exact terms
    for spec in (PowerRecurrence((1, -2), (1, 2), (1, 1)), PowerRecurrence((0,), (2,), (3,))):
        with pytest.raises(DomainError):
            list(residues(spec, 1, 6, 6))
        with pytest.raises(DomainError):
            term_mod(spec, 3, 6)


def _linear_powrecs():
    # every order 1-2 powrec with powers 1, coefficients 0..3 not all zero and init 1..4
    for order in (1, 2):
        for coeffs in itertools.product(range(4), repeat=order):
            if any(coeffs):
                for init in itertools.product(range(1, 5), repeat=order):
                    yield PowerRecurrence(coeffs, (1,) * order, init)


def test_linear_powrecs_are_lucas_rows_matching_the_walk():
    starts = (1, 2, 3, 4, 7, 31, 99, 199, 200)
    for spec in _linear_powrecs():
        assert sequences._linear(spec) is not None, spec
        assert [t % 10**9 for t in iter_terms(spec, 1, 30)] == oracle_powrec_residues(spec, 1, 30, 10**9), spec
        for m in range(1, 31):
            walked = oracle_powrec_residues(spec, 1, 209, m)
            for start in starts:
                assert list(residues(spec, start, 9, m)) == walked[start - 1 : start + 8], (spec, m, start)
    # n^K is the naturals' row with power K
    assert sequences._linear(KthPower(4)) == sequences._linear(Naturals())[:4] + (4,)


# recurrences that cannot jump by Lucas doubling: nonlinear, order 3, powers 0 and 2
ORBIT_SPECS = tuple(parse_spec("powrec:" + t) for t in (
    "c=1,1;t=1,2;init=1,1", "c=1,2;t=2,1;init=2,1", "c=3;t=2;init=2", "c=1;t=0;init=5",
    "c=1,1,1;t=1,1,1;init=1,1,1", "c=0,0,1;t=1,1,1;init=1,2,3", "c=1,0,2;t=2,1,3;init=3,1,2",
))


def _state_orbit(spec, m):
    # (mu, lam) of the powrec's residue states, each state kept until one repeats
    state, seen = tuple(a % m for a in spec.init), {}
    while state not in seen:
        seen[state] = len(seen)
        new = sum(c * pow(state[-1 - i], t, m) for i, (c, t) in enumerate(zip(spec.coeffs, spec.powers)))
        state = state[1:] + (new % m,)
    return seen[state], len(seen) - seen[state]


def test_powrec_orbit_jump_matches_the_walk(monkeypatch):
    # with the bound at 50, starts past it jump into the orbit's cycle; an orbit
    # with mu < 50 and lam <= 50 is always found, a longer one may be refused
    monkeypatch.setattr(sequences, "ORBIT_MAX", 50)
    for spec in ORBIT_SPECS:
        assert sequences._linear(spec) is None, spec
        for m in range(1, 31):
            mu, lam = _state_orbit(spec, m)
            walked = oracle_powrec_residues(spec, 1, 260, m)
            for start in (*range(1, 201, 7), 200, 10**30):
                want = oracle_powrec_residues(spec, start, 5, m) if start > 200 else walked[start - 1 : start + 4]
                try:
                    got = list(residues(spec, start, 5, m))
                except ResourceLimitError:
                    assert start > 50 and (mu >= 50 or lam > 50), (spec, m, start)
                    continue
                assert got == want, (spec, m, start)


def test_powrec_jumps_to_huge_starts_fast():
    # a step-by-step walk would take 10**30 steps: c=1,1;t=1,1 and c=2,3;t=1,1 are
    # Lucas rows, the nonlinear and order-3 recurrences jump into their orbit's cycle
    for text in ("c=1,1;t=1,1;init=1,1", "c=1,1;t=2,1;init=1,1", "c=1,1,1;t=1,1,1;init=1,1,1",
                 "c=2,3;t=1,1;init=4,1", "c=1,1;t=1,2;init=1,1"):
        spec = parse_spec("powrec:" + text)
        for m in (14, 97):
            with deadline(2):
                got = list(residues(spec, 10**30, 5, m))
            assert got == oracle_powrec_residues(spec, 10**30, 5, m), (text, m)


def test_walks_that_cannot_jump_are_refused_before_they_start(monkeypatch):
    # an exact-only powrec stays at 1 forever, and (n!)^(n!) mod a prime past
    # the start walks n! from 1: both exit 4 instead of walking ~1e12 steps
    signed = parse_spec("powrec:c=2,-1;t=1,1;init=1,1")
    with deadline(1):
        with pytest.raises(ResourceLimitError, match="past 2000000"):
            list(residues(signed, 10**12, 3, 14))
        with pytest.raises(ResourceLimitError, match="past 2000000"):
            term(parse_spec("powrec:c=0,0,1;t=1,1,1;init=1,2,3"), 10**12)
        with pytest.raises(ResourceLimitError, match="past 2000000"):
            list(residues(FactorialPower(), 10**12 + 38, 3, 10**12 + 39))
    # past the pass's stop nothing is walked: zeros for m = 2 * 59
    assert list(residues(FactorialPower(), 10**12, 2, 118)) == [0, 0]
    # only the skipped prefix is bounded: a window starting at the bound answers
    monkeypatch.setattr(sequences, "ORBIT_MAX", 1000)
    assert list(residues(signed, 1000, 2, 14)) == [1, 1]
    assert list(residues(FactorialPower(), 1000, 3, 1009)) == [oracle_factpow_mod(n, 1009) for n in (1000, 1001, 1002)]
    for spec, m in ((signed, 14), (FactorialPower(), 1009)):
        with pytest.raises(ResourceLimitError, match="past 1000"):
            list(residues(spec, 1001, 3, m))


def _reduced_index(sp, n):
    return n if n <= sp.preperiod else sp.preperiod + 1 + (n - sp.preperiod - 1) % sp.period


def test_large_index_agrees_with_residue_cycle():
    """Jumps to huge n land where the residue cycle, walked from n = 1, says."""
    specs = (
        FibonacciPower(1),
        FibonacciPower(3),
        FibonacciLike(3, 5),
        Balancing(),
        LucasBalancing(),
        Naturals(),
        Odds(),
        Arithmetic(7, 3),
        KthPower(3),
        KthPower(5),
        ShiftedGeometric(2, 3),
        ShiftedGeometric(1, 4),
    )
    for spec in specs:
        for m in (14, 97, 1000):
            sp = state_period_mod(spec, m)
            walked = [t % m for t in iter_terms(spec, 1, sp.preperiod + sp.period)]
            wide = (10**8000, 10**8000 + 1) if spec in (Naturals(), KthPower(3)) else ()  # U_j = j: no doubling
            for n in (10**6, 10**30, 10**30 + 1, 3**200, *wide):
                assert term_mod(spec, n, m) == walked[_reduced_index(sp, n) - 1], (spec, m, n)


def test_exact_terms_at_large_start():
    # t_{n+1}^2 - t_n t_{n+1} - t_n^2 = (-1)^(n-1) (t_2^2 - t_1 t_2 - t_1^2), = (-1)^(n-1) for (3, 5)
    n = 200_000
    x, y = iter_terms(FibonacciLike(3, 5), n, 2)
    assert y * y - x * y - x * x == (-1) ** (n - 1)
    assert (x, y) == fiblike_pair(3, 5, n)
    # b_{n+1}^2 - 6 b_n b_{n+1} + b_n^2 = 1 for the balancing numbers
    x, y, z = iter_terms(Balancing(), 3000, 3)
    assert y * y - 6 * x * y + x * x == 1 and z == 6 * y - x
    sp = state_period_mod(Balancing(), 97)
    assert x % 97 == term_mod(Balancing(), _reduced_index(sp, 3000), 97)
    assert term(ShiftedGeometric(5, 7), 300) == 5 * 7**299 + 1
    assert term(Arithmetic(9, 4), 10**40) == 9 * 10**40 - 4


# ---------------- odd multiplier ----------------


def test_oddr_examples():
    assert (oddr(3, 2).r, oddr(3, 2).sign) == (1, -1)
    assert (oddr(1, 5).r, oddr(1, 5).sign) == (1, 1)
    assert (oddr(2, 1).r, oddr(2, 1).sign) == (1, 1)


def test_oddr_unique_over_grid():
    for u in range(1, 31):
        modulus = u if u % 2 else 2 * u
        for v in range(1, 31):
            if math.gcd(u, v) != 1:
                continue
            hits = [
                r
                for r in range(1, u + 1, 2)
                if (v * r) % modulus in (1 % modulus, (modulus - 1) % modulus)
            ]
            if u == 1:
                hits = [1]
            assert len(hits) == 1, (u, v, hits)
            got = oddr(u, v)
            assert got.r == hits[0]
            assert got.sign in (-1, 1)
            if u > 1:
                assert (v * got.r - got.sign) % modulus == 0


def test_oddr_wide_u_satisfies_the_congruence():
    rng = random.Random(4099)
    for digits in (40, 41, 100, 250):
        for parity in (0, 1):
            u = rng.randrange(10 ** (digits - 1), 10**digits) | 1
            u -= 1 - parity
            v = rng.randrange(1, 10 ** (digits + 5))
            while math.gcd(u, v) != 1:
                v += 1
            modulus = u if u % 2 else 2 * u
            got = oddr(u, v)
            assert got.r % 2 == 1 and 1 <= got.r <= u, (u, v)
            assert got.sign in (-1, 1)
            assert (v * got.r - got.sign) % modulus == 0, (u, v)


def test_oddr_rejects_common_factor():
    with pytest.raises(DomainError):
        oddr(6, 4)


# ---------------- closed forms ----------------


def test_phi_psi_fibonacci_case():
    for n in range(2, 21, 2):
        phi, psi = phi_psi(1, 1, n, 1, 1)
        assert phi == Fraction(fib(n) - 1, 2)
        assert psi == Fraction(fib(n - 2) - 1, 2)


def test_phi_psi_seed_example():
    assert phi_psi(1, 2, 4, 1, 1) == (1, 1)


def test_phi_psi_rejects_non_integral_fraction():
    with pytest.raises(DomainError) as err:
        phi_psi(3, 5, 6, 3, 1)
    assert "/u is not an integer" in str(err.value)


def test_phi_psi_identity():
    """variant + phi*t_n + psi*t_{n+1} = (t_n - 1)(t_{n+1} - 1)/2 wherever defined."""
    checked = 0
    for u in range(-5, 6):
        if u == 0:
            continue
        for v in range(-5, 6):
            for r in range(-5, 6, 2):
                for n in range(2, 21, 2):
                    for variant in (0, 1):
                        try:
                            phi, psi = phi_psi(u, v, n, r, variant)
                        except DomainError:
                            continue
                        tn, tn1 = fiblike_pair(u, v, n)
                        lhs = variant + phi * tn + psi * tn1
                        assert lhs == Fraction((tn - 1) * (tn1 - 1), 2), (u, v, r, n, variant)
                        checked += 1
    assert checked == 5760


def test_closed_form_mod6_4_examples():
    s = closed_form_mod6_4(1, 1, 10)
    assert (s.delta, s.x, s.y) == (1, 27, 10)
    s = closed_form_mod6_4(1, 2, 4)
    assert (s.delta, s.x, s.y) == (1, 1, 1)
    # seeds (3, 2) give t_4 = 7, t_5 = 12
    assert fiblike_pair(3, 2, 4) == (7, 12)
    assert closed_form_mod6_4(3, 2, 4) == solve_split(7, 12)


def test_closed_form_mod6_4_matches_solver():
    for u in range(1, 11):
        for v in range(1, 11):
            if math.gcd(u, v) != 1:
                continue
            for n in (4, 10, 16, 22):
                tn, tn1 = fiblike_pair(u, v, n)
                assert closed_form_mod6_4(u, v, n) == solve_split(tn, tn1), (u, v, n)


def test_closed_form_mod6_4_domain():
    with pytest.raises(DomainError):
        closed_form_mod6_4(2, 4, 10)
    with pytest.raises(DomainError):
        closed_form_mod6_4(1, 1, 12)


def test_mod6_4_witnesses_match_the_closed_form_at_every_index():
    # the route verify --family mod6-4 takes, at ten indices at once, against the one-index closed form and the solver
    ns = range(4, 59, 6)
    fibs = tuple((n, *fib_pair(n - 2)) for n in ns)
    for u in range(1, 61):
        for v in range(1, 61):
            if math.gcd(u, v) == 1:
                got = [SplitSolution(*w) for w in identities._mod6_4_witnesses(u, v, fibs)]
                assert got == [closed_form_mod6_4(u, v, n) for n in ns], (u, v)
                if u + v < 20:
                    assert got == [solve_split(*fiblike_pair(u, v, n)) for n in ns], (u, v)


def _fib_off_by(d2, d1):
    real = sequences.fib_pair

    def fib_pair(n, mod=None):
        f2, f1 = real(n, mod)
        return f2 + d2, f1 + d1

    return fib_pair


def _oddr_off_by(dr, flip):
    real = identities.oddr

    def oddr(u, v):
        sel = real(u, v)
        return identities.OddrResult(sel.r + dr, -sel.sign if flip else sel.sign)

    return oddr


# with wrong Fibonacci numbers or a wrong odd multiplier patched in, each check of the closed form fails,
# with the message it has always printed
@pytest.mark.parametrize(
    "name, patch, args, error, message",
    [
        ("fib_pair", _fib_off_by(-3, -3), (3, 5, 10), InvariantViolation, "half-integral witness for (3, 5, 10): 104, 79/2"),
        ("fib_pair", _fib_off_by(1, 0), (1, 1, 10), InvariantViolation, "half-integral witness for (1, 1, 10): 55/2, 21/2"),
        ("fib_pair", _fib_off_by(-2, -3), (2, 3, 4), InvariantViolation, "negative witness for (2, 3, 4): (-2, -2)"),
        ("fib_pair", _fib_off_by(0, 2), (3, 5, 10), InvariantViolation, "pair (243, 393) not coprime for seeds (3, 5)"),
        ("fib_pair", _fib_off_by(-2, -2), (3, 5, 10), InvariantViolation, "witness fails the equation for (3, 5, 10)"),
        ("oddr", _oddr_off_by(0, True), (3, 5, 10), DomainError, "((u-r)*v + 1)/u is not an integer for u=3, v=5, r=1"),
        ("oddr", _oddr_off_by(2, False), (5, 7, 4), DomainError, "((u-r)*v + 1)/u is not an integer for u=5, v=7, r=5"),
        ("oddr", _oddr_off_by(0, True), (7, 4, 16), DomainError, "((u-r)*v + 1)/u is not an integer for u=7, v=4, r=5"),
    ],
    ids=["half-integral", "both-half-integral", "negative", "not-coprime", "equation", "sign", "r", "sign-even-u"],
)
def test_closed_form_mod6_4_failures_keep_their_messages(monkeypatch, name, patch, args, error, message):
    monkeypatch.setattr(identities, name, patch)
    with pytest.raises(error) as err:
        closed_form_mod6_4(*args)
    assert str(err.value) == message


def test_fib_identity_solution():
    s = fib_identity_solution(6)
    assert (s.delta, s.x, s.y) == (0, 2, 2)
    s = fib_identity_solution(10)
    assert (s.delta, s.x, s.y) == (1, 27, 10)
    s = fib_identity_solution(12)
    assert (s.delta, s.x, s.y) == (0, 44, 44)
    for n in (6, 10, 12, 16, 18, 22, 24, 28, 30):
        assert fib_identity_solution(n) == solve_split(fib(n), fib(n + 1)), n
    for bad in (4, 8, 9, 14):
        with pytest.raises(DomainError):
            fib_identity_solution(bad)


def test_fib_square_solution():
    s = fib_square_solution(3)
    assert (s.delta, s.x, s.y) == (0, 3, 0)
    s = fib_square_solution(5)
    assert (s.delta, s.x, s.y) == (0, 20, 4)
    s = fib_square_solution(2)
    assert (s.delta, s.x, s.y) == (0, 0, 0)
    for n in range(2, 31):
        if n % 6 in (0, 2, 3, 5):
            assert fib_square_solution(n) == solve_split(fib(n) ** 2, fib(n + 1) ** 2), n
        else:
            with pytest.raises(DomainError):
                fib_square_solution(n)


def test_fib_cube_solution():
    s = fib_cube_solution(2)
    assert (s.delta, s.x, s.y) == (0, 8, 1)
    for m in range(2, 7):
        a = fib(2 * m - 1) ** 3
        b = fib(2 * m) ** 3
        assert fib_cube_solution(m) == solve_split(a, b), m
    with pytest.raises(DomainError):
        fib_cube_solution(1)


def test_fib_cube_solution_matches_cube_by_cube_sums():
    for m in range(2, 401):
        assert fib_cube_solution(m) == oracle_fib_cube_solution(m), m


def test_fib_cube_solution_takes_constant_fibonacci_evaluations(monkeypatch):
    m = 10**5
    calls = count_calls(monkeypatch, identities, "fib_pair")
    with deadline(30):  # the cube-by-cube sum would run for minutes here
        s = fib_cube_solution(m)
    assert 1 <= len(calls) <= 4
    # the witness satisfies the equation modulo a large prime
    q = 2**127 - 1
    f, g = fib_pair(2 * m - 1, q)
    a, b = f**3 % q, g**3 % q
    assert (a * s.x + b * s.y) % q == (a - 1) * (b - 1) * pow(2, -1, q) % q


def test_closed_forms_against_enumeration():
    # small cases double-checked against the plain oracle, not just the solver
    for n in (6, 10):
        s = fib_identity_solution(n)
        assert oracle_solutions(fib(n), fib(n + 1)) == [(s.delta, s.x, s.y)]
    for n in (2, 3, 5, 6):
        s = fib_square_solution(n)
        assert oracle_solutions(fib(n) ** 2, fib(n + 1) ** 2) == [(s.delta, s.x, s.y)]
    s = fib_cube_solution(2)
    assert oracle_solutions(8, 27) == [(s.delta, s.x, s.y)]


# ---------------- text forms ----------------


def test_spec_text_round_trip():
    specs = (
        FibonacciPower(1),
        FibonacciPower(3),
        FibonacciLike(2, 3),
        Balancing(),
        LucasBalancing(),
        Naturals(),
        Odds(),
        Arithmetic(7, 3),
        KthPower(2),
        ShiftedGeometric(1, 4),
        PowerRecurrence((2, 1), (1, 1), (1, 2)),
        FactorialPower(),
        Explicit((4, 9, 25)),
    )
    for spec in specs:
        assert parse_spec(format_spec(spec)) == spec


# a valid field list for each prefix in the grammar table
PREFIX_FIELDS = {"fib^": "3", "n^": "3", "fiblike:": "3,5", "arith:": "5,2", "geo:": "2,3"}


def test_every_grammar_entry_round_trips():
    for name, spec in sequences._NAMES.items():
        assert parse_spec(name) == spec and format_spec(spec) == name
    assert set(PREFIX_FIELDS) == set(sequences._PREFIXES)
    for prefix, (family, _) in sequences._PREFIXES.items():
        text = prefix + PREFIX_FIELDS[prefix]
        spec = parse_spec(text)
        assert type(spec) is family and format_spec(spec) == text
        assert parse_spec(format_spec(spec)) == spec


def test_parse_spec_rejects_garbage():
    for text in ("", "fib^0", "fiblike:2,4", "arith:3", "n^", "geo:1", "what", "explicit:"):
        with pytest.raises(DomainError):
            parse_spec(text)


def test_parse_spec_refuses_a_repeated_powrec_field():
    # regression: the last c= won, so this ran as c=2 and exited 0
    for text in ("powrec:c=1;c=2;t=1;init=1", "powrec:c=1;t=1;init=1;t=1", "powrec:c=1;t=1;init=1; init=2"):
        with pytest.raises(DomainError, match="given twice"):
            parse_spec(text)
