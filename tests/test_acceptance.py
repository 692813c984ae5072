"""Acceptance suite: one test per headline claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the recorded values.
"""

import math
from fractions import Fraction

from splitgamma import (
    Arithmetic,
    Balancing,
    FactorialPower,
    FibonacciLike,
    FibonacciPower,
    KthPower,
    Naturals,
    Odds,
    PowerRecurrence,
    ShiftedGeometric,
    beiter_density,
    build_density_sequence,
    closed_form_mod6_4,
    fib,
    fib_cube_solution,
    fib_identity_solution,
    fib_square_solution,
    fiblike_pair,
    fibonacci_period_table,
    first_alternation_index,
    gamma,
    pair_row,
    pisano,
    row_period,
    solve_split,
    state_period_mod,
    term_mod,
)

from conftest import oracle_representable, oracle_solutions


def test_criterion_01_exactly_one_desk_scale():
    """Every coprime pair up to 200: exactly one equation solvable, uniquely."""
    pairs = 0
    for a in range(1, 201):
        for b in range(1, 201):
            if math.gcd(a, b) != 1:
                continue
            pairs += 1
            sols = oracle_solutions(a, b)
            assert len(sols) == 1, (a, b, sols)
            delta, x, y = sols[0]
            assert gamma(a, b) == delta, (a, b)
            s = solve_split(a, b)
            assert (s.delta, s.x, s.y) == (delta, x, y), (a, b)
    print(f"criterion 1: PASS: {pairs} coprime pairs, exactly-one + uniqueness + agreement")


def test_criterion_02_fibonacci_period_table():
    expected = [
        (1, 1, 3), (2, 6, 6), (3, 8, 24), (4, 12, 12), (5, 20, 60),
        (6, 24, 24), (7, 16, 48), (8, 24, 24), (9, 24, 24), (10, 60, 60),
    ]
    assert fibonacci_period_table(10) == expected
    for k, t_k, _ in expected:
        rep = row_period(k, FibonacciPower(1))
        assert rep.certified and rep.period == t_k, k
    print("criterion 2: PASS: table of (k, T_k, pi(2k)) for k = 1..10 reproduced exactly")


def test_criterion_03_naturals_periods():
    for k in range(1, 101):
        rep = row_period(k, Naturals())
        if k % 2:
            if k > 99:
                continue
            assert rep.period == k, k
            assert rep.zeros == rep.ones + 1, k
        else:
            assert rep.period == 2 * k, k
            assert rep.zeros == rep.ones + 2, k
    print("criterion 3: PASS: naturals rows: odd k <= 99 and even k <= 100 all match")


def test_criterion_04_odds_periods():
    for j in range(1, 11):
        k = 2**j
        rep = row_period(k, Odds())
        assert rep.period == k, j
        assert rep.zeros == rep.ones == k // 2, j
    print("criterion 4: PASS: odds rows at k = 2^j for j = 1..10 all match")


def test_criterion_05_arithmetic_progressions():
    cases = 0
    for k in range(1, 52, 2):
        for p in range(1, 13):
            if math.gcd(k, p) != 1:
                continue
            for r in range(0, p):
                rep = row_period(k, Arithmetic(p, r))
                assert rep.period == k, (k, p, r)
                assert rep.zeros == rep.ones + 1, (k, p, r)
                cases += 1
    print(f"criterion 5: PASS: {cases} arithmetic-progression rows match")


def test_criterion_06_identity_suite():
    # first and second identity family, k = 1..4
    for k in range(1, 5):
        for n in (6 * k, 6 * k + 4):
            assert fib_identity_solution(n) == solve_split(fib(n), fib(n + 1)), n
    # square identity over its full residue domain
    for n in range(2, 31):
        if n % 6 in (0, 2, 3, 5):
            assert fib_square_solution(n) == solve_split(fib(n) ** 2, fib(n + 1) ** 2), n
    # cube identity
    for m in range(2, 7):
        assert fib_cube_solution(m) == solve_split(fib(2 * m - 1) ** 3, fib(2 * m) ** 3), m
    # closed forms keep matching on pairs hundreds of digits wide
    digit_checks = []
    for n in (480, 484):
        a = fib(n)
        digit_checks.append(len(str(a)))
        assert fib_identity_solution(n) == solve_split(a, fib(n + 1)), n
    a = fib(500) ** 2
    digit_checks.append(len(str(a)))
    assert fib_square_solution(500) == solve_split(a, fib(501) ** 2)
    a = fib(499) ** 3
    digit_checks.append(len(str(a)))
    assert fib_cube_solution(250) == solve_split(a, fib(500) ** 3)
    assert all(d >= 100 for d in digit_checks), digit_checks
    print(f"criterion 6: PASS: identities exact, large pairs of {digit_checks} digits")


def test_criterion_07_mod6_4_closed_form():
    cases = 0
    for u in range(1, 11):
        for v in range(1, 11):
            if math.gcd(u, v) != 1:
                continue
            for n in (4, 10, 16, 22):
                tn, tn1 = fiblike_pair(u, v, n)
                assert closed_form_mod6_4(u, v, n) == solve_split(tn, tn1), (u, v, n)
                cases += 1
    print(f"criterion 7: PASS: {cases} closed-form instances equal the solver")


def test_criterion_08_period_divides_residue_period():
    specs = (
        FibonacciPower(1),
        FibonacciLike(1, 2),
        FibonacciLike(2, 3),
        FibonacciLike(3, 4),
        Balancing(),
        PowerRecurrence((1, 1), (1, 2), (1, 1)),
        PowerRecurrence((2, 1), (1, 1), (1, 2)),
    )
    for spec in specs:
        for k in range(1, 13):
            rep = row_period(k, spec)
            assert rep.certified, (spec, k)
            residue_period = state_period_mod(spec, 2 * k).period
            assert residue_period % rep.period == 0, (spec, k)
    # for the Fibonacci sequence the residue period is the Pisano period
    for k in range(1, 13):
        assert state_period_mod(FibonacciPower(1), 2 * k).period == pisano(2 * k)
    print(f"criterion 8: PASS: {len(specs)} families x k <= 12, certified, period divides")


def test_criterion_09_density_construction():
    tr = build_density_sequence(1, 60)
    assert tr.terms == tuple(2**n for n in range(61))
    tr = build_density_sequence(0, 60)
    assert tr.terms == tuple(2**n + 1 for n in range(61))
    worst = Fraction(0)
    for p in (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4)):
        short = build_density_sequence(p, 60)
        for n in range(61):
            assert 2 ** (n - 1) < short.terms[n] <= 2 ** (n + 1), (p, n)
        long = build_density_sequence(p, 500)
        err = abs(long.ratios[-1] - p)
        worst = max(worst, err)
        assert err <= Fraction(2, 100), (p, err)
    print(f"criterion 9: PASS: bounds hold, worst |b_500 - p| = {float(worst):.5f}")


def test_criterion_10_factorial_power_rows():
    for k in range(1, 9):
        for n in range(k, 13):
            residue = term_mod(FactorialPower(), n, 2 * k)
            assert gamma(k, residue or 2 * k) == 0, (k, n)
    print("criterion 10: PASS: gamma(k, (n!)^(n!)) = 0 for k <= 8, k <= n <= 12")


def test_criterion_11_beiter_baseline():
    assert beiter_density(1, 1, 100) == Fraction(1)
    print("criterion 11: PASS: density 1 exactly at x_max = 100")


def _closed_form_bit(a, b):
    """gamma(a, b) by Sylvester's closed form: 0 when R itself is a sum of a' and b'."""
    g = math.gcd(a, b)
    ar, br = a // g, b // g
    rhs = (ar - 1) * (br - 1) // 2
    zero, one = oracle_representable(rhs, ar, br), oracle_representable(rhs - 1, ar, br)
    assert zero != one, (a, b)
    return 0 if zero else 1


# First n of the strict alternation of gamma(n^k, (n+1)^k), k = 1..5, n <= 50.
KTH_POWER_STARTS = {1: 1, 2: 2, 3: 6, 4: 20, 5: 35}
# (k, n) -> (x, y): the delta = 0 solutions at the two equal bits just before
# the k = 4 and k = 5 rows start alternating, and at the two past n = 50 where
# the k = 5 row breaks again.
KTH_POWER_BREAKS = {
    (4, 19): (2040, 63498),
    (4, 20): (94857, 1960),
    (5, 34): (25501349, 657101),
    (5, 35): (853325, 25519725),
    (5, 69): (834310574, 5620188),
    (5, 70): (6404412, 834384075),
}


def test_criterion_12a_kth_power_rows_alternate():
    """Rows gamma(n^k, (n+1)^k) alternate through n = 50 from certified starts.

    The alternation is not for good: the k = 5 row is 0 at n = 69 and 70.
    Every bit is checked against Sylvester's closed form.  Rows k <= 3, and
    k = 4 through n = 21, are also checked against brute-force enumeration;
    at k = 5 that takes seconds a pair, so the late k = 5 start rests on the
    closed form and on the witnesses in KTH_POWER_BREAKS.
    """
    rows = {k: pair_row(KthPower(k), 1, 50) for k in range(1, 6)}
    observed = {}
    for k, bits in rows.items():
        for n, bit in enumerate(bits, start=1):
            a, b = n**k, (n + 1) ** k
            assert bit == _closed_form_bit(a, b), f"closed-form oracle disagrees at k={k}, n={n}"
            if k <= 3 or (k == 4 and n <= 21):
                brute = [delta for delta, _, _ in oracle_solutions(a, b)]
                assert brute == [bit], f"brute-force oracle disagrees at k={k}, n={n}"
        j = first_alternation_index(bits)
        assert j == 0 or bits[j - 1] == bits[j], (k, j)
        for i in range(j, len(bits) - 1):
            assert bits[i] != bits[i + 1], (k, i)
        observed[k] = 1 + j
    for (k, n), witness in KTH_POWER_BREAKS.items():
        a, b = n**k, (n + 1) ** k
        s = solve_split(a, b)
        assert (s.delta, s.x, s.y) == (0, *witness), (k, n)
        assert a * s.x + b * s.y + s.delta == (a - 1) * (b - 1) // 2, f"witness fails at k={k}, n={n}"
        assert _closed_form_bit(a, b) == 0, (k, n)
    assert observed == KTH_POWER_STARTS, observed
    print(f"criterion 12a: PASS: k-th power rows alternate for n <= 50 from the certified starts {observed}; "
          "k = 5 breaks again at n = 69, 70")


def test_criterion_12b_arithmetic_rows_alternate_immediately():
    for p in range(1, 11):
        for r in range(0, p):
            bits = pair_row(Arithmetic(p, r), 1, 40)
            for i in range(len(bits) - 1):
                assert bits[i] != bits[i + 1], (p, r, i)
    print("criterion 12b: PASS: arithmetic rows alternate from n = 1 for all p <= 10")


def test_criterion_12c_shifted_geometric_rows_alternate():
    observed = {}
    for a in range(1, 7):
        for r in range(2, 8):
            if math.gcd(a + 1, r - 1) % 2:
                continue
            bits = pair_row(ShiftedGeometric(a, r), 1, 30)
            j = first_alternation_index(bits)
            observed[(a, r)] = 1 + j
            for i in range(j, len(bits) - 1):
                assert bits[i] != bits[i + 1], (a, r, i)
    assert observed, "grid contained no pair with even gcd(a + 1, r - 1)"
    assert all(n0 <= 2 for n0 in observed.values()), observed
    print(f"criterion 12c: PASS: alternation through n = 30, observed starts {observed}")
