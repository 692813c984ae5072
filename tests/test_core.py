import math
import random

import pytest

from splitgamma import (
    BruteForceReport,
    DomainError,
    ResourceLimitError,
    SplitInstance,
    SplitSolution,
    brute_force_split,
    gamma,
    gcd,
    mod_inverse,
    solve_split,
    theta,
)
from splitgamma.core import DEFAULT_BRUTE_CAP, InvariantViolation, Record, _split
from splitgamma.explorer import rs_solve
from splitgamma.periodicity import PeriodReport
from splitgamma.sequences import (
    Arithmetic,
    Balancing,
    FibonacciLike,
    FibonacciPower,
    KthPower,
    LucasBalancing,
    PowerRecurrence,
)

from conftest import coprime_pairs, inverse_parity_gamma, oracle_representable, oracle_solutions, oracle_split


# ---------------- arithmetic helpers ----------------


def test_gcd_matches_math_gcd():
    for a in range(0, 40):
        for b in range(0, 40):
            if a == 0 and b == 0:
                continue
            assert gcd(a, b) == math.gcd(a, b)


def test_gcd_rejects_double_zero():
    with pytest.raises(DomainError):
        gcd(0, 0)


def test_mod_inverse_range_and_product():
    for m in range(2, 50):
        for a in range(1, m):
            if math.gcd(a, m) != 1:
                continue
            inv = mod_inverse(a, m)
            assert 1 <= inv < m
            assert (a * inv) % m == 1


def test_mod_inverse_rejects_non_coprime():
    with pytest.raises(DomainError):
        mod_inverse(6, 9)
    with pytest.raises(DomainError):
        mod_inverse(0, 7)
    for m in (1, 0, -5):
        with pytest.raises(DomainError):
            mod_inverse(3, m)


# ---------------- theta ----------------


def test_theta_is_inverse_of_reduced_a():
    for a in range(1, 40):
        for b in range(1, 40):
            g = math.gcd(a, b)
            if b // g == 1:
                continue
            t = theta(a, b)
            assert 1 <= t < b // g
            assert (a // g * t) % (b // g) == 1


def test_theta_requires_nontrivial_modulus():
    with pytest.raises(DomainError):
        theta(3, 3)
    with pytest.raises(DomainError):
        theta(7, 1)


# ---------------- gamma ----------------


def test_gamma_divisibility_pairs_are_zero():
    for a in range(1, 30):
        for mult in range(1, 30):
            assert gamma(a, a * mult) == 0
            assert gamma(a * mult, a) == 0


def test_gamma_agrees_with_reduced_pair():
    for a in range(1, 50):
        for b in range(1, 50):
            g = math.gcd(a, b)
            assert gamma(a, b) == gamma(a // g, b // g)


def theta_parity_gamma(a, b):
    """The inverse-parity rule: with a' = a/gcd(a, b), gamma is 0 exactly when
    theta(b, a) is odd (a' odd) or theta(a, b) is odd (a' even), and 0 when
    either number divides the other."""
    if b % a == 0 or a % b == 0:
        return 0
    if (a // math.gcd(a, b)) % 2 == 1:
        return 0 if theta(b, a) % 2 == 1 else 1
    return 0 if theta(a, b) % 2 == 1 else 1


def test_gamma_matches_theta_parity_rule():
    for a in range(1, 200):
        for b in range(1, 200):
            assert gamma(a, b) == theta_parity_gamma(a, b), (a, b)
    rng = random.Random(20240605)
    for i in range(60):
        a, b = rng.randrange(10**299, 10**300), rng.randrange(10**299, 10**300)
        if i % 3 == 0:
            g = rng.randrange(2, 10**40)
            a, b = a * g, b * g
        assert gamma(a, b) == theta_parity_gamma(a, b), (a, b)


def test_gamma_is_the_parity_of_the_inverse():
    # against Sylvester's closed form for R, not against gamma's own route
    for a in range(1, 301):
        for b in range(1, 301):
            g = math.gcd(a, b)
            ar, br = a // g, b // g
            assert oracle_representable((ar - 1) * (br - 1) // 2, ar, br) == (inverse_parity_gamma(a, b) == 0)
            assert gamma(a, b) == inverse_parity_gamma(a, b), (a, b)


def test_halved_inverse_witness_matches_multiply_mod_route():
    # every pair up to 150, common factors, even a', even b', a' = 1 and b' = 1 among them
    for a in range(1, 151):
        for b in range(1, 151):
            assert _split(a, b) == oracle_split(a, b), (a, b)


def test_split_raises_when_neither_rhs_lifts(monkeypatch):
    # a zero "inverse" puts both candidates at x = (b' - 1) / 2 > R / a', so neither lifts
    monkeypatch.setattr("splitgamma.core.mod_inverse", lambda a, m: 0)
    with pytest.raises(InvariantViolation, match=r"\(7, 9\)"):
        _split(7, 9)
    with pytest.raises(InvariantViolation, match=r"\(9, 14\)"):  # b' even: the message keeps the order
        _split(18, 28)


def test_gamma_rejects_nonpositive():
    with pytest.raises(DomainError):
        gamma(0, 5)
    with pytest.raises(DomainError):
        gamma(5, -1)


# ---------------- instances and solutions ----------------


def test_split_instance_derived_fields():
    inst = SplitInstance(12, 18)
    assert inst.g == 6
    assert (inst.a_red, inst.b_red) == (2, 3)
    assert inst.rhs == 1
    with pytest.raises(DomainError):
        SplitInstance(0, 3)


def test_solve_split_known_instances():
    # (8, 13): 8*2 + 13*2 = 42 = 7*12/2
    s = solve_split(8, 13)
    assert (s.delta, s.x, s.y) == (0, 2, 2)
    s = solve_split(55, 89)
    assert (s.delta, s.x, s.y) == (1, 27, 10)
    s = solve_split(3, 4)
    assert (s.delta, s.x, s.y) == (0, 1, 0)
    s = solve_split(2, 3)
    assert (s.delta, s.x, s.y) == (1, 0, 0)
    s = solve_split(1, 1)
    assert (s.delta, s.x, s.y) == (0, 0, 0)
    assert s.unique


def test_solve_split_satisfies_equation():
    for a in range(1, 40):
        for b in range(1, 40):
            inst = SplitInstance(a, b)
            s = solve_split(a, b)
            assert s.x >= 0 and s.y >= 0
            assert s.delta + inst.a_red * s.x + inst.b_red * s.y == inst.rhs


def test_solve_split_ignores_common_factor():
    for a in range(1, 30):
        for b in range(1, 30):
            for g in (2, 3, 5):
                assert solve_split(a * g, b * g) == solve_split(a, b)


def test_oracle_agreement_mixed_block():
    """solve_split and gamma agree with plain enumeration, gcd or not."""
    for a in range(1, 61):
        for b in range(1, 61):
            sols = oracle_solutions(a, b)
            assert len(sols) == 1, (a, b, sols)
            delta, x, y = sols[0]
            assert gamma(a, b) == delta, (a, b)
            s = solve_split(a, b)
            assert (s.delta, s.x, s.y) == (delta, x, y), (a, b)


def test_representability_oracle_matches_enumeration():
    """The closed-form oracle agrees with listing every sum a*x + b*y."""
    cases = 0
    for a, b in coprime_pairs(40):
        limit = a * b + 2
        sums = {a * x + b * y for x in range(limit // a + 1) for y in range((limit - a * x) // b + 1)}
        for n in range(-2, limit + 1):
            assert oracle_representable(n, a, b) == (n in sums), (n, a, b)
            cases += 1
    assert cases == 399_752


# ---------------- brute force ----------------


def test_brute_force_counts_and_solution():
    rep = brute_force_split(3, 5)
    assert isinstance(rep, BruteForceReport)
    assert rep.counts == (0, 1)
    assert (rep.solution.delta, rep.solution.x, rep.solution.y) == (1, 1, 0)

    rep = brute_force_split(8, 13)
    assert rep.counts == (1, 0)
    assert [(s.delta, s.x, s.y) for s in rep.solutions] == [(0, 2, 2)]


def test_brute_force_matches_oracle():
    for a in range(1, 41):
        for b in range(1, 41):
            rep = brute_force_split(a, b)
            listed = sorted((s.delta, s.x, s.y) for s in rep.solutions)
            assert listed == sorted(oracle_solutions(a, b))
            assert rep.counts in ((1, 0), (0, 1))


def test_brute_force_iteration_cap():
    assert DEFAULT_BRUTE_CAP == 10_000_000
    with pytest.raises(ResourceLimitError):
        brute_force_split(99991, 99989, max_iterations=100)


# ---------------- records ----------------


def test_records_compare_hash_and_print_as_frozen_values():
    # equality needs the same class, even between records with equal fields
    assert Balancing() == Balancing() and Balancing() != LucasBalancing()
    assert FibonacciPower(2) == FibonacciPower(power=2) and FibonacciPower(2) != KthPower(2)
    assert SplitInstance(6, 4) == SplitInstance(b=4, a=6) != SplitInstance(4, 6)
    assert hash(SplitSolution(0, 1, 2)) == hash((0, 1, 2, True))
    assert len({FibonacciPower(), FibonacciPower(1), KthPower(1)}) == 2
    assert repr(SplitInstance(6, 4)) == "SplitInstance(a=6, b=4, g=2, a_red=3, b_red=2, rhs=1)"
    assert repr(PowerRecurrence([1, 1], [1, 2], [1, 1])) == "PowerRecurrence(coeffs=(1, 1), powers=(1, 2), init=(1, 1))"
    assert repr(Balancing()) == "Balancing()"
    assert repr(rs_solve(7, 10)) == (
        "ScanRecord(a=7, b=10, r=1, s=1, rhs=27, integral=True, solvable_i0=True, solvable_i1=False,"
        " exactly_one=True)"
    )


def test_records_are_immutable():
    for rec in (FibonacciPower(2), PeriodReport(0, 3, 1, 2, True, 4), SplitInstance(6, 4)):
        name = next(iter(vars(rec)))
        with pytest.raises(AttributeError):
            setattr(rec, name, 5)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 1
    assert vars(SplitInstance(6, 4))["g"] == 2


def test_records_construct_by_position_keyword_and_default():
    assert SplitSolution(0, 1, 2).unique is True
    assert SplitSolution(0, 1, 2, unique=False).unique is False
    assert FibonacciPower().power == 1
    rep = BruteForceReport(solutions=(SplitSolution(1, 1, 0),), counts=(0, 1))
    assert rep.solution == SplitSolution(1, 1, 0) and rep.counts == (0, 1)
    assert PeriodReport(verified_repeats=4, preperiod=0, period=3, zeros=1, ones=2, certified=True) == PeriodReport(
        0, 3, 1, 2, True, 4
    )
    for bad in (lambda: FibonacciLike(2), lambda: SplitSolution(0, 1, 2, True, 5), lambda: FibonacciPower(q=1)):
        with pytest.raises(TypeError):
            bad()
    with pytest.raises(TypeError):
        SplitInstance(6, 4, 2)
    # class patterns take the constructor arguments, as the dataclasses' __match_args__ did
    assert SplitInstance.__match_args__ == ("a", "b")
    assert SplitSolution.__match_args__ == ("delta", "x", "y", "unique")
    match SplitInstance(6, 4):
        case SplitInstance(a, b):
            assert (a, b) == (6, 4)


def test_vars_lists_fields_in_declaration_order():
    # the scan file templates and cli._emit read vars() in this order
    assert list(vars(SplitInstance(b=4, a=6))) == ["a", "b", "g", "a_red", "b_red", "rhs"]
    assert list(vars(PeriodReport(verified_repeats=4, certified=True, ones=2, zeros=1, period=3, preperiod=0))) == [
        "preperiod", "period", "zeros", "ones", "certified", "verified_repeats"
    ]
    assert list(vars(rs_solve(7, 10))) == ["a", "b", "r", "s", "rhs", "integral", "solvable_i0", "solvable_i1",
                                          "exactly_one"]
    assert isinstance(SplitSolution(0, 1, 2), Record) and SplitSolution._fields == ("delta", "x", "y", "unique")


def test_record_validation_messages_are_unchanged():
    with pytest.raises(DomainError, match=r"^seeds must be coprime, got \(2, 4\)$"):
        FibonacciLike(2, 4)
    with pytest.raises(DomainError, match=r"^need p >= 1 and 0 <= r < p, got \(p=3, r=3\)$"):
        Arithmetic(3, 3)
    with pytest.raises(DomainError, match=r"^power must be >= 1, got 0$"):
        FibonacciPower(0)
    with pytest.raises(DomainError, match=r"^need positive integers, got a=0, b=3$"):
        SplitInstance(0, 3)
