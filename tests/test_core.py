import math
import random

import pytest

from splitgamma import (
    BruteForceReport,
    DomainError,
    ResourceLimitError,
    SplitInstance,
    brute_force_split,
    gamma,
    gcd,
    mod_inverse,
    solve_split,
    theta,
)
from splitgamma.core import DEFAULT_BRUTE_CAP

from conftest import coprime_pairs, oracle_representable, oracle_solutions


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
