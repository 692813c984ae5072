import itertools
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
)
from splitgamma import core
from splitgamma.core import DEFAULT_BRUTE_CAP, InvariantViolation, Record, _split
from splitgamma.explorer import rs_solve
from splitgamma.identities import fib_identity_solution
from splitgamma.periodicity import PeriodReport
from splitgamma.sequences import (
    Arithmetic,
    Balancing,
    FibonacciLike,
    FibonacciPower,
    KthPower,
    LucasBalancing,
    PowerRecurrence,
    fib,
    fib_pair,
    iter_terms,
    parse_spec,
    term,
)

from conftest import (
    coprime_pairs,
    deadline,
    inverse_parity_gamma,
    oracle_representable,
    oracle_solutions,
    oracle_split,
    oracle_theta,
)


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
    # past INVERSE_WINDOW bits the inverse is preconditioned: seeded random and structured moduli up to 3,000 bits
    rng = random.Random(2026)
    widths = (129, 130, 200, 511, 1000, 2048, 3000)
    moduli = [rng.getrandbits(bits) | 1 << bits - 1 for bits in widths for _ in range(4)]
    moduli += [2**k + d for k in (129, 700, 3000) for d in (-1, 0, 1)] + [3**300, 6 * 5**400 * 7**300]
    moduli += [fib(n) for n in (187, 188, 1000, 4322)] + [fib(1000) * fib(1001), 6 * fib(4001)]
    for m in moduli:
        half = m // 2
        for a in (1, 2, 3, m - 1, half, half + 1, 2 * m // 3, fib(4000) % m, 0, 6 * rng.randrange(m), rng.randrange(m),
                  rng.randrange(m), -rng.randrange(m), m + rng.randrange(m), rng.randrange(m) - 7 * m):
            if math.gcd(a, m) == 1:
                inv = mod_inverse(a, m)
                assert 1 <= inv < m and inv == pow(a, -1, m), (a, m)
            else:
                with pytest.raises(DomainError) as info:
                    mod_inverse(a, m)
                assert str(info.value) == f"{a % m} is not invertible modulo {m} (gcd = {math.gcd(a, m)})"


def _record_pow(monkeypatch):
    # the bases core hands to pow, in order: core finds pow among its globals before the builtins
    bases = []

    def recorded(base, exp, mod):
        bases.append(base)
        return pow(base, exp, mod)

    monkeypatch.setattr(core, "pow", recorded, raising=False)
    return bases


def _euclid_steps(m, r):
    steps = 0
    while r:
        m, r, steps = r, m % r, steps + 1
    return steps


def test_mod_inverse_walks_back_past_convergents_sharing_a_factor(monkeypatch):
    # F_n/F_{n+1}'s convergent denominators are F_k, the last below 2**64 F_93, and gcd(F_k, F_{n+1}) = F_gcd(k, n+1):
    # 31 | n + 1 makes F_93 share F_31 with the modulus, 7 | n + 1 makes F_91 share F_7, 13 | n + 1 F_91 F_13.
    # An even k = 2j shares F_j or L_j with F_k F_n mod F_{n+1} = F_{n+1} - F_{n+1-k}, so the walk passes it too
    bases = _record_pow(monkeypatch)
    f = [fib(k) for k in range(94)]
    for n1, k in ((217, 89), (806, 89), (3224, 89), (1457, 91), (620, 91), (1426, 91), (2728, 91)):
        a, m = fib(n1 - 1), fib(n1)
        bases.clear()
        inv = mod_inverse(a, m)
        assert inv == pow(a, -1, m) and len(bases) == 1, n1
        assert math.gcd(f[93], m) > 1 and bases[0] * inv % m == f[k], n1
        assert 20 * _euclid_steps(m, bases[0]) < _euclid_steps(m, a), n1
    # a/m near 1/2 leaves the convergents 1 and 2, and an even m walks back to c = 1
    a, m = 2**199 + 1, 2**200
    bases.clear()
    assert mod_inverse(a, m) == pow(a, -1, m) and bases == [a]


def test_mod_inverse_steps_on_worst_case_pairs_near_3000_bits(monkeypatch):
    # Euclid's remainder steps on (m, c a mod m) for INVERSE_WINDOW = 128, against plain Euclid on (m, a), at
    # the first index past 3,000 bits, the modulus odd as _split takes it: about 1/45 to 1/80 of the steps
    assert core.INVERSE_WINDOW == 128
    bases = _record_pow(monkeypatch)
    for text, n, steps, plain in (
        ("fib", 4322, 55, 4320),
        ("fiblike:1,3", 4320, 52, 4320),  # Lucas
        ("powrec:c=2,1;t=1,1;init=1,2", 2360, 51, 2360),  # Pell
        ("bal", 1181, 48, 2360),
    ):
        a, m = iter_terms(parse_spec(text), n, 2)
        if not m & 1:
            a, m = m, a
        bases.clear()
        assert mod_inverse(a, m) == pow(a, -1, m)
        assert m.bit_length() >= 3000, text
        assert (_euclid_steps(m, bases[0]), _euclid_steps(m, a % m)) == (steps, plain), text


def test_solve_split_takes_a_wide_fibonacci_pair_in_a_blink():
    # 69,424-bit terms: Euclid on the plain pair takes ~100,000 steps, the preconditioned one ~1,600
    a, b = fib_pair(10**5)
    expected = fib_identity_solution(10**5)
    with deadline(0.25):
        assert solve_split(a, b) == expected


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
    # the oracle the parity rule below reads
    for a in range(1, 40):
        for b in range(1, 40):
            g = math.gcd(a, b)
            if b // g == 1:
                continue
            t = oracle_theta(a, b)
            assert 1 <= t < b // g
            assert (a // g * t) % (b // g) == 1


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
    oracle_theta(b, a) is odd (a' odd) or oracle_theta(a, b) is odd (a' even), and 0 when
    either number divides the other."""
    if b % a == 0 or a % b == 0:
        return 0
    if (a // math.gcd(a, b)) % 2 == 1:
        return 0 if oracle_theta(b, a) % 2 == 1 else 1
    return 0 if oracle_theta(a, b) % 2 == 1 else 1


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


# consecutive terms with every partial quotient 1 or near it: Euclid's worst case for a'^-1
WORST_CASE_SPECS = (
    "fib",
    "fiblike:1,3",  # Lucas
    "fiblike:7,3",
    "powrec:c=2,1;t=1,1;init=1,2",  # Pell
    "bal",
    "lucasbal",
    "fib^2",
    "fib^3",
)


def _index_ladder(spec, max_bits=3100):
    # indices whose terms run from about 10 bits up to max_bits, about 1.4x wider each rung
    n = 2
    while term(spec, n).bit_length() < 10:
        n += 1
    while term(spec, n).bit_length() <= max_bits:
        yield n
        n = max(n + 1, n * 7 // 5)


def test_halved_inverse_witness_matches_multiply_mod_route():
    # every pair up to 150, common factors, even a', even b', a' = 1 and b' = 1 among them
    for a in range(1, 151):
        for b in range(1, 151):
            assert _split(a, b) == oracle_split(a, b), (a, b)
    # the worst-case families from 10 to about 3,000 bits, both orders, three index residues each
    for text in WORST_CASE_SPECS:
        spec = parse_spec(text)
        for n in _index_ladder(spec):
            for a, b in itertools.pairwise(iter_terms(spec, n, 4)):
                assert _split(a, b) == oracle_split(a, b), (text, n)
                assert _split(b, a) == oracle_split(b, a), (text, n)
    for n in (15, 16, 17, 100, 101, 1000, 1001, 4400, 4401):
        a, b = fib(n), fib(n + 2)
        assert _split(a, b) == oracle_split(a, b), n


def test_convergents_move_fibonacci_pairs_off_unit_quotients():
    # d'Ocagne: F_{k+1} F_n = (-1)^k F_{n-k} (mod F_{n+1}), and F_{n+1} = L_{k+1} F_{n-k} + (-1)^k F_{n-2k-1}, so
    # c = F_{k+1} gives Euclid on (F_{n+1}, c F_n mod F_{n+1}) a quotient near L_{k+1} at every level; k = 2 (c = 2,
    # L_3 = 4) was the doubled inverse mod_inverse's convergents replace
    f = [fib(i) for i in range(5002)]
    lucas = [f[j - 1] + f[j + 1] for j in range(1, 93)]
    lucas.insert(0, 2)
    for k in range(1, 91):
        sign = (-1) ** k
        for n in range(k + 1, 5001):
            assert f[k + 1] * f[n] % f[n + 1] == sign * f[n - k] % f[n + 1], (k, n)
            if n > 2 * k:
                assert f[n + 1] == lucas[k + 1] * f[n - k] + sign * f[n - 2 * k - 1], (k, n)


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
        "preperiod", "period", "zeros", "ones", "certified", "verified_repeats", "residue_preperiod", "residue_period"
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
