import math
import random
import re
import tracemalloc

import pytest

from conftest import (
    ENGINE_SPECS,
    count_calls,
    deadline,
    oracle_pisano,
    oracle_powrec_orbit,
    oracle_row_bits,
    oracle_row_period,
    oracle_state_period,
)
from splitgamma import (
    Arithmetic,
    Balancing,
    DomainError,
    Explicit,
    FactorialPower,
    FibonacciLike,
    FibonacciPower,
    InconclusiveError,
    InvariantViolation,
    KthPower,
    LucasBalancing,
    Naturals,
    Odds,
    PeriodReport,
    PowerRecurrence,
    ResourceLimitError,
    ShiftedGeometric,
    StatePeriod,
    detect_period,
    fib,
    fibonacci_period_table,
    first_alternation_index,
    gamma,
    gamma_row,
    pair_row,
    pisano,
    row_period,
    solve_split,
    state_period_mod,
    term,
)
from splitgamma import periodicity, sequences
from splitgamma.sequences import _factorize, fib_pair, parse_spec

# k, T_k for the Fibonacci row, pi(2k)
TABLE1 = [
    (1, 1, 3),
    (2, 6, 6),
    (3, 8, 24),
    (4, 12, 12),
    (5, 20, 60),
    (6, 24, 24),
    (7, 16, 48),
    (8, 24, 24),
    (9, 24, 24),
    (10, 60, 60),
]


# ---------------- rows ----------------


def test_gamma_row_matches_direct_gamma():
    specs = (
        FibonacciPower(1),
        FibonacciPower(2),
        FibonacciLike(2, 3),
        Balancing(),
        LucasBalancing(),
        Naturals(),
        Odds(),
        Arithmetic(3, 1),
        KthPower(2),
        ShiftedGeometric(2, 3),
        PowerRecurrence((1, 1), (1, 1), (1, 2)),
        PowerRecurrence((2, -1), (1, 1), (1, 2)),
        PowerRecurrence((1, 1), (1, 2), (1, 1)),
        Explicit((5, 6, 7, 8)),
    )
    for spec in specs:
        if isinstance(spec, Explicit):
            windows = ((1, 4), (2, 3))
        elif isinstance(spec, PowerRecurrence) and max(spec.powers) > 1:
            windows = ((1, 12), (5, 8))
        else:
            windows = ((1, 25), (40, 25))
        for start, count in windows:
            for k in (1, 2, 3, 5, 8, 13):
                row = gamma_row(k, spec, start, count)
                assert len(row) == count
                for j, bit in enumerate(row):
                    assert bit == gamma(k, term(spec, start + j)), (spec, k, start, j)


def test_linear_rows_tile_one_state_period():
    # past one state period, a long linear row repeats bits instead of stepping residues: 10**7 bits of n^6
    # mod 66 step in about 8 s, and tiled from the period (mu, lam) = (0, 66) in a few tens of ms
    spec, k, start, count = KthPower(6), 33, 10**5, 10**7
    with deadline(1):
        row = gamma_row(k, spec, start, count)
    assert len(row) == count
    for at in (0, 5_000_000, count - 300):
        assert row[at : at + 300] == oracle_row_bits(k, spec, start + at, 300), at
    # a tail (geo:1,4 mod 2k = 8) and a start inside it, a period longer than the row, and a row shorter than 2k
    for spec, k, start, count in ((parse_spec("geo:1,4"), 4, 1, 50), (FibonacciPower(1), 500, 7, 1000),
                                  (FibonacciPower(1), 500, 7, 999), (Naturals(), 9, 3, 18)):
        assert gamma_row(k, spec, start, count) == oracle_row_bits(k, spec, start, count), (spec, k)


def test_gamma_row_residue_path_matches_exact_terms():
    """Superlinear families, whose full terms explode, against their full terms."""
    squared = PowerRecurrence((1, 1), (1, 2), (1, 1))
    for k in (2, 3, 5, 7):
        row = gamma_row(k, squared, 1, 10)
        assert list(row) == [gamma(k, term(squared, n)) for n in range(1, 11)]
    for k in (2, 4, 6):
        row = gamma_row(k, FactorialPower(), 1, 6)
        assert list(row) == [gamma(k, term(FactorialPower(), n)) for n in range(1, 7)]


def test_gamma_depends_only_on_residue_mod_2k():
    # every row rests on this identity: gamma_row reads residues mod 2k only
    rng = random.Random(20251212)
    wide = [rng.randrange(10**299, 10**300) for _ in range(40)]
    for k in range(1, 61):
        m = 2 * k
        for b in list(range(1, 12 * k)) + wide:
            assert gamma(k, b) == gamma(k, b % m or m), (k, b)


def test_pair_row_values():
    bits = pair_row(Naturals(), 1, 10)
    assert bits == tuple(gamma(n, n + 1) for n in range(1, 11))
    assert bits == (0, 1, 0, 1, 0, 1, 0, 1, 0, 1)


def test_pair_row_refuses_terms_past_the_bit_cap():
    # linear, powered linear and powrec terms: the first term is already too wide, or
    # (the squaring powrec a_n = 2^(2^(n-1))) the walk reaches one
    for spec in (parse_spec("fiblike:7,3"), FibonacciPower(3), parse_spec("powrec:c=1,1;t=1,1;init=1,1")):
        with deadline(2):
            with pytest.raises(ResourceLimitError, match="^term at n=1000000000000 exceeds 1000000 bits"):
                pair_row(spec, 10**12, 6)
    with deadline(2):
        with pytest.raises(ResourceLimitError, match="^term at n=21 exceeds 1000000 bits"):
            pair_row(parse_spec("powrec:c=1;t=2;init=2"), 1, 60)


# ---------------- period detection ----------------


def test_detect_period_pure_cycles():
    rep = detect_period([0] * 9)
    assert (rep.preperiod, rep.period, rep.zeros, rep.ones) == (0, 1, 1, 0)
    rep = detect_period([0, 1] * 6)
    assert (rep.preperiod, rep.period, rep.zeros, rep.ones) == (0, 2, 1, 1)
    rep = detect_period([0, 1, 1] * 5)
    assert (rep.preperiod, rep.period) == (0, 3)
    assert (rep.zeros, rep.ones) == (1, 2)


def test_detect_period_with_preperiod():
    rep = detect_period([1, 1] + [0, 1] * 8)
    assert (rep.preperiod, rep.period) == (1, 2)
    assert rep.verified_repeats == 8


def test_detect_period_prefers_smaller_preperiod():
    # regression: the k = 2 Fibonacci row ends in a run of zeros, and a
    # naive scan reports (preperiod 96, period 1) instead of (0, 6)
    bits = gamma_row(2, FibonacciPower(1), 1, 100)
    rep = detect_period(bits)
    assert (rep.preperiod, rep.period) == (0, 6)


def test_detect_period_takes_one_pass_over_a_long_window():
    # the factpow row mod 60 is constant from n = 3 on; the former search tried
    # every period up to W / 3 with a backward scan each, ~7.6 s on these 20,000 bits
    bits = gamma_row(30, FactorialPower(), 1, 20000)
    with deadline(0.5):
        rep = detect_period(bits)
    assert (rep.preperiod, rep.period, rep.zeros, rep.ones, rep.verified_repeats) == (2, 1, 1, 0, 19998)


def test_detect_period_none_cases():
    assert detect_period([0, 0, 1, 0, 1, 1, 0, 0]) is None
    assert detect_period([0, 1] * 2) is None
    rep = detect_period([0, 1] * 2, min_repeats=2)
    assert (rep.preperiod, rep.period) == (0, 2)


# ---------------- state engines ----------------


def test_state_period_known_orbits():
    sp = state_period_mod(Naturals(), 5)
    assert (sp.preperiod, sp.period) == (0, 5)
    sp = state_period_mod(ShiftedGeometric(1, 2), 7)
    assert (sp.preperiod, sp.period) == (0, 3)
    # 4^(n-1) mod 8 dies after two steps, so the orbit has a tail
    sp = state_period_mod(ShiftedGeometric(1, 4), 8)
    assert (sp.preperiod, sp.period) == (2, 1)


def test_state_period_matches_term_mod_stream():
    from splitgamma import term_mod

    specs = (FibonacciPower(1), Balancing(), Arithmetic(4, 1), KthPower(3),
             ShiftedGeometric(2, 3), FibonacciLike(3, 4))
    for spec in specs:
        for m in (2, 5, 9, 12):
            sp = state_period_mod(spec, m)
            stream = [term_mod(spec, n, m) for n in range(1, sp.preperiod + 3 * sp.period + 1)]
            for i in range(sp.preperiod, len(stream) - sp.period):
                assert stream[i] == stream[i + sp.period], (spec, m)


def test_pisano_known_values():
    known = {2: 3, 3: 8, 4: 6, 5: 20, 6: 24, 7: 16, 8: 12, 10: 60, 12: 24, 100: 300}
    for m, want in known.items():
        assert pisano(m) == want


def test_state_period_matches_table_walk_oracle():
    for spec in ENGINE_SPECS:
        for m in range(1, 121):
            assert state_period_mod(spec, m) == oracle_state_period(spec, m), (spec, m)


def test_pisano_matches_orbit_oracle():
    for m in range(1, 3001):
        assert pisano(m) == oracle_pisano(m), m
    for p, top in ((2, 14), (3, 9), (5, 6), (7, 5), (11, 4)):
        for e in range(1, top + 1):
            assert pisano(p**e) == oracle_pisano(p**e), (p, e)


def test_pisano_is_the_order_of_the_fibonacci_matrix_for_wide_moduli():
    # (F_n, F_{n+1}) = (0, 1) mod m exactly for the multiples of pi(m), so pi(m)
    # passes and pi(m)/r fails for every prime r | pi(m); m up to 10**12 factors
    for m in (10007 * 10009, 2**40 * 3**5, 999983**2, 999979 * 999983, 10**12, 2**64 + 13 * 2**40):
        with deadline(2.0):  # an orbit walk would take hours and gigabytes
            pi = pisano(m)
        assert fib_pair(pi, m) == (0, 1), m
        assert all(fib_pair(pi // r, m) != (0, 1) for r, _ in _factorize(pi)), m


def _traced_peak(run) -> int:
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_residue_periods_hold_constant_memory():
    for run in (lambda: pisano(203317), lambda: state_period_mod(FibonacciPower(1), 100003)):
        peak = _traced_peak(run)
        assert peak < 2**20, peak


def test_rows_hold_about_a_byte_per_bit():
    # pi(10000) = 15000 bits and 10000 residues: one byte each in the certified
    # period, where an int-keyed memo and tuple copies of the row took ~0.7 MB
    assert _traced_peak(lambda: row_period(5000, FibonacciPower(1))) < 4 * 15000
    # a tiled row repeats one period in place, with no second copy of the row beside it
    count = 10**7
    peak = _traced_peak(lambda: gamma_row(33, KthPower(6), 10**5, count))
    assert peak < 1.2 * count, peak / count
    # a row shorter than 2k keeps no memo, however large k is
    row = []
    assert _traced_peak(lambda: row.append(gamma_row(10**30, FibonacciPower(1), 1, 200))) < 200_000
    assert row[0] == bytes(gamma(10**30, fib(n)) for n in range(1, 201))


def test_orbit_walk_refuses_past_its_bound(monkeypatch):
    # pi(25) = 100 and pi(50) = 300: with the bound at 100 the first orbit is
    # walked, and the second is refused once the 128-state window closes
    monkeypatch.setattr(sequences, "ORBIT_MAX", 100)
    with deadline(0.5):
        assert state_period_mod(FibonacciPower(1), 25) == StatePeriod(0, 100)
        with pytest.raises(ResourceLimitError, match="longer than 100 states"):
            state_period_mod(FibonacciPower(1), 50)
        with pytest.raises(ResourceLimitError):
            row_period(25, FibonacciPower(1))


def test_a_walked_state_period_walks_its_orbit_once(monkeypatch):
    # 1 + lam > ORBIT_MAX here: a walk started from the engine's state_at
    # would re-enter _orbit to reach state 1 + lam and walk the orbit twice
    monkeypatch.setattr(sequences, "ORBIT_MAX", 100)
    walks = count_calls(monkeypatch, periodicity, "_orbit")
    walks_inside = count_calls(monkeypatch, sequences, "_orbit")
    spec = parse_spec("powrec:c=1,1;t=1,2;init=1,1")
    for m, want in ((73, (14, 113)), (94, (10, 105)), (97, (52, 122))):
        before = len(walks) + len(walks_inside)
        assert state_period_mod(spec, m) == StatePeriod(*want), m
        assert len(walks) + len(walks_inside) == before + 1, m


def test_unit_route_refuses_exactly_the_orbits_the_walk_refuses(monkeypatch):
    # with the bound at 100 the walk's last window holds 128 states: n mod 128
    # answers and n mod 129 is refused, and for every m the route that needs no
    # walk answers or refuses exactly as Brent's walk over the same states does,
    # with c_2 a unit mod m or not (geo:1,2 and geo:3,6 have tails)
    monkeypatch.setattr(sequences, "ORBIT_MAX", 100)
    assert state_period_mod(Naturals(), 128) == StatePeriod(0, 128)
    with pytest.raises(ResourceLimitError, match="^the residue orbit mod 129 is longer than 100 states$"):
        state_period_mod(Naturals(), 129)
    for spec in (FibonacciPower(1), Naturals(), Balancing(), FibonacciLike(3, 5), ShiftedGeometric(1, 2),
                 ShiftedGeometric(3, 6), PowerRecurrence((1, 2), (1, 1), (1, 1)), PowerRecurrence((3,), (1,), (2,))):
        for m in range(1, 400):
            state_at, step, _ = sequences.residue_engine(spec, m)
            try:
                want = StatePeriod(*sequences._orbit(state_at(1), step, m))
            except ResourceLimitError as e:
                with pytest.raises(ResourceLimitError, match=f"^{re.escape(str(e))}$"):
                    state_period_mod(spec, m)
            else:
                assert state_period_mod(spec, m) == want, (spec, m)


def test_unit_linear_periods_take_no_walk(monkeypatch):
    # Brent's walk would step ~1.5e6 states mod 10**6 and ~1e8 mod 10007 * 10009
    # (the bound is lifted for the latter); the matrix-order route takes O(log m)
    # doublings per candidate, and its lam is checked from the states alone
    monkeypatch.setattr(sequences, "ORBIT_MAX", 10**12)
    for text in ("fib", "bal", "lucasbal", "fiblike:3,5", "nat"):
        spec = parse_spec(text)
        for m in (10**6, 10007 * 10009):
            with deadline(0.5):
                sp = state_period_mod(spec, m)
            state_at = sequences.residue_engine(spec, m)[0]
            assert sp.preperiod == 0 and state_at(1 + sp.period) == state_at(1), (text, m)
            assert all(state_at(1 + sp.period // r) != state_at(1) for r, _ in _factorize(sp.period)), (text, m)


def test_non_unit_linear_periods_take_no_walk(monkeypatch):
    # c_2 shares the prime 2 or 3 with m: Brent's walk took 0.2-1 s over these
    # ~1e6-state orbits, the divisor test takes a few doublings past the tail
    walks = count_calls(monkeypatch, periodicity, "_orbit")
    p = 1000003
    for text, m, want in (("powrec:c=1,2;t=1,1;init=1,1", 2 * p, (0, 1000002)), ("geo:1,2", 2 * p, (1, 1000002)),
                          ("powrec:c=3;t=1;init=2", 2 * p, (0, 333334)), ("geo:3,6", 6 * p, (1, 500001))):
        with deadline(0.1):
            assert state_period_mod(parse_spec(text), m) == StatePeriod(*want), text
    assert walks == []


# the order <= 2 power recurrences with powers 1 whose exact terms may turn nonpositive (a negative
# or all-zero coefficient): their exact terms are walked and checked, but their residues are linear
EXACT_ONLY_LINEAR = [PowerRecurrence((c1,), (1,), (a,)) for c1 in range(-3, 1) for a in (1, 2, 6)] + [
    PowerRecurrence((c1, c2), (1, 1), init)
    for c1 in range(-3, 7) for c2 in range(-5, 4) if min(c1, c2) < 0 or c1 == c2 == 0
    for init in ((1, 1), (2, 3), (5, 2))
]


def test_exact_only_linear_state_periods_take_no_walk(monkeypatch):
    # a coefficient's sign decides how exact terms are read, not how a residue period is found
    def walk(*args):
        raise AssertionError("Brent's walk entered")

    monkeypatch.setattr(sequences, "_orbit", walk)
    monkeypatch.setattr(periodicity, "_orbit", walk)
    assert all(sequences._exact_only(spec) for spec in EXACT_ONLY_LINEAR)
    for spec in EXACT_ONLY_LINEAR:
        for m in range(1, 60):
            mu, states = oracle_powrec_orbit(spec, m)
            assert state_period_mod(spec, m) == StatePeriod(mu, len(states) - mu), (spec, m)


def test_linear_period_refuses_a_wrong_factorization(monkeypatch):
    # 49 factored as 7: the bound mod 7 holds, but no state mod 49 recurs pi(7) = 16 later
    monkeypatch.setattr(periodicity, "_factorize", lambda m: [(7, 1)] if m == 49 else _factorize(m))
    assert pisano(7) == 16
    for run in (lambda: pisano(49), lambda: state_period_mod(FibonacciPower(1), 49)):
        with pytest.raises(InvariantViolation, match="mod 49"):
            run()
    # 6 taken for a prime fails the bound itself: pi(6) = 24 does not divide 6 (6^2 - 1) = 210
    monkeypatch.setattr(periodicity, "_factorize", lambda m: [(6, 1)] if m == 6 else _factorize(m))
    with pytest.raises(InvariantViolation, match="^the state period mod 6 does not divide 210$"):
        pisano(6)


def test_unit_moduli_past_trial_division_still_walk():
    # 2 F_83 needs a trial divisor near 3e8, so its factors are out of reach, but
    # its orbit is short: Brent's walk answers where the matrix-order route cannot
    m = 2 * fib(83)
    assert state_period_mod(FibonacciPower(1), m) == StatePeriod(0, oracle_pisano(m))
    with pytest.raises(ResourceLimitError, match="trial divisors above"):
        pisano(m)


def test_pisano_orbit_has_no_tail():
    for m in range(2, 201):
        assert state_period_mod(FibonacciPower(1), m).preperiod == 0
        assert pisano(m) >= 1


# ---------------- certified row periods ----------------


def test_fibonacci_period_table():
    assert fibonacci_period_table(10) == TABLE1


def test_fibonacci_period_table_reads_pisano_off_the_row_period(monkeypatch):
    # the residue period of Fibonacci mod 2k that certifies the row is pi(2k) itself
    want = [(k, row_period(k, FibonacciPower(1)).period, pisano(2 * k)) for k in range(1, 201)]
    calls = count_calls(monkeypatch, periodicity, "pisano")
    assert fibonacci_period_table(200) == want
    assert calls == []


def test_row_period_certifies_fibonacci_rows():
    for k, t_k, pi_2k in TABLE1:
        rep = row_period(k, FibonacciPower(1))
        assert rep.period == t_k
        assert rep.certified
        assert pi_2k % rep.period == 0
        assert pisano(2 * k) == pi_2k


def test_row_period_matches_windowed_oracle():
    for spec in ENGINE_SPECS:
        for k in range(1, 61):
            rep = row_period(k, spec)
            assert rep == oracle_row_period(k, spec), (spec, k)
            assert rep.certified


def test_row_period_window_too_small():
    with pytest.raises(InconclusiveError):
        row_period(5, FibonacciPower(1), window=12)


def test_only_the_residue_cycle_certifies():
    # certified exactly when the residue fields are set; a window report never is, and on the
    # default window it finds the exact report's numbers
    for spec in ENGINE_SPECS:
        for k in range(1, 31):
            exact = row_period(k, spec)
            assert exact.certified and None not in (exact.residue_preperiod, exact.residue_period), (spec, k)
            mu, lam = exact.residue_preperiod, exact.residue_period
            want = PeriodReport(exact.preperiod, exact.period, exact.zeros, exact.ones, False, exact.verified_repeats)
            assert row_period(k, spec, window=max(4 * lam, 200) + mu) == want, (spec, k)
    # no residue engine, or residues that cannot show a term turning nonpositive: never certified
    for seq in ("factpow", "explicit:" + ",".join(["7"] * 12), "powrec:c=2,-1;t=1,1;init=1,2",
                "powrec:c=6,-1;t=1,1;init=1,6"):
        for k in range(1, 31):
            rep = row_period(k, parse_spec(seq), min_repeats=2)
            assert not rep.certified and (rep.residue_preperiod, rep.residue_period) == (None, None), (seq, k)


def test_row_period_with_a_window_walks_no_residues(monkeypatch):
    walks = [count_calls(monkeypatch, owner, name) for owner, name in (
        (periodicity, "state_period_mod"), (periodicity, "_orbit"), (sequences, "_orbit"))]
    # a Brent-walked powrec whose orbit mod 2k is past the walk bound: the window alone answers
    spec = parse_spec("powrec:c=1,1;t=1,2;init=1,1")
    with deadline(1):
        with pytest.raises(InconclusiveError):
            row_period(10**9 + 7, spec, window=200)
        for seq in ("fib", "powrec:c=1,1;t=1,1;init=1,2", "powrec:c=2,-1;t=1,1;init=1,2", "factpow"):
            assert not row_period(7, parse_spec(seq), window=300).certified
    assert walks == [[], [], []]
    # without a window the exact route walks as before
    assert row_period(7, spec).certified
    assert [len(w) for w in walks] == [1, 1, 0]


def test_naturals_row_structure_small():
    for k in range(1, 26):
        rep = row_period(k, Naturals())
        if k % 2:
            assert (rep.period, rep.zeros - rep.ones) == (k, 1)
        else:
            assert (rep.period, rep.zeros - rep.ones) == (2 * k, 2)


def test_odds_row_structure_small():
    for j in range(1, 7):
        k = 2**j
        rep = row_period(k, Odds())
        assert rep.period == k
        assert rep.zeros == rep.ones == k // 2


def test_arithmetic_row_proposition_small():
    for k in range(1, 16, 2):
        for p in range(1, 8):
            if math.gcd(k, p) != 1:
                continue
            for r in range(0, p):
                rep = row_period(k, Arithmetic(p, r))
                assert rep.period == k, (k, p, r)
                assert rep.zeros - rep.ones == 1, (k, p, r)


def test_certified_periods_divide_residue_period():
    """The row period divides the period of the sequence's residues mod 2k."""
    specs = (FibonacciPower(1), FibonacciLike(1, 2), Balancing(),
             PowerRecurrence((1, 1), (1, 2), (1, 1)))
    for spec in specs:
        for k in range(1, 9):
            rep = row_period(k, spec)
            assert rep.certified, (spec, k)
            residue = state_period_mod(spec, 2 * k)
            assert residue.period % rep.period == 0, (spec, k)
    # for the Fibonacci sequence that residue period is the Pisano period
    for k in range(1, 9):
        assert state_period_mod(FibonacciPower(1), 2 * k).period == pisano(2 * k)


# ---------------- shift and reflection checks ----------------


def shift_condition(a, b, n_shift):
    """The sufficient condition for gamma(a, b + N) = gamma(a, b), coprime a, b and b + N: with y
    solve_split(a, b)'s second coordinate, N * ((a - 1)/2 - y) is an integer divisible by a."""
    doubled = n_shift * (a - 1 - 2 * solve_split(a, b).y)
    return doubled % 2 == 0 and doubled // 2 % a == 0


def test_gamma_shift_applicable_case():
    assert shift_condition(3, 5, 6)
    assert gamma(3, 5 + 6) == gamma(3, 5)
    assert not shift_condition(3, 5, 1)


def test_gamma_shift_sweep_never_violates():
    applicable = 0
    for a in range(1, 21):
        for b in range(1, 21):
            for n_shift in range(1, 4 * a + 1):
                if math.gcd(a, b) == math.gcd(a, b + n_shift) == 1 and shift_condition(a, b, n_shift):
                    applicable += 1
                    assert gamma(a, b + n_shift) == gamma(a, b), (a, b, n_shift)
    assert applicable > 0


def test_rows_against_naturals_reflect_and_repeat_at_half_period():
    # checked here for k < 300, not proven: gamma(k, 2k - s) = 1 - gamma(k, s)
    # for s != k in 1..2k - 1, and for odd k gamma(k, b + k) = gamma(k, b) for b <= 2k
    for k in range(1, 300):
        row = [gamma(k, b) for b in range(1, 3 * k + 1)]  # row[b - 1] = gamma(k, b)
        assert all(row[2 * k - s - 1] == 1 - row[s - 1] for s in range(1, 2 * k) if s != k), k
        if k % 2:
            assert row[k : 3 * k] == row[: 2 * k], k


# ---------------- alternation helpers ----------------


def test_first_alternation_index():
    assert first_alternation_index([0, 1, 0, 1]) == 0
    assert first_alternation_index([1, 1, 0, 1]) == 1
    assert first_alternation_index([0, 0]) == 1
    assert first_alternation_index([1]) == 0
    with pytest.raises(DomainError):
        first_alternation_index([])


def test_kth_power_rows_eventually_alternate():
    observed = {}
    for k in range(1, 6):
        bits = pair_row(KthPower(k), 1, 50)
        j = first_alternation_index(bits)
        observed[k] = 1 + j
        # alternation really does hold from the reported index on
        for i in range(j, len(bits) - 1):
            assert bits[i] != bits[i + 1]
    assert observed == {1: 1, 2: 2, 3: 6, 4: 20, 5: 35}
