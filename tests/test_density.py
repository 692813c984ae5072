import csv
import io
from fractions import Fraction

import pytest

from splitgamma import cli, core
from splitgamma import (
    DensityTrace,
    DomainError,
    SplitSolution,
    build_density_sequence,
    gamma,
    solve_split,
    verify_growth_bounds,
)

from conftest import count_calls, oracle_density_walk

TARGETS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


def test_degenerate_targets_close_forms():
    tr = build_density_sequence(1, 60)
    assert tr.terms == tuple(2**n for n in range(61))
    tr = build_density_sequence(0, 60)
    assert tr.terms == tuple(2**n + 1 for n in range(61))


def test_accepts_str_and_fraction_targets():
    assert build_density_sequence("1/2", 8) == build_density_sequence(Fraction(1, 2), 8)


def test_target_validation():
    with pytest.raises(DomainError):
        build_density_sequence(Fraction(3, 2), 10)
    with pytest.raises(DomainError):
        build_density_sequence(Fraction(-1, 2), 10)
    with pytest.raises(DomainError):
        build_density_sequence(Fraction(1, 2), 1)


def test_greedy_step_dichotomy():
    """Bit 0 exactly when the term was doubled, bit 1 when 2a - 1 was taken."""
    for p in TARGETS:
        tr = build_density_sequence(p, 80)
        terms, bits, ratios = tr.terms, tr.bits, tr.ratios
        for n in range(2, 81):
            doubled = ratios[n - 2] < p
            if doubled:
                assert terms[n] == 2 * terms[n - 1], (p, n)
                assert bits[n - 1] == 0, (p, n)
            else:
                assert terms[n] == 2 * terms[n - 1] - 1, (p, n)
                assert bits[n - 1] == 1, (p, n)


def test_bits_are_recomputed_gamma_values():
    for p in (Fraction(1, 3), Fraction(1, 2)):
        tr = build_density_sequence(p, 60)
        for n in range(60):
            assert tr.bits[n] == gamma(tr.terms[n], tr.terms[n + 1]), (p, n)


def test_ratio_bookkeeping():
    tr = build_density_sequence(Fraction(2, 3), 50)
    zeros = 0
    for n in range(1, 51):
        zeros += 1 - tr.bits[n - 1]
        assert tr.ratios[n - 1] == Fraction(zeros, n)


def test_ratio_steering():
    # the doubling branch pushes the ratio up, the other branch down
    for p in TARGETS:
        tr = build_density_sequence(p, 80)
        for n in range(2, 81):
            if tr.ratios[n - 2] < p:
                assert tr.ratios[n - 1] > tr.ratios[n - 2], (p, n)
            else:
                assert tr.ratios[n - 1] < tr.ratios[n - 2], (p, n)


def test_growth_bounds():
    for p in TARGETS:
        tr = build_density_sequence(p, 60)
        assert verify_growth_bounds(tr)
        for n in range(61):
            assert 2 ** (n - 1) < tr.terms[n] <= 2 ** (n + 1), (p, n)


def test_growth_bounds_at_the_powers_of_two():
    # a_n on each side of 2^(n-1) and 2^(n+1), after the increasing prefix 1, 2, 3, 5, .., 2^(n-2) + 1
    for n in range(3, 300):
        prefix = (1,) + tuple(2 ** (k - 1) + 1 for k in range(1, n))
        for last, ok in ((2 ** (n - 1), False), (2 ** (n - 1) + 1, True), (2 ** (n + 1), True), (2 ** (n + 1) + 1, False)):
            terms = prefix + (last,)
            power_form = all(2 ** (i - 1) < t <= 2 ** (i + 1) for i, t in enumerate(terms) if i)
            trace = DensityTrace(Fraction(1, 2), terms, (), (), ())
            assert verify_growth_bounds(trace) == power_form == ok, (n, last)
    for terms in ((1, 2, 4), (1, 3, 8), (1, 2, 9), (1, 1, 2), (0, 1, 2), (-5, -2, 3), (1, 0, 2)):
        power_form = all(a < b for a, b in zip(terms, terms[1:])) and all(
            2 ** (i - 1) < t <= 2 ** (i + 1) for i, t in enumerate(terms) if i)
        assert verify_growth_bounds(DensityTrace(Fraction(1, 2), terms, (), (), ())) == power_form, terms


def test_the_branches_solve_the_split():
    # the lemma the chain reads its bits by: doubling gives bit 0, 2a - 1 gives bit 1
    for a in range(1, 5001):
        assert solve_split(a, 2 * a) == SplitSolution(0, 0, 0), a
        if a >= 2:
            assert solve_split(a, 2 * a - 1) == SplitSolution(1, a - 2, 0), a


def test_the_chain_makes_no_classifier_call(monkeypatch, capsys):
    calls = count_calls(monkeypatch, core, "_split")
    for p in (*TARGETS, Fraction(2, 7), 0, 1):
        build_density_sequence(p, 300)
    for fmt in ("text", "csv", "json"):
        assert cli.main(["density", "--p", "2/7", "--n", "40", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert calls == []


def test_the_chain_matches_the_classifier_walk():
    grid = {Fraction(num, den) for den in range(1, 40) for num in range(den + 1)}
    assert len(grid) == 475 and {0, 1} <= grid
    for p in sorted(grid):
        assert build_density_sequence(p, 400) == oracle_density_walk(p, 400), p
    for p in (Fraction(2, 7), Fraction(1, 3), Fraction(5, 11)):
        assert build_density_sequence(p, 2000) == oracle_density_walk(p, 2000), p


def test_crossings_keep_happening():
    for p in (Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)):
        tr = build_density_sequence(p, 500)
        assert tr.crossings
        assert tr.crossings[-1] > 250, p


def test_ratio_converges_at_desk_scale():
    for p in TARGETS:
        tr = build_density_sequence(p, 500)
        assert abs(tr.ratios[-1] - p) <= Fraction(2, 100), p


def test_trace_rows_layout(capsys):
    # the density CSV: one row per n = 0 .. n_max, every cell a decimal string
    assert cli.main(["density", "--p", "1/2", "--n", "8", "--format", "csv"]) == 0
    header, *rows = csv.reader(io.StringIO(capsys.readouterr().out))
    assert header == ["n", "a_n", "gamma_bit", "ratio_num", "ratio_den"]
    assert len(rows) == 9  # n = 0 .. n_max
    assert rows[0] == ["0", "1", "", "", ""]  # the seed row has no bit or ratio
    assert rows[1] == ["1", "2", "0", "1", "1"]
    for row in rows:
        assert all(cell == "" or cell.isdigit() for cell in row)
