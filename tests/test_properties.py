"""Property tests: gamma and solve_split against Sylvester's closed form on
pairs up to hundreds of digits, with and without a common factor, and with
each reduced shape the split witness treats apart: b' even (the roles of a'
and b' swap), a' even, a' = 1 and b' = 1; gamma against the parity of the
inverse on the same pairs; rs_solve against the closed form on the same
shapes made coprime, with shifts r, s in -5..5; n-variable counts against
the coin DP; power recurrence residues at starts up to 10**30 against the
step-by-step walk, through Lucas rows and orbit jumps; and scans resumed
after a crash at any byte of the shard past the checkpoint against the fresh
scan."""

import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from splitgamma import PowerRecurrence, ResourceLimitError, gamma, nvar_classify, rs_solve, run_scan, solve_split
from splitgamma import sequences
from splitgamma.sequences import residues

from conftest import inverse_parity_gamma, oracle_nvar_counts, oracle_powrec_residues, oracle_representable, shard_end

wide = st.integers(min_value=1, max_value=10**400)
small = st.integers(min_value=1, max_value=10**4)
factor = st.one_of(st.just(1), st.integers(min_value=2, max_value=10**120))
any_size = st.one_of(wide, small)
odd = any_size.map(lambda n: 2 * n + 1)
even = any_size.map(lambda n: 2 * n)
# gcd(a, b) is odd when a or b is, so dividing it out keeps the parity of each shape
shapes = st.one_of(
    st.tuples(any_size, any_size),
    st.tuples(odd, even),
    st.tuples(even, odd),
    st.tuples(st.just(1), any_size),
    st.tuples(any_size, st.just(1)),
)
pairs = st.tuples(shapes, factor).map(lambda t: (t[0][0] * t[1], t[0][1] * t[1]))


@settings(max_examples=800, deadline=None)
@given(pairs)
def test_witness_and_delta_agree_with_sylvester(pair):
    a, b = pair
    g = math.gcd(a, b)
    ar, br = a // g, b // g
    rhs = (ar - 1) * (br - 1) // 2
    sol = solve_split(a, b)
    assert ar * sol.x + br * sol.y + sol.delta == rhs
    assert 0 <= sol.x < br and sol.y >= 0
    assert gamma(a, b) == sol.delta
    assert oracle_representable(rhs, ar, br) == (sol.delta == 0)
    assert oracle_representable(rhs - 1, ar, br) == (sol.delta == 1)


@settings(max_examples=400, deadline=None)
@given(pairs)
def test_gamma_is_the_parity_of_the_inverse_on_wide_pairs(pair):
    assert gamma(*pair) == inverse_parity_gamma(*pair)


@settings(max_examples=400, deadline=None)
@given(shapes, st.integers(-5, 5), st.integers(-5, 5))
def test_shifted_sides_agree_with_sylvester_on_wide_pairs(shape, r, s):
    g = math.gcd(*shape)
    a, b = shape[0] // g, shape[1] // g
    rec = rs_solve(a, b, r, s)
    num = (a - r) * (b - s)
    assert rec.integral == (num % 2 == 0)
    if rec.integral:
        assert rec.rhs == num // 2
        assert rec.solvable_i0 == oracle_representable(num // 2, a, b)
        assert rec.solvable_i1 == oracle_representable(num // 2 - 1, a, b)
    else:
        assert not rec.solvable_i0 and not rec.solvable_i1


powrecs = st.integers(min_value=1, max_value=3).flatmap(
    lambda s: st.tuples(
        st.lists(st.integers(0, 3), min_size=s, max_size=s).filter(any),
        st.lists(st.integers(0, 3), min_size=s, max_size=s),
        st.lists(st.integers(1, 5), min_size=s, max_size=s),
    )
).map(lambda t: PowerRecurrence(*t))


# two to five coefficients, each at most 1 + 40000 ** (1/n), so rhs = prod(a_j - 1)/2 <= 20,000
coeff_tuples = st.integers(2, 5).flatmap(
    lambda n: st.lists(st.integers(1, 1 + int(40000 ** (1 / n))), min_size=n, max_size=n).map(tuple)
)


@settings(max_examples=200, deadline=None)
@given(coeff_tuples)
def test_nvar_counts_match_the_coin_dp(coeffs):
    rep = nvar_classify(coeffs)
    if rep.instance.rhs is not None:
        assert rep.counts == oracle_nvar_counts(coeffs)


@settings(max_examples=300, deadline=None)
@given(powrecs, st.integers(1, 30), st.one_of(st.integers(1, 300), st.integers(1, 10**30)))
def test_powrec_residues_match_the_walk_at_any_start(spec, m, start):
    # the bound lowered to 50 puts most starts past it: Lucas rows jump by
    # doubling, the rest jump into their orbit's cycle, or are refused when
    # that orbit does not close within the bound
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sequences, "ORBIT_MAX", 50)
        try:
            got = list(residues(spec, start, 4, m))
        except ResourceLimitError:
            assert sequences._linear(spec) is None and start > 50
            return
    assert got == oracle_powrec_residues(spec, start, 4, m)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 14), st.integers(-2, 5), st.integers(-2, 5), st.sampled_from(["csv", "jsonl"]), st.data())
def test_resume_after_a_crash_anywhere_gives_the_fresh_scan(x_max, r, s, fmt, data):
    # the file holds shards 1..c and any prefix of shard c + 1 (the whole of it
    # when the crash came between the flush and the checkpoint write)
    c = data.draw(st.integers(0, x_max), label="checkpoint")
    with tempfile.TemporaryDirectory() as tmp:
        fresh, out = Path(tmp, "fresh"), Path(tmp, "out")
        want = run_scan(r, s, x_max, fresh, fmt)
        whole = fresh.read_bytes()
        kept = data.draw(st.integers(shard_end(whole, fmt, c), shard_end(whole, fmt, c + 1)), label="bytes kept")
        out.write_bytes(whole[:kept])
        Path(tmp, "out.checkpoint").write_text(f"{c}\n")
        assert run_scan(r, s, x_max, out, fmt, resume=True) == want
        assert out.read_bytes() == whole
