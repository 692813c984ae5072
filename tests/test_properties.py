"""Property tests: gamma and solve_split against Sylvester's closed form on
pairs up to hundreds of digits, with and without a common factor, and with
each reduced shape the split witness treats apart: b' even (the roles of a'
and b' swap), a' even, a' = 1 and b' = 1; gamma against the parity of the
inverse on the same pairs; the density chain's two branches, (a, 2a) and
(a, 2a - 1), solved as its lemma says for a up to 10**400; rs_solve against the closed form on the same
shapes made coprime, with shifts r, s in -5..5; n-variable counts against
the coin DP; the one-pass window period search against the former O(W^2)
search, on random rows and on rows with a planted preperiod and period and
one bit flipped; tiled linear rows against stepped rows; power recurrence
residues at starts up to 10**30 against the step-by-step walk, through Lucas
rows and orbit jumps; scans resumed after a crash at any byte of the
shard past the checkpoint against the fresh scan; and the CLI's JSON writer
against json.dumps of the former conversion, on nested values of every kind
its payloads hold."""

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from splitgamma import (
    PowerRecurrence,
    ResourceLimitError,
    SplitSolution,
    detect_period,
    gamma,
    gamma_row,
    nvar_classify,
    rs_solve,
    run_scan,
    solve_split,
)
from splitgamma import sequences
from splitgamma.cli import _emit
from splitgamma.sequences import residues

from conftest import (
    ENGINE_SPECS,
    inverse_parity_gamma,
    oracle_detect_period,
    oracle_json_value,
    oracle_nvar_counts,
    oracle_powrec_residues,
    oracle_representable,
    oracle_row_bits,
    shard_end,
)

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
@given(any_size)
def test_the_density_branches_solve_the_split_on_wide_terms(a):
    assert solve_split(a, 2 * a) == SplitSolution(0, 0, 0)
    if a >= 2:
        assert solve_split(a, 2 * a - 1) == SplitSolution(1, a - 2, 0)


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


@st.composite
def planted_rows(draw):
    # a head, then a cycle to length n, then at most one bit flipped anywhere
    n = draw(st.integers(0, 400))
    head = draw(st.lists(st.integers(0, 1), max_size=n))
    cycle = draw(st.lists(st.integers(0, 1), min_size=1, max_size=max(1, n // 2)))
    bits = head + [cycle[i % len(cycle)] for i in range(n - len(head))]
    flip = draw(st.one_of(st.none(), st.integers(0, max(0, n - 1))))
    if flip is not None and bits:
        bits[flip] ^= 1
    return bits


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(st.integers(0, 1), max_size=400), planted_rows()), st.integers(2, 6))
def test_detect_period_matches_the_quadratic_search(bits, min_repeats):
    assert detect_period(bits, min_repeats) == oracle_detect_period(bits, min_repeats)


LINEAR_SPECS = [spec for spec in ENGINE_SPECS if sequences._linear(spec) is not None]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LINEAR_SPECS), st.integers(1, 200), st.one_of(st.integers(1, 60), st.integers(1, 10**6)),
       st.integers(0, 5000))
def test_tiled_linear_rows_match_the_stepped_rows(spec, k, start, count):
    # starts inside and past the states' tail, periods shorter and longer than the row, rows shorter than 2k
    assert gamma_row(k, spec, start, count).bits == oracle_row_bits(k, spec, start, count)


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


class _Gen(list):
    """Stands for a generator of its items: each value built from a draw gets a fresh one."""


def _build(value):
    if isinstance(value, _Gen):
        return (_build(v) for v in value)
    if isinstance(value, dict):
        return {key: _build(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(_build(v) for v in value)
    return value


# quotes, backslashes, control characters, non-ASCII text and "%"
json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\n\t\x7f%dé€\u2028𝄞'), st.characters()), max_size=6)
json_ints = st.one_of(st.integers(-3, 3), st.integers(-10**300, 10**300), st.integers(10**299, 10**300 - 1).map(lambda n: -n))
json_scalars = st.one_of(st.none(), st.booleans(), json_ints, json_text)


@st.composite
def flat_dict_lists(draw, values):
    # flat dicts sharing their keys, as scan records and verify items do; one may then
    # reorder, drop or add a key, or nest a value
    keys = draw(st.lists(json_text, min_size=1, max_size=4, unique=True))
    items = [{key: draw(json_scalars) for key in keys} for _ in range(draw(st.integers(1, 5)))]
    i = draw(st.integers(0, len(items) - 1))
    change = draw(st.sampled_from(["none", "reorder", "drop", "add", "nest"]))
    if change == "reorder":
        items[i] = dict(reversed(list(items[i].items())))
    elif change == "drop":
        items[i].pop(keys[-1])
    elif change == "add":
        items[i][draw(json_text)] = draw(json_scalars)
    elif change == "nest":
        items[i][keys[0]] = draw(values)
    return items


json_values = st.recursive(
    st.one_of(json_scalars, st.binary(max_size=6)),
    lambda values: st.one_of(
        st.lists(values, max_size=4),
        st.lists(values, max_size=4).map(tuple),
        st.lists(values, max_size=4).map(_Gen),
        st.dictionaries(json_text, values, max_size=4),
        st.lists(st.one_of(json_ints, st.booleans()), max_size=6),
        flat_dict_lists(values),
    ),
    max_leaves=24,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(json_text, json_values, max_size=5), st.dictionaries(json_text, json_values, max_size=3))
def test_emitted_json_is_json_dumps_of_the_oracle(payload, json_only):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit("json", _build(payload), [], json_only=_build(json_only))
    assert out.getvalue() == json.dumps(oracle_json_value({**_build(payload), **_build(json_only)}), indent=2) + "\n"
