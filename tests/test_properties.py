"""Property tests: gamma and solve_split against Sylvester's closed form on
pairs up to hundreds of digits, with and without a common factor."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from splitgamma import gamma, solve_split

from conftest import oracle_representable

wide = st.integers(min_value=1, max_value=10**400)
small = st.integers(min_value=1, max_value=10**4)
factor = st.one_of(st.just(1), st.integers(min_value=2, max_value=10**120))
pairs = st.tuples(st.one_of(wide, small), st.one_of(wide, small), factor).map(
    lambda t: (t[0] * t[2], t[1] * t[2])
)


@settings(max_examples=400, deadline=None)
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
