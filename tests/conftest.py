"""Shared oracles, written independently of the package's fast paths: a
brute-force enumeration and Sylvester's closed form for two-coin
representability; the saturating coin DP, which the n-variable counts are
checked against; the inverse-parity rule for gamma and theta, the inverse of
a' mod b', which the parity-rule test reads; the former multiply-mod
split witness and the former cube-by-cube Fibonacci cube witness; a plain
Fibonacci orbit walk for Pisano periods; rows by stepping every residue,
which the tiled linear rows are checked against; the former table-walk
residue periods and windowed row periods, which the exact one-pass row
periods are checked against; the former O(W^2) window search, which the
one-pass border-table search is checked against; the former per-prime-power route to
(n!)^(n!) mod m; and a step-by-step power recurrence walk, which the
Lucas-doubling rows and the orbit jump are checked against; and the former density
walk, which classifies every step and which the branch-read chain is checked
against.  Also a deadline for calls that must stop
quickly, so a regression fails the test instead of running away, a call
counter for complexity guards that count work instead of timing it, the
byte offsets where a scan file's shards end, read off its lines directly, and
the CLI's former JSON conversion (every int a decimal string), which the JSON
it writes directly is checked against.
ENGINE_SPECS lists one spec of every residue-engine family the row and period
tests sweep."""

import contextlib
import math
import signal
from fractions import Fraction

from splitgamma.core import SplitSolution, _witness, gamma
from splitgamma.density import DensityTrace
from splitgamma.periodicity import PeriodReport, StatePeriod
from splitgamma.sequences import _factorize, parse_spec, residue_engine, residues

# every family with a residue engine whose rows are read from residues; geo:1,4
# (c_2 = -4), the order-1 powrec (c_2 = 0) and the linear powrecs with c_2 = 2
# give linear families whose states mod m have a tail (here at p = 2)
ENGINE_SPECS = tuple(parse_spec(t) for t in (
    "fib", "fib^2", "fib^3", "fiblike:3,5", "bal", "lucasbal", "nat", "odds", "arith:5,2", "n^3",
    "geo:2,3", "geo:1,4", "powrec:c=1,1;t=1,1;init=1,2", "powrec:c=1,1;t=1,2;init=1,1",
    "powrec:c=1,2;t=2,1;init=2,1", "powrec:c=3;t=1;init=2", "powrec:c=1,2;t=1,1;init=1,1",
    "powrec:c=2,2;t=1,1;init=1,3",
))


def oracle_solutions(a, b):
    """Every nonnegative solution of both equations for the reduced pair.

    Returns a list of (delta, x, y) with delta in {0, 1} such that
    delta + a'x + b'y = (a'-1)(b'-1)/2 where a' = a/g, b' = b/g.
    """
    g = math.gcd(a, b)
    ar, br = a // g, b // g
    rhs = (ar - 1) * (br - 1) // 2
    found = []
    for delta in (0, 1):
        target = rhs - delta
        if target < 0:
            continue
        for x in range(target // ar + 1):
            rem = target - ar * x
            if rem % br == 0:
                found.append((delta, x, rem // br))
    return found


def oracle_representable(n, a, b):
    """Whether n = a*x + b*y has a solution with x, y >= 0, for coprime a, b.

    Sylvester's closed form: with y0 = (n * b^-1) mod a, the least y >= 0
    that makes n - b*y divisible by a, n is representable exactly when
    n - b*y0 >= 0.  For a = 1 or b = 1 every n >= 0 is representable.
    """
    if n < 0:
        return False
    if a == 1 or b == 1:
        return True
    return n - b * ((n * pow(b, -1, a)) % a) >= 0


def oracle_split(a, b):
    """(delta, x, y) by the multiply-mod route: Sylvester's witness R * a'^-1 mod b'
    for R, then for R - 1, each with its own product and reduction."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    rhs = (a - 1) * (b - 1) // 2
    inv = pow(a, -1, b) if b > 1 else 0
    for delta in (0, 1):
        w = _witness(a, b, inv, rhs - delta)
        if w is not None:
            return (delta, *w)
    raise AssertionError(f"neither R nor R - 1 is representable for ({a}, {b})")


def _count_table(coins: tuple[int, ...], target: int) -> bytearray:
    # number of representations of each t <= target, saturated at 2
    dp = bytearray(target + 1)
    dp[0] = 1
    for c in coins:
        for t in range(c, target + 1):
            w = dp[t - c]
            if w:
                v = dp[t] + w
                dp[t] = v if v < 2 else 2
    return dp


def oracle_nvar_counts(coeffs):
    """Counts of i + sum a_j x_j = prod(a_j - 1)/2 for i = 0..n-1, read off the coin DP."""
    rhs = math.prod(c - 1 for c in coeffs) // 2
    dp = _count_table(tuple(coeffs), rhs)
    return tuple(int(dp[rhs - i]) if rhs >= i else 0 for i in range(len(coeffs)))


def inverse_parity_gamma(a, b):
    """With b' odd (the roles of a' and b' swapped if not), gamma is 0 exactly
    when b' = 1 or the inverse of a' mod b' is odd."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    if b % 2 == 0:
        a, b = b, a
    return 0 if b == 1 or pow(a, -1, b) % 2 else 1


def oracle_theta(a, b):
    """The inverse of a' = a/gcd(a, b) modulo b' = b/gcd(a, b), in [1, b' - 1]; b' > 1."""
    g = math.gcd(a, b)
    assert b // g > 1, (a, b)
    return pow(a // g, -1, b // g)


def oracle_fib_cube_solution(m):
    """The cube witness for (F_{2m-1}^3, F_{2m}^3) summed one cube at a time:
    x alternates over F_1^3 .. F_{2m-1}^3 (newest term positive), y adds F_2^3 .. F_{2m-2}^3."""
    x = y = 0
    f, g = 1, 1  # F_1, F_2
    for k in range(1, 2 * m):
        c = f**3
        x = c - x
        if 2 <= k <= 2 * m - 2:
            y += c
        f, g = g, f + g
    return SplitSolution(0, x, y)


def oracle_factpow_mod(n, m):
    """(n!)^(n!) mod m, one prime power p^e || m at a time, glued by CRT.

    With v the p-valuation of n!, the term's p-valuation is v * n!: the residue
    mod p^e is 0 once that reaches e, and for p > n it is Euler's
    (n! mod p^e)^(n! mod phi(p^e)).
    """
    r0, m0 = 0, 1
    for p, e in _factorize(m):
        q = p**e
        v, pk = 0, p
        while pk <= n:
            v, pk = v + n // pk, pk * p
        if v:
            f, i = 1, 1  # n!, or a partial product once v * f reaches e
            while i < n and v * f < e:
                i += 1
                f *= i
            r = 0 if v * f >= e else pow(f, f, q)
        else:
            phi = q // p * (p - 1)
            r = pow(math.factorial(n) % q, math.factorial(n) % phi if phi > 1 else 0, q)
        r0 += m0 * ((r - r0) * pow(m0, -1, q) % q)
        m0 *= q
    return r0 % m0


def oracle_powrec_orbit(spec, m, stop=math.inf):
    """(mu, states): the states of a power recurrence mod m from n = 1, walked one step at a time.

    Each state (the last s residues) is kept, and the walk stops at the first
    repeated state, whose first index is mu, so (mu, len(states) - mu) is the
    orbit's tail and cycle; or once stop states are kept, with mu = 0.
    """
    state = tuple(a % m for a in spec.init)
    seen, states = {}, []
    while len(states) < stop and state not in seen:
        seen[state] = len(states)
        states.append(state)
        new = sum(c * pow(state[-1 - i], t, m) for i, (c, t) in enumerate(zip(spec.coeffs, spec.powers)))
        state = state[1:] + (new % m,)
    return seen.get(state, 0), states


def oracle_powrec_residues(spec, start, count, m):
    """a_n mod m for n = start .. start + count - 1 of a power recurrence, walked one step at a time.

    The walk stops at the last index asked for or at the first repeated state;
    an index past that repeat maps into the cycle it closed.
    """
    mu, states = oracle_powrec_orbit(spec, m, start + count - 1)
    lam = len(states) - mu
    return [states[i if i < len(states) else mu + (i - mu) % lam][0] for i in range(start - 1, start + count - 1)]


def oracle_density_walk(p, n_max):
    """The greedy density chain with every bit read off the classifier, gamma(a_{n-1}, a_n).

    p = 1 is the chain 2^n, p = 0 the chain 2^n + 1; otherwise a_0 = 1, a_1 = 2
    and each later term doubles while the ratio over the bits so far is below p,
    else takes 2a - 1.
    """
    p = Fraction(p)
    num, den = p.numerator, p.denominator
    if p == 1:
        terms = [2**n for n in range(n_max + 1)]
    elif p == 0:
        terms = [2**n + 1 for n in range(n_max + 1)]
    else:
        terms = [1, 2]
    bits, ratios, crossings = [], [], []
    zeros = 0
    below = False
    for n in range(1, n_max + 1):
        prev = terms[n - 1]
        if n == len(terms):
            terms.append(2 * prev if below else 2 * prev - 1)
        bit = gamma(prev, terms[n])
        bits.append(bit)
        zeros += 1 - bit
        ratios.append(Fraction(zeros, n))
        was_below, below = below, zeros * den < num * n
        if n >= 2 and below != was_below:
            crossings.append(n)
    return DensityTrace(p, tuple(terms), tuple(bits), tuple(ratios), tuple(crossings))


def coprime_pairs(limit):
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            if math.gcd(a, b) == 1:
                yield a, b


def oracle_pisano(m):
    """Period of (F_n mod m), by stepping the pair until (0, 1) recurs."""
    one = 1 % m
    a, b, n = one, one, 1
    while (a, b) != (0, one):
        a, b, n = b, (a + b) % m, n + 1
    return n


def oracle_state_period(spec, m):
    """(preperiod, period) of (a_n mod m): every engine state is kept until one repeats."""
    state_at, step, out = residue_engine(spec, m)
    seen, outputs = {}, []
    st = state_at(1)
    while st not in seen:
        seen[st] = len(outputs)
        outputs.append(out(st))
        st = step(st)
    s0 = seen[st]
    t0 = len(outputs) - s0
    cycle = outputs[s0:]
    period = next(d for d in range(1, t0 + 1)
                  if t0 % d == 0 and all(cycle[i] == cycle[(i + d) % t0] for i in range(t0)))
    pre = s0
    while pre > 0 and outputs[pre - 1] == outputs[pre - 1 + period]:
        pre -= 1
    return StatePeriod(pre, period)


def oracle_row_bits(k, spec, start, count):
    """gamma_row's bits by stepping every residue mod 2k and classifying each one."""
    return bytes(gamma(k, r or 2 * k) for r in residues(spec, start, count, 2 * k))


def oracle_detect_period(bits, min_repeats=3):
    """detect_period by trying every period T <= n / min_repeats: T's preperiod is
    one past the last i with bits[i] != bits[i + T], and the least feasible
    (preperiod, T) wins."""
    bits = list(bits)
    n = len(bits)
    best = None
    for period in range(1, n // min_repeats + 1):
        s = 0
        if bits[period:] != bits[:-period]:
            for i in range(n - period - 1, -1, -1):
                if bits[i] != bits[i + period]:
                    s = i + 1
                    break
        if n - s >= min_repeats * period and (best is None or (s, period) < best):
            best = (s, period)
            if s == 0:  # nothing can beat a zero preperiod at the smallest period so far
                break
    if best is None:
        return None
    s, period = best
    z = bits[s : s + period].count(0)
    return PeriodReport(s, period, z, period - z, False, (n - s) // period)


def oracle_row_period(k, spec):
    """The windowed row period: the window search on max(4 pi, 200) + mu stepped bits, then certify."""
    sp = oracle_state_period(spec, 2 * k)
    bits = oracle_row_bits(k, spec, 1, max(4 * sp.period, 200) + sp.preperiod)
    rep = oracle_detect_period(bits)
    base = max(rep.preperiod, sp.preperiod)
    certified = (
        sp.period % rep.period == 0
        and base + sp.period + rep.period <= len(bits)
        and all(bits[i] == bits[i + rep.period] for i in range(base, base + sp.period))
    )
    return PeriodReport(rep.preperiod, rep.period, rep.zeros, rep.ones, certified, rep.verified_repeats,
                        sp.preperiod, sp.period)


@contextlib.contextmanager
def deadline(seconds):
    """Raise TimeoutError inside the block once it has run for `seconds` (POSIX SIGALRM)."""

    def overrun(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def count_calls(monkeypatch, owner, name):
    """Replace owner.name with a wrapper that counts its calls; the returned list grows by one per call."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def oracle_json_value(value):
    """value as the CLI prints it in JSON, for json.dumps: ints become decimal strings,
    None, bools and strings stay, dicts keep their keys and any other iterable becomes a list."""
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {key: oracle_json_value(v) for key, v in value.items()}
    return [oracle_json_value(v) for v in value]


def shard_end(data, fmt, shard):
    """Byte offset where shard `shard` of a scan file ends, read off each line's first coordinate."""
    import json
    end = 0
    for i, line in enumerate(data.splitlines(keepends=True)):
        if fmt == "csv":
            a = 1 if i == 0 else int(line.split(b",")[0])  # the header opens shard 1
        else:
            a = int(json.loads(line)["a"])
        if a > shard:
            break
        end += len(line)
    return end
