"""Exact arithmetic core for the split equation pair.

For positive integers a, b with g = gcd(a, b), write a' = a/g, b' = b/g and
R = (a' - 1)(b' - 1)/2.  Exactly one of

    a'x + b'y = R          (delta = 0)
    1 + a'x + b'y = R      (delta = 1)

is solvable in nonnegative integers x, y, and the solution is unique: R and
R - 1 sum to the Frobenius number a'b' - a' - b', so by Sylvester's symmetry
exactly one of them is a sum of a's and b's.  ``gamma`` and ``solve_split``
both read the pair off ``_split``, which needs one modular inverse per pair:
with b' odd (swap the roles of a' and b' if not), 2R = 1 - a' (mod b'), and
gamma is 0 exactly when a'^-1 mod b' is odd (or b' = 1).  Then R's least
witness x = R / a' mod b' is (a'^-1 - 1) / 2, a halving; otherwise R - 1's is
(b' - 1 - a'^-1) / 2.  Fibonacci-type pairs are Euclid's worst case (Lame),
every partial quotient 1; ``mod_inverse`` takes them to 1/25 to 1/80 of its
steps.  y is one exact division, and one product checks the witness.
``_witness`` is the general route, n * a'^-1 mod b' for any n; it serves the
shifted right-hand sides of ``explorer._rs_row``, the n-variable counts of
``explorer.nvar_classify`` and the test oracles.
``brute_force_split`` is kept as an independent oracle for the tests and
``solve --oracle``, and is not called on any fast path.

Every result and spec type in the package is a ``Record``: an immutable value
whose fields are the names its class annotates.  Records replace frozen
dataclasses because a CLI process pays for the dataclass machinery before it
answers anything: importing ``dataclasses`` (which loads ``inspect``, ``ast``,
``dis`` and ``tokenize``) took about 6 ms, and building each frozen class about
0.57 ms, so a ``row`` process spent some 17 ms on its 19 classes.  Records
compare, hash and print as those dataclasses did, but ``dataclasses.fields``,
``asdict`` and ``replace`` do not apply to them: ``vars(rec)`` gives the fields
in order.
"""

from __future__ import annotations

import math


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed an explicit size or iteration cap."""


class InvariantViolation(RuntimeError):
    """An internal consistency check failed.  Seeing this means a bug."""


class InconclusiveError(RuntimeError):
    """No period could be certified inside the examined window."""

    def __init__(self, window: int):
        super().__init__(f"no period found within a window of {window} terms; retry with a larger window")
        self.window = window


class Record:
    """Immutable value whose fields are the names its class annotates, in order.

    Construction takes the fields positionally or by keyword; a class attribute
    of a field's name is its default, and ``__post_init__`` may validate or
    normalise (through ``object.__setattr__``).  Equality needs the same class,
    hashing hashes the field tuple, and the repr lists every field, as for a
    frozen dataclass.  ``vars(rec)`` holds the fields in order.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        if "__match_args__" not in vars(cls):
            cls.__match_args__ = cls._fields

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):  # every field positional skips _bind
            args = _bind(type(self), args, kwargs)
        self.__dict__.update(zip(names, args))
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"


def _bind(cls: type, args: tuple, kwargs: dict) -> list:
    # field values in field order from a call's arguments and the class defaults
    names = cls._fields
    if len(args) > len(names):
        raise TypeError(f"{cls.__name__}() takes {len(names)} arguments but {len(args)} were given")
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names or name in values:
            raise TypeError(f"{cls.__name__}() got an unexpected or repeated argument {name!r}")
        values[name] = value
    missing = [name for name in names if name not in values and not hasattr(cls, name)]
    if missing:
        raise TypeError(f"{cls.__name__}() missing arguments: {', '.join(missing)}")
    return [values[name] if name in values else getattr(cls, name) for name in names]


def _word(value) -> str:
    # a CLI text value: yes/no for booleans, "none" for None
    if value is None:
        return "none"
    return ("yes" if value else "no") if isinstance(value, bool) else str(value)


def _check_pair(a: int, b: int) -> None:
    if a < 1 or b < 1:
        raise DomainError(f"need positive integers, got a={a}, b={b}")


def gcd(a: int, b: int) -> int:
    """gcd of two nonnegative integers, rejecting the undefined (0, 0) case."""
    if a == 0 and b == 0:
        raise DomainError("gcd(0, 0) is undefined")
    return math.gcd(a, b)


INVERSE_WINDOW = 128  # moduli wider than this many bits are preconditioned; 128 beat 64 (CHANGES.md has the numbers)


def mod_inverse(a: int, m: int) -> int:
    """Inverse of a modulo m in [1, m-1].

    Past INVERSE_WINDOW bits it is c (c a)^-1, c the last convergent denominator of a/m's leading bits below
    2**(INVERSE_WINDOW // 2) prime to c a mod m: q a - p m = +-r, r < m / q', so Euclid's first quotient is near
    q', and Fibonacci-type pairs repeat that jump at every level (d'Ocagne: F_{k+1} F_n = (-1)^k F_{n-k} mod F_{n+1}).
    """
    if m < 2:
        raise DomainError(f"modulus must be >= 2, got {m}")
    try:
        shift = m.bit_length() - INVERSE_WINDOW
        if shift <= 0:
            return pow(a, -1, m)
        x, y = m >> shift, a % m >> shift
        q0, q1, qs, top = 0, 1, [1], 1 << INVERSE_WINDOW // 2  # qs: y/x's convergent denominators below top
        while y:
            t, r = divmod(x, y)
            q0, q1 = q1, t * q1 + q0
            if q1 >= top:
                break
            qs.append(q1)
            x, y = y, r
        for c in reversed(qs):  # gcd(c, c a mod m) = 1 makes c a unit mod m; q_0 = 1 always passes
            if math.gcd(c, ca := c * a % m) == 1:
                return c * pow(ca, -1, m) % m
    except ValueError:
        raise DomainError(f"{a % m} is not invertible modulo {m} (gcd = {math.gcd(a, m)})") from None


def _witness(a: int, b: int, inv: int, n: int) -> tuple[int, int] | None:
    """The least-x solution (x, y) of a*x + b*y = n with x, y >= 0, or None.

    a, b are coprime and inv is a's inverse modulo b (0 when b = 1).  Sylvester
    (1884): x = n*inv mod b is the least x >= 0 that makes n - a*x divisible
    by b, so n is representable exactly when n - a*x >= 0.
    """
    x = n * inv % b
    rem = n - a * x
    return (x, rem // b) if rem >= 0 else None


def _split(a: int, b: int) -> tuple[int, int, int]:
    # (delta, x, y) for the pair: the parity of one inverse picks delta, a halving gives x
    _check_pair(a, b)
    g = math.gcd(a, b)
    a, b = a // g, b // g
    swap = not b & 1  # a' and b' are coprime, so at most one is even; halving needs b' odd
    if swap:
        a, b = b, a
    inv = mod_inverse(a, b) if b > 1 else 1
    # 2R = 1 - a and 2(R - 1) = -1 - a (mod b), so R's least witness is (inv - 1) / 2 and
    # R - 1's is (b - 1 - inv) / 2; with a * inv = kb + 1 the first leaves R - a x =
    # (a - 1 - k) b / 2 >= 0 when inv is odd, the second (k - 1) b / 2 >= 0 when it is even
    delta = 1 - (inv & 1)
    x = (b - 1 - inv if delta else inv - 1) >> 1
    # (a - 1)(b - 1) - 2ax = a(b - 1 - 2x) - b + 1, so one product checks the witness
    y, rem = divmod((a * (b - 1 - 2 * x) - b + 1) // 2 - delta, b)
    if rem or y < 0:
        pair = (b, a) if swap else (a, b)
        raise InvariantViolation(f"no witness for R - {delta} of {pair}")
    return (delta, y, x) if swap else (delta, x, y)


def gamma(a: int, b: int) -> int:
    """Which delta in {0, 1} makes the split equation solvable for the pair (a, b).

    0 exactly when R = (a'-1)(b'-1)/2 is a sum of a's and b's for the reduced
    pair; when b divides a or a divides b, R = 0 and the answer is 0.
    """
    return _split(a, b)[0]


class SplitInstance(Record):
    """A pair (a, b) with its gcd-reduced form and common right-hand side."""

    a: int
    b: int
    g: int
    a_red: int
    b_red: int
    rhs: int

    __match_args__ = ("a", "b")  # the derived fields are not constructor arguments

    def __init__(self, a: int, b: int) -> None:
        _check_pair(a, b)
        g = math.gcd(a, b)
        a_red = a // g
        b_red = b // g
        prod = (a_red - 1) * (b_red - 1)
        if prod % 2:
            raise InvariantViolation(f"odd product for reduced pair ({a_red}, {b_red})")
        self.__dict__.update(a=a, b=b, g=g, a_red=a_red, b_red=b_red, rhs=prod // 2)


class SplitSolution(Record):
    """A witness (delta, x, y) with delta + a'x + b'y = (a'-1)(b'-1)/2."""

    delta: int
    x: int
    y: int
    unique: bool = True


def solve_split(a: int, b: int) -> SplitSolution:
    """The unique nonnegative solution of the solvable equation for (a, b).

    Works on the gcd-reduced pair: with b' odd, x is the least nonnegative
    residue of (R - delta) / a' modulo b', read off a'^-1 by halving, and y
    follows by exact division (roles swapped when b' is even).  The solution
    is unique, so either reading gives it.
    """
    return SplitSolution(*_split(a, b))


class BruteForceReport(Record):
    """All enumerated solutions for both deltas, plus the per-delta counts."""

    solutions: tuple[SplitSolution, ...]
    counts: tuple[int, int]

    @property
    def solution(self) -> SplitSolution:
        if len(self.solutions) != 1:
            raise InvariantViolation(f"expected exactly one solution, found {len(self.solutions)}")
        return self.solutions[0]


DEFAULT_BRUTE_CAP = 10_000_000


def brute_force_split(a: int, b: int, max_iterations: int = DEFAULT_BRUTE_CAP) -> BruteForceReport:
    """Enumerate x for both deltas and report every solution of the pair.

    The iteration budget counts candidate x values across both equations and
    is checked up front, so oversized instances fail fast.
    """
    inst = SplitInstance(a, b)
    a_red, b_red, rhs = inst.a_red, inst.b_red, inst.rhs
    planned = sum((rhs - d) // a_red + 1 for d in (0, 1) if rhs - d >= 0)
    if planned > max_iterations:
        raise ResourceLimitError(f"enumeration needs {planned} iterations, cap is {max_iterations}")
    found: list[tuple[int, int, int]] = []
    counts = [0, 0]
    for delta in (0, 1):
        target = rhs - delta
        if target < 0:
            continue
        for x in range(target // a_red + 1):
            rem = target - a_red * x
            if rem % b_red == 0:
                counts[delta] += 1
                found.append((delta, x, rem // b_red))
    unique = len(found) == 1
    sols = tuple(SplitSolution(d, x, y, unique=unique) for d, x, y in found)
    return BruteForceReport(sols, (counts[0], counts[1]))
