"""Shared brute-force oracle, written independently of the package internals,
and a stand-in for the scan's process pool."""

import math

import pytest


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


def coprime_pairs(limit):
    for a in range(1, limit + 1):
        for b in range(1, limit + 1):
            if math.gcd(a, b) == 1:
                yield a, b


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the scan's process pool with an in-process map.

    Returns the list of max_workers values the scan asked for, one per pool;
    no worker process is started.
    """
    from splitgamma import explorer

    sizes = []

    class InlinePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(explorer.futures, "ProcessPoolExecutor", InlinePool)
    return sizes
