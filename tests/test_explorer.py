import csv
import io
import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from conftest import _count_table, count_calls, deadline, oracle_json_value, oracle_nvar_counts, shard_end
from splitgamma import (
    DomainError,
    ResourceLimitError,
    beiter_density,
    gamma,
    nvar_classify,
    rs_solve,
    run_scan,
)
from splitgamma import explorer
from splitgamma.cli import _csv_cell, main
from splitgamma.explorer import SCAN_CSV_HEADER, SCAN_METADATA, ScanRecord, iter_scan


def saturated_counts(coeffs, rhs, n_eq):
    """Count solutions of i + sum(a_j x_j) = rhs by plain nested search, capped at 2."""
    counts = []
    for i in range(n_eq):
        target = rhs - i
        found = 0
        if target >= 0:
            stack = [(0, target)]
            while stack and found < 2:
                idx, rem = stack.pop()
                if idx == len(coeffs) - 1:
                    if rem % coeffs[idx] == 0:
                        found += 1
                    continue
                for x in range(rem // coeffs[idx] + 1):
                    stack.append((idx + 1, rem - coeffs[idx] * x))
        counts.append(min(found, 2))
    return tuple(counts)


# ---------------- n-variable systems ----------------


def test_nvar_pair_matches_gamma():
    rep = nvar_classify((3, 5))
    assert rep.instance.rhs == 4
    assert rep.counts == (0, 1)
    assert rep.solvable == (1,)
    assert rep.exactly_one


def test_nvar_three_variable_example():
    rep = nvar_classify((3, 5, 7))
    assert rep.instance.rhs_numerator == 48
    assert rep.instance.rhs == 24
    assert rep.instance.setwise_coprime and rep.instance.pairwise_coprime
    assert rep.counts == (2, 2, 2)
    assert rep.solvable == (0, 1, 2)
    assert not rep.exactly_one


def test_nvar_non_integral_rhs():
    rep = nvar_classify((2, 4, 6))
    assert rep.instance.rhs_numerator == 15
    assert rep.instance.rhs is None
    assert rep.counts == (0, 0, 0)
    assert rep.solvable == ()
    assert not rep.exactly_one


def test_nvar_coprimality_flags():
    rep = nvar_classify((2, 3, 4))
    assert rep.instance.setwise_coprime
    assert not rep.instance.pairwise_coprime


def test_nvar_rejects_bad_input():
    with pytest.raises(DomainError):
        nvar_classify((5,))
    with pytest.raises(DomainError):
        nvar_classify((0, 3))


def test_nvar_cap():
    with pytest.raises(ResourceLimitError):
        nvar_classify((101, 103), cap=100)


def test_nvar_two_variable_consistency():
    """On coprime pairs the counts reproduce the exact solver's verdict."""
    for a in range(1, 101):
        for b in range(1, 101):
            if math.gcd(a, b) != 1:
                continue
            rep = nvar_classify((a, b))
            g = gamma(a, b)
            assert rep.exactly_one, (a, b)
            assert rep.counts[g] == 1, (a, b)
            assert rep.counts[1 - g] == 0, (a, b)


def test_nvar_matches_nested_enumeration():
    rng = random.Random(20240817)
    done = 0
    while done < 25:
        n = rng.choice((2, 3))
        coeffs = tuple(rng.randint(2, 40) for _ in range(n))
        if all(c % 2 == 0 for c in coeffs):
            continue
        rhs_num = math.prod(c - 1 for c in coeffs)
        if rhs_num % 2 or rhs_num // 2 > 10_000:
            continue
        rep = nvar_classify(coeffs)
        assert rep.counts == saturated_counts(coeffs, rhs_num // 2, n), coeffs
        done += 1


# every sorted tuple of one to four coins from 1..12: 1s, repeats, common factors
SMALL_COIN_TUPLES = [c for n in range(1, 5) for c in itertools.combinations_with_replacement(range(1, 13), n)]


def test_count_matches_the_coin_dp_for_every_small_tuple():
    for coins in SMALL_COIN_TUPLES:
        dp = _count_table(coins, 200)
        assert [explorer._count(coins, t) for t in range(201)] == list(dp), coins


def test_count_makes_a_bounded_number_of_calls(monkeypatch):
    # nvar_classify keeps each coin value at most twice; a third copy would
    # cost (11, 12, 12, 12) 66 witness calls at t = 121 for a count of 1.
    # Counting the recursive calls too catches a loop that tries every
    # multiple of the largest coin: it needs 66 at (11, 11, 12, 12), t = 109.
    witness = count_calls(monkeypatch, explorer, "_witness")
    counts = count_calls(monkeypatch, explorer, "_count")
    most_witness = most_counts = 0
    for coins in (c for c in SMALL_COIN_TUPLES if all(c.count(x) <= 2 for x in c)):
        for t in range(201):
            w, c = len(witness), len(counts)
            explorer._count(coins, t)
            most_witness = max(most_witness, len(witness) - w)
            most_counts = max(most_counts, len(counts) - c)
    assert (most_witness, most_counts) == (24, 30)


def test_wide_tuples_stay_within_the_proven_call_bound(monkeypatch):
    """nvar_classify makes at most n(m - 1) <= n(n - 1) _count calls when
    rhs - n + 1 >= 2c'c, c' <= c its two largest coefficients.

    Lemma.  Let d_1 <= ... <= d_M (M >= 2) be coins with gcd g, and let g
    divide t with g*t >= 2 d_{M-1} d_M.  Then _count(d, t) returns 2 after at
    most M - 1 calls, taking only the first multiple of the largest coin at
    every level.

    Proof, by induction on M.  Dividing by g leaves coprime coins e_j and
    s = t/g >= 2 e_{M-1} e_M.  If e_1 = 1, s >= e_2 returns 2 at once.  If
    M = 2, the least-x witness (x, y) has x < e_2, so e_2 y = s - e_1 x >
    e_1 e_2, y > e_1 and y // e_1 + 1 >= 2.  If M >= 3, let h be the gcd of
    e_1..e_{M-1}; it is prime to e_M, so the first multiple k0 < h exists, and
    it leaves u = s - k0 e_M, which h divides.  For h = 1, k0 = 0 and
    u = s >= 2 e_{M-2} e_{M-1}.  For h >= 2, h <= e_{M-1} gives
    u >= s - (h - 1) e_M >= (e_{M-1} + 1) e_M, so h u >= 2 e_{M-1} e_M >=
    2 e_{M-2} e_{M-1}.  Either way the rest of the coins, with gcd h, meet the
    lemma with M - 1 coins: their call returns 2 after at most M - 2 calls,
    and the loop stops at its first multiple.

    The largest two of nvar_classify's m coins are c' and c, and each
    equation asks t = rhs - i with i < n.  A t the gcd does not divide costs
    one call; any other has t >= rhs - n + 1 >= 2c'c and costs at most m - 1.
    The hypothesis holds when c' >= 3 and the other coefficients' (a_j - 1)
    multiply to P >= 9 + n/2: (a - 1)/a >= 2/3 gives rhs >= (2/9) P c'c >=
    2c'c + n c'c/9, and c'c >= 9.  Random wide tuples meet it, and some reach
    the bound: every coefficient distinct (m = n), every level a first
    multiple.
    """
    rng = random.Random(16)
    calls = count_calls(monkeypatch, explorer, "_count")
    most = {}
    while len(most) < 14 or sum(map(len, most.values())) < 14 * 150:
        n = rng.randint(3, 16)
        coeffs = [rng.randint(2, 10 ** rng.randint(1, 30)) for _ in range(n)]
        if rng.random() < 0.3:  # a common factor in some of them
            f = rng.randint(2, 1000)
            coeffs = [f * c if j < n // 2 else c for j, c in enumerate(coeffs)]
        rhs_num = math.prod(c - 1 for c in coeffs)
        if rhs_num % 2:
            continue
        done = len(calls)
        with deadline(1):
            nvar_classify(coeffs)
        *_, c1, c2 = sorted(coeffs)
        if rhs_num // 2 - n + 1 >= 2 * c1 * c2:  # the hypothesis; a few n = 3 tuples with a tiny coefficient miss it
            most.setdefault(n, []).append(len(calls) - done)
    assert {n: max(seen) for n, seen in most.items()} == {n: n * (n - 1) for n in range(3, 17)}


def test_a_count_past_its_call_budget_exits_4(monkeypatch, capsys):
    # (3, 4, 4) misses the bound's hypothesis (rhs = 9 < 2*4*4); its count of
    # rhs takes 4 calls, two past the chain of m - 1 = 2
    monkeypatch.setattr(explorer, "COUNT_SPARE", 2)
    assert nvar_classify((3, 4, 4)).counts == (1, 2, 2)
    monkeypatch.setattr(explorer, "COUNT_SPARE", 1)
    with pytest.raises(ResourceLimitError, match="call budget"):
        nvar_classify((3, 4, 4))
    assert main(["nvar", "3", "4", "4"]) == 4
    assert capsys.readouterr().err == "resource cap: an n-variable count ran past its call budget\n"
    # with no spare calls, a tuple that meets the hypothesis still answers
    monkeypatch.setattr(explorer, "COUNT_SPARE", 0)
    assert nvar_classify((211, 223, 227)).counts == (2, 2, 2)


def test_nvar_counts_large_instances_without_a_table():
    # the coin DP oracle takes about 2 s on this triple, whose rhs is about 5.3e6
    with deadline(1):
        assert nvar_classify((211, 223, 227), cap=10**7).counts == (2, 2, 2)
    # many coefficients: the pairwise flag is one lcm, and repeats past two are dropped before counting
    for coeffs, pairwise in (((1,) * 20000, True), ((2,) * 5000 + (3, 5, 7, 11, 13), False)):
        want = oracle_nvar_counts(coeffs)
        with deadline(1):
            rep = nvar_classify(coeffs)
        assert rep.counts == want
        assert rep.instance.pairwise_coprime == pairwise


def test_exactly_one_does_not_extend_to_three_or_four_variables():
    """The paper's pair result: exactly one of the two equations is solvable.
    For n = 3 and 4 no pairwise-coprime tuple has exactly one solvable equation:
    all count (2, ..., 2) but (2, 3, 5) and (2, 3, 7)."""
    for n, top, size, odd in ((3, 60, 9245, {(2, 3, 5): (1, 1, 1), (2, 3, 7): (2, 1, 1)}), (4, 20, 461, {})):
        seen = {}
        for coeffs in itertools.combinations(range(2, top + 1), n):
            if math.lcm(*coeffs) == math.prod(coeffs) and math.prod(c - 1 for c in coeffs) % 2 == 0:
                seen[coeffs] = nvar_classify(coeffs)
        assert len(seen) == size
        assert {c: rep.counts for c, rep in seen.items() if rep.counts != (2,) * n} == odd
        assert not any(rep.exactly_one for rep in seen.values())


# ---------------- shifted right-hand sides ----------------


def test_rs_trivial_shift_matches_gamma():
    for a in range(1, 26):
        for b in range(1, 26):
            if math.gcd(a, b) != 1:
                continue
            rec = rs_solve(a, b, 1, 1)
            assert rec.exactly_one, (a, b)
            assert rec.solvable_i0 == (gamma(a, b) == 0), (a, b)


def test_rs_shifted_example():
    rec = rs_solve(5, 7, 3, 3)
    assert rec.rhs == 4
    assert rec.integral
    assert not rec.solvable_i0 and not rec.solvable_i1
    assert not rec.exactly_one


def test_rs_non_integral_product():
    rec = rs_solve(4, 7, 1, 2)
    assert rec.rhs is None
    assert not rec.integral
    assert not rec.solvable_i0 and not rec.solvable_i1


def test_rs_negative_rhs_is_unsolvable_not_error():
    rec = rs_solve(3, 5, 5, 1)
    assert rec.rhs == -4
    assert rec.integral
    assert not rec.solvable_i0 and not rec.solvable_i1


def test_rs_rejects_common_factor():
    with pytest.raises(DomainError):
        rs_solve(6, 9, 1, 1)


def test_rs_counts_match_enumeration():
    for a in range(1, 16):
        for b in range(1, 16):
            if math.gcd(a, b) != 1:
                continue
            for r, s in ((1, 1), (2, 0), (0, 2), (3, 3), (1, 2)):
                rec = rs_solve(a, b, r, s)
                num = (a - r) * (b - s)
                if num % 2 or num < 0:
                    assert not rec.solvable_i0 and not rec.solvable_i1
                    continue
                counts = saturated_counts((a, b), num // 2, 2)
                assert rec.solvable_i0 == (counts[0] > 0), (a, b, r, s)
                assert rec.solvable_i1 == (counts[1] > 0), (a, b, r, s)
                assert rec.exactly_one == ((counts[0] > 0) != (counts[1] > 0))


def test_rs_matches_coin_dp_for_every_small_shift():
    shifts = range(-3, 8)
    for a in range(1, 61):
        for b in range(1, 61):
            if math.gcd(a, b) != 1:
                continue
            dp = _count_table((a, b), max((a - r) * (b - s) for r in shifts for s in shifts) // 2)
            for r in shifts:
                for s in shifts:
                    rec = rs_solve(a, b, r, s)
                    num = (a - r) * (b - s)
                    assert rec.integral == (num % 2 == 0)
                    rhs = num // 2
                    s0 = rec.integral and rhs >= 0 and dp[rhs] > 0
                    s1 = rec.integral and rhs >= 1 and dp[rhs - 1] > 0
                    assert (rec.solvable_i0, rec.solvable_i1) == (s0, s1), (a, b, r, s)
                    assert rec.exactly_one == (s0 != s1)


# ---------------- densities ----------------


def test_beiter_density_tiny():
    # pairs (1,1), (1,2), (2,1)
    assert beiter_density(1, 1, 2) == Fraction(1)


def test_beiter_density_classic_is_one():
    assert beiter_density(1, 1, 40) == Fraction(1)


def test_beiter_density_swap_symmetry():
    for r, s in ((2, 0), (1, 3), (0, 2)):
        assert beiter_density(r, s, 30) == beiter_density(s, r, 30)


# ---------------- scan plumbing ----------------


def test_scan_shard_covers_coprime_column():
    shards = dict(iter_scan(1, 1, 6))
    assert list(shards) == [1, 2, 3, 4, 5, 6]
    assert [row[:2] for row in shards[3]] == [(3, 1), (3, 2), (3, 4), (3, 5)]


def _fields(row):
    # a scan row's fields as the csv module and json read them back
    return {key: None if v is None else str(int(v)) for key, v in zip(SCAN_CSV_HEADER, row)}


def _csv_fields(text):
    return [{key: cell or None for key, cell in row.items()} for row in csv.DictReader(io.StringIO(text))]


def _jsonl_fields(text):
    return [{key: None if v is None else str(int(v)) for key, v in json.loads(line).items()}
            for line in text.splitlines()]


def _cli_lines(rows, fmt):
    # the CLI's own rule for a scan row: the oracle the file templates must match
    if fmt == "jsonl":
        return "".join(json.dumps(oracle_json_value(dict(zip(SCAN_CSV_HEADER, row)))) + "\n" for row in rows)
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(map(_csv_cell, row) for row in rows)
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_scan_templates_match_the_cli_rule_and_round_trip(fmt):
    assert SCAN_CSV_HEADER == ScanRecord._fields
    header = ",".join(SCAN_CSV_HEADER) + "\n"
    seen = set()
    for r, s in itertools.product(range(4), repeat=2):
        for shard_id, rows in iter_scan(r, s, 30):
            got = explorer._shard_bytes(shard_id, rows, fmt).decode()
            assert got.startswith(header) == (fmt == "csv" and shard_id == 1)
            body = got.removeprefix(header)
            assert body == _cli_lines(rows, fmt), (r, s, shard_id)
            back = _csv_fields(header + body) if fmt == "csv" else _jsonl_fields(body)
            assert back == [_fields(row) for row in rows]
            seen.update((key, v) for row in rows for key, v in zip(SCAN_CSV_HEADER, row)
                        if v is None or isinstance(v, bool))
            seen.update(("rhs", "negative") for row in rows if row[4] is not None and row[4] < 0)
    # the scans hold rhs = None, a negative rhs and both values of every bool
    assert seen == {("rhs", None), ("rhs", "negative")} | {
        (key, v) for key in SCAN_CSV_HEADER[5:] for v in (False, True)
    }


def test_run_scan_all_formats_and_summary(tmp_path):
    out_csv = tmp_path / "scan.csv"
    summary = run_scan(2, 0, 14, out_csv)
    assert summary["x_max"] == 14
    assert Fraction(summary["exactly_one"], summary["pairs"]) == beiter_density(2, 0, 14)
    assert summary["metadata"] == SCAN_METADATA
    lines = out_csv.read_text().splitlines()
    assert lines[0] == ",".join(SCAN_CSV_HEADER)
    assert len(lines) == summary["pairs"] + 1
    assert (tmp_path / "scan.csv.checkpoint").read_text() == "14\n"

    out_jsonl = tmp_path / "scan.jsonl"
    run_scan(2, 0, 14, out_jsonl, fmt="jsonl")
    csv_recs = _csv_fields(out_csv.read_text())
    assert _jsonl_fields(out_jsonl.read_text()) == csv_recs
    want = [_fields(row) for _, shard in iter_scan(2, 0, 14) for row in shard]
    assert csv_recs == want
    assert sum(rec["exactly_one"] == "1" for rec in csv_recs) == summary["exactly_one"]


def test_run_scan_shard_boundaries_do_not_matter(tmp_path):
    solo = tmp_path / "solo.csv"
    pooled = tmp_path / "pooled.csv"
    s1 = run_scan(1, 3, 20, solo, jobs=1)
    s2 = run_scan(1, 3, 20, pooled, jobs=3)
    assert solo.read_bytes() == pooled.read_bytes()
    assert s1 == s2


def test_run_scan_resume_from_checkpoint(tmp_path):
    full = tmp_path / "full.csv"
    expect = run_scan(2, 0, 12, full)

    prefix = tmp_path / "partial.csv"
    kept = [line for line in full.read_text().splitlines(keepends=True)
            if line.startswith(tuple(f"{a}," for a in range(1, 8))) or line.startswith("a,")]
    prefix.write_text("".join(kept))
    (tmp_path / "partial.csv.checkpoint").write_text("7\n")

    resumed = run_scan(2, 0, 12, prefix, resume=True)
    assert prefix.read_bytes() == full.read_bytes()
    assert resumed["pairs"] == expect["pairs"]
    assert resumed["exactly_one"] == expect["exactly_one"]
    assert Fraction(resumed["exactly_one"], resumed["pairs"]) == Fraction(expect["exactly_one"], expect["pairs"])


def test_run_scan_resume_on_complete_file_is_stable(tmp_path):
    out = tmp_path / "done.csv"
    first = run_scan(1, 1, 10, out)
    before = out.read_bytes()
    second = run_scan(1, 1, 10, out, resume=True)
    assert out.read_bytes() == before
    assert Fraction(first["exactly_one"], first["pairs"]) == Fraction(second["exactly_one"], second["pairs"]) == 1


@pytest.mark.parametrize(
    "written, resumed, corrupt",
    [
        ("csv", "csv", lambda out, ckpt: ckpt.write_text("garbage\n")),
        ("csv", "csv", lambda out, ckpt: ckpt.write_text("-3\n")),
        ("jsonl", "jsonl", lambda out, ckpt: ckpt.write_text("+4\n")),
        ("csv", "csv", lambda out, ckpt: out.write_bytes(out.read_bytes() + b"1,2\n")),
        ("csv", "csv", lambda out, ckpt: out.write_bytes(out.read_bytes().replace(b",1,1,", b",x,1,", 1))),
        ("jsonl", "jsonl", lambda out, ckpt: out.write_bytes(out.read_bytes() + b'{"a": "1"}\n')),
        ("jsonl", "jsonl", lambda out, ckpt: out.write_bytes(out.read_bytes() + b"[1, 2]\n")),
        ("csv", "jsonl", lambda out, ckpt: None),
        ("jsonl", "csv", lambda out, ckpt: None),
    ],
    ids=["word-checkpoint", "negative-checkpoint", "signed-checkpoint", "short-row", "non-integer-cell",
         "missing-key", "non-object", "csv-as-jsonl", "jsonl-as-csv"],
)
def test_run_scan_resume_refuses_a_bad_checkpoint_or_record(tmp_path, written, resumed, corrupt):
    out = tmp_path / "scan.out"
    ckpt = tmp_path / "scan.out.checkpoint"
    run_scan(1, 1, 6, out, written)
    ckpt.write_text("4\n")
    corrupt(out, ckpt)
    before = out.read_bytes(), ckpt.read_bytes()
    with pytest.raises(DomainError):
        run_scan(1, 1, 9, out, resumed, resume=True)
    assert (out.read_bytes(), ckpt.read_bytes()) == before


@pytest.mark.parametrize(
    "r, s, x_max, fmt",
    [(2, 3, 20, "csv"), (2, 1, 12, "csv"), (1, 0, 12, "csv"), (1, 1, 13, "csv"), (1, 1, 8, "csv"),
     (1, 1, 12, "jsonl")],
    ids=["other-r-s-x_max", "other-r", "other-s", "larger-x_max", "smaller-x_max", "other-format"],
)
def test_run_scan_resume_refuses_other_parameters(tmp_path, r, s, x_max, fmt):
    # regression: resuming a (1, 1, 12) scan as (2, 3, 20) appended 102 (2, 3)
    # records to its 91 (1, 1) records and printed density=127/193
    out = tmp_path / "m.out"
    ckpt = tmp_path / "m.out.checkpoint"
    run_scan(1, 1, 12, out)
    before = out.read_bytes(), ckpt.read_bytes()
    with pytest.raises(DomainError, match="does not hold shards 1..[0-9]+ of this"):
        run_scan(r, s, x_max, out, fmt, resume=True)
    assert (out.read_bytes(), ckpt.read_bytes()) == before


def test_run_scan_resume_after_a_crash_before_the_checkpoint(tmp_path):
    # regression: shard 12 flushed but the checkpoint still at 11 wrote shard 12 twice (95 records)
    out = tmp_path / "scan.csv"
    want = run_scan(1, 1, 12, out)
    data = out.read_bytes()
    (tmp_path / "scan.csv.checkpoint").write_text("11\n")
    got = run_scan(1, 1, 12, out, resume=True)
    assert out.read_bytes() == data
    assert got == want and got["pairs"] == 91
    assert (tmp_path / "scan.csv.checkpoint").read_text() == "12\n"


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("tail", ["two-lines", "half-a-line"])
def test_run_scan_resume_after_a_crash_mid_shard(tmp_path, fmt, tail):
    # regression: checkpoint 7 plus two whole shard-8 lines resumed to 93 pairs,
    # and checkpoint 7 plus half a line exited 2 on every later resume
    fresh = tmp_path / "fresh.out"
    want = run_scan(1, 1, 12, fresh, fmt)
    data = fresh.read_bytes()
    cut = shard_end(data, fmt, 7)
    lines = data[cut:].splitlines(keepends=True)
    extra = lines[0] + lines[1] if tail == "two-lines" else lines[0][: len(lines[0]) // 2]
    out = tmp_path / "scan.out"
    out.write_bytes(data[:cut] + extra)
    (tmp_path / "scan.out.checkpoint").write_text("7\n")
    for _ in range(2):
        assert run_scan(1, 1, 12, out, fmt, resume=True) == want
        assert out.read_bytes() == data


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_run_scan_killed_mid_shard_keeps_the_checkpoint_at_the_last_whole_shard(tmp_path, monkeypatch, fmt):
    fresh = tmp_path / "fresh.out"
    want = run_scan(1, 1, 12, fresh, fmt)
    data = fresh.read_bytes()
    real = explorer._rs_row
    out, ckpt = tmp_path / "scan.out", tmp_path / "scan.out.checkpoint"
    at_death = []

    def dies_in_shard_8(a, *args):
        if a == 8:
            # what a kill here would leave: no close or exit handler runs after it
            at_death.append((out.read_bytes(), ckpt.read_bytes()))
            raise RuntimeError("killed")
        return real(a, *args)

    monkeypatch.setattr(explorer, "_rs_row", dies_in_shard_8)
    with pytest.raises(RuntimeError):
        run_scan(1, 1, 12, out, fmt)
    monkeypatch.undo()
    assert at_death == [(data[: shard_end(data, fmt, 7)], b"7\n")]
    assert (out.read_bytes(), ckpt.read_bytes()) == at_death[0]
    assert run_scan(1, 1, 12, out, fmt, resume=True) == want
    assert out.read_bytes() == data


def test_run_scan_resume_from_a_padded_checkpoint_leaves_one_whole_id(tmp_path):
    # ids are rewritten in place: the first write must drop the longer "0007\n"
    out = tmp_path / "scan.csv"
    want = run_scan(1, 1, 12, out)
    ckpt = tmp_path / "scan.csv.checkpoint"
    ckpt.write_text("0007\n")
    assert run_scan(1, 1, 12, out, resume=True) == want
    assert ckpt.read_bytes() == b"12\n"


def test_run_scan_resume_cuts_bytes_past_the_last_checkpointed_shard(tmp_path):
    # rewriting the shards after the checkpoint covers a crash's partial shard;
    # bytes past a finished scan are only removed by the cut
    out = tmp_path / "scan.jsonl"
    want = run_scan(1, 1, 12, out, "jsonl")
    data = out.read_bytes()
    out.write_bytes(data + data[-40:])
    assert run_scan(1, 1, 12, out, "jsonl", resume=True) == want
    assert out.read_bytes() == data


def test_iter_scan_matches_shards_and_checks_before_yielding():
    assert list(iter_scan(2, 0, 6)) == [(a, [tuple(vars(rs_solve(a, b, 2, 0)).values())
                                             for b in range(1, 7) if math.gcd(a, b) == 1])
                                        for a in range(1, 7)]
    # raised by the call itself, so a caller can validate before it opens anything
    with pytest.raises(DomainError):
        iter_scan(1, 1, 0)


def test_scan_rows_are_rs_solve_records_as_tuples():
    shifts = range(-3, 8)
    for r, s in itertools.product(shifts, repeat=2):
        for a, rows in iter_scan(r, s, 40):
            assert rows == [tuple(vars(rs_solve(a, b, r, s)).values()) for b in range(1, 41) if math.gcd(a, b) == 1]


def test_scans_build_no_scan_record(tmp_path, monkeypatch, capsys):
    built = []
    real = ScanRecord.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ScanRecord, "__init__", counted)
    assert rs_solve(3, 5, 1, 1).exactly_one and len(built) == 1  # the counter sees a construction
    built.clear()
    for fmt in ("csv", "jsonl"):
        run_scan(1, 3, 20, tmp_path / f"scan.{fmt}", fmt)
        run_scan(1, 3, 20, tmp_path / f"scan.{fmt}", fmt, resume=True)
    for fmt in ("text", "csv", "json"):
        assert main(["beiter-scan", "--r", "1", "--s", "3", "--xmax", "20", "--format", fmt]) == 0
    assert main(["beiter-scan", "--xmax", "20", "--format", "json", "--out", str(tmp_path / "cli.jsonl")]) == 0
    assert '"records": [' in capsys.readouterr().out
    assert beiter_density(2, 0, 20) == beiter_density(0, 2, 20)
    assert built == []
