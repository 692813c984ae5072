import contextlib
import csv
import importlib
import io
import json
import pathlib
import random
import re
import shlex
import sys
import tracemalloc
from fractions import Fraction

import pytest

from conftest import count_calls, deadline, oracle_powrec_residues, shard_end
from splitgamma import (
    BruteForceReport,
    SplitSolution,
    beiter_density,
    build_density_sequence,
    fibonacci_period_table,
    gamma,
    gamma_row,
    state_period_mod,
)
from splitgamma import sequences
from splitgamma.cli import build_parser, main
from splitgamma.sequences import FibonacciPower, parse_spec


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------- happy paths ----------------


def test_gamma_command(capsys):
    code, out, _ = run(capsys, "gamma", "7", "14")
    assert code == 0
    assert out == "0\n"
    code, out, _ = run(capsys, "gamma", "3", "5")
    assert code == 0
    assert out == "1\n"


def test_solve_text(capsys):
    code, out, _ = run(capsys, "solve", "8", "13")
    assert code == 0
    assert out == "delta=0 x=2 y=2\n"


def test_solve_oracle_ok(capsys):
    code, out, _ = run(capsys, "solve", "8", "13", "--oracle")
    assert code == 0
    assert out == "delta=0 x=2 y=2 oracle=ok\n"


def test_solve_oracle_mismatch_exits_3(capsys, monkeypatch):
    bogus = BruteForceReport(solutions=(SplitSolution(0, 99, 99),), counts=(1, 0))
    monkeypatch.setattr("splitgamma.cli.brute_force_split", lambda a, b: bogus)
    code, _, err = run(capsys, "solve", "8", "13", "--oracle")
    assert code == 3
    assert "oracle" in err


def test_solve_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "solve", "8", "13", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == "8" and doc["b"] == "13"
    assert (doc["delta"], doc["x"], doc["y"]) == ("0", "2", "2")
    assert doc["oracle_checked"] is False
    for value in doc.values():
        # numbers ride as decimal strings; bools are the only non-string values
        assert isinstance(value, (str, bool))


def test_solve_csv(capsys):
    code, out, _ = run(capsys, "solve", "8", "13", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows == [["a", "b", "delta", "x", "y"], ["8", "13", "0", "2", "2"]]


def test_row_matches_library(capsys):
    code, out, _ = run(capsys, "row", "--k", "3", "--seq", "fib", "--start", "1",
                       "--count", "12", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "bit"]
    want = gamma_row(3, FibonacciPower(1), 1, 12)
    assert [int(r[1]) for r in rows[1:]] == list(want)
    assert [int(r[0]) for r in rows[1:]] == list(range(1, 13))


def test_row_text_line_memory():
    class Sink:  # counts the ones in stdout instead of keeping a copy, so only the command's memory is traced
        ones = 0

        def write(self, chunk):
            self.ones += chunk.count("1")
            return len(chunk)

        def flush(self):
            pass

    count = 200_000
    sink = Sink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(["row", "--k", "7", "--seq", "fib", "--count", str(count)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.ones == sum(gamma_row(7, FibonacciPower(1), 1, count))
    # the bits hold 1 byte a bit and the line 2; a str object per bit costs some 60 more
    assert peak < 20 * count, peak / count


def test_period_text(capsys):
    code, out, _ = run(capsys, "period", "--k", "2", "--seq", "fib")
    assert code == 0
    assert "period=6" in out
    assert "preperiod=0" in out
    assert "certified=yes" in out


def test_pisano_json(capsys):
    code, out, _ = run(capsys, "pisano", "10", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"command": "pisano", "m": "10", "pisano": "60"}


def test_table1_csv(capsys):
    code, out, _ = run(capsys, "table1", "--kmax", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["k", "t_k", "pi_2k"]
    got = [(int(a), int(b), int(c)) for a, b, c in rows[1:]]
    assert got == fibonacci_period_table(10)


def test_density_matches_library(capsys):
    code, out, _ = run(capsys, "density", "--p", "1/2", "--n", "8", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    trace = build_density_sequence("1/2", 8)
    assert len(rows) == 1 + 9  # header, then n = 0 .. n_max
    assert rows[1][2:] == ["", "", ""]  # the seed row has no bit or ratio
    for n, row in enumerate(rows[1:]):
        assert row[:2] == [str(n), str(trace.terms[n])]
        if n:
            ratio = trace.ratios[n - 1]
            assert row[2:] == [str(trace.bits[n - 1]), str(ratio.numerator), str(ratio.denominator)]


def test_density_json_uses_decimal_strings(capsys):
    code, out, _ = run(capsys, "density", "--p", "1/3", "--n", "12", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    trace = build_density_sequence(Fraction(1, 3), 12)
    assert doc["p_num"] == "1" and doc["p_den"] == "3"
    assert doc["terms"] == [str(t) for t in trace.terms]
    assert doc["bits"] == [str(b) for b in trace.bits]
    assert doc["ratios"] == [{"num": str(r.numerator), "den": str(r.denominator)} for r in trace.ratios]
    assert doc["crossings"] == [str(n) for n in trace.crossings]
    assert doc["command"] == "density" and doc["growth_bounds_ok"] is True


def test_verify_families(capsys):
    code, out, _ = run(capsys, "verify", "--family", "fib", "--range", "6:12")
    assert code == 0
    assert "ok n=6" in out and "checked=3 failed=0" in out
    for family in ("fib2", "fib3", "fiblike", "mod6-4"):
        code, out, _ = run(capsys, "verify", "--family", family)
        assert code == 0, family
        assert "failed=0" in out, family


def test_verify_mod6_4_walks_its_pairs_by_additions(monkeypatch):
    from splitgamma import identities
    from splitgamma.identities import _MOD6_4_FIBS, _mod6_4_ok
    # the constants are (n, F_{n-2}, F_{n-1}) at the four indices n = 4 mod 6
    assert _MOD6_4_FIBS == tuple((n, *sequences.fib_pair(n - 2)) for n in (4, 10, 16, 22))
    inverses = count_calls(monkeypatch, identities, "oddr")
    doublings = count_calls(monkeypatch, sequences, "_linear_pair")
    assert _mod6_4_ok(3, 5)
    assert (len(inverses), len(doublings)) == (1, 0)  # t is walked by additions, the F's are constants
    items = list(identities._verify_items("mod6-4", 20, 79))
    assert len(items) == 2182 and all(ok for _, ok in items)
    assert (len(inverses), len(doublings)) == (1 + 2182, 0)
    seen = []  # a mismatch at n = 4 ends the check

    def wrong(u, v, fibs):
        for n, _, _ in fibs:
            seen.append(n)
            yield None

    monkeypatch.setattr(identities, "_mod6_4_witnesses", wrong)
    splits = count_calls(monkeypatch, identities, "_split")
    assert not _mod6_4_ok(3, 5) and seen == [4] and len(splits) == 1


# one valid argv per command; beiter-scan writes its file into the working directory
HANDLER_ARGVS = {
    "gamma": ["7", "14"],
    "solve": ["8", "13", "--oracle"],
    "row": ["--k", "5", "--seq", "fib", "--count", "20"],
    "period": ["--k", "5", "--seq", "fib"],
    "pisano": ["10"],
    "table1": ["--kmax", "3"],
    "density": ["--p", "1/2", "--n", "10"],
    "verify": ["--family", "mod6-4", "--range", "1:3"],
    "nvar": ["3", "5", "7"],
    "rs": ["--a", "7", "--b", "10"],
    "beiter-scan": ["--xmax", "5", "--out", "scan.csv"],
}


def test_handlers_return_their_result_and_print_nothing(capsys, tmp_path, monkeypatch):
    from splitgamma.cli import _COMMANDS, _handler
    assert HANDLER_ARGVS.keys() == _COMMANDS.keys()
    monkeypatch.chdir(tmp_path)
    for name, argv in HANDLER_ARGVS.items():
        for fmt in ("text", "csv", "json"):
            args = build_parser().parse_args([name, *argv, "--format", fmt])
            result = _handler(args.command)(args)
            assert capsys.readouterr() == ("", ""), (name, fmt)
            assert isinstance(result, tuple) and 2 <= len(result) <= 4, (name, fmt)
            assert isinstance(result[0], dict) and result[0]["command"] == name, (name, fmt)
    assert (tmp_path / "scan.csv").exists()  # written by run_scan, not printed


# argvs the parser refuses, or answers with help, at least one per command: a missing, non-int or extra argument,
# an unknown flag, a bad --format; and the argvs that never name a command
BAD_ARGVS = [
    ["gamma", "7"],
    ["gamma", "7", "x"],
    ["gamma", "7", "14", "15"],
    ["solve", "7", "10", "--bogus"],
    ["solve", "7", "10", "--format", "xml"],
    ["row", "--k", "3", "--seq", "fib"],
    ["row", "--k", "x", "--seq", "fib", "--count", "3"],
    ["row", "-h"],
    ["period", "--seq", "fib"],
    ["period", "--k", "3", "--seq", "fib", "extra"],
    ["pisano"],
    ["pisano", "ten"],
    ["table1", "--kmax"],
    ["table1", "--bogus"],
    ["density", "--p", "1/2"],
    ["density", "--p", "1/2", "--n", "ten", "--format", "json"],
    ["verify"],
    ["verify", "--family", "lucas"],
    ["nvar"],
    ["nvar", "3", "x"],
    ["rs", "--a", "7"],
    ["rs", "--a", "7", "--b", "10", "--format", "yaml"],
    ["beiter-scan"],
    ["beiter-scan", "--xmax", "5", "--jobs", "two"],
    ["beiter-scan", "--xmax", "5", "extra", "--help"],
    ["bogus", "7"],
    ["--format", "json"],
    [],
]


@pytest.mark.parametrize("argv", BAD_ARGVS, ids=" ".join)
def test_the_one_command_parser_refuses_as_the_full_parser_does(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = (exc.value.code, *capsys.readouterr())
    assert full[0] in (0, 1)
    assert run(capsys, *argv) == full


def test_a_command_argv_builds_only_its_own_subparser(capsys):
    def choices(parser):
        (sub,) = [a for a in parser._actions if a.dest == "command"]
        return list(sub.choices)

    assert choices(build_parser(["row", "--k", "3"])) == ["row"]
    assert choices(build_parser(["bogus"])) == choices(build_parser([])) == choices(build_parser()) == list(HANDLER_ARGVS)
    code, out, err = run(capsys, "--help")
    assert (code, out, err) == (0, build_parser().format_help(), "")


def test_verify_exits_3_when_an_item_fails(capsys, monkeypatch):
    # main picks the exit code from the payload's failed count
    def wrong(u, v, fibs):
        yield None

    monkeypatch.setattr("splitgamma.identities._mod6_4_witnesses", wrong)
    code, out, err = run(capsys, "verify", "--family", "mod6-4", "--range", "1:3")
    assert (code, err) == (3, "")
    assert out.endswith("checked=7 failed=7\n") and out.startswith("FAIL u=1,v=1\n")


def test_nvar_text(capsys):
    code, out, _ = run(capsys, "nvar", "3", "5", "7")
    assert code == 0
    assert "rhs=24" in out and "exactly_one=no" in out


def test_rs_json(capsys):
    code, out, _ = run(capsys, "rs", "--a", "5", "--b", "7", "--r", "3", "--s", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["rhs"] == "4"
    assert doc["integral"] is True
    assert doc["exactly_one"] is False


def test_beiter_scan_end_to_end(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    code, out, _ = run(capsys, "beiter-scan", "--r", "1", "--s", "1", "--xmax", "10",
                       "--out", str(out_file))
    assert code == 0
    assert "density=1/1" in out
    first = out_file.read_bytes()
    assert first.startswith(b"a,b,r,s,rhs,")
    assert beiter_density(1, 1, 10) == 1

    code, out2, _ = run(capsys, "beiter-scan", "--r", "1", "--s", "1", "--xmax", "10",
                        "--out", str(out_file), "--resume")
    assert code == 0
    assert out_file.read_bytes() == first


# ---------------- determinism ----------------


def test_byte_identical_reruns(capsys):
    seen = {}
    for argv in (("table1", "--kmax", "6", "--format", "json"),
                 ("density", "--p", "2/3", "--n", "20", "--format", "json"),
                 ("row", "--k", "4", "--seq", "nat", "--start", "1", "--count", "30",
                  "--format", "csv")):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        seen[argv] = out
    for argv, before in seen.items():
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == before


# ---------------- exit codes ----------------


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "nope")[0] == 1
    assert run(capsys, "solve", "8")[0] == 1
    assert run(capsys, "verify", "--family", "wat")[0] == 1


def test_domain_error_exit_2(capsys):
    code, out, err = run(capsys, "gamma", "0", "5")
    assert code == 2
    assert out == ""
    assert "domain error" in err


def test_resume_from_a_garbled_checkpoint_or_the_other_format_exits_2(capsys, tmp_path):
    out_file = tmp_path / "scan.out"
    ckpt = tmp_path / "scan.out.checkpoint"
    assert run(capsys, "beiter-scan", "--xmax", "5", "--out", str(out_file))[0] == 0
    before = out_file.read_bytes()
    for text, fmt in (("garbage", "csv"), ("-1", "csv"), ("3", "json")):
        ckpt.write_text(text + "\n")
        code, out, err = run(capsys, "beiter-scan", "--xmax", "9", "--out", str(out_file), "--format", fmt, "--resume")
        assert (code, out) == (2, ""), (text, fmt)
        assert err.startswith("domain error: ") and "Traceback" not in err
        assert out_file.read_bytes() == before


def test_resume_with_other_parameters_exits_2_and_changes_nothing(capsys, tmp_path):
    # regression: this resume exited 0 with 91 (1, 1) and 102 (2, 3) rows, density=127/193
    out_file = tmp_path / "m.csv"
    ckpt = tmp_path / "m.csv.checkpoint"
    assert run(capsys, "beiter-scan", "--xmax", "12", "--out", str(out_file))[0] == 0
    before = out_file.read_bytes(), ckpt.read_bytes()
    for extra in (("--xmax", "20", "--r", "2", "--s", "3"), ("--xmax", "12", "--format", "json")):
        code, out, err = run(capsys, "beiter-scan", *extra, "--out", str(out_file), "--resume")
        assert (code, out) == (2, ""), extra
        assert err.startswith("domain error: ") and "Traceback" not in err
        assert (out_file.read_bytes(), ckpt.read_bytes()) == before


def test_resume_with_a_checkpoint_past_a_truncated_file_exits_2(capsys, tmp_path):
    out_file = tmp_path / "scan.csv"
    ckpt = tmp_path / "scan.csv.checkpoint"
    assert run(capsys, "beiter-scan", "--xmax", "12", "--out", str(out_file))[0] == 0
    out_file.write_bytes(out_file.read_bytes()[: shard_end(out_file.read_bytes(), "csv", 9) - 3])
    before = out_file.read_bytes(), ckpt.read_bytes()
    code, out, err = run(capsys, "beiter-scan", "--xmax", "12", "--out", str(out_file), "--resume")
    assert (code, out) == (2, "")
    assert err.startswith("domain error: ")
    assert (out_file.read_bytes(), ckpt.read_bytes()) == before


def test_beiter_scan_to_an_unopenable_path_is_a_one_line_io_error(capsys, tmp_path):
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        code, out, err = run(capsys, "beiter-scan", "--xmax", "5", "--out", str(target))
        assert (code, out) == (1, ""), target
        assert err.startswith("i/o error: ") and err.count("\n") == 1 and "Traceback" not in err, target


def test_zero_exponent_reports_the_constructor_error(capsys):
    # the spec parses; the family refuses the exponent, and says why
    for spec, message in (("fib^0", "power must be >= 1, got 0"), ("n^0", "k must be >= 1, got 0")):
        assert run(capsys, "row", "--k", "3", "--seq", spec, "--count", "3") == (2, "", f"domain error: {message}\n")
    for spec in ("fib^x", "n^"):
        code, out, err = run(capsys, "row", "--k", "3", "--seq", spec, "--count", "3")
        assert (code, out, err) == (2, "", f"domain error: bad exponent in sequence spec: {spec!r}\n")


def test_wrong_arity_specs_exit_2(capsys):
    for spec in ("fib^1,2", "n^2,3", "fiblike:1,2,3", "geo:"):
        code, out, err = run(capsys, "row", "--k", "3", "--seq", spec, "--count", "3")
        assert (code, out) == (2, ""), spec
        assert err.startswith("domain error: ") and repr(spec) in err, spec


def test_repeated_powrec_field_exits_2(capsys):
    code, out, err = run(capsys, "row", "--k", "3", "--seq", "powrec:c=1;c=2;t=1;init=1", "--count", "2")
    assert (code, out) == (2, "")
    assert err == "domain error: powrec field 'c' given twice in 'powrec:c=1;c=2;t=1;init=1'\n"


def test_powrec_rows_at_huge_starts_answer_within_two_seconds(capsys):
    # a Lucas row (fib spelled as a powrec), a nonlinear and an order-3 recurrence:
    # each checked against the step-by-step walk at the index the cycle reduces it to
    for text in ("c=1,1;t=1,1;init=1,1", "c=1,1;t=2,1;init=1,1", "c=1,1,1;t=1,1,1;init=1,1,1"):
        spec = parse_spec("powrec:" + text)
        with deadline(2):
            code, out, err = run(capsys, "row", "--k", "7", "--seq", "powrec:" + text, "--start", str(10**30),
                                 "--count", "5")
        assert (code, err) == (0, ""), text
        want = [gamma(7, r or 14) for r in oracle_powrec_residues(spec, 10**30, 5, 14)]
        assert out == " ".join(map(str, want)) + "\n", text


def test_walks_that_cannot_jump_exit_4_within_a_second(capsys):
    # an exact-only powrec that stays at 1 forever: walking to 10**12 would never end
    with deadline(1):
        code, out, err = run(capsys, "row", "--k", "7", "--seq", "powrec:c=2,-1;t=1,1;init=1,1", "--start",
                             str(10**12), "--count", "5")
    assert (code, out) == (4, "")
    assert err.startswith("resource cap: ") and "past 2000000" in err


def test_verify_past_the_term_bit_cap_exits_4_within_two_seconds(capsys):
    # F_(10**12) has ~6.9e11 bits: the doubling refuses it instead of squaring for minutes
    # (fib^2 at n = 10**6 + 1 and fib^3 at m = 10**9 too: the powered terms are refused before Euclid runs)
    for family, r in (("fib", "1000000000000:1000000000000"), ("fib2", "1000001:1000001"),
                      ("fib3", "1000000000:1000000000")):
        with deadline(2):
            code, out, err = run(capsys, "verify", "--family", family, "--range", r)
        assert (code, out) == (4, ""), family
        assert err.startswith("resource cap: term at n=") and "exceeds 1000000 bits" in err, family


def test_exact_powrec_past_the_operand_bound_exits_4_within_a_second(capsys):
    # a negative coefficient makes this powrec exact-only: 3 ** 10**8 was built before the cap refused it
    with deadline(1):
        code, out, err = run(capsys, "row", "--k", "3", "--seq", "powrec:c=1,-1;t=100000000,1;init=1,3", "--count", "3")
    assert (code, out, err) == (4, "", "resource cap: term at n=3 exceeds 1000000 bits; use term_mod instead\n")


def test_powrec_with_nonpositive_term_exits_2(capsys):
    # a_3 = 1 - 2 * 1^2 = -1 in the first two; a_2 = 0 * 3^2 = 0 in the last.
    # Residues cannot show either, so rows and periods must not print bits.
    for spec in ("powrec:c=1,-2;t=1,2;init=1,1", "powrec:c=1,-2;t=1,1;init=1,1", "powrec:c=0;t=2;init=3"):
        for argv in (("row", "--count", "6"), ("period",)):
            code, out, err = run(capsys, *argv, "--k", "3", "--seq", spec)
            assert (code, out) == (2, ""), (spec, argv)
            assert "nonpositive term" in err


def test_inconclusive_exit_3(capsys):
    code, _, err = run(capsys, "period", "--k", "5", "--seq", "fib", "--window", "12")
    assert code == 3
    assert "inconclusive" in err


def test_resource_cap_exit_4(capsys):
    code, _, err = run(capsys, "nvar", "101", "103", "--cap", "100")
    assert code == 4
    assert "resource" in err
    # rhs 5.3e6 needs no cap by default, and an explicit --cap still bounds it
    code, out, _ = run(capsys, "nvar", "211", "223", "227")
    assert code == 0
    assert " counts=2,2,2 " in out
    code, _, err = run(capsys, "nvar", "211", "223", "227", "--cap", "1000000")
    assert code == 4
    assert "rhs 5268060 exceeds cap 1000000" in err


def test_nvar_with_a_thousand_coefficients_exits_4_within_a_second(capsys):
    # the count recurses one frame per coin: past the recursion limit it is a resource cap, not a traceback
    coeffs = random.Random(27).sample(range(2, 10**6), 1000)
    with deadline(1):
        code, out, err = run(capsys, "nvar", *map(str, coeffs))
    assert (code, out) == (4, "")
    assert err.startswith("resource cap: ") and err.count("\n") == 1


def test_density_past_its_step_bound_exits_4_within_a_second(capsys):
    # the chain holds about n^2/2 bits: 4e5 steps would need some 12 GB, so the step count is refused before the walk
    from splitgamma.density import DENSITY_MAX_STEPS
    assert DENSITY_MAX_STEPS == 2**15
    for n in (DENSITY_MAX_STEPS + 1, 4 * 10**5, 10**30):
        with deadline(1):
            code, out, err = run(capsys, "density", "--p", "1/2", "--n", str(n))
        assert (code, out) == (4, ""), n
        assert err == f"resource cap: {n} steps exceed {DENSITY_MAX_STEPS}: the chain holds about n^2/2 bits\n"


def test_factoring_past_the_trial_bound_exits_4_within_a_second(capsys):
    # a 30-digit prime modulus, and 2k with k an 18-digit prime: trial division
    # would need ~1e15 and ~1e9 steps, so each stops at the stated bound instead
    # (a fib row that long is tiled by its period, which needs 2k factored)
    for argv in (("pisano", str(10**29 + 319)), ("row", "--k", str(10**17 + 3), "--seq", "factpow", "--count", "1"),
                 ("row", "--k", str(10**17 + 3), "--seq", "fib", "--count", str(2 * 10**17 + 7))):
        with deadline(1.0):
            code, out, err = run(capsys, *argv)
        assert (code, out) == (4, ""), argv
        assert "trial divisors above 1000000" in err


def test_period_with_an_orbit_past_the_walk_bound_exits_4(capsys):
    # the Fibonacci residues mod 2 * 10**9 cycle after ~3e9 states; the
    # companion-matrix order finds that length without walking and refuses it
    # at once, with the message of the walk that stopped after ~4e6 states
    with deadline(1.0):
        code, out, err = run(capsys, "period", "--k", str(10**9), "--seq", "fib")
    assert (code, out) == (4, "")
    assert err == "resource cap: the residue orbit mod 2000000000 is longer than 2000000 states\n"
    # n term for term, from a recurrence with a negative coefficient: its exact terms are walked,
    # but its residue period is found without a walk and refused at once (Brent's walk took 5.3 s)
    with deadline(1.0):
        code, out, err = run(capsys, "period", "--k", "1000000007", "--seq", "powrec:c=2,-1;t=1,1;init=1,2")
    assert (code, out) == (4, "")
    assert err == "resource cap: the residue orbit mod 2000000014 is longer than 2000000 states\n"


def test_period_on_a_long_window_answers_within_half_a_second(capsys):
    # 20,000 factpow bits: the former window search took ~7.9 s end to end
    with deadline(0.5):
        code, out, err = run(capsys, "period", "--k", "30", "--seq", "factpow", "--window", "20000")
    assert (code, err) == (0, "")
    assert out == "period=1 preperiod=2 zeros=1 ones=0 certified=no verified_repeats=19998\n"


def test_period_with_a_window_past_the_walk_bound_answers_uncertified(capsys):
    # the Fibonacci orbit mod 4,000,000 is past the walk bound, so without a window period exits 4;
    # an explicit window's bits still hold a period, reported uncertified
    argv = ("period", "--k", "2000000", "--seq", "fib", "--window", "3000")
    with deadline(1):
        assert run(capsys, *argv) == (0, "period=1 preperiod=2997 zeros=1 ones=0 certified=no verified_repeats=3\n", "")
        code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "command": "period", "k": "2000000", "seq": "fib", "preperiod": "2997", "period": "1", "zeros": "1",
        "ones": "0", "certified": False, "verified_repeats": "3", "residue_preperiod": None, "residue_period": None,
    }
    with deadline(1):
        code, out, err = run(capsys, "period", "--k", "2000000", "--seq", "fib")
        assert (code, out) == (4, "")
        code, out, err = run(capsys, "period", "--k", str(10**9), "--seq", "fib", "--window", "200")
    assert (code, out) == (3, "")
    assert err.startswith("inconclusive: ")


@pytest.mark.parametrize("seq", ["fib", "bal", "nat", "n^3"])
def test_period_on_the_default_window_prints_the_exact_report(capsys, seq):
    # the window route, on the window the exact report counts its repeats in, finds the same
    # numbers, uncertified and without the residue period it did not read
    for k in (1, 2, 7, 12, 30, 97, 1000):
        sp = state_period_mod(parse_spec(seq), 2 * k)
        window = str(max(4 * sp.period, 200) + sp.preperiod)
        argv = ("period", "--k", str(k), "--seq", seq, "--format", "json")
        code, out, _ = run(capsys, *argv)
        exact = json.loads(out)
        assert code == 0 and exact["certified"] is True, (seq, k)
        assert (exact["residue_preperiod"], exact["residue_period"]) == (str(sp.preperiod), str(sp.period))
        code, out, _ = run(capsys, *argv, "--window", window)
        want = {**exact, "certified": False, "residue_preperiod": None, "residue_period": None}
        assert (code, json.loads(out)) == (0, want), (seq, k)
        text = ("period={period} preperiod={preperiod} zeros={zeros} ones={ones} certified=no"
                " verified_repeats={verified_repeats}\n").format(**exact)
        assert run(capsys, *argv[:-2], "--window", window) == (0, text, ""), (seq, k)


def test_period_of_a_powrec_reduced_from_exact_terms_is_not_certified(capsys):
    # a_n = 10**6 + 1 - n ends at n = 10**6, which its residues mod 2k cannot show
    argv = ("period", "--k", "3", "--seq", "powrec:c=2,-1;t=1,1;init=1000000,999999")
    assert run(capsys, *argv) == (0, "period=3 preperiod=0 zeros=2 ones=1 certified=no verified_repeats=66\n", "")
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "command": "period", "k": "3", "seq": "powrec:c=2,-1;t=1,1;init=1000000,999999", "preperiod": "0",
        "period": "3", "zeros": "2", "ones": "1", "certified": False, "verified_repeats": "66",
        "residue_preperiod": None, "residue_period": None,
    }


def test_period_with_a_window_skips_the_residue_walk(capsys):
    # the orbit mod 2k is past the walk bound, and walking it to find so took 7-10 s
    with deadline(1):
        code, out, err = run(capsys, "period", "--k", "1000000007", "--seq", "powrec:c=1,1;t=1,2;init=1,1",
                             "--window", "200")
    assert (code, out) == (3, "")
    assert err == "inconclusive: no period found within a window of 200 terms; retry with a larger window\n"


def test_period_min_repeats(capsys):
    code, out, err = run(capsys, "period", "--k", "5", "--seq", "fib", "--min-repeats", "1")
    assert (code, out, err) == (2, "", "domain error: min_repeats must be >= 2, got 1\n")
    # two copies of period 5 from the start, but three only of period 1 from n = 10, and four of none
    argv = ("period", "--k", "5", "--seq", "explicit:1,2,3,4,5,6,7,8,9,10,11,12")
    assert run(capsys, *argv, "--min-repeats", "2") == (
        0, "period=5 preperiod=0 zeros=3 ones=2 certified=no verified_repeats=2\n", "")
    assert run(capsys, *argv) == (0, "period=1 preperiod=9 zeros=1 ones=0 certified=no verified_repeats=3\n", "")
    code, out, err = run(capsys, *argv, "--min-repeats", "4")
    assert (code, out) == (3, "")


def test_period_and_table1_enter_through_row_period(capsys, monkeypatch):
    from splitgamma import periodicity
    assert not hasattr(periodicity, "_row_period")
    calls = count_calls(monkeypatch, periodicity, "row_period")
    assert run(capsys, "period", "--k", "5", "--seq", "fib", "--format", "json")[0] == 0
    assert len(calls) == 1
    assert run(capsys, "table1", "--kmax", "7")[0] == 0
    assert len(calls) == 1 + 7


def test_row_builds_its_text_line_only_for_text(capsys, monkeypatch):
    from splitgamma import periodicity
    calls = count_calls(monkeypatch, periodicity, "_bit_line")
    for fmt, want in (("text", 1), ("csv", 0), ("json", 0)):
        calls.clear()
        assert run(capsys, "row", "--k", "3", "--seq", "fib", "--count", "10", "--format", fmt)[0] == 0
        assert len(calls) == want, fmt


def test_out_of_memory_exits_4_with_one_line(capsys, monkeypatch):
    # a row too long for memory fails in gamma_row's tile; MemoryError carries no message
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("splitgamma.periodicity.gamma_row", exhausted)
    code, out, err = run(capsys, "row", "--k", "3", "--seq", "fib", "--count", "3000000000")
    assert (code, out, err) == (4, "", "resource cap: out of memory\n")


def test_row_past_memory_exits_4_with_one_line(capsys):
    # the row's residue memo needs 10**18 bytes, past any 64-bit user address space, so the allocation
    # fails at once; an out-of-place bytearray repeat would print a SystemError line before the refusal
    with deadline(1):
        code, out, err = run(capsys, "row", "--k", "500000000000000000", "--seq", "fib",
                             "--count", "1000000000000000000")
    assert (code, out, err) == (4, "", "resource cap: out of memory\n")


def test_period_window_below_one_is_a_domain_error(capsys):
    for window in ("0", "-5"):
        code, out, err = run(capsys, "period", "--k", "5", "--seq", "fib", "--window", window)
        assert (code, out) == (2, "")
        assert err == f"domain error: need window >= 1, got {window}\n"


def test_beiter_scan_bad_xmax_is_a_domain_error_with_and_without_out(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    target.write_bytes(b"keep these bytes\n")
    for fmt in ("text", "csv", "json"):
        for extra in ((), ("--out", str(target)), ("--out", str(target), "--resume")):
            code, out, err = run(capsys, "beiter-scan", "--xmax", "0", "--format", fmt, *extra)
            assert (code, out) == (2, ""), (fmt, extra)
            assert err.startswith("domain error:")
    assert target.read_bytes() == b"keep these bytes\n"
    assert not (tmp_path / "scan.csv.checkpoint").exists()


@pytest.mark.parametrize("r, s, xmax", [(1, 1, 12), (2, 0, 14), (3, 2, 9), (0, 0, 7)])
def test_beiter_scan_csv_stdout_is_the_out_files_bytes(capsys, tmp_path, r, s, xmax):
    # stdout goes through _emit, the file through the explorer's template: one encoding
    argv = ("beiter-scan", "--r", str(r), "--s", str(s), "--xmax", str(xmax), "--format", "csv")
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "scan.csv"
    assert run(capsys, *argv, "--out", str(target))[0] == 0
    assert out.encode() == target.read_bytes()


def test_text_scan_keeps_no_records():
    # text prints the summary only; 300 shards hold 54,795 pairs, and a dict per record would take megabytes
    importlib.import_module("splitgamma.explorer")  # so the traced run measures the scan, not the import
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            assert main(["beiter-scan", "--xmax", "300"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.getvalue() == "pairs=54795 exactly_one=54795 density=1/1\n"
    assert peak < 2_000_000, peak


def test_beiter_scan_jobs_is_accepted_and_ignored(capsys, tmp_path):
    argv = ("beiter-scan", "--xmax", "12", "--format", "csv")
    tables = []
    for jobs in ("1", "8"):
        code, out, _ = run(capsys, *argv, "--jobs", jobs)
        assert code == 0
        tables.append(out)
        assert run(capsys, *argv, "--jobs", jobs, "--out", str(tmp_path / f"{jobs}.csv"))[0] == 0
    assert tables[0] == tables[1]
    assert (tmp_path / "1.csv").read_bytes() == (tmp_path / "8.csv").read_bytes()


# ---------------- digit limit ----------------


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit")
def test_main_lifts_and_restores_the_int_str_digit_limit(capsys):
    a, b = 10**699 + 7, 10**699 + 9
    wide = (str(a), str(b))
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)  # the smallest limit; the density terms reach ~660 digits
    try:
        outs = {}
        for fmt in ("text", "csv", "json"):
            code, outs[fmt], _ = run(capsys, "density", "--p", "1/2", "--n", "2200", "--format", fmt)
            assert code == 0, fmt
        code, out, _ = run(capsys, "gamma", *wide)
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (0, f"{gamma(a, b)}\n")
    trace = build_density_sequence("1/2", 2200)
    assert max(len(str(t)) for t in trace.terms) > 640
    assert json.loads(outs["json"])["terms"] == [str(t) for t in trace.terms]
    assert list(csv.reader(io.StringIO(outs["csv"])))[-1][1] == str(trace.terms[-1])
    assert "terms=2201" in outs["text"]


# ---------------- README ----------------


README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def readme_cli_examples():
    """(argv, expected stdout or "") for each line of the README's CLI code block."""
    block = README.read_text().split("## CLI", 1)[1].split("```", 2)[1]
    for line in block.strip().splitlines():
        command, _, expect = line.partition("->")
        yield shlex.split(command), expect.strip()


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    examples = list(readme_cli_examples())
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    assert sorted(argv[0] for argv, _ in examples) == sorted(sub.choices)
    for argv, expect in examples:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        if expect:
            assert out == expect + "\n", argv


# a valid value for each placeholder the README's grammar table writes
GRAMMAR_SAMPLE = {"I": "2", "T1": "3", "T2": "5", "P": "5", "R": "2", "K": "3", "A": "2", "..": "1,1",
                  "v1,v2,...": "4,9"}


def test_readme_grammar_table_is_the_grammar():
    table = README.read_text().split("| text | family |", 1)[1].split("\n\n", 1)[0]
    texts = [text for row in table.splitlines()[2:] for text in re.findall(r"`([^`]+)`", row.split("|")[1])]
    for text in texts:
        parse_spec(re.sub(r"v1,v2,\.\.\.|\.\.|\b[A-Z]\d?\b", lambda m: GRAMMAR_SAMPLE[m.group()], text))
    # every plain name and prefix of sequences' grammar table is in README's, and no other
    heads = {re.match(r"[a-z]+[:^]?", text).group() for text in texts}
    assert heads == {*sequences._NAMES, *sequences._PREFIXES, "powrec:", "explicit:"}
