"""Golden CLI contract for every command.

Each argv below runs ``cli.main`` in-process, in a fresh temporary working
directory; its exit code, the sha256 of its stdout and, when the run leaves
files behind (``beiter-scan --out``), the sha256 of each file must match the
values recorded in ``golden_cli.json``.

Run as a script from the repository root, the module checks the record
without pytest, so any interpreter can replay the contract; it exits 1 and
lists every mismatch when an argv's run differs or is not recorded:

    PYTHONPATH=src python3 tests/test_cli_golden.py

``--record`` writes the file afresh instead, overwriting every entry:

    PYTHONPATH=src python3 tests/test_cli_golden.py --record
"""

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

from splitgamma.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")

# every family in the README grammar, with linear and superlinear powrec
SPECS = (
    "fib",
    "fib^2",
    "fib^3",
    "fiblike:3,5",
    "bal",
    "lucasbal",
    "nat",
    "odds",
    "arith:5,2",
    "n^3",
    "geo:2,3",
    "powrec:c=1,1;t=1,1;init=1,2",
    "powrec:c=1,2;t=1,1;init=1,1",
    "powrec:c=3;t=1;init=2",
    "powrec:c=2,-1;t=1,1;init=1,2",
    "powrec:c=1,-2;t=1,1;init=1,1",
    "powrec:c=1,1;t=1,2;init=1,1",
    "powrec:c=1,2;t=2,1;init=2,1",
    "factpow",
    "explicit:4,9,25,49,121,169,289,361,529,841,961,1369,1681,1849,2209,2809",
)
KS = (1, 2, 3, 7, 12, 30)
FORMATS = ("text", "csv", "json")

# two coprime 300-digit operands: both odd, and they differ by 2
WIDE_A = str(10**299 + 7)
WIDE_B = str(10**299 + 9)
PAIRS = (
    ("7", "14"),
    ("3", "5"),
    ("8", "13"),
    ("6", "9"),
    ("7", "7"),
    ("1", "1"),
    ("1", "5"),
    ("5", "1"),
    ("0", "5"),
    ("5", "0"),
    ("-3", "5"),
    (WIDE_A, WIDE_B),
    (WIDE_B, WIDE_A),
)


def _row_argvs(f):
    out = []
    for spec in SPECS:
        for k in KS:
            out.append(["row", "--k", str(k), "--seq", spec, "--count", "16", *f])
            out.append(["row", "--k", str(k), "--seq", spec, "--start", "37", "--count", "40", *f])
            out.append(["period", "--k", str(k), "--seq", spec, *f])
    out.append(["row", "--k", "3", "--seq", "fib", "--start", "0", "--count", "5", *f])
    out.append(["row", "--k", "0", "--seq", "fib", "--count", "5", *f])
    out.append(["row", "--k", "3", "--seq", "nat", "--count", "-1", *f])
    out.append(["row", "--k", "3", "--seq", "nat", "--count", "0", *f])
    out.append(["period", "--k", "0", "--seq", "fib", *f])
    # an explicit window (the last exits 3) or repeat count: detected on the window, never certified
    out.append(["period", "--k", "5", "--seq", "fib", "--window", "500", *f])
    out.append(["period", "--k", "5", "--seq", "fib", "--window", "12", *f])
    out.append(["period", "--k", "7", "--seq", "factpow", "--window", "300", *f])
    out.append(["period", "--k", "7", "--seq", SPECS[-1], "--min-repeats", "2", *f])
    out.append(["period", "--k", "7", "--seq", "powrec:c=2,-1;t=1,1;init=1,2", "--window", "200", *f])
    for m in (1, 2, 10, 97, 1000, 4096):
        out.append(["pisano", str(m), *f])
    out.append(["table1", "--kmax", "12", *f])
    for k in (3, 7, 30):
        out.append(["row", "--k", str(k), "--seq", "fib", "--start", "20000", "--count", "50", *f])
        out.append(["row", "--k", str(k), "--seq", "bal", "--start", "3000", "--count", "50", *f])
        out.append(["row", "--k", str(k), "--seq", "n^6", "--start", "500000", "--count", "50", *f])
    return out


def _other_argvs(f):
    out = []
    for a, b in PAIRS:
        out.append(["gamma", a, b, *f])
        out.append(["solve", a, b, *f])
    for a, b in (("8", "13"), ("3", "5"), ("1", "1"), ("1", "5"), ("6", "9"), ("0", "5"), ("17", "29")):
        out.append(["solve", a, b, "--oracle", *f])
    for p in ("0", "1", "1/2", "3/7"):
        out.append(["density", "--p", p, "--n", "40", *f])
        out.append(["density", "--p", p, "--n", "1", *f])
    for p in ("abc", "1/0", "3/2", "-1/3"):
        out.append(["density", "--p", p, "--n", "10", *f])
    for family in ("fib", "fib2", "fib3", "fiblike", "mod6-4"):
        out.append(["verify", "--family", family, *f])
        out.append(["verify", "--family", family, "--range", "10:5", *f])
        out.append(["verify", "--family", family, "--range", "6", *f])
    out.append(["verify", "--family", "fib", "--range", "6:12", *f])
    out.append(["verify", "--family", "fiblike", "--range", "a:b", *f])
    for coeffs in (("3", "5"), ("3", "5", "7"), ("2", "4"), ("4", "6", "8"), ("5",), ("0", "5"), ("6", "10", "15")):
        out.append(["nvar", *coeffs, *f])
    out.append(["nvar", "101", "103", "--cap", "100", *f])
    out.append(["nvar", "211", "223", "227", *f])  # rhs 5268060: no default cap
    for a, b, r, s in (("5", "7", "3", "3"), ("5", "7", "1", "1"), ("2", "5", "1", "2"), ("2", "5", "3", "1"),
                       ("4", "6", "1", "1"), ("0", "5", "1", "1"), ("1", "1", "1", "1")):
        out.append(["rs", "--a", a, "--b", b, "--r", r, "--s", s, *f])
    out.append(["rs", "--a", "997", "--b", "991", "--cap", "100", *f])
    out.append(["rs", "--a", "2001", "--b", "2003", "--s", "3", *f])
    for r, s, x in (("1", "1", "12"), ("3", "3", "9"), ("2", "5", "7"), ("1", "1", "1")):
        scan = ["beiter-scan", "--r", r, "--s", s, "--xmax", x, *f]
        out.append(scan)
        out.append([*scan, "--out", "scan.out"])
        out.append([*scan, "--out", "scan.out", "--resume"])
    out.append(["beiter-scan", "--xmax", "9", "--jobs", "2", "--out", "scan.out", *f])
    out.append(["beiter-scan", "--xmax", "9", "--resume", *f])
    out.append(["beiter-scan", "--xmax", "0", "--out", "scan.out", *f])
    out.append(["beiter-scan", "--xmax", "30", "--cap", "10", *f])
    out.append(["beiter-scan", "--xmax", "30", "--cap", "10", "--out", "scan.out", *f])
    wide_shift = ["beiter-scan", "--r", "-3000", "--s", "-3000", "--xmax", "5", *f]
    out.append(wide_shift)
    out.append([*wide_shift, "--out", "scan.out"])
    return out


def golden_argvs():
    out = []
    for fmt in FORMATS:
        out += _row_argvs(["--format", fmt])
    for fmt in FORMATS:
        out += _other_argvs(["--format", fmt])
    return out


def run_argv(argv):
    """Exit code, stdout hash and the hash of every file the run leaves in its cwd."""
    stdout = io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
                code = main(list(argv))
        finally:
            os.chdir(home)
        files = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(pathlib.Path(tmp).iterdir())}
    result = {"exit": code, "sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}
    if files:
        result["files"] = files
    return result


def test_cli_output_matches_golden_record():
    golden = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert sorted(golden) == sorted(" ".join(a) for a in argvs)
    mismatched = [" ".join(a) for a in argvs if run_argv(a) != golden[" ".join(a)]]
    assert not mismatched, mismatched[:10]


def test_golden_record_covers_every_command_in_every_format():
    (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
    argvs = golden_argvs()
    assert {a[0] for a in argvs} == set(sub.choices)
    for fmt in FORMATS:
        assert {a[0] for a in argvs if fmt in a} == set(sub.choices), fmt


def test_period_json_keys_are_the_period_report_fields():
    from splitgamma.periodicity import PeriodReport
    answered = 0
    for argv in (a for a in golden_argvs() if a[0] == "period" and "json" in a):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code == 0:
            answered += 1
            keys = list(json.loads(stdout.getvalue()))
            assert keys[:3] == ["command", "k", "seq"] and tuple(keys[3:]) == PeriodReport._fields, argv
    assert answered > len(SPECS) * len(KS) // 2, answered


def test_nvar_and_solve_json_keys_are_their_record_fields():
    from splitgamma.core import SplitSolution
    from splitgamma.explorer import NVarReport
    answered = {"nvar": 0, "solve": 0}
    for argv in (a for a in golden_argvs() if a[0] in answered and "json" in a):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        if code == 0:
            answered[argv[0]] += 1
            keys = tuple(json.loads(stdout.getvalue()))
            if argv[0] == "nvar":
                assert keys == ("command", *NVarReport._fields), argv
            else:
                assert keys == ("command", "a", "b", *SplitSolution._fields, "oracle_checked"), argv
    assert answered["nvar"] >= 5 and answered["solve"] >= 10, answered


def _main(args):
    argvs = {" ".join(a): a for a in golden_argvs()}
    if args == ["--record"]:
        record = {key: run_argv(a) for key, a in argvs.items()}
        lines = [f"{json.dumps(key)}: {json.dumps(record[key])}" for key in sorted(record)]
        GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        return 0
    if args:
        print("usage: test_cli_golden.py [--record]", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    bad = [f"not in the argv list: {key}" for key in sorted(golden.keys() - argvs.keys())]
    for key, argv in argvs.items():
        if key not in golden:
            bad.append(f"not recorded: {key}")
        elif run_argv(argv) != golden[key]:
            bad.append(f"differs: {key}")
    for line in bad:
        print(line)
    print(f"{len(argvs)} golden argvs, {len(bad)} mismatched")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
