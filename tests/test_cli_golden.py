"""Golden CLI contract for the row and period commands.

Each argv below runs ``cli.main`` in-process; its exit code and the sha256 of
its stdout must match the values recorded in ``golden_cli.json``.  To record
the file afresh, run this module as a script from the repository root:

    PYTHONPATH=src python3 tests/test_cli_golden.py
"""

import contextlib
import hashlib
import io
import json
import pathlib

from splitgamma.cli import main

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
    "powrec:c=2,-1;t=1,1;init=1,2",
    "powrec:c=1,-2;t=1,1;init=1,1",
    "powrec:c=1,1;t=1,2;init=1,1",
    "powrec:c=1,2;t=2,1;init=2,1",
    "factpow",
    "explicit:4,9,25,49,121,169,289,361,529,841,961,1369,1681,1849,2209,2809",
)
KS = (1, 2, 3, 7, 12, 30)
FORMATS = ("text", "csv", "json")


def golden_argvs():
    out = []
    for fmt in FORMATS:
        f = ["--format", fmt]
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
        for m in (1, 2, 10, 97, 1000, 4096):
            out.append(["pisano", str(m), *f])
        out.append(["table1", "--kmax", "12", *f])
        for k in (3, 7, 30):
            out.append(["row", "--k", str(k), "--seq", "fib", "--start", "20000", "--count", "50", *f])
            out.append(["row", "--k", str(k), "--seq", "bal", "--start", "3000", "--count", "50", *f])
            out.append(["row", "--k", str(k), "--seq", "n^6", "--start", "500000", "--count", "50", *f])
    return out


def run_argv(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return {"exit": code, "sha256": hashlib.sha256(stdout.getvalue().encode()).hexdigest()}


def test_cli_output_matches_golden_record():
    golden = json.loads(GOLDEN.read_text())
    argvs = golden_argvs()
    assert sorted(golden) == sorted(" ".join(a) for a in argvs)
    mismatched = [" ".join(a) for a in argvs if run_argv(a) != golden[" ".join(a)]]
    assert not mismatched, mismatched[:10]


if __name__ == "__main__":
    record = {" ".join(a): run_argv(a) for a in golden_argvs()}
    lines = [f"{json.dumps(key)}: {json.dumps(record[key])}" for key in sorted(record)]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n")
