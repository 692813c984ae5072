"""Command line front end.

Every command honors --format text|csv|json.  A handler only computes: it
returns one ordered payload of native values plus its text lines (and a table
or JSON-only keys), and ``main`` alone prints them, through ``_emit``, and picks
the exit code.  ``_emit`` converts, and consumes generators, only for the
requested format, by one rule.  JSON prints every number as a decimal string,
so arbitrary precision survives any consumer, and leaves booleans and null
native.  CSV prints booleans as 0/1, None as an empty cell and lists joined by
";"; its header is the payload's keys bar "command", unless the command is
table-valued.  Text says yes/no for booleans and "none" for None.  JSON is
written directly under that rule, with the bytes ``json.dumps(..., indent=2)``
gives, so no pure-Python encoder runs.  A scan reads its pairs as the
explorer's plain rows, from the kernel that ``rs`` wraps in a record: the CSV
table takes the rows as they are and JSON zips each with the schema.
Exit codes: 0 ok, 1 usage or i/o error, 2 domain error, 3 verification failure, 4 resource cap.

Start-up is paid per command.  Without a bytecode cache (PYTHONDONTWRITEBYTECODE)
a process compiles every module it imports, which costs more than most answers,
so a process compiles only the code its command runs.  This module is the front
end every command runs, plus the two kernel handlers, and imports only ``core``.
Every other handler sits in the module of the layer it presents (``periodicity``,
``density``, ``explorer``, ``identities``), which ``main`` imports when it
dispatches, and ``build_parser(argv)`` builds only the subparser of the command
argv names.  No handler module imports this one: under ``python -m
splitgamma.cli`` it runs as ``__main__``, so the import would compile it twice.
``_emit`` imports ``json`` or ``csv`` only for those formats.
"""

from __future__ import annotations

import argparse
import math
import sys

from .core import (
    DomainError,
    InconclusiveError,
    InvariantViolation,
    ResourceLimitError,
    brute_force_split,
    gamma,
    solve_split,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_VERIFY = 3
EXIT_RESOURCE = 4


# stderr label and exit code of each error a command may raise
_ERRORS = {
    DomainError: ("domain error", EXIT_DOMAIN),
    InconclusiveError: ("inconclusive", EXIT_VERIFY),
    InvariantViolation: ("verification failure", EXIT_VERIFY),
    ResourceLimitError: ("resource cap", EXIT_RESOURCE),
    OSError: ("i/o error", EXIT_USAGE),  # an --out path that cannot be opened
    MemoryError: ("resource cap", EXIT_RESOURCE),  # raised with no message; main names it
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_doc(value) -> str:
    """json.dumps(v, indent=2) of value with every int as a decimal string.

    Scalars go by their exact type (no payload holds an int or str subclass but
    bool); dicts and lists (any other iterable: generators are consumed once and
    bytes gives ints) nest two spaces a level.
    """
    from json.encoder import encode_basestring_ascii as quote
    scalar = {type(None): lambda v: "null", bool: lambda v: "true" if v else "false", int: '"%d"'.__mod__,
              str: quote}

    def doc(value, pad):  # pad: a newline and the indent of the line value starts on
        kind = type(value)
        if kind in scalar:
            return scalar[kind](value)
        inner = pad + "  "
        if isinstance(value, dict):  # a scalar member is written in place, without a call to doc
            body = [quote(key) + ": " + (scalar[type(v)](v) if type(v) in scalar else doc(v, inner))
                    for key, v in value.items()]
            return "{" + inner + ("," + inner).join(body) + pad + "}" if body else "{}"
        body = [scalar[type(v)](v) if type(v) in scalar else doc(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(body) + pad + "]" if body else "[]"

    return doc(value, "\n")


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(map(str, value))
    return int(value) if isinstance(value, bool) else value  # the writer prints None as ""


def _emit(fmt: str, payload: dict, text, table=None, json_only=None) -> None:
    """Print one result, converting only for the requested format (see the module docstring).

    text is any iterable of lines; table is (header, rows) for table-valued commands; json_only
    holds trailing keys with no CSV column.
    """
    if fmt == "json":
        print(_json_doc({**payload, **(json_only or {})}))
    elif fmt == "csv":
        import csv
        if table is None:
            keys = [key for key in payload if key != "command"]
            table = (keys, [[payload[key] for key in keys]])
        header, rows = table
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(map(_csv_cell, row) for row in rows)
    else:
        print("\n".join(text))


# ---------------- Kernel command handlers ----------------


def _cmd_gamma(args) -> tuple:
    g = gamma(args.a, args.b)
    return {"command": "gamma", "a": args.a, "b": args.b, "gamma": g}, [str(g)]


def _cmd_solve(args) -> tuple:
    sol = solve_split(args.a, args.b)
    if args.oracle:
        report = brute_force_split(args.a, args.b)
        if sorted(report.counts) != [0, 1]:
            raise InvariantViolation(f"oracle found solution counts {report.counts} for ({args.a}, {args.b})")
        osol = report.solution
        if (osol.delta, osol.x, osol.y) != (sol.delta, sol.x, sol.y):
            raise InvariantViolation(f"oracle disagrees with solver on ({args.a}, {args.b})")
    payload = {"command": "solve", "a": args.a, "b": args.b, "delta": sol.delta, "x": sol.x, "y": sol.y}
    text = f"delta={sol.delta} x={sol.x} y={sol.y}" + (" oracle=ok" if args.oracle else "")
    return payload, [text], None, {"oracle_checked": args.oracle}


# ---------------- Parser ----------------


_CAP = ("--cap", dict(type=int, default=math.inf))

# each command's handler, as "module.function" (a bare function is in this module), its summary and its
# arguments, as (flag, add_argument options), in help order
_COMMANDS = {
    "gamma": ("_cmd_gamma", "which equation of the pair is solvable", [("a", dict(type=int)), ("b", dict(type=int))]),
    "solve": ("_cmd_solve", "the unique nonnegative witness", [
        ("a", dict(type=int)),
        ("b", dict(type=int)),
        ("--oracle", dict(action="store_true", help="cross-check against brute-force enumeration")),
    ]),
    "row": ("periodicity._cmd_row", "classifier bits along a sequence", [
        ("--k", dict(type=int, required=True)),
        ("--seq", dict(required=True)),
        ("--start", dict(type=int, default=1)),
        ("--count", dict(type=int, required=True)),
    ]),
    "period": ("periodicity._cmd_period", "eventual period of a classifier row", [
        ("--k", dict(type=int, required=True)),
        ("--seq", dict(required=True)),
        ("--window", dict(type=int, default=None)),
        ("--min-repeats", dict(type=int, default=3)),
    ]),
    "pisano": ("periodicity._cmd_pisano", "Fibonacci period modulo m", [("m", dict(type=int))]),
    "table1": ("periodicity._cmd_table1", "row periods against Fibonacci for k = 1..kmax", [("--kmax", dict(type=int, default=10))]),
    "density": ("density._cmd_density", "greedy chain hitting a target zero-bit density", [
        ("--p", dict(required=True, help="target density, e.g. 1/2")),
        ("--n", dict(type=int, required=True, help="number of steps")),
    ]),
    "verify": ("identities._cmd_verify", "closed-form witnesses against the solver", [
        ("--family", dict(choices=("fib", "fib2", "fib3", "fiblike", "mod6-4"), required=True)),
        ("--range", dict(default=None, help="LO:HI, meaning depends on the family")),
    ]),
    "nvar": ("explorer._cmd_nvar", "solution counts for an n-variable instance", [("coeffs", dict(type=int, nargs="+")), _CAP]),
    "rs": ("explorer._cmd_rs", "solvability with a shifted right-hand side", [
        ("--a", dict(type=int, required=True)),
        ("--b", dict(type=int, required=True)),
        ("--r", dict(type=int, default=1)),
        ("--s", dict(type=int, default=1)),
        _CAP,
    ]),
    "beiter-scan": ("explorer._cmd_beiter_scan", "scan coprime pairs for exactly-one solvability", [
        ("--r", dict(type=int, default=1)),
        ("--s", dict(type=int, default=1)),
        ("--xmax", dict(type=int, required=True)),
        ("--out", dict(default=None, help="stream records to this file (csv, or json lines with --format json)")),
        ("--resume", dict(action="store_true", help="continue from the checkpoint next to --out")),
        ("--jobs", dict(type=int, default=1, help="accepted and ignored: the scan runs in one process")),
        _CAP,
    ]),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The parser of every command, or only of the command argv names first.

    Both parse argv alike: an unknown or missing command, or --help, gets the
    full parser, and the one-command parser's metavar keeps the usage line.
    """
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("text", "csv", "json"), default="text")

    parser = _Parser(prog="splitgamma", description="Split-equation classifier, solver and explorer.")
    one = bool(argv) and argv[0] in _COMMANDS
    # a metavar also renames the command in argparse's errors, which only the full parser can raise
    metavar = "{" + ",".join(_COMMANDS) + "}" if one else None
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name in argv[:1] if one else _COMMANDS:
        _, summary, arguments = _COMMANDS[name]
        p = sub.add_parser(name, parents=[fmt_parent], help=summary)
        for flag, options in arguments:
            p.add_argument(flag, **options)
    return parser


def _handler(command: str):
    # the command's handler, its module imported now: a process compiles only the layer its command uses.
    # __import__ rather than importlib.import_module, so that -X importtime lists the module
    module, _, name = _COMMANDS[command][0].rpartition(".")
    return getattr(__import__(module, globals(), level=1, fromlist=(name,)), name) if module else globals()[name]


def main(argv=None) -> int:
    # exact answers run to any number of digits: no int <-> str digit limit while a command runs
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser(argv).parse_args(argv)
        payload, *rest = _handler(args.command)(args)
        _emit(args.format, payload, *rest)
        return EXIT_VERIFY if payload.get("failed") else EXIT_OK  # only verify counts failed items
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(_ERRORS) as exc:
        label, code = next(v for kind, v in _ERRORS.items() if isinstance(exc, kind))
        print(f"{label}: {str(exc) or 'out of memory'}", file=sys.stderr)
        return code
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
