"""Command line front end.

Every command honors --format text|csv|json.  A handler builds one ordered
payload of native values plus its text lines, and ``_emit`` converts only for
the requested format, by one rule.  JSON prints every number as a decimal
string, so arbitrary precision survives any consumer, and leaves booleans and
null native.  CSV prints booleans as 0/1, None as an empty cell and lists
joined by ";"; its header is the payload's keys bar "command", unless the
command is table-valued.  Text says yes/no for booleans and "none" for None.
Exit codes: 0 ok, 1 usage or i/o error, 2 domain error, 3 verification failure, 4 resource cap.

Start-up is paid per command.  Without a bytecode cache (PYTHONDONTWRITEBYTECODE)
a process compiles every module it imports, which costs more than most answers,
so this module imports only ``core`` up front; each handler imports the layer it
uses, and ``_emit`` imports ``json`` or ``csv`` only for those formats.
"""

from __future__ import annotations

import argparse
import math
import sys
from itertools import product

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
}


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; the contract here says 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _json_value(value):
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    return [_json_value(v) for v in value]


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(map(str, value))
    return int(value) if isinstance(value, bool) else value  # the writer prints None as ""


def _emit(fmt: str, payload: dict, text: list[str], table=None, json_only=None) -> None:
    """Print one result, converting only for the requested format (see the module docstring).

    table is (header, rows) for table-valued commands; json_only holds trailing keys with no CSV column.
    """
    if fmt == "json":
        import json
        print(json.dumps(_json_value({**payload, **(json_only or {})}), indent=2))
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


def _word(value) -> str:
    if value is None:
        return "none"
    return ("yes" if value else "no") if isinstance(value, bool) else str(value)


# ---------------- Command handlers ----------------


def _cmd_gamma(args) -> int:
    g = gamma(args.a, args.b)
    _emit(args.format, {"command": "gamma", "a": args.a, "b": args.b, "gamma": g}, [str(g)])
    return EXIT_OK


def _cmd_solve(args) -> int:
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
    _emit(args.format, payload, [text], json_only={"oracle_checked": args.oracle})
    return EXIT_OK


_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bit_line(bits) -> str:
    # "0 1 1 ..." from the 0/1 bits: a byte per bit and per space, not a str object per bit
    line = bytearray(b" ") * (2 * len(bits) - 1)
    line[::2] = bits.translate(_DIGITS)
    return line.decode("ascii")


def _cmd_row(args) -> int:
    from .periodicity import gamma_row
    from .sequences import format_spec, parse_spec
    spec = parse_spec(args.seq)
    bits = gamma_row(args.k, spec, args.start, args.count).bits
    payload = {"command": "row", "k": args.k, "seq": format_spec(spec), "start": args.start, "bits": bits}
    table = (("n", "bit"), enumerate(bits, args.start))
    _emit(args.format, payload, [_bit_line(bits)], table)
    return EXIT_OK


def _cmd_period(args) -> int:
    from .periodicity import _row_period
    from .sequences import format_spec, parse_spec
    spec = parse_spec(args.seq)
    rep, sp = _row_period(args.k, spec, args.window, args.min_repeats)
    payload = {
        "command": "period",
        "k": args.k,
        "seq": format_spec(spec),
        **vars(rep),
        "residue_preperiod": None if sp is None else sp.preperiod,
        "residue_period": None if sp is None else sp.period,
    }
    text = (
        f"period={rep.period} preperiod={rep.preperiod} zeros={rep.zeros} ones={rep.ones}"
        f" certified={_word(rep.certified)} verified_repeats={rep.verified_repeats}"
    )
    if sp is not None:
        text += f" residue_period={sp.period} residue_preperiod={sp.preperiod}"
    _emit(args.format, payload, [text])
    return EXIT_OK


def _cmd_pisano(args) -> int:
    from .periodicity import pisano
    value = pisano(args.m)
    _emit(args.format, {"command": "pisano", "m": args.m, "pisano": value}, [str(value)])
    return EXIT_OK


def _cmd_table1(args) -> int:
    from .periodicity import fibonacci_period_table
    rows = fibonacci_period_table(args.kmax)
    payload = {"command": "table1", "rows": [{"k": k, "t_k": t, "pi_2k": p} for k, t, p in rows]}
    text = ["  k   t_k  pi(2k)"] + [f"{k:>3} {t:>5} {p:>7}" for k, t, p in rows]
    _emit(args.format, payload, text, (("k", "t_k", "pi_2k"), rows))
    return EXIT_OK


def _cmd_density(args) -> int:
    from fractions import Fraction
    from .density import build_density_sequence, verify_growth_bounds
    try:
        p = Fraction(args.p)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot parse target density {args.p!r}") from exc
    trace = build_density_sequence(p, args.n)
    bounds = verify_growth_bounds(trace)
    final = trace.ratios[-1]
    payload = {
        "p_num": p.numerator,
        "p_den": p.denominator,
        "terms": trace.terms,
        "bits": trace.bits,
        "ratios": [{"num": r.numerator, "den": r.denominator} for r in trace.ratios],
        "crossings": trace.crossings,
        "command": "density",
        "growth_bounds_ok": bounds,
    }
    text = [
        f"p={p}",
        f"terms={len(trace.terms)}",
        f"final_ratio={final.numerator}/{final.denominator}",
        f"crossings={len(trace.crossings)}" + (f" last={trace.crossings[-1]}" if trace.crossings else ""),
        f"growth_bounds={_word(bounds)}",
    ]
    # the seed row n = 0 has no bit or ratio
    rows = [(0, trace.terms[0], None, None, None)]
    rows += [(n, t, bit, r.numerator, r.denominator) for n, (t, bit, r) in
             enumerate(zip(trace.terms[1:], trace.bits, trace.ratios), 1)]
    _emit(args.format, payload, text, (("n", "a_n", "gamma_bit", "ratio_num", "ratio_den"), rows))
    return EXIT_OK


# default LO:HI per family; LO is also the smallest index the family accepts
_VERIFY_DEFAULT_RANGE = {
    "fib": (6, 30),
    "fib2": (2, 30),
    "fib3": (2, 8),
    "fiblike": (1, 8),
    "mod6-4": (1, 8),
}


def _fiblike_ok(u: int, v: int) -> bool:
    from .sequences import fiblike_pair
    x, y = u, v
    for n in range(1, 31):
        if fiblike_pair(u, v, n) != (x, y) or math.gcd(x, y) != 1:
            return False
        x, y = y, x + y
    return True


def _mod6_4_ok(u: int, v: int) -> bool:
    from .sequences import closed_form_mod6_4, fiblike_pair
    return all(closed_form_mod6_4(u, v, n) == solve_split(*fiblike_pair(u, v, n)) for n in (4, 10, 16, 22))


def _verify_items(family: str, lo: int, hi: int):
    from .sequences import fib_cube_solution, fib_identity_solution, fib_pair, fib_square_solution
    lo = max(lo, _VERIFY_DEFAULT_RANGE[family][0])
    if family == "fib":
        for n in range(lo, hi + 1):
            if n % 6 in (0, 4):
                yield f"n={n}", fib_identity_solution(n) == solve_split(*fib_pair(n))
    elif family == "fib2":
        for n in range(lo, hi + 1):
            if n % 6 in (0, 2, 3, 5):
                yield f"n={n}", fib_square_solution(n) == solve_split(*(f**2 for f in fib_pair(n)))
    elif family == "fib3":
        for m in range(lo, hi + 1):
            yield f"m={m}", fib_cube_solution(m) == solve_split(*(f**3 for f in fib_pair(2 * m - 1)))
    else:
        ok = _fiblike_ok if family == "fiblike" else _mod6_4_ok
        for u, v in product(range(lo, hi + 1), repeat=2):
            if math.gcd(u, v) == 1:
                yield f"u={u},v={v}", ok(u, v)


def _cmd_verify(args) -> int:
    if args.range:
        try:
            lo, _, hi = args.range.partition(":")
            lo, hi = int(lo), int(hi)
        except ValueError as exc:
            raise DomainError(f"range must look like LO:HI, got {args.range!r}") from exc
    else:
        lo, hi = _VERIFY_DEFAULT_RANGE[args.family]
    items = list(_verify_items(args.family, lo, hi))
    failed = sum(not ok for _, ok in items)
    payload = {
        "command": "verify",
        "family": args.family,
        "range": f"{lo}:{hi}",
        "items": [{"item": label, "ok": ok} for label, ok in items],
        "checked": len(items),
        "failed": failed,
    }
    text = [("ok " if ok else "FAIL ") + label for label, ok in items]
    text.append(f"checked={len(items)} failed={failed}")
    table = (("family", "item", "ok"), [(args.family, label, ok) for label, ok in items])
    _emit(args.format, payload, text, table)
    return EXIT_VERIFY if failed else EXIT_OK


def _cmd_nvar(args) -> int:
    from .explorer import nvar_classify
    rep = nvar_classify(tuple(args.coeffs), args.cap)
    inst = rep.instance
    payload = {
        "command": "nvar",
        "coeffs": inst.coeffs,
        "rhs_numerator": inst.rhs_numerator,
        "rhs": inst.rhs,
        "integral": inst.rhs is not None,
        "counts": rep.counts,
        "solvable": rep.solvable,
        "exactly_one": rep.exactly_one,
        "setwise_coprime": inst.setwise_coprime,
        "pairwise_coprime": inst.pairwise_coprime,
    }
    text = (
        f"coeffs={','.join(map(str, inst.coeffs))}"
        f" rhs={_word(inst.rhs)}"
        f" counts={','.join(map(str, rep.counts))}"
        f" solvable={','.join(map(str, rep.solvable)) or '-'}"
        f" exactly_one={_word(rep.exactly_one)}"
        f" setwise={_word(inst.setwise_coprime)} pairwise={_word(inst.pairwise_coprime)}"
    )
    _emit(args.format, payload, [text])
    return EXIT_OK


def _cmd_rs(args) -> int:
    from .explorer import rs_solve
    record = vars(rs_solve(args.a, args.b, args.r, args.s, args.cap))
    text = " ".join(f"{key}={_word(value)}" for key, value in record.items())
    _emit(args.format, {**record, "command": "rs"}, [text])
    return EXIT_OK


def _cmd_beiter_scan(args) -> int:
    from .explorer import SCAN_CSV_HEADER, SCAN_METADATA, iter_scan, run_scan
    if args.resume and not args.out:
        raise DomainError("--resume needs --out")
    if args.out:
        fmt = "jsonl" if args.format == "json" else "csv"
        summary = run_scan(args.r, args.s, args.xmax, args.out, fmt, args.resume, args.jobs, args.cap)
        pairs, hits, table = summary["pairs"], summary["exactly_one"], None
        json_only = {"out": args.out, "metadata": summary["metadata"]}
    else:
        records, pairs, hits = [], 0, 0
        for _, shard in iter_scan(args.r, args.s, args.xmax, args.cap):
            pairs, hits = pairs + len(shard), hits + sum(rec.exactly_one for rec in shard)
            records += map(vars, shard) if args.format != "text" else ()  # text prints the summary only
        table = (SCAN_CSV_HEADER, (rec.values() for rec in records))
        json_only = {"metadata": dict(SCAN_METADATA), "records": records}
    g = math.gcd(hits, pairs)  # pairs >= 1: (1, 1) is always scanned
    num, den = hits // g, pairs // g
    payload = {
        "command": "beiter-scan",
        "r": args.r,
        "s": args.s,
        "x_max": args.xmax,
        "pairs": pairs,
        "exactly_one": hits,
        "density_num": num,
        "density_den": den,
    }
    text = [f"pairs={pairs} exactly_one={hits} density={num}/{den}"]
    if args.out:
        text.append(f"written={args.out}")
    _emit(args.format, payload, text, table, json_only)
    return EXIT_OK


# ---------------- Parser ----------------


def build_parser() -> argparse.ArgumentParser:
    fmt_parent = argparse.ArgumentParser(add_help=False)
    fmt_parent.add_argument("--format", choices=("text", "csv", "json"), default="text")

    parser = _Parser(prog="splitgamma", description="Split-equation classifier, solver and explorer.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, parents=[fmt_parent], help=summary)
        p.set_defaults(func=func)
        return p

    p = command("gamma", _cmd_gamma, "which equation of the pair is solvable")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)

    p = command("solve", _cmd_solve, "the unique nonnegative witness")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("--oracle", action="store_true", help="cross-check against brute-force enumeration")

    p = command("row", _cmd_row, "classifier bits along a sequence")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--start", type=int, default=1)
    p.add_argument("--count", type=int, required=True)

    p = command("period", _cmd_period, "eventual period of a classifier row")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--min-repeats", type=int, default=3)

    p = command("pisano", _cmd_pisano, "Fibonacci period modulo m")
    p.add_argument("m", type=int)

    p = command("table1", _cmd_table1, "row periods against Fibonacci for k = 1..kmax")
    p.add_argument("--kmax", type=int, default=10)

    p = command("density", _cmd_density, "greedy chain hitting a target zero-bit density")
    p.add_argument("--p", required=True, help="target density, e.g. 1/2")
    p.add_argument("--n", type=int, required=True, help="number of steps")

    p = command("verify", _cmd_verify, "closed-form witnesses against the solver")
    p.add_argument("--family", choices=("fib", "fib2", "fib3", "fiblike", "mod6-4"), required=True)
    p.add_argument("--range", default=None, help="LO:HI, meaning depends on the family")

    p = command("nvar", _cmd_nvar, "solution counts for an n-variable instance")
    p.add_argument("coeffs", type=int, nargs="+")

    p = command("rs", _cmd_rs, "solvability with a shifted right-hand side")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)

    p = command("beiter-scan", _cmd_beiter_scan, "scan coprime pairs for exactly-one solvability")
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--s", type=int, default=1)
    p.add_argument("--xmax", type=int, required=True)
    p.add_argument("--out", default=None, help="stream records to this file (csv, or json lines with --format json)")
    p.add_argument("--resume", action="store_true", help="continue from the checkpoint next to --out")
    p.add_argument("--jobs", type=int, default=1, help="accepted and ignored: the scan runs in one process")

    for name in ("nvar", "rs", "beiter-scan"):
        sub.choices[name].add_argument("--cap", type=int, default=math.inf)
    return parser


def main(argv=None) -> int:
    # exact answers run to any number of digits: no int <-> str digit limit while a command runs
    old_limit = sys.get_int_max_str_digits() if hasattr(sys, "set_int_max_str_digits") else None
    if old_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except tuple(_ERRORS) as exc:
        label, code = next(v for kind, v in _ERRORS.items() if isinstance(exc, kind))
        print(f"{label}: {exc}", file=sys.stderr)
        return code
    finally:
        if old_limit is not None:
            sys.set_int_max_str_digits(old_limit)


if __name__ == "__main__":
    sys.exit(main())
