"""Command line front end.

Subcommands map one-to-one onto library entry points and share the
output plumbing: --format {text,csv,json}, --out PATH, and a bound
guard read from LAMBDA_SIEVE_MAX_BOUND (default 10**7) so a typo does
not start a week-long scan.  An --out or --checkpoint path in a missing
directory, or a --checkpoint file that is not a JSON object or lacks a
field of its kind, is a usage error before any work starts.  Every
subcommand accepts --workers, but only pell starts processes; output is
byte-identical for a given command and format regardless of it.  pell
and verify are imported by their subcommands, so no other subcommand
loads the process pool or the invariant battery.

euler-check and glaisher-table read their rows off the same single xi
pass as scan-exceptional (m = 4 and 3), through E_{p-1} = 4p xi(p, 4)
and G_{p-1} = 3p xi(p, 3) (mod p**2); the O(p**2) recurrence of
specialnums stays the series oracle of verify and the tests.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from .gaussfact import scan_exceptional
from .jacobi import scan_lambda
from .modmath import CheckpointError
from .quadfields import make_field, squarefree_values
from .specialnums import residues_from_xi

SCHEMA_TAG = "lambda-sieve/v1"
DEFAULT_MAX_BOUND = 10**7

_FIELDS = {
    "scan-exceptional": ["p", "m", "xi", "verdict"],
    "scan-lambda": ["d", "p", "method", "value"],
    "pell": ["q", "digits", "status", "p", "x"],
    "glaisher-table": ["p", "residue_p", "residue_p2", "verdict"],
    "euler-check": ["p", "residue_p2", "verdict"],
    "class-numbers": ["d", "D", "discriminant", "h", "maximal"],
}

def _check_bound(parser: argparse.ArgumentParser, value: int, name: str) -> None:
    raw = os.environ.get("LAMBDA_SIEVE_MAX_BOUND", "")
    try:
        limit = int(raw) if raw else DEFAULT_MAX_BOUND
    except ValueError:
        parser.error(f"LAMBDA_SIEVE_MAX_BOUND={raw!r} is not an integer")
    if value > limit:
        parser.error(
            f"{name} {value} exceeds the safety limit {limit}; "
            "raise LAMBDA_SIEVE_MAX_BOUND to allow it"
        )


def _int_at_least(low: int):
    """argparse type: an integer >= low, else a usage error (exit 2)."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


def _check_paths(parser: argparse.ArgumentParser, args) -> None:
    """Usage error, before any work, for an --out or --checkpoint path
    that cannot be written."""
    checkpoint = getattr(args, "checkpoint", None)
    for flag, path in (("--out", args.out), ("--checkpoint", checkpoint)):
        if not path:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            parser.error(f"{flag} {path}: no such directory {folder}")
        if os.path.isdir(path):
            parser.error(f"{flag} {path} is a directory")


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(args, command: str, params: dict, rows: list[dict]) -> None:
    fields = _FIELDS[command]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(fields)
        for row in rows:
            w.writerow([_csv_cell(row[f]) for f in fields])
        text = buf.getvalue()
    elif args.format == "json":
        doc = {
            "schema": SCHEMA_TAG,
            "command": command,
            "params": params,
            "rows": [{f: row[f] for f in fields} for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = []
        for row in rows:
            lines.append("  ".join(f"{f}={row[f]}" for f in fields))
        lines.append(f"{len(rows)} rows")
        text = "\n".join(lines) + "\n"
    _write(args, text)


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def cmd_scan_exceptional(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    verdicts = scan_exceptional(args.m, args.bound, checkpoint=args.checkpoint)
    if not args.all:
        verdicts = [v for v in verdicts if v.verdict]
    rows = [
        {"p": v.p, "m": v.m, "xi": int(v.xi), "verdict": v.verdict} for v in verdicts
    ]
    params = {"m": args.m, "bound": args.bound, "all": args.all}
    _emit(args, "scan-exceptional", params, rows)
    return 0


def cmd_scan_lambda(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    try:
        field = make_field(args.d)
    except ValueError as exc:
        parser.error(f"--d {args.d}: {exc}")
    hits = scan_lambda(field, args.bound)
    # a decimal string, as pell's p and x: schema.json types value as a string
    rows = [
        {"d": args.d, "p": v.p, "method": v.method, "value": str(int(v.criterion_value))}
        for v in hits
    ]
    _emit(args, "scan-lambda", {"d": args.d, "bound": args.bound}, rows)
    return 0


def cmd_pell(args, parser) -> int:
    from .pell import _int_to_str, pell_search

    _check_bound(parser, args.q_bound, "--q-bound")
    recs = pell_search(args.q_bound, workers=args.workers, checkpoint=args.checkpoint)
    rows = [
        {
            "q": r.q,
            "digits": r.digits,
            "status": r.status,
            "p": _int_to_str(r.p_candidate),
            "x": _int_to_str(r.x),
        }
        for r in recs
    ]
    _emit(args, "pell", {"q_bound": args.q_bound}, rows)
    return 0


def cmd_glaisher_table(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    rows = [
        {"p": p, "residue_p": r2 % p, "residue_p2": r2, "verdict": r2 == 0}
        for p, r2 in residues_from_xi(3, args.bound)
    ]
    _emit(args, "glaisher-table", {"bound": args.bound}, rows)
    return 0


def cmd_euler_check(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    rows = [
        {"p": p, "residue_p2": r2, "verdict": r2 == 0}
        for p, r2 in residues_from_xi(4, args.bound)
    ]
    _emit(args, "euler-check", {"bound": args.bound}, rows)
    return 0


def cmd_class_numbers(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    rows = []
    for d in squarefree_values(args.bound):
        f = make_field(d)
        rows.append(
            {
                "d": d,
                "D": f.D,
                "discriminant": f.discriminant,
                "h": f.h,
                "maximal": f.maximal,
            }
        )
    _emit(args, "class-numbers", {"bound": args.bound}, rows)
    return 0


def cmd_verify(args, parser) -> int:
    from .verify import report_lines, run_checks

    results = run_checks(only=args.only)
    if not results:
        parser.error(f"no checks match {args.only!r}")
    _write(args, "\n".join(report_lines(results)) + "\n")
    return 0 if all(r.ok for r in results) else 1


def _add_common(
    sp: argparse.ArgumentParser,
    workers_help: str = "accepted for a uniform interface; runs in one process",
) -> None:
    sp.add_argument("--workers", type=_int_at_least(1), default=1, help=workers_help)
    sp.add_argument(
        "--format", choices=("text", "csv", "json"), default="text", help="output form"
    )
    sp.add_argument("--out", default=None, help="write output to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lambda-sieve",
        description="detect imaginary quadratic fields whose lambda invariant "
        "exceeds one at a given prime, plus the related special-number tables",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("scan-exceptional", help="Gauss-factorial power scan")
    sp.add_argument(
        "--m", type=_int_at_least(2), required=True, help="divisor of p - 1"
    )
    sp.add_argument(
        "--bound", type=_int_at_least(3), required=True, help="prime upper bound"
    )
    sp.add_argument(
        "--all", action="store_true", help="emit every tested prime, not only hits"
    )
    sp.add_argument("--checkpoint", default=None, help="resume file path")
    _add_common(sp)
    sp.set_defaults(fn=cmd_scan_exceptional)

    sp = sub.add_parser("scan-lambda", help="scan one field for non-trivial primes")
    sp.add_argument(
        "--d", type=_int_at_least(1), required=True, help="squarefree parameter"
    )
    sp.add_argument(
        "--bound", type=_int_at_least(3), required=True, help="prime upper bound"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_scan_lambda)

    sp = sub.add_parser("pell", help="prime-index Pell candidates")
    sp.add_argument(
        "--q-bound", type=_int_at_least(3), required=True, help="index upper bound"
    )
    sp.add_argument("--checkpoint", default=None, help="resume file path")
    _add_common(sp, "worker processes that classify the candidates")
    sp.set_defaults(fn=cmd_pell)

    sp = sub.add_parser("glaisher-table", help="G_(p-1) residues mod p**2")
    sp.add_argument(
        "--bound", type=_int_at_least(7), default=200, help="prime upper bound"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_glaisher_table)

    sp = sub.add_parser("euler-check", help="E_(p-1) residues mod p**2")
    sp.add_argument(
        "--bound", type=_int_at_least(5), default=200, help="prime upper bound"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_euler_check)

    sp = sub.add_parser("class-numbers", help="field table for squarefree d")
    sp.add_argument("--bound", type=int, required=True, help="largest d")
    _add_common(sp)
    sp.set_defaults(fn=cmd_class_numbers)

    sp = sub.add_parser("verify", help="run the named self-checks")
    sp.add_argument("--only", default=None, help="substring filter on name or group")
    sp.add_argument("--out", default=None, help="write report to this file")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _check_paths(parser, args)
    try:
        return args.fn(args, parser)
    except CheckpointError as exc:  # raised as the search reads it, before work
        parser.error(f"--checkpoint {exc}")


if __name__ == "__main__":
    sys.exit(main())
