"""Command line front end.

Subcommands map one-to-one onto library entry points and share the
output plumbing: --format {text,csv,json}, --out PATH, and a bound
guard read from LAMBDA_SIEVE_MAX_BOUND (default 10**7) so a typo does
not start a week-long scan.  An --out or --checkpoint path in a missing
or unwritable directory, an existing file that cannot be written, a
file name longer than the directory allows, one file named by both, or
a --checkpoint file that cannot be read, is not a JSON object with a
string kind or lacks a field of its kind, is a usage error before any
work starts.  Every subcommand accepts --workers, but only pell starts
processes; output is byte-identical for a given command and format
regardless of it.  pell and verify are imported by their subcommands,
so no other subcommand loads the process pool or the invariant battery.

Each subcommand hands _emit an iterable of row tuples in _FIELDS order.
csv and text write the rows as they arrive, 1024 lines a write, so an
interrupted euler-check or glaisher-table, whose rows come lazily,
leaves the rows written so far; json holds its rows as its envelope's
list.

euler-check and glaisher-table read their rows off Gold's criterion
for Q(i) and Q(sqrt(-3)), the per-prime loop of scan-lambda on d = 1
and d = 3 (specialnums.residues_from_xi): with v Gold's value
u**(p-1) mod p**2, E_{p-1} = 2 (1 - v) and G_{p-1} = 1 - v (mod p**2).
The power series of specialnums (euler_mod and glaisher_mod) and
scan-exceptional's remainder tree are their oracles: the series in
verify and the tests, the tree in the tests.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from itertools import chain, islice

from .gaussfact import scan_exceptional
from .jacobi import scan_lambda
from .modmath import CheckpointError
from .quadfields import make_field, squarefree_values
from .specialnums import _residues

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
    """Usage error, before any work, for an unwritable --out or --checkpoint
    path, or one file named by both.  An existing --out file is opened in
    place; a new one, and every checkpoint (replaced by a temporary file
    beside it), needs its directory."""
    out, checkpoint = args.out, getattr(args, "checkpoint", None)
    if out and checkpoint and os.path.realpath(out) == os.path.realpath(checkpoint):
        parser.error(f"--out and --checkpoint both name {out}")
    for flag, path in (("--out", out), ("--checkpoint", checkpoint)):
        if not path:
            continue
        folder = os.path.dirname(os.path.abspath(path))
        if not os.path.isdir(folder):
            parser.error(f"{flag} {path}: no such directory {folder}")
        if os.path.isdir(path):
            parser.error(f"{flag} {path} is a directory")
        if flag == "--out" and os.path.exists(path):
            if not os.access(path, os.W_OK):
                parser.error(f"{flag} {path} is not writable")
        elif not os.access(folder, os.W_OK):
            parser.error(f"{flag} {path}: directory {folder} is not writable")
        limit = os.pathconf(folder, "PC_NAME_MAX")
        if len(os.fsencode(os.path.basename(path))) > limit:
            parser.error(f"{flag} {path}: file name longer than {limit} bytes")


def _write_out(args, chunks) -> None:
    """Write the strings of chunks to the --out file (LF and UTF-8 on every
    platform) or to stdout, which stays open, joined in batches so that an
    unbuffered stdout (python -u) makes a system call per batch, not per row."""
    out = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    chunks = iter(chunks)
    try:
        while batch := list(islice(chunks, 1024)):
            out.write("".join(batch))
    finally:
        if out is not sys.stdout:
            out.close()


class _Echo:
    """A file whose write returns its text, so writerow returns the row."""

    write = str


def _emit(args, command: str, params: dict, rows) -> None:
    """Write rows, tuples in _FIELDS[command] order, to --out or stdout."""
    fields = _FIELDS[command]
    if args.format == "csv":
        w = csv.writer(_Echo, lineterminator="\n")
        chunks = map(w.writerow, chain([fields], (map(_csv_cell, r) for r in rows)))
    elif args.format == "json":
        import json

        rows = [dict(zip(fields, row)) for row in rows]
        doc = {"schema": SCHEMA_TAG, "command": command, "params": params, "rows": rows}
        # the chunks json.dump(doc, out, indent=2) would write
        chunks = chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"])
    else:
        chunks = _text_lines(fields, rows)
    _write_out(args, chunks)


def _text_lines(fields, rows):
    n = 0
    for n, row in enumerate(rows, 1):
        yield "  ".join(f"{f}={v}" for f, v in zip(fields, row)) + "\n"
    yield f"{n} rows\n"


def _csv_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return v


def cmd_scan_exceptional(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    verdicts = scan_exceptional(args.m, args.bound, checkpoint=args.checkpoint)
    rows = ((v.p, v.m, int(v.xi), v.verdict) for v in verdicts if args.all or v.verdict)
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
    rows = ((args.d, v.p, v.method, str(v.criterion_value)) for v in hits)
    _emit(args, "scan-lambda", {"d": args.d, "bound": args.bound}, rows)
    return 0


def cmd_pell(args, parser) -> int:
    from .pell import _int_to_str, pell_search

    _check_bound(parser, args.q_bound, "--q-bound")
    recs = pell_search(args.q_bound, workers=args.workers, checkpoint=args.checkpoint)
    rows = (
        (r.q, r.digits, r.status, _int_to_str(r.p_candidate), _int_to_str(r.x))
        for r in recs
    )
    _emit(args, "pell", {"q_bound": args.q_bound}, rows)
    return 0


def cmd_glaisher_table(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    rows = ((p, r2 % p, r2, r2 == 0) for p, r2 in _residues(3, args.bound))
    _emit(args, "glaisher-table", {"bound": args.bound}, rows)
    return 0


def cmd_euler_check(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    rows = ((p, r2, r2 == 0) for p, r2 in _residues(4, args.bound))
    _emit(args, "euler-check", {"bound": args.bound}, rows)
    return 0


def cmd_class_numbers(args, parser) -> int:
    _check_bound(parser, args.bound, "--bound")
    # a QuadField is the tuple (d, D, discriminant, h, maximal)
    rows = map(make_field, squarefree_values(args.bound))
    _emit(args, "class-numbers", {"bound": args.bound}, rows)
    return 0


def cmd_verify(args, parser) -> int:
    from .verify import report_lines, run_checks

    results = run_checks(only=args.only)
    if not results:
        parser.error(f"no checks match {args.only!r}")
    _write_out(args, (line + "\n" for line in report_lines(results)))
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
