"""Command-line front end.

Four subcommands expose pipeline prefixes so the cheap analyses run without
the resultant computation:

    sdres check FILE       existence of the sparse difference resultant
    sdres super FILE       super-essential subsystem on top of check
    sdres bounds FILE      kept variables and order bounds on top of super
    sdres resultant FILE   the full computation

Exit codes: 0 success (including a "No SDResultant" verdict), 1 malformed
input, 2 internal, degenerate-computation or out-of-memory/recursion failure.
"""

import argparse
import sys

from .errors import InputError, SDResError
from .parsing import parse_system
from .pipeline import run_pipeline, serialize
from .resultant import MAX_RETRIES


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; bad usage is an input problem
    def error(self, message):
        raise InputError(message)


def build_parser():
    parser = _Parser(
        prog="sdres",
        description="Sparse difference resultants of generic Laurent "
                    "difference polynomial systems.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True
    helps = {
        "check": "decide whether the sparse difference resultant exists",
        "super": "also extract the super-essential subsystem",
        "bounds": "also compute kept variables and order bounds",
        "resultant": "run the full pipeline and print the resultant",
    }
    for name, text in helps.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("file", help="system description file ('-' for stdin)")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for every randomized stage")
        p.add_argument("--format", choices=("text", "json", "structured"),
                       default="text",
                       help="output format; json and structured are synonyms")
        p.add_argument("--out", metavar="FILE",
                       help="write the report here instead of stdout")
        p.add_argument("--paranoid", action="store_true",
                       help="replace randomized rank checks by exact "
                            "symbolic elimination")
        p.add_argument("--max-retries", type=int, default=MAX_RETRIES,
                       help="liftings tried in the resultant stage, at least 1")
        p.add_argument("--verbose", action="store_true",
                       help="log stage progress to stderr, include timings")
    return parser


def _read_input(path):
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                data = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        name = "standard input" if path == "-" else path
        raise InputError(f"{name} is not UTF-8: invalid byte at offset "
                         f"{exc.start}") from exc


def main(argv=None):
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if args.max_retries < 1:
            parser.error(f"argument --max-retries: must be at least 1, "
                         f"got {args.max_retries}")
        log = (lambda msg: print(msg, file=sys.stderr)) if args.verbose else None
        src = parse_system(_read_input(args.file))
        report = run_pipeline(src, stage=args.command, seed=args.seed,
                              paranoid=args.paranoid,
                              max_retries=args.max_retries, log=log)
        payload = serialize(report, format=args.format, verbose=args.verbose)
        if args.out:
            try:
                with open(args.out, "wb") as handle:
                    handle.write(payload)
            except OSError as exc:
                raise InputError(
                    f"cannot write {args.out}: {exc.strerror}") from exc
        else:
            sys.stdout.flush()  # keep ordering sane for in-process callers
            sys.stdout.buffer.write(payload)
            sys.stdout.buffer.flush()
        return 0
    except InputError as exc:
        print(f"sdres: error: {exc}", file=sys.stderr)
        return 1
    except (SDResError, MemoryError, RecursionError) as exc:
        print(f"sdres: internal error: {str(exc) or type(exc).__name__}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
