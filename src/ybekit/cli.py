"""
Command-line front end.

Commands: validate, analyze, enumerate, classify. All output is JSON by
default (--pretty switches to an indented human-readable form). Exit codes
are fixed so CI can discriminate failure classes:

    0  success
    1  I/O, parse or usage error (unreadable file, unwritable output, path
       holding a NUL byte, malformed or too deeply nested JSON, non-permutation
       rows, unknown, missing or out-of-range option, closed output pipe)
    2  invalid solution (an axiom fails)
    3  budget exceeded (size guard, brace order cap or time budget)
    4  classification shape failure (a primitive class of impossible form)

`analyze --brace-cap` is the one order cap. Time budgets are in seconds and
must be positive; the environment variable YBEKIT_BUDGET_SECS sets the
default time budget of enumerate and classify, and no other command reads it.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import __version__
from .braces import DEFAULT_BRACE_CAP
from .catalog import open_text, write_catalog
from .enumeration import SearchStats, analyze, classify_primitive, fast_enumerate
from .errors import BudgetExceededError, InvalidSolutionError, ClassificationShapeError
from .solutions import Solution, validate

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_SHAPE = 4


def _emit(data: dict, args: argparse.Namespace) -> None:
    text = json.dumps(data, indent=2 if args.pretty else None, sort_keys=True)
    if args.output:
        with open_text(args.output, "w") as fh:
            fh.write(text + "\n")
    print(text)


def _load_or_report(source: str) -> Solution | None:
    """Read a solution from a file path, or from inline JSON starting with '{'.

    Any input error is printed to stderr and mapped to None.
    """
    try:
        if source.lstrip().startswith("{"):
            raw = source
        else:
            with open_text(source) as fh:
                raw = fh.read()
        return Solution.from_json(json.loads(raw))
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
    except RecursionError:
        print("error: malformed JSON: nested too deeply to parse", file=sys.stderr)
    except InvalidSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_validate(args: argparse.Namespace) -> int:
    s = _load_or_report(args.source)
    if s is None:
        return EXIT_IO
    report = validate(s)
    _emit(report.to_json(), args)
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_analyze(args: argparse.Namespace) -> int:
    s = _load_or_report(args.source)
    if s is None:
        return EXIT_IO
    record = analyze(s, brace_cap=args.brace_cap)
    _emit(record.to_json(), args)
    return EXIT_OK if record.valid else EXIT_INVALID


def cmd_enumerate(args: argparse.Namespace) -> int:
    stats = SearchStats()
    records = fast_enumerate(
        args.n,
        threads=args.threads,
        allow_large=args.allow_large,
        time_budget_secs=args.time_budget,
        stats=stats,
    )
    budget = {
        "time_budget_secs": args.time_budget,
        "threads": args.threads,
        "allow_large": args.allow_large,
    }
    if args.output:
        write_catalog(args.output, args.n, records, budget=budget)
    tallies = {
        "classes": len(records),
        "indecomposable": sum(1 for r in records if r.indecomposable),
        "irretractable": sum(1 for r in records if r.irretractable),
        "primitive": sum(1 for r in records if r.primitive),
        "multipermutation": sum(1 for r in records if r.mpl is not None),
        "brace_trivial": sum(1 for r in records if r.brace_trivial),
    }
    summary = {"n": args.n, "tallies": tallies, "search": vars(stats), "output": args.output}
    print(json.dumps(summary, indent=2 if args.pretty else None, sort_keys=True))
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    report = classify_primitive(
        args.n_max,
        threads=args.threads,
        allow_large=args.allow_large,
        time_budget_secs=args.time_budget,
    )
    if args.csv:
        with open_text(args.csv, "w", newline="") as fh:
            csv.writer(fh).writerows(report.csv_rows())
    _emit(report.to_json(), args)
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exit 2 means an invalid solution here, so usage errors exit EXIT_IO."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_IO, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ybekit",
        description=(
            "validate, analyze, enumerate and classify involutive "
            "non-degenerate set-theoretic Yang-Baxter solutions"
        ),
    )
    parser.add_argument("--version", action="version", version=f"ybekit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pretty", action="store_true", help="indented human-readable output")
    common.add_argument("--output", help="write the result to this path")

    search = argparse.ArgumentParser(add_help=False)
    search.add_argument("--threads", type=int, default=1)
    search.add_argument("--allow-large", action="store_true", help="permit the extended n=8 run")
    search.add_argument(
        "--time-budget",
        type=float,
        default=os.environ.get("YBEKIT_BUDGET_SECS"),
        help="seconds before aborting (default: $YBEKIT_BUDGET_SECS, else none)",
    )

    p = sub.add_parser("validate", parents=[common], help="check the three axioms")
    p.add_argument("source", help="path to a solution JSON file, or inline JSON")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("analyze", parents=[common], help="full record for one solution")
    p.add_argument("source", help="path to a solution JSON file, or inline JSON")
    p.add_argument("--brace-cap", type=int, default=DEFAULT_BRACE_CAP, help="group order cap")
    p.set_defaults(handler=cmd_analyze)

    p = sub.add_parser(
        "enumerate", parents=[common, search], help="enumerate all classes of one size"
    )
    p.add_argument("--n", type=int, required=True, help="set size")
    p.set_defaults(handler=cmd_enumerate)

    p = sub.add_parser(
        "classify", parents=[common, search], help="primitive classes for sizes 2..n_max"
    )
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--csv", help="also write a CSV summary to this path")
    p.set_defaults(handler=cmd_classify)

    return parser


def _range_error(args: argparse.Namespace) -> str | None:
    """The complaint about the first option value out of range, or None."""
    values = vars(args)
    for name in ("n", "n_max", "threads", "brace_cap"):
        if name in values and values[name] < 1:
            return f"{name} must be >= 1"
    budget = values.get("time_budget")
    if budget is not None and not budget > 0:  # NaN fails too
        return "time budget must be > 0"
    return None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    problem = _range_error(args)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return EXIT_IO
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (e.g. `| head`). Point stdout at devnull
        # so the interpreter's final flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    except OSError as exc:  # e.g. an unwritable --output or --csv path
        print(f"error: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ClassificationShapeError as exc:
        print(f"error: classification shape check failed: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except InvalidSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
