"""
Command-line front end.

Commands: validate, analyze, enumerate, classify. All output is JSON by
default (--pretty switches to an indented human-readable form). Exit codes
are fixed so CI can discriminate failure classes:

    0  success
    1  I/O, parse or usage error (unreadable file, malformed JSON,
       non-permutation rows, unknown or missing option)
    2  invalid solution (an axiom fails)
    3  budget exceeded (size guard, order cap or time budget)
    4  classification shape failure (a primitive class of impossible form)

The environment variable YBEKIT_BUDGET_SECS overrides the time budget for
enumeration and classification runs.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .braces import DEFAULT_BRACE_CAP
from .catalog import write_catalog
from .enumeration import analyze, classify_primitive, fast_enumerate
from .errors import BudgetExceededError, InvalidSolutionError, ClassificationShapeError
from .permgroup import DEFAULT_ORDER_CAP
from .solutions import Solution, validate

EXIT_OK = 0
EXIT_IO = 1
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_SHAPE = 4


@dataclass
class RunConfig:
    command: str
    source: str | None = None
    n: int | None = None
    n_max: int | None = None
    group_order_cap: int = DEFAULT_ORDER_CAP
    brace_order_cap: int = DEFAULT_BRACE_CAP
    time_budget_secs: float | None = None
    output: str | None = None
    csv_path: str | None = None
    threads: int = 1
    allow_large: bool = False
    pretty: bool = False

    def __post_init__(self) -> None:
        if self.group_order_cap <= 0 or self.brace_order_cap <= 0:
            raise ValueError("caps must be positive")
        if self.n is not None and self.n < 1:
            raise ValueError("n must be >= 1")
        if self.n_max is not None and self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


def _emit(data: dict, cfg: RunConfig) -> None:
    text = json.dumps(data, indent=2 if cfg.pretty else None, sort_keys=True)
    if cfg.output and cfg.command in ("validate", "analyze", "classify"):
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)


def _load_solution(source: str) -> Solution:
    """Read a solution from a file path, or from inline JSON starting with '{'."""
    if source.lstrip().startswith("{"):
        raw = source
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = fh.read()
    data = json.loads(raw)
    return Solution.from_json(data)


def _load_or_report(source: str) -> Solution | None:
    """`_load_solution`, with any input error printed to stderr and mapped to None."""
    try:
        return _load_solution(source)
    except OSError as exc:
        print(f"error: cannot read input: {exc}", file=sys.stderr)
    except UnicodeDecodeError as exc:
        print(f"error: input is not UTF-8 text: {exc}", file=sys.stderr)
    except json.JSONDecodeError as exc:
        print(
            f"error: malformed JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
    except InvalidSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return None


def cmd_validate(cfg: RunConfig) -> int:
    s = _load_or_report(cfg.source)
    if s is None:
        return EXIT_IO
    report = validate(s)
    _emit(report.to_json(), cfg)
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_analyze(cfg: RunConfig) -> int:
    s = _load_or_report(cfg.source)
    if s is None:
        return EXIT_IO
    record = analyze(s, group_cap=cfg.group_order_cap, brace_cap=cfg.brace_order_cap)
    _emit(record.to_json(), cfg)
    return EXIT_OK if record.valid else EXIT_INVALID


def cmd_enumerate(cfg: RunConfig) -> int:
    records = fast_enumerate(
        cfg.n,
        threads=cfg.threads,
        allow_large=cfg.allow_large,
        time_budget_secs=cfg.time_budget_secs,
    )
    budget = {
        "time_budget_secs": cfg.time_budget_secs,
        "threads": cfg.threads,
        "allow_large": cfg.allow_large,
    }
    if cfg.output:
        write_catalog(cfg.output, cfg.n, records, budget=budget, version=__version__)
    tallies = {
        "classes": len(records),
        "indecomposable": sum(1 for r in records if r.indecomposable),
        "irretractable": sum(1 for r in records if r.irretractable),
        "primitive": sum(1 for r in records if r.primitive),
        "multipermutation": sum(1 for r in records if r.mpl is not None),
        "brace_trivial": sum(1 for r in records if r.brace_trivial),
    }
    summary = {"n": cfg.n, "tallies": tallies, "output": cfg.output}
    print(json.dumps(summary, indent=2 if cfg.pretty else None, sort_keys=True))
    return EXIT_OK


def cmd_classify(cfg: RunConfig) -> int:
    report = classify_primitive(
        cfg.n_max,
        threads=cfg.threads,
        allow_large=cfg.allow_large,
        time_budget_secs=cfg.time_budget_secs,
    )
    if cfg.csv_path:
        with open(cfg.csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(report.csv_rows())
    _emit(report.to_json(), cfg)
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

    p = sub.add_parser("validate", parents=[common], help="check the three axioms")
    p.add_argument("source", help="path to a solution JSON file, or inline JSON")

    p = sub.add_parser("analyze", parents=[common], help="full record for one solution")
    p.add_argument("source", help="path to a solution JSON file, or inline JSON")
    p.add_argument("--group-cap", type=int, default=DEFAULT_ORDER_CAP, help="group order cap")
    p.add_argument("--brace-cap", type=int, default=DEFAULT_BRACE_CAP, help="brace order cap")

    p = sub.add_parser("enumerate", parents=[common], help="enumerate all classes of one size")
    p.add_argument("--n", type=int, required=True, help="set size")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--allow-large", action="store_true", help="permit the extended n=8 run")
    p.add_argument("--time-budget", type=float, default=None, help="seconds before aborting")

    p = sub.add_parser("classify", parents=[common], help="primitive classes for sizes 2..n_max")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--allow-large", action="store_true")
    p.add_argument("--time-budget", type=float, default=None)
    p.add_argument("--csv", help="also write a CSV summary to this path")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    env_budget = os.environ.get("YBEKIT_BUDGET_SECS")
    time_budget = getattr(args, "time_budget", None)
    if time_budget is None and env_budget:
        time_budget = float(env_budget)
    return RunConfig(
        command=args.command,
        source=getattr(args, "source", None),
        n=getattr(args, "n", None),
        n_max=getattr(args, "n_max", None),
        group_order_cap=getattr(args, "group_cap", DEFAULT_ORDER_CAP),
        brace_order_cap=getattr(args, "brace_cap", DEFAULT_BRACE_CAP),
        time_budget_secs=time_budget,
        output=args.output,
        csv_path=getattr(args, "csv", None),
        threads=getattr(args, "threads", 1),
        allow_large=getattr(args, "allow_large", False),
        pretty=args.pretty,
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    handlers = {
        "validate": cmd_validate,
        "analyze": cmd_analyze,
        "enumerate": cmd_enumerate,
        "classify": cmd_classify,
    }
    try:
        return handlers[cfg.command](cfg)
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
