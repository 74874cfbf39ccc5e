"""
Catalog records and flat-file persistence.

A catalog is JSON-lines: a header object carrying the set size, tool
version and budget parameters, then one record per solution class. Records
store the canonical sigma table plus the computed flags.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Any, Iterable

from . import __version__
from .errors import InvalidSolutionError
from .perms import Perm
from .solutions import Solution, validate


@dataclass(frozen=True)
class CatalogRecord:
    """Flags of one solution class, keyed by its canonical sigma table.

    For an invalid input (only `analyze` on arbitrary data produces those)
    every field after `valid` is None. `invariants_ok` is None when the
    structural invariant suite was not run (plain enumeration records).
    """

    n: int
    sigma: tuple[Perm, ...]
    valid: bool
    indecomposable: bool | None = None
    irretractable: bool | None = None
    primitive: bool | None = None
    mpl: int | None = None
    group_order: int | None = None
    brace_trivial: bool | None = None
    invariants_ok: bool | None = None

    def __post_init__(self) -> None:
        if self.primitive and not self.indecomposable:
            raise AssertionError("flags inconsistent: primitive implies indecomposable")

    def to_json(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["sigma"] = [list(row) for row in self.sigma]
        return out

    @classmethod
    def from_json(cls, data: Any) -> "CatalogRecord":
        """Parse one record; n and sigma follow the rules of a solution file.

        `valid` must be a JSON bool; every other flag a JSON value of its
        field's type (bool or int; a bool is not an int) or null. Keys
        outside the record's fields are refused, and a record marked valid
        must pass `validate`.
        """
        s = Solution.from_json(data)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise InvalidSolutionError(f"unknown record key(s) {unknown}")
        flags = {}
        for f in fields(cls)[2:]:
            v, kind = data.get(f.name), bool if f.type.startswith("bool") else int
            if type(v) is not kind and (v is not None or f.name == "valid"):
                raise InvalidSolutionError(f'"{f.name}" must be a JSON {kind.__name__}, not {v!r}')
            flags[f.name] = v
        if flags["valid"] and not validate(s).passed:
            raise InvalidSolutionError("record is marked valid but fails validate")
        try:
            return cls(n=s.n, sigma=s.sigma, **flags)
        except AssertionError as exc:  # the flag-consistency rule of __post_init__
            raise InvalidSolutionError(str(exc)) from exc


def open_text(path: str, mode: str = "r", newline: str | None = None):
    """open() in UTF-8, raising OSError, not ValueError, on a path holding a NUL byte."""
    try:
        return open(path, mode, encoding="utf-8", newline=newline)
    except ValueError as exc:
        raise OSError(f"invalid path {path!r}: {exc}") from None


def write_catalog(
    path: str,
    n: int,
    records: Iterable[CatalogRecord],
    budget: dict[str, Any] | None = None,
) -> None:
    """Write a JSON-lines catalog: header object first, one record per line."""
    header = {
        "header": True,
        "tool": "ybekit",
        "version": __version__,
        "n": n,
        "budget": budget or {},
    }
    with open_text(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for rec in records:
            fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def read_catalog(path: str) -> tuple[dict, list[CatalogRecord]]:
    """Read a JSON-lines catalog back as (header, records).

    A malformed line (nested too deeply to parse, or not UTF-8, included), a
    header whose n is not a JSON int, or a record whose n is not the
    header's, raises InvalidSolutionError naming its line number.
    """
    with open_text(path) as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:  # exc.object is the whole file
            lineno = len((exc.object[: exc.start].decode("utf-8") + "x").splitlines())
            raise InvalidSolutionError(f"catalog line {lineno}: not UTF-8: {exc.reason}") from exc
    header, records = None, []
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            if header is None:
                if not isinstance(obj, dict) or not obj.get("header"):
                    raise InvalidSolutionError("catalog file does not start with a header line")
                if type(obj.get("n")) is not int:
                    raise InvalidSolutionError(f'header "n" must be a JSON int, not {obj.get("n")!r}')
                header = obj
            else:
                records.append(CatalogRecord.from_json(obj))
                if records[-1].n != header.get("n"):
                    raise InvalidSolutionError(f"record n is not the header n = {header.get('n')}")
        except json.JSONDecodeError as exc:
            raise InvalidSolutionError(
                f"catalog line {lineno}: malformed JSON: {exc.msg}"
            ) from exc
        except RecursionError as exc:
            raise InvalidSolutionError(
                f"catalog line {lineno}: malformed JSON: nested too deeply to parse"
            ) from exc
        except InvalidSolutionError as exc:
            raise InvalidSolutionError(f"catalog line {lineno}: {exc}") from exc
    if header is None:
        raise InvalidSolutionError("empty catalog file")
    return header, records
