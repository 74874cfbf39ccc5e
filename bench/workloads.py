"""
The benchmark workloads and the checks on their outputs.

A workload is a list of operations made from the seed before any clock
starts (one pass), the Sym(n) degrees those operations use (its set-up),
and a check on every output. The seed changes labels and order only, never
how much work an operation does, so runs with different seeds measure the
same work.

* enumerate-n6: a cold-cache `fast_enumerate(6)`, then a catalog round
  trip. The search is about 97% of the time and braces are never called.
  n = 6 has the hot spots of n = 7 (aligners, propagation, candidate mask,
  leaf canonicity) at a fiftieth of the cost, so it can be repeated.
* analyze-small: `analyze()` on all 714 classes with n <= 6, each relabeled
  at random. Many tiny groups (order <= 24); the search is bypassed.
* analyze-large: `analyze()` on constant-row solutions and disjoint unions
  of two catalog classes, group orders 60 to 140. A few large brace calls
  instead of many small ones: most of the time is the O(|G|^3) `validate`
  of the |G|-point brace-associated solution. The n = 8 unions run
  `canonical_form` at degree 8.
"""
from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from ybekit import Solution, analyze, fast_enumerate, read_catalog, write_catalog
from ybekit.enumeration import SearchStats
from ybekit.perms import from_cycles
from ybekit.symtab import MAX_DEGREE

DATA = Path(__file__).resolve().parent / "data" / "classes.txt"

# Class counts for n = 1..6: Etingof, Schedler and Soloviev (1999),
# confirmed by Akguen, Mereb and Vendramin (2022).
LITERATURE_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23, 5: 88, 6: 595}

# `canonical_digest` of the 595 classes with n = 6, and of the 23 with n = 4.
DIGEST_N6 = "2cd320d315c43611e4cab55cdb79a2aef9440b7073472c4c23a74e30dbf3e761"
DIGEST_N4 = "0fca2cca324b0b7e1057f0eada117aeabe81e73df2dbd642396d9ee910aefe92"

# Search counters of one fast_enumerate(6) at ybekit 0.1.0. A change is
# reported with every result; it is not an error, but a pruning change
# must say so.
COUNTERS_N6 = {
    "nodes": 3947,
    "leaves": 1639,
    "accepted": 595,
    "noncanonical_leaves": 1044,
    "invalid_leaves": 0,
}

# analyze-large inputs. Constant-row solutions sigma_x = pi for all x, whose
# group is cyclic of order lcm(cycle lengths); and disjoint unions X + Y
# (sigma_x fixes Y pointwise and sigma_y fixes X), whose group is the direct
# product of the two groups. A class is picked as (n, group order, index
# among the catalog classes with that n and order).
CONSTANT_ROW_CYCLES = ((3, 4, 5), (7, 9), (3, 4, 7), (3, 5, 7), (4, 5, 7))
UNIONS = (
    ((4, 8, 0), (4, 8, 0)),
    ((4, 8, 0), (4, 8, 1)),
    ((5, 8, 0), (4, 8, 0)),
    ((6, 8, 0), (6, 8, 0)),
    ((6, 24, 0), (3, 3, 0)),
    ((6, 9, 0), (6, 8, 0)),
    ((6, 24, 0), (4, 4, 0)),
    ((6, 16, 0), (4, 8, 0)),
)


@dataclass(frozen=True)
class CatalogClass:
    n: int
    group_order: int
    sigma: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Case:
    """One analyze input with the outputs it must produce."""

    solution: Solution
    group_order: int
    sigma: tuple[tuple[int, ...], ...] | None  # expected canonical table, if known


def canonical_digest(tables) -> str:
    h = hashlib.sha256()
    for table in sorted(tables):
        h.update(";".join(",".join(map(str, row)) for row in table).encode())
        h.update(b"\n")
    return h.hexdigest()


def load_classes(path: Path = DATA) -> list[CatalogClass]:
    """The frozen class list, checked against the literature counts."""
    classes = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        n, order, *rows = line.split()
        sigma = tuple(tuple(int(c) for c in row) for row in rows)
        classes.append(CatalogClass(int(n), int(order), sigma))
    counts = Counter(c.n for c in classes)
    if dict(counts) != LITERATURE_COUNTS:
        raise ValueError(f"{path}: class counts {dict(counts)} != {LITERATURE_COUNTS}")
    if canonical_digest(c.sigma for c in classes if c.n == 6) != DIGEST_N6:
        raise ValueError(f"{path}: the n = 6 classes do not match DIGEST_N6")
    return classes


def random_relabel(sigma, rng: random.Random):
    """The table transported along a random bijection f: row f(x) is f sigma_x f^-1."""
    n = len(sigma)
    f = list(range(n))
    rng.shuffle(f)
    out = [[0] * n for _ in range(n)]
    for x, row in enumerate(sigma):
        for y, v in enumerate(row):
            out[f[x]][f[y]] = f[v]
    return tuple(tuple(row) for row in out)


def constant_row(lengths) -> tuple[tuple[int, ...], ...]:
    n, cyc = 0, []
    for length in lengths:
        cyc.append(tuple(range(n, n + length)))
        n += length
    return (from_cycles(n, *cyc),) * n


def disjoint_union(a, b) -> tuple[tuple[int, ...], ...]:
    n1, n2 = len(a), len(b)
    rows = [tuple(row) + tuple(range(n1, n1 + n2)) for row in a]
    rows += [tuple(range(n1)) + tuple(n1 + v for v in row) for row in b]
    return tuple(rows)


class Enumerate:
    """Cold-cache fast_enumerate(n) plus a catalog round trip of its records."""

    op_span = "records"

    def __init__(self, name, n, count, digest, counters, outdir: Path):
        self.name, self.n, self.count, self.digest = name, n, count, digest
        self.counters = counters
        self.outdir = outdir
        self.records = []
        self.catalog_bytes = 0

    def params(self) -> dict:
        return {"n": self.n, "use_cache": False, "threads": 1}

    def inputs(self, seed: int) -> list:
        self.rng = random.Random(seed)
        return [self.n]

    def degrees(self, cases) -> list[int]:
        return [self.n]

    def call(self, n):
        stats = SearchStats()
        return fast_enumerate(n, use_cache=False, stats=stats), stats

    def check(self, n, out) -> tuple[int, list[str], dict]:
        records, stats = out
        errors = []
        if len(records) != self.count:
            errors.append(f"n={n}: {len(records)} classes, expected {self.count}")
        if canonical_digest(r.sigma for r in records) != self.digest:
            errors.append(f"n={n}: digest of the canonical tables changed")
        self.records = records
        return len(records), errors, dict(vars(stats))

    def after_pass(self, span) -> list[str] | None:
        """Write the last records in a seeded order, read them back, compare."""
        records = list(self.records)
        self.rng.shuffle(records)
        self.outdir.mkdir(exist_ok=True)
        path = self.outdir / f"catalog-{self.name}.jsonl"
        try:
            with span("catalog.write"):
                write_catalog(str(path), self.n, records)
            self.catalog_bytes = path.stat().st_size
            with span("catalog.read"):
                header, back = read_catalog(str(path))
        finally:
            path.unlink(missing_ok=True)
        if header.get("n") != self.n or back != records:
            return ["catalog round trip returned different records"]
        return []


class Analyze:
    """analyze() on every case; the output must be valid with invariants_ok."""

    op_span = "analyze"
    counters = None
    catalog_bytes = 0

    def __init__(self, name, make_cases, params: dict):
        self.name = name
        self.make_cases = make_cases
        self._params = params

    def params(self) -> dict:
        return self._params

    def inputs(self, seed: int) -> list[Case]:
        return self.make_cases(random.Random(seed))

    def degrees(self, cases) -> list[int]:
        return sorted({c.solution.n for c in cases if c.solution.n <= MAX_DEGREE})

    def call(self, case: Case):
        return analyze(case.solution)

    def check(self, case: Case, rec) -> tuple[int, list[str], dict]:
        errors = []
        if not rec.valid or rec.invariants_ok is not True:
            errors.append(f"valid={rec.valid} invariants_ok={rec.invariants_ok}")
        if rec.group_order != case.group_order:
            errors.append(f"group order {rec.group_order}, expected {case.group_order}")
        if case.sigma is not None and rec.sigma != case.sigma:
            errors.append("canonical sigma differs from the class it was relabeled from")
        if errors:
            errors = [f"n={case.solution.n} {case.solution.sigma}: {e}" for e in errors]
        return 1, errors, {}

    def after_pass(self, span) -> None:
        return None


def small_cases(classes: list[CatalogClass]):
    def make(rng: random.Random) -> list[Case]:
        return [
            Case(Solution(c.n, random_relabel(c.sigma, rng)), c.group_order, c.sigma)
            for c in classes
        ]

    return make


def large_cases(classes: list[CatalogClass], cycle_types, unions):
    def pick(n, order, index):
        return [c for c in classes if c.n == n and c.group_order == order][index]

    def make(rng: random.Random) -> list[Case]:
        cases = [
            Case(Solution(sum(t), random_relabel(constant_row(t), rng)), math.lcm(*t), None)
            for t in cycle_types
        ]
        for ka, kb in unions:
            a, b = pick(*ka), pick(*kb)
            sigma = random_relabel(disjoint_union(a.sigma, b.sigma), rng)
            cases.append(Case(Solution(len(sigma), sigma), a.group_order * b.group_order, None))
        rng.shuffle(cases)
        return cases

    return make


def build(name: str, outdir: Path):
    """The named benchmark workload."""
    if name == "enumerate-n6":
        return Enumerate(name, 6, LITERATURE_COUNTS[6], DIGEST_N6, COUNTERS_N6, outdir)
    classes = load_classes()
    if name == "analyze-small":
        return Analyze(name, small_cases(classes), {"classes": len(classes), "max_n": 6})
    if name == "analyze-large":
        params = {
            "constant_row_cycles": CONSTANT_ROW_CYCLES,
            "unions": UNIONS,
            "group_orders": "60..140",
        }
        return Analyze(name, large_cases(classes, CONSTANT_ROW_CYCLES, UNIONS), params)
    raise KeyError(name)


WORKLOADS = ("enumerate-n6", "analyze-small", "analyze-large")
