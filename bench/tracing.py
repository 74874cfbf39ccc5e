"""
Span tracer for the traced benchmark run.

Spans are recorded at the layer boundaries of ybekit by replacing, for the
duration of a traced pass, the module-level names that one layer calls in
another (for example `ybekit.enumeration.validate` or
`SymTables.aligners`). Each span is (name, start, end, parent); spans stay
in memory in flat arrays and are written out once, at the end of the run.
A layer's self time is the length of its spans minus the part covered by
their child spans.

Nothing here changes what the library computes: every wrapper calls the
original and returns its result unchanged.
"""
from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

from ybekit import enumeration
from ybekit.permgroup import PermGroup
from ybekit.symtab import SymTables

# Names the invariant suite calls in the braces module besides the brace
# construction; with `associated_solution` they form the `braces.checks` span.
BRACE_CHECKS = (
    "lambda_matches_action",
    "check_brace_axiom",
    "additive_identities_check",
    "socle_is_ideal",
    "is_trivial_brace",
    "sylow_decomposition",
    "decomp_check",
    "socle",
)


class Tracer:
    """In-memory span store with per-name call counts and work counts."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.calls: Counter[str] = Counter()
        self.work: Counter[str] = Counter()

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        self.calls[name] += 1
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, work=None):
        """`fn` traced as one span per call; `work(args, result)` adds to work[name]."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            idx = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if work is not None:
                self.work[name] += work(args, out)
            return out

        return traced

    def wrap_generator(self, name: str, fn):
        """A generator function traced as one span per item it produces."""

        def traced(*args, **kwargs):
            self.calls[name] += 1
            it = fn(*args, **kwargs)
            while True:
                idx = self.open(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.close(idx)
                yield item

        return traced

    def times(self) -> tuple[dict[str, float], dict[str, float]]:
        """(total, self) seconds per span name."""
        n = len(self.start)
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i in range(n):
            name = self.names[name_id[i]]
            d = end[i] - start[i]
            total[name] += d
            self_time[name] += d - child[i]
        return total, self_time

    def write(self, path: str) -> None:
        """All spans as CSV: name, start, end, parent index (-1 for roots)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.names[self.name_id[i]]},{self.start[i]!r},"
                    f"{self.end[i]!r},{self.parent[i]}\n"
                )


@contextmanager
def instrumented(tracer: Tracer):
    """Route ybekit's layer boundaries through `tracer` inside the block."""
    last_assoc = []

    def assoc_solution(b):
        s = orig_assoc(b)
        last_assoc[:] = [s]
        return s

    def validate(s):
        # The invariant suite validates the brace-associated solution right
        # after building it; those calls get their own span name.
        name = "validate.assoc" if last_assoc and s is last_assoc[0] else "validate"
        tracer.calls[name] += 1
        tracer.work["validate.triples"] += s.n**3
        idx = tracer.open(name)
        try:
            return orig_validate(s)
        finally:
            tracer.close(idx)

    orig_assoc = enumeration.associated_solution
    orig_validate = enumeration.validate
    closure = PermGroup.__dict__["closure"].__func__
    patches = [
        (enumeration, "enumerate_canonical_tables",
         tracer.wrap("search", enumeration.enumerate_canonical_tables)),
        (enumeration, "validate", validate),
        (enumeration, "canonical_form",
         tracer.wrap("canonical_form", enumeration.canonical_form)),
        (enumeration, "brace_from_solution",
         tracer.wrap("braces.build", enumeration.brace_from_solution,
                     work=lambda args, out: out.order)),
        *[
            (enumeration, name, tracer.wrap("braces.checks", getattr(enumeration, name)))
            for name in BRACE_CHECKS
        ],
        (enumeration, "associated_solution", tracer.wrap("braces.checks", assoc_solution)),
        (PermGroup, "closure",
         classmethod(tracer.wrap("permgroup.closure", closure,
                                 work=lambda args, out: out.order))),
        (PermGroup, "is_primitive",
         tracer.wrap("permgroup.is_primitive", PermGroup.is_primitive)),
        (SymTables, "__init__", tracer.wrap("symtab.build", SymTables.__init__)),
        (SymTables, "ensure_comp", tracer.wrap("symtab.comp", SymTables.ensure_comp)),
        (SymTables, "min_relabeled",
         tracer.wrap("symtab.min_relabeled", SymTables.min_relabeled)),
        (SymTables, "aligners", tracer.wrap_generator("symtab.aligners", SymTables.aligners)),
    ]
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    for owner, attr, new in patches:
        setattr(owner, attr, new)
    try:
        yield tracer
    finally:
        for owner, attr, old in reversed(saved):
            setattr(owner, attr, old)
