"""
Measurement: the untraced run (end-to-end metrics) and the traced run
(per-layer metrics).

Both run whole passes over the workload's operations until `seconds` have
gone by, checking every output. Operations run one after another in this
single process (a closed loop with one client), with threads=1.
"""
from __future__ import annotations

import resource
import statistics
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field

from ybekit import symtab

from tracing import Tracer, instrumented

# Set-up is repeated this many times per run and its median reported.
SETUP_REPS = 5
# op_ms_p95 needs at least ten samples beyond the 95th percentile.
P95_MIN_SAMPLES = 200

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "symtab.build_s": "s",
    "symtab.comp_s": "s",
    "symtab.aligners.calls": "count",
    "symtab.aligners.self_s": "s",
    "symtab.min_relabeled.calls": "count",
    "symtab.min_relabeled.self_s": "s",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.leaves": "count",
    "search.accepted": "count",
    "search.noncanonical_leaves": "count",
    "search.invalid_leaves": "count",
    "search.accept_ratio": "ratio",
    "search.nodes_per_s": "1/s",
    "records.self_s": "s",
    "analyze.self_s": "s",
    "validate.calls": "count",
    "validate.self_s": "s",
    "validate.triples": "count",
    "canonical_form.calls": "count",
    "canonical_form.self_s": "s",
    "permgroup.closure.calls": "count",
    "permgroup.closure.self_s": "s",
    "permgroup.order_sum": "count",
    "permgroup.is_primitive.self_s": "s",
    "braces.build.calls": "count",
    "braces.build.self_s": "s",
    "braces.order_sum": "count",
    "braces.checks.self_s": "s",
    "braces.assoc_validate.self_s": "s",
    "catalog.write_s": "s",
    "catalog.read_s": "s",
    "catalog.bytes": "B",
    "trace.overhead_ratio": "ratio",
}


def no_span(name):
    return nullcontext()


@dataclass
class Outcome:
    """Operations attempted and failed, with the timings of those that ran."""

    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    op_seconds: list[float] = field(default_factory=list)
    items: int = 0
    passes: int = 0
    counters: Counter = field(default_factory=Counter)
    counter_changes: int = 0

    def fail(self, errors: list[str]) -> None:
        self.failed += 1
        self.errors.extend(errors[: max(0, 20 - len(self.errors))])


def set_up(degrees, reps: int = SETUP_REPS) -> list[float]:
    """Seconds per build of the Sym(n) tables the workload's operations use.

    The first build fills the library's table cache; the others are fresh
    copies made only to be timed.
    """
    times = []
    for rep in range(reps):
        t0 = time.perf_counter()
        for d in degrees:
            tab = symtab.get_tables(d) if rep == 0 else symtab.SymTables(d)
            tab.ensure_comp()
        times.append(time.perf_counter() - t0)
    return times


def run_pass(wl, cases, out: Outcome, span=no_span) -> None:
    """One operation per case, each timed and checked, then the pass check."""
    for case in cases:
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            with span(wl.op_span):
                result = wl.call(case)
        except Exception as exc:  # any exception is a failed operation
            out.fail([f"{type(exc).__name__}: {exc}"])
            continue
        out.op_seconds.append(time.perf_counter() - t0)
        items, errors, counters = wl.check(case, result)
        out.items += items
        out.counters.update(counters)
        if wl.counters is not None and counters != wl.counters:
            out.counter_changes += 1
        if errors:
            out.fail(errors)
    try:
        errors = wl.after_pass(span)
    except Exception as exc:
        out.attempted += 1
        out.fail([f"{type(exc).__name__}: {exc}"])
    else:
        if errors is not None:
            out.attempted += 1
            if errors:
                out.fail(errors)
    out.passes += 1


def measure(wl, cases, seconds: float) -> tuple[Outcome, dict, dict]:
    """The untraced run: set-up, then whole passes for `seconds`."""
    setup = set_up(wl.degrees(cases))
    out = Outcome()
    start = time.perf_counter()
    while True:
        run_pass(wl, cases, out)
        if time.perf_counter() - start >= seconds:
            break
    ops = out.op_seconds
    metrics = {
        "setup_s": statistics.median(setup),
        "items_per_s": out.items / sum(ops) if ops else 0.0,
        "op_ms_p50": 1e3 * statistics.median(ops) if ops else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"setup_reps": len(setup), "ops_timed": len(ops), "passes": out.passes}
    if len(ops) >= P95_MIN_SAMPLES:
        extra["op_ms_p95"] = 1e3 * statistics.quantiles(ops, n=20)[-1]
    return out, metrics, extra


def measure_traced(wl, cases, seconds: float, spans_path) -> tuple[Outcome, dict, dict]:
    """The traced run: untraced and traced passes alternate for `seconds`.

    Per-layer values are per pass, averaged over the traced passes, except
    the symtab build and comp times, which are per set-up.
    """
    setup_tracer = Tracer()
    with instrumented(setup_tracer):
        reps = len(set_up(wl.degrees(cases)))
    setup_total, _ = setup_tracer.times()

    out = Outcome()
    plain = Outcome()
    tracer = Tracer()
    plain_s = traced_s = 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        run_pass(wl, cases, plain)
        t1 = time.perf_counter()
        with instrumented(tracer):
            run_pass(wl, cases, out, tracer.span)
        t2 = time.perf_counter()
        plain_s += t1 - t0
        traced_s += t2 - t1
        if t2 - start >= seconds:
            break
    tracer.write(spans_path)

    total, own = tracer.times()
    calls, work, c = tracer.calls, tracer.work, out.counters
    per = 1.0 / out.passes
    leaves = c["leaves"]
    metrics = {
        "symtab.build_s": setup_total["symtab.build"] / reps,
        "symtab.comp_s": setup_total["symtab.comp"] / reps,
        "symtab.aligners.calls": calls["symtab.aligners"] * per,
        "symtab.aligners.self_s": own["symtab.aligners"] * per,
        "symtab.min_relabeled.calls": calls["symtab.min_relabeled"] * per,
        "symtab.min_relabeled.self_s": own["symtab.min_relabeled"] * per,
        "search.self_s": own["search"] * per,
        "search.nodes": c["nodes"] * per,
        "search.leaves": leaves * per,
        "search.accepted": c["accepted"] * per,
        "search.noncanonical_leaves": c["noncanonical_leaves"] * per,
        "search.invalid_leaves": c["invalid_leaves"] * per,
        "search.accept_ratio": c["accepted"] / leaves if leaves else 0.0,
        "search.nodes_per_s": c["nodes"] / total["search"] if total["search"] else 0.0,
        "records.self_s": own["records"] * per,
        "analyze.self_s": own["analyze"] * per,
        "validate.calls": (calls["validate"] + calls["validate.assoc"]) * per,
        "validate.self_s": (own["validate"] + own["validate.assoc"]) * per,
        "validate.triples": work["validate.triples"] * per,
        "canonical_form.calls": calls["canonical_form"] * per,
        "canonical_form.self_s": own["canonical_form"] * per,
        "permgroup.closure.calls": calls["permgroup.closure"] * per,
        "permgroup.closure.self_s": own["permgroup.closure"] * per,
        "permgroup.order_sum": work["permgroup.closure"] * per,
        "permgroup.is_primitive.self_s": own["permgroup.is_primitive"] * per,
        "braces.build.calls": calls["braces.build"] * per,
        "braces.build.self_s": own["braces.build"] * per,
        "braces.order_sum": work["braces.build"] * per,
        "braces.checks.self_s": own["braces.checks"] * per,
        "braces.assoc_validate.self_s": own["validate.assoc"] * per,
        "catalog.write_s": total["catalog.write"] * per,
        "catalog.read_s": total["catalog.read"] * per,
        "catalog.bytes": wl.catalog_bytes,
        "trace.overhead_ratio": traced_s / plain_s,
    }
    # The untraced passes are checked too.
    out.attempted += plain.attempted
    out.failed += plain.failed
    out.errors += plain.errors
    out.counter_changes += plain.counter_changes
    extra = {
        "setup_reps": reps,
        "traced_passes": out.passes,
        "untraced_passes": plain.passes,
        "spans": len(tracer.start),
    }
    return out, metrics, extra
