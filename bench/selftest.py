"""
Self-test of the benchmark harness at tiny sizes (a few seconds):

    python3 bench/selftest.py

Runs an n = 4 enumeration and a handful of analyze inputs through the
untraced and the traced measurement, and checks that every metric named in
BENCHMARK.json is emitted, that correct outputs pass, and that a wrong
expected digest or group order is counted as a failed operation.
"""
from __future__ import annotations

import json
import sys

from run import ROOT, import_ybekit

import_ybekit(ROOT)

import harness  # noqa: E402
import workloads  # noqa: E402
from workloads import Analyze, Case, Enumerate  # noqa: E402

SECONDS = 0.2


def check(cond: bool, message: str) -> None:
    if not cond:
        print(f"selftest: FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def run_both(wl, seed: int = 7):
    """Untraced and traced runs of `wl`; returns both outcomes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(end_to_end == harness.END_TO_END, "end_to_end metrics differ from BENCHMARK.json")
    check(per_layer == harness.PER_LAYER, "per_layer metrics differ from BENCHMARK.json")

    cases = wl.inputs(seed)
    out, metrics, _ = harness.measure(wl, cases, SECONDS)
    check(set(metrics) == set(end_to_end), f"{wl.name}: end-to-end names {sorted(metrics)}")
    check(out.attempted >= 1, f"{wl.name}: nothing attempted")
    check(all(v > 0 for v in metrics.values()), f"{wl.name}: a zero end-to-end metric")

    spans = ROOT / ".bench_out" / f"spans-selftest-{wl.name}.csv"
    spans.parent.mkdir(exist_ok=True)
    traced, layers, extra = harness.measure_traced(wl, cases, SECONDS, spans)
    spans.unlink()
    check(set(layers) == set(per_layer), f"{wl.name}: per-layer names {sorted(layers)}")
    check(extra["traced_passes"] >= 1 and extra["untraced_passes"] >= 1, "no traced pass")
    return out, traced, layers


def main() -> int:
    outdir = ROOT / ".bench_out"
    classes = workloads.load_classes()
    tiny = [c for c in classes if c.n <= 4][:8]

    enum = Enumerate("selftest-enumerate-n4", 4, 23, workloads.DIGEST_N4, None, outdir)
    out, traced, layers = run_both(enum)
    check(out.failed == 0 and traced.failed == 0, f"n = 4 enumeration failed: {out.errors}")
    check(layers["search.accepted"] == 23, f"search.accepted = {layers['search.accepted']}")
    check(layers["search.leaves"] >= 23 and layers["validate.calls"] >= 23, "search counts")
    check(layers["catalog.bytes"] > 0, "no catalog round trip")

    wrong = Enumerate("selftest-wrong-digest", 4, 23, "0" * 64, None, outdir)
    out, _, _ = run_both(wrong)
    check(out.failed >= 1 and out.failed == out.attempted - out.passes,
          "a wrong expected digest was not counted as failed operations")

    small = Analyze("selftest-small", workloads.small_cases(tiny), {})
    out, traced, layers = run_both(small)
    check(out.failed == 0 and traced.failed == 0, f"analyze failed: {out.errors}")
    check(layers["braces.build.calls"] == len(tiny), "one brace build per analyze")
    check(layers["canonical_form.calls"] == len(tiny), "one canonical form per analyze")

    large = Analyze(
        "selftest-large",
        workloads.large_cases(classes, ((2, 3),), (((2, 2, 0), (3, 3, 0)),)),
        {},
    )
    out, traced, layers = run_both(large)
    check(out.failed == 0 and traced.failed == 0, f"analyze failed: {out.errors}")
    check(layers["braces.assoc_validate.self_s"] > 0, "brace-associated validate not traced")

    def wrong_order(rng):
        return [Case(c.solution, c.group_order + 1, c.sigma) for c in workloads.small_cases(tiny)(rng)]

    out, _, _ = run_both(Analyze("selftest-wrong-order", wrong_order, {}))
    check(out.failed == out.attempted, "a wrong expected group order was not counted as failed")

    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
