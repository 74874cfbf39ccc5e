"""
The ybekit benchmark.

    python3 bench/run.py --workload enumerate-n6 --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: it imports ybekit from `src/` there and
refuses any other copy. Workloads are in workloads.py. With `--trace 0` it
reports the end-to-end metrics; with `--trace 1` it runs the traced pass
and reports the per-layer metrics (see harness.py). Human-readable lines
come first, with the provenance of the result; the last line of standard
output is the result as one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Scratch files (the catalog of the round trip, the spans of a traced run)
go to `.bench_out/` in the checkout. `baseline.json` beside this file holds
the figures of every workload at the commit it names, search counters
included. `selftest.py` checks the harness itself in a few seconds.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def import_ybekit(root: Path):
    src = root / "src"
    sys.path.insert(0, str(src))
    import ybekit

    where = Path(ybekit.__file__).resolve().parent
    if where != (src / "ybekit").resolve():
        raise ImportError(f"ybekit was imported from {where}, not from {src}")
    return ybekit


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    t0 = time.perf_counter()
    try:
        ybekit = import_ybekit(ROOT)
    except ImportError as exc:
        print(f"bench: cannot import ybekit from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0

    import numpy

    import harness
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    outdir = ROOT / ".bench_out"
    wl = workloads.build(args.workload, outdir)
    cases = wl.inputs(args.seed)

    if args.trace:
        outdir.mkdir(exist_ok=True)
        spans_path = outdir / f"spans-{args.workload}.csv"
        out, metrics, samples = harness.measure_traced(wl, cases, args.seconds, spans_path)
        units = harness.PER_LAYER
        samples["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        out, metrics, samples = harness.measure(wl, cases, args.seconds)
        metrics["setup_s"] += import_s
        samples["import_s"] = import_s
        units = harness.END_TO_END

    provenance = {
        "ybekit": ybekit.__version__,
        "commit": git_commit(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "params": wl.params(),
        "cases_per_pass": len(cases),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "samples": samples,
    }
    print("# provenance " + json.dumps(provenance, sort_keys=True, default=list))
    for name, value in metrics.items():
        print(f"# {name} = {value:.6g} {units[name]}")
    if "op_ms_p95" in samples:
        print(f"# op_ms_p95 = {samples['op_ms_p95']:.6g} ms over {samples['ops_timed']} operations")
    elif not args.trace:
        print(f"# op_ms_p95 not reported: {samples['ops_timed']} operations, "
              f"fewer than {harness.P95_MIN_SAMPLES}")
    print(f"# failed_ratio = {out.failed / out.attempted:.6g} ({out.failed}/{out.attempted})")
    if wl.counters is not None and out.op_seconds:
        per_op = {k: v / len(out.op_seconds) for k, v in out.counters.items()}
        state = "CHANGED from" if out.counter_changes else "equal to"
        print(f"# search counters per enumeration {per_op}, {state} the baseline {wl.counters}")
    for error in out.errors:
        print(f"bench: failed: {error}", file=sys.stderr)

    result = {
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
