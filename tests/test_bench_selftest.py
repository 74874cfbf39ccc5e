"""
The benchmark's self-test, run from the repo root. The bench tracer patches
ybekit functions by name (enumerate_canonical_tables, enumeration.validate,
SymTables.ensure_comp, aligners, min_relabeled), so a refactor that renames
or bypasses one of them fails here, not only in the benchmark.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
