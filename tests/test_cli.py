import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ybekit.catalog import CatalogRecord, read_catalog
from ybekit.cli import main
from ybekit.enumeration import analyze, fast_enumerate
from ybekit.solutions import Solution

ROOT = Path(__file__).resolve().parents[1]
# a solution whose sigma is nested past the JSON parser's recursion limit
DEEP_JSON = '{"n": 1, "sigma": ' + "[" * 50000 + "]" * 50000 + "}"


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
    return str(path)


def test_validate_ok(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"n": 2, "sigma": [[0, 1], [0, 1]]})
    assert main(["validate", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True


def test_validate_axiom_failure(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"n": 2, "sigma": [[0, 1], [1, 0]]})
    assert main(["validate", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["braid"] is False
    assert out["braid_counterexample"] == [0, 0, 1]
    assert out["nondegenerate"] is False
    assert out["nondegenerate_counterexample"] == [0, 0, 1]
    assert out["involutive"] is True
    assert out["involutive_counterexample"] is None


def test_validate_structural_failure(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"n": 2, "sigma": [[0, 0], [1, 0]]})
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "not a permutation" in err


def test_validate_malformed_json(tmp_path, capsys):
    path = write(tmp_path, "s.json", '{"n": 2, "sigma": [[0, 1], [1, 0]')
    assert main(["validate", path]) == 1
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_validate_missing_file(capsys):
    assert main(["validate", "/nonexistent/file.json"]) == 1


def test_validate_non_utf8_input(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b'{"n": 1, "sigma": [[0]]}\xff\xfe')
    for command in ("validate", "analyze"):
        assert main([command, str(path)]) == 1
        assert "not UTF-8" in capsys.readouterr().err


def test_validate_non_integer_entries(capsys):
    assert main(["validate", '{"n": 2, "sigma": [[0, 1.9], [true, 0]]}']) == 1
    assert "malformed sigma table" in capsys.readouterr().err


def test_validate_row_count_mismatch(capsys):
    assert main(["validate", '{"n": 2, "sigma": [[0, 1], [1, 0], [0, 1]]}']) == 1
    assert capsys.readouterr().err == 'error: "n" is 2 but the sigma table has 3 rows\n'


@pytest.mark.parametrize(
    "n, sigma", [("true", "[[0]]"), ("2.0", "[[0, 1], [0, 1]]"), ('"2"', "[[0, 1], [0, 1]]")]
)
def test_validate_non_integer_n(capsys, n, sigma):
    assert main(["validate", f'{{"n": {n}, "sigma": {sigma}}}']) == 1
    assert f'"n" must be a JSON int, not {json.loads(n)!r}' in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "analyze"])
def test_deeply_nested_json(command, capsys):
    assert main([command, DEEP_JSON]) == 1
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", '{"n": 1, "sigma": [[0]]}', "--output", "/nonexistent/x.json"],
        ["analyze", '{"n": 1, "sigma": [[0]]}', "--output", "/nonexistent/x.json"],
        ["enumerate", "--n", "2", "--output", "/nonexistent/d/x.jsonl"],
        ["classify", "--n-max", "2", "--output", "/nonexistent/x.json"],
        ["classify", "--n-max", "2", "--csv", "/nonexistent/x.csv"],
    ],
)
def test_unwritable_output_exits_1(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "a\x00b"],
        ["analyze", "a\x00b"],
        ["validate", '{"n": 1, "sigma": [[0]]}', "--output", "a\x00b"],
        ["analyze", '{"n": 1, "sigma": [[0]]}', "--output", "a\x00b"],
        ["enumerate", "--n", "2", "--output", "a\x00b"],
        ["classify", "--n-max", "2", "--output", "a\x00b"],
        ["classify", "--n-max", "2", "--csv", "a\x00b"],
    ],
)
def test_path_with_nul_byte_exits_1(argv, capsys):
    # open() raises ValueError, not OSError, on such a path
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_validate_inline_json(capsys):
    assert main(["validate", '{"n": 1, "sigma": [[0]]}']) == 0
    capsys.readouterr()


def test_analyze_cyclic(tmp_path, capsys):
    rows = [[1, 2, 3, 4, 0]] * 5
    path = write(tmp_path, "c5.json", {"n": 5, "sigma": rows})
    assert main(["analyze", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["primitive"] is True
    assert out["group_order"] == 5
    assert out["brace_trivial"] is True


def test_analyze_trivial(tmp_path, capsys):
    path = write(tmp_path, "t4.json", {"n": 4, "sigma": [[0, 1, 2, 3]] * 4})
    assert main(["analyze", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["indecomposable"] is False


def test_analyze_invalid_solution(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"n": 2, "sigma": [[0, 1], [1, 0]]})
    assert main(["analyze", path]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is False


def test_enumerate_writes_catalog(tmp_path, capsys):
    out_path = str(tmp_path / "n3.jsonl")
    assert main(["enumerate", "--n", "3", "--output", out_path]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tallies"]["classes"] == 5
    header, records = read_catalog(out_path)
    assert header["n"] == 3
    assert len(records) == 5
    # round-trip: re-analyzing a record reproduces its flags
    for rec in records:
        again = analyze(Solution(rec.n, rec.sigma))
        assert again.primitive == rec.primitive
        assert again.mpl == rec.mpl
        assert again.group_order == rec.group_order


def test_enumerate_reports_search_counters(capsys):
    assert main(["enumerate", "--n", "5"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["tallies"]["classes"] == 88
    assert summary["search"] == {
        "nodes": 471,
        "leaves": 211,
        "accepted": 88,
        "noncanonical_leaves": 123,
        "invalid_leaves": 0,
    }


def test_enumerate_budget_guard(capsys):
    assert main(["enumerate", "--n", "8"]) == 3
    assert "budget" in capsys.readouterr().err


def test_enumerate_size_below_one(capsys):
    for n in ("0", "-3"):
        assert main(["enumerate", "--n", n]) == 1
        assert "n must be >= 1" in capsys.readouterr().err


def test_enumerate_n1(tmp_path, capsys):
    out_path = str(tmp_path / "n1.jsonl")
    assert main(["enumerate", "--n", "1", "--output", out_path]) == 0
    _, records = read_catalog(out_path)
    assert len(records) == 1


def test_classify_small(tmp_path, capsys):
    csv_path = str(tmp_path / "summary.csv")
    assert main(["classify", "--n-max", "5", "--csv", csv_path]) == 0
    out = json.loads(capsys.readouterr().out)
    counts = {int(n): blob["count"] for n, blob in out["per_n"].items()}
    assert counts == {2: 1, 3: 1, 4: 0, 5: 1}
    lines = Path(csv_path).read_text().strip().splitlines()
    assert lines[0] == "n,primitive_classes,prime_size"
    assert len(lines) == 5


def test_classify_degenerate(capsys):
    assert main(["classify", "--n-max", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["per_n"] == {}


def test_classify_shape_failure_exits_4(monkeypatch, capsys):
    # a primitive record planted at composite size 4
    c4 = CatalogRecord(
        n=4, sigma=((1, 2, 3, 0),) * 4, valid=True, indecomposable=True,
        primitive=True, group_order=4,
    )

    def planted(n, **kwargs):
        return [c4] if n == 4 else fast_enumerate(n, **kwargs)

    monkeypatch.setattr("ybekit.enumeration.fast_enumerate", planted)
    assert main(["classify", "--n-max", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: classification shape check failed: "
        "found 1 primitive classes at composite size 4"
    ]


def test_bad_caps(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"n": 1, "sigma": [[0]]})
    assert main(["analyze", path, "--brace-cap", "0"]) == 1


def test_analyze_caps_exceeded(tmp_path, capsys):
    path = write(tmp_path, "c5.json", {"n": 5, "sigma": [[1, 2, 3, 4, 0]] * 5})
    assert main(["analyze", path, "--brace-cap", "4"]) == 3
    assert "order cap 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate"],
        ["enumerate", "--n", "x"],
        ["validate", "--no-such-flag", "s.json"],
        ["enumerate", "--n", "3", "--group-cap", "5"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["analyze", "--help"]])
def test_version_and_help_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_env_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("YBEKIT_BUDGET_SECS", "1e-9")
    # cached sizes return instantly even with a tiny budget; use a cold cache
    from ybekit.enumeration import _SEARCH_CACHE

    _SEARCH_CACHE.pop(6, None)
    assert main(["enumerate", "--n", "6"]) == 3
    assert "budget" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1", "nan"])
def test_time_budget_must_be_positive(budget, capsys):
    assert main(["enumerate", "--n", "6", "--time-budget", budget]) == 1
    assert "time budget must be > 0" in capsys.readouterr().err


def test_env_budget_read_by_search_commands_only(capsys, monkeypatch):
    monkeypatch.setenv("YBEKIT_BUDGET_SECS", "0")
    assert main(["enumerate", "--n", "6"]) == 1
    assert "time budget must be > 0" in capsys.readouterr().err
    monkeypatch.setenv("YBEKIT_BUDGET_SECS", "abc")
    assert main(["validate", '{"n": 1, "sigma": [[0]]}']) == 0


def test_process_exit_codes_and_closed_pipe():
    """Exit codes as a shell sees them, and a closed stdout ends without a traceback."""
    argv = [sys.executable, "-m", "ybekit.cli"]
    env = {**os.environ, "PYTHONPATH": "src"}
    cases = [
        (0, ["validate", '{"n": 1, "sigma": [[0]]}']),
        (1, ["validate", "{"]),
        (1, ["validate", DEEP_JSON]),
        (1, ["enumerate", "--n", "2", "--output", "/nonexistent/d/x.jsonl"]),
        (2, ["validate", '{"n": 2, "sigma": [[0, 1], [1, 0]]}']),
        (3, ["enumerate", "--n", "8"]),
    ]
    for code, args in cases:
        proc = subprocess.run(argv + args, cwd=ROOT, env=env, capture_output=True, timeout=120)
        assert proc.returncode == code, proc.stderr
        assert b"Traceback" not in proc.stderr
    with subprocess.Popen(
        argv + ["enumerate", "--n", "5"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err


def test_pretty_output(tmp_path, capsys):
    path = write(tmp_path, "s.json", {"n": 1, "sigma": [[0]]})
    assert main(["validate", path, "--pretty"]) == 0
    out = capsys.readouterr().out
    assert "\n  " in out
