"""Checks on the package itself: its doctests, its declared version and its imports."""
import ast
import doctest
import os
import pathlib
import subprocess
import sys

import pytest

import ybekit
from ybekit import braces, enumeration, permgroup, perms, solutions, symtab

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perms_doctests_pass():
    result = doctest.testmod(perms)
    assert result.failed == 0 and result.attempted >= 9


def test_permgroup_doctests_pass():
    result = doctest.testmod(permgroup)
    assert result.failed == 0 and result.attempted >= 1


def test_symtab_doctests_pass():
    result = doctest.testmod(symtab)
    assert result.failed == 0 and result.attempted >= 7


def test_enumeration_doctests_pass():
    result = doctest.testmod(enumeration)
    assert result.failed == 0 and result.attempted >= 1


def test_solutions_doctests_pass():
    result = doctest.testmod(solutions)
    assert result.failed == 0 and result.attempted >= 1


def test_braces_doctests_pass():
    result = doctest.testmod(braces)
    assert result.failed == 0 and result.attempted >= 4


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["version"] == ybekit.__version__


def test_import_leaves_multiprocessing_out():
    # the search imports it only to start a pool; it costs import time and
    # pulls in socket and selectors
    code = "import sys, ybekit; print(sorted({'multiprocessing', 'socket'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "[]\n"


# bench/tracing.py patches these by name in the modules that import them
TRACER_PATCHED = {"enumeration.py": {"additive_identities_check", "check_brace_axiom"}}


def _unused_imports(path: pathlib.Path) -> set[str]:
    """Names a module imports and never reads; a dotted import binds its first part."""
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_src_modules_have_no_unused_imports():
    # __init__.py imports to re-export, so it is left out
    found = {
        path.name: names
        for path in sorted((ROOT / "src" / "ybekit").glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert found == TRACER_PATCHED
