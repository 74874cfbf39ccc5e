"""Checks on the package itself: its doctests and its declared version."""
import doctest
import pathlib

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
