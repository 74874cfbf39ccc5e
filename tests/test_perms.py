import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybekit.perms import (
    compose,
    cycle_type,
    cycles,
    from_cycles,
    identity,
    inverse,
    is_perm,
)

perms5 = st.permutations(range(5)).map(tuple)
perms = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.permutations(range(n)).map(tuple)
)


def test_compose_examples():
    assert compose((1, 2, 0), (1, 0, 2)) == (2, 1, 0)
    assert compose((0, 1, 2), (2, 0, 1)) == (2, 0, 1)
    assert compose((1, 0), (1, 0)) == (0, 1)


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_compose_is_right_to_left():
    p, q = (1, 2, 0), (0, 2, 1)
    r = compose(p, q)
    for i in range(3):
        assert r[i] == p[q[i]]


def test_inverse_examples():
    assert inverse((1, 2, 0)) == (2, 0, 1)
    assert inverse(identity(5)) == identity(5)
    assert inverse((1, 0, 3, 2)) == (1, 0, 3, 2)


def test_cycle_type_examples():
    assert cycle_type((1, 2, 0)) == (3,)
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type((1, 0, 2)) == (2, 1)


def test_cycles_cover_domain():
    assert cycles((1, 0, 3, 2)) == [(0, 1), (2, 3)]
    assert sum(cycle_type((3, 1, 4, 0, 2))) == 5


def test_from_cycles():
    assert from_cycles(4, (0, 1, 2)) == (1, 2, 0, 3)
    assert from_cycles(3) == identity(3)
    with pytest.raises(ValueError):
        from_cycles(3, (0, 1), (1, 2))


def test_is_perm():
    assert is_perm((2, 0, 1))
    assert not is_perm((0, 0, 1))
    assert not is_perm((0, 3, 1))
    assert not is_perm((True, 0, 2))


@given(perms5, perms5, perms5)
def test_compose_associative(p, q, r):
    assert compose(compose(p, q), r) == compose(p, compose(q, r))


@given(perms)
def test_inverse_involution(p):
    assert inverse(inverse(p)) == p
    assert compose(p, inverse(p)) == identity(len(p))


@given(perms5, perms5)
def test_cycle_type_conjugation_invariant(g, p):
    conj = compose(compose(g, p), inverse(g))
    assert cycle_type(conj) == cycle_type(p)
