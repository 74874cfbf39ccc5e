import math

import pytest

from reference import all_pairs_derived_series
from ybekit.enumeration import fast_enumerate
from ybekit.errors import BudgetExceededError
from ybekit.permgroup import BlockSystem, PermGroup
from ybekit.perms import compose, from_cycles, identity, inverse
from ybekit.solutions import Solution, solution_group


def sym3():
    return PermGroup.closure([(1, 0, 2), (1, 2, 0)])


def test_closure_orders():
    assert PermGroup.closure([(1, 2, 0)]).order == 3
    assert sym3().order == 6
    assert PermGroup.closure([], degree=4).order == 1


def test_closure_contains_identity_and_inverses():
    g = sym3()
    assert identity(3) in g
    for p in g:
        assert inverse(p) in g
        for q in g:
            assert compose(p, q) in g


def test_closure_cap():
    with pytest.raises(BudgetExceededError):
        PermGroup.closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], cap=10)


@pytest.mark.parametrize("gen", [(0, 0, 1), (True, False)])
def test_closure_rejects_a_generator_that_is_not_a_permutation(gen):
    with pytest.raises(ValueError, match="not a permutation"):
        PermGroup.closure([gen])


def test_lagrange_sanity():
    assert sym3().check_lagrange()
    assert PermGroup.closure([(1, 2, 3, 0)]).check_lagrange()


def test_orbits():
    assert PermGroup.closure([(1, 0, 2)]).orbits() == ((0, 1), (2,))
    assert PermGroup.closure([(1, 2, 3, 0)]).orbits() == ((0, 1, 2, 3),)
    assert PermGroup.closure([], degree=2).orbits() == ((0,), (1,))


def test_minimal_block_examples():
    c4 = PermGroup.closure([(1, 2, 3, 0)])
    assert c4.minimal_block_containing(0, 2).blocks == ((0, 2), (1, 3))
    assert c4.minimal_block_containing(0, 1).blocks == ((0, 1, 2, 3),)
    s3 = sym3()
    for b in (1, 2):
        assert s3.minimal_block_containing(0, b).blocks == ((0, 1, 2),)


def test_minimal_block_preconditions():
    with pytest.raises(ValueError):
        PermGroup.closure([(1, 0, 2)]).minimal_block_containing(0, 1)
    with pytest.raises(ValueError):
        sym3().minimal_block_containing(1, 1)


def test_block_system_lookup():
    bs = BlockSystem(((0, 2), (1, 3)))
    assert bs.block_of(3) == (1, 3)
    assert bs.block_count == 2


def test_is_primitive():
    assert PermGroup.closure([(1, 2, 0)]).is_primitive()
    assert not PermGroup.closure([(1, 2, 3, 0)]).is_primitive()
    assert not PermGroup.closure([], degree=3).is_primitive()
    assert PermGroup.closure([], degree=1).is_primitive()
    assert PermGroup.closure([(1, 0)]).is_primitive()


def test_primitive_implies_transitive():
    for gens, degree in (
        ([(1, 2, 0)], 3),
        ([(1, 0, 2)], 3),
        ([(1, 2, 3, 0)], 4),
        ([], 2),
    ):
        g = PermGroup.closure(gens, degree=degree)
        if g.is_primitive():
            assert g.is_transitive() or g.degree == 1


def test_stabilizer():
    assert sym3().stabilizer(2).order == 2
    assert PermGroup.closure([(1, 2, 0)]).stabilizer(0).order == 1
    trivial = PermGroup.closure([], degree=3)
    assert trivial.stabilizer(1).order == 1


def test_orbit_stabilizer_for_all_points():
    for g in (sym3(), PermGroup.closure([(1, 2, 3, 0)]), PermGroup.closure([(1, 0, 2)])):
        for x in range(g.degree):
            assert len(g.orbit(x)) * g.stabilizer(x).order == g.order


def test_solvability():
    assert sym3().is_solvable()
    assert PermGroup.closure([(1, 2, 3, 4, 0)]).is_solvable()
    alt5 = PermGroup.closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)])
    assert alt5.order == 60
    assert not alt5.is_solvable()


def test_derived_series_of_sym3():
    series = sym3().derived_series()
    assert [g.order for g in series] == [6, 3, 1]


def _analyze_large_groups():
    """
    The groups of the analyze benchmark's large inputs: constant-row
    solutions (cyclic groups of order lcm of the cycle lengths) and direct
    products of the groups of two catalog classes, each picked as
    (n, group order, index among the classes with that n and order).
    """
    groups = []
    for lengths in ((3, 4, 5), (7, 9), (3, 4, 7), (3, 5, 7), (4, 5, 7)):
        starts = [sum(lengths[:i]) for i in range(len(lengths))]
        pi = from_cycles(sum(lengths), *(range(a, a + ln) for a, ln in zip(starts, lengths)))
        groups.append(PermGroup.closure([pi]))
        assert groups[-1].order == math.lcm(*lengths)

    def pick(n, order, index):
        return [r for r in fast_enumerate(n) if r.group_order == order][index].sigma

    for a, b in (
        ((4, 8, 0), (4, 8, 0)),
        ((4, 8, 0), (4, 8, 1)),
        ((5, 8, 0), (4, 8, 0)),
        ((6, 8, 0), (6, 8, 0)),
        ((6, 24, 0), (3, 3, 0)),
        ((6, 9, 0), (6, 8, 0)),
        ((6, 24, 0), (4, 4, 0)),
        ((6, 16, 0), (4, 8, 0)),
    ):
        sa, sb = pick(*a), pick(*b)
        na, nb = len(sa), len(sb)
        rows = [row + tuple(range(na, na + nb)) for row in sa]
        rows += [tuple(range(na)) + tuple(na + v for v in row) for row in sb]
        groups.append(solution_group(Solution(na + nb, tuple(rows))))
        assert groups[-1].order == a[1] * b[1]
    return groups


def test_derived_series_matches_all_pairs_reference(records_up_to_6):
    """
    The normal closure of the generator commutators against the subgroup
    closed from all element-pair commutators, on the group of every class
    with n <= 6, on Sym(4), Sym(5) and Alt(5), and on the analyze-large groups.
    """
    groups = [
        solution_group(Solution(n, rec.sigma))
        for n, recs in records_up_to_6.items()
        for rec in recs
    ]
    groups += [
        PermGroup.closure([(1, 0, 2, 3), (1, 2, 3, 0)]),
        PermGroup.closure([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]),
        PermGroup.closure([(1, 2, 0, 3, 4), (0, 1, 3, 4, 2)]),
    ]
    groups += _analyze_large_groups()
    for g in groups:
        got, want = g.derived_series(), all_pairs_derived_series(g)
        assert [h.elements for h in got] == [h.elements for h in want]
