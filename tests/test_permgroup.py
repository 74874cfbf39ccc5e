import math

import pytest

from reference import all_pairs_derived_series
from ybekit import enumeration
from ybekit.enumeration import enumerate_canonical_tables, fast_enumerate
from ybekit.errors import BudgetExceededError
from ybekit.permgroup import BlockSystem, PermGroup, certainly_nonsolvable
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


def _affine(p, a):
    """x -> a x + 1 on Z/p when a == 1, else x -> a x: generators of affine groups."""
    return tuple((a * x + (a == 1)) % p for x in range(p))


def _fano(matrix):
    """An invertible 3 x 3 matrix over F_2 on the 7 points of the Fano plane, v - 1 for v."""
    cols = [sum(matrix[i][j] << i for i in range(3)) for j in range(3)]
    image = [0] * 7
    for v in range(1, 8):
        w = 0
        for j in range(3):
            if v >> j & 1:
                w ^= cols[j]
        image[v - 1] = w - 1
    return tuple(image)


# (name, generators, order): the certificate must hold on each, and each is
# checked non-solvable by its derived series
NONSOLVABLE = [
    # (c): the transposition fixes three points
    ("S5", [from_cycles(5, (0, 1, 2, 3, 4)), from_cycles(5, (0, 1))], 120),
    # (b): no generator or product of two fixes two points, and the
    # involution does not normalize the 5-cycle
    ("A5", [from_cycles(5, (0, 1, 2, 3, 4)), from_cycles(5, (1, 3), (2, 4))], 60),
    # (a): on the projective line 0..4, 5 = infinity, by x + 1, 2 x and -1/x
    ("PGL(2, 5)", [(1, 2, 3, 4, 0, 5), (0, 2, 4, 1, 3, 5), (5, 4, 2, 3, 1, 0)], 120),
    # (c): GL(3, 2) on the Fano plane, by a Singer 7-cycle and a transvection,
    # which fixes the three points of a line
    (
        "PSL(3, 2)",
        [_fano(((0, 0, 1), (1, 0, 1), (0, 1, 0))), _fano(((1, 1, 0), (0, 1, 0), (0, 0, 1)))],
        168,
    ),
]

# the same for solvable groups, on which the certificate must not hold
SOLVABLE = [
    ("AGL(1, 5)", [_affine(5, 1), _affine(5, 2)], 20),
    ("AGL(1, 7)", [_affine(7, 1), _affine(7, 3)], 42),
    ("C7 x| C3", [_affine(7, 1), _affine(7, 2)], 21),
    ("S4", [from_cycles(4, (0, 1, 2, 3)), from_cycles(4, (0, 1))], 24),
    (
        "S3 wr S2",
        [from_cycles(6, (0, 1, 2)), from_cycles(6, (0, 1)), from_cycles(6, (0, 3), (1, 4), (2, 5))],
        72,
    ),
    (
        "S2 wr S3",
        [
            from_cycles(6, (0, 1)),
            from_cycles(6, (0, 2, 4), (1, 3, 5)),
            from_cycles(6, (0, 2), (1, 3)),
        ],
        48,
    ),
    (
        "S4 x S3",
        [from_cycles(7, c) for c in ((0, 1, 2, 3), (0, 1), (4, 5, 6), (4, 5))],
        144,
    ),
]


@pytest.mark.parametrize("name, gens, order", NONSOLVABLE + SOLVABLE)
def test_certainly_nonsolvable_on_named_groups(name, gens, order):
    group = PermGroup.closure(gens)
    assert group.order == order
    assert group.is_solvable() == ((name, gens, order) in SOLVABLE)
    assert certainly_nonsolvable(gens, len(gens[0])) == (not group.is_solvable())


def _node_sets(monkeypatch, n):
    """Each distinct set of known rows the search of degree n asks about, with the verdict."""
    verdicts = {}

    def recording(gens, degree):
        verdicts[frozenset(gens)] = certainly_nonsolvable(gens, degree)
        return verdicts[frozenset(gens)]

    monkeypatch.setattr(enumeration, "certainly_nonsolvable", recording)
    enumerate_canonical_tables(n, use_cache=False)
    return verdicts


def test_certificate_cuts_only_nonsolvable_node_sets(monkeypatch):
    # at n <= 5 every node set is decided by brute force: the certificate
    # cuts 25 of the 33 non-solvable ones at n = 5, and none that is solvable
    for n in range(1, 6):
        verdicts = _node_sets(monkeypatch, n)
        nonsolvable = {s for s in verdicts if not PermGroup.closure(sorted(s)).is_solvable()}
        assert {s for s, cut in verdicts.items() if cut} <= nonsolvable
        assert (sum(verdicts.values()), len(nonsolvable)) == ((25, 33) if n == 5 else (0, 0))
    # at n = 6 it cuts 665 sets, of the 679 non-solvable ones among 1810:
    # each cut set is checked, one derived series per distinct group
    verdicts = _node_sets(monkeypatch, 6)
    assert len(verdicts) == 1810
    cut_groups = {PermGroup.closure(sorted(s)) for s, cut in verdicts.items() if cut}
    assert sum(verdicts.values()) == 665
    assert not any(group.is_solvable() for group in cut_groups)
