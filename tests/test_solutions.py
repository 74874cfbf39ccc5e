import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import braid_sides, loop_validate, pair_map
from ybekit import solutions
from ybekit.errors import InvalidSolutionError
from ybekit.solutions import (
    _SLAB_TRIPLES,
    Solution,
    canonical_form,
    gamma,
    gamma_table,
    is_indecomposable,
    is_irretractable,
    is_isomorphic,
    multipermutation_level,
    relabel,
    retract,
    sigma_class_blocks,
    solution_group,
    validate,
)

CYCLIC3 = Solution.permutation_solution((1, 2, 0))
# derived by exhaustive search: an irretractable class of size 4
IRRETRACTABLE4 = Solution.from_rows(
    [[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]]
)


def swap_solution():
    return Solution.from_rows([[0, 1], [1, 0]])  # sigma = [id, (0 1)]: not a solution


def test_structural_rejection():
    with pytest.raises(InvalidSolutionError):
        Solution.from_rows([[0, 0], [1, 0]])
    with pytest.raises(InvalidSolutionError):
        Solution(2, ((0, 1),))
    with pytest.raises(InvalidSolutionError):
        Solution.from_json({"n": 3, "sigma": [[0, 1], [1, 0]]})


@pytest.mark.parametrize(
    "rows", [[[0, 1.9], [True, 0]], [[0, 1], [1.0, 0]], [[0, 1], ["1", "0"]], [[0, 1], [False, 1]]]
)
def test_non_integer_entries_rejected(rows):
    with pytest.raises(InvalidSolutionError):
        Solution.from_rows(rows)


def test_from_json_row_count_checked_before_rows():
    # two-entry rows are permutations of 0..1, so only the count is wrong
    with pytest.raises(InvalidSolutionError, match='^"n" is 2 but the sigma table has 3 rows$'):
        Solution.from_json({"n": 2, "sigma": [[0, 1], [1, 0], [0, 1]]})


@pytest.mark.parametrize("n", [True, 1.0, "1"])
def test_non_integer_n_rejected(n):
    # "n" follows the rule of the entries: 1 == True == 1.0 must not pass it
    with pytest.raises(InvalidSolutionError, match=f'"n" must be a JSON int, not {n!r}'):
        Solution.from_json({"n": n, "sigma": [[0]]})


def test_numpy_integer_entries_accepted():
    rows = np.array([[1, 0], [1, 0]], dtype=np.int16)
    assert Solution.from_rows(rows).sigma == ((1, 0), (1, 0))
    assert Solution.from_rows([[np.int64(0)]]).sigma == ((0,),)


def test_json_round_trip():
    s = IRRETRACTABLE4
    blob = json.dumps(s.to_json())
    assert Solution.from_json(json.loads(blob)) == s


def test_gamma_examples():
    assert gamma(Solution.trivial(3), 1, 2) == 2
    assert gamma(Solution.permutation_solution((1, 0)), 0, 0) == 1
    assert gamma(CYCLIC3, 0, 1) == 0
    with pytest.raises(ValueError):
        gamma(CYCLIC3, 0, 3)


def test_gamma_table_matches_pointwise():
    s = IRRETRACTABLE4
    gt = gamma_table(s)
    for y in range(4):
        for x in range(4):
            assert gt[y][x] == gamma(s, y, x)


def test_validate_trivial_and_permutation():
    assert validate(Solution.trivial(2)).passed
    for pi in itertools.permutations(range(4)):
        assert validate(Solution.permutation_solution(pi)).passed


def test_validate_rejects_swap_table():
    report = validate(swap_solution())
    assert not report.passed
    assert not report.nondegenerate
    assert not report.braid
    assert report.braid_counterexample == (0, 0, 1)
    # gamma_0 sends both points to 0; r is involutive for any table of rows
    assert report.nondegenerate_counterexample == (0, 0, 1)
    assert report.involutive and report.involutive_counterexample is None
    assert report.to_json()["nondegenerate_counterexample"] == [0, 0, 1]
    assert report.to_json()["involutive_counterexample"] is None
    # re-evaluate the reported counterexample with an independent walk
    s = swap_solution()
    gt = gamma_table(s)

    def r(pair):
        x, y = pair
        return (s.sigma[x][y], gt[y][x])

    def r12(t):
        a, b = r((t[0], t[1]))
        return (a, b, t[2])

    def r23(t):
        a, b = r((t[1], t[2]))
        return (t[0], a, b)

    t = report.braid_counterexample
    assert r12(r23(r12(t))) != r23(r12(r23(t)))


def _row_swaps(sigma):
    """The table, then each table made from it by swapping two entries of one row."""
    yield sigma
    for x, row in enumerate(sigma):
        for i, j in itertools.combinations(range(len(row)), 2):
            new = list(row)
            new[i], new[j] = new[j], new[i]
            yield sigma[:x] + (tuple(new),) + sigma[x + 1 :]


def _corrupted_permutation_solution(n, fixed, seed):
    """
    Rows x < `fixed` are the identity and the others one random permutation
    of the points >= `fixed`; then one of those rows gets two entries
    swapped. Every row fixes the points below `fixed`, so r(x, y) = (y, x)
    for x < `fixed` and all triples with such an x satisfy the braid
    relation: any failure lies at x >= `fixed`.
    """
    rng = random.Random(seed)
    tail = list(range(fixed, n))
    rng.shuffle(tail)
    pi = tuple(range(fixed)) + tuple(tail)
    rows = [tuple(range(n)) if x < fixed else pi for x in range(n)]
    t = rng.randrange(fixed, n)
    i, j = rng.sample(range(fixed, n), 2)
    row = list(rows[t])
    row[i], row[j] = row[j], row[i]
    rows[t] = tuple(row)
    return Solution(n, tuple(rows))


def test_validate_matches_loop_reference(records_up_to_5):
    # every class with n <= 5 and all its single-entry row swaps
    for n, records in records_up_to_5.items():
        for rec in records:
            for sigma in _row_swaps(rec.sigma):
                s = Solution(n, sigma)
                assert validate(s) == loop_validate(s), sigma


@pytest.mark.parametrize("fixed", [0, 50])
def test_validate_matches_loop_reference_across_slabs(fixed):
    n = 72
    slab = _SLAB_TRIPLES // n**2  # x values per braid slab
    assert slab < n
    s = _corrupted_permutation_solution(n, fixed, seed=0)
    report = validate(s)
    assert report == loop_validate(s)
    assert not report.braid
    if fixed:  # the first failure lies past the first slab
        assert report.braid_counterexample[0] >= fixed >= slab


@pytest.mark.parametrize(
    "slab",
    [
        lambda n: 1,  # one x per slab
        lambda n: n * n - 1,  # below one x's n^2 triples: still one x per slab
        lambda n: 2 * n * n + 1,  # two x per slab, the last slab short at odd n
        lambda n: solutions._SLAB_TRIPLES,  # the shipped value: one slab for n <= 5
    ],
    ids=["1", "n^2-1", "2n^2+1", "default"],
)
def test_validate_matches_loop_reference_at_slab_bounds(records_up_to_5, monkeypatch, slab):
    differing = set()  # braid components that differ at each lex-first failing triple
    for n, records in records_up_to_5.items():
        monkeypatch.setattr(solutions, "_SLAB_TRIPLES", slab(n))
        for rec in records:
            for sigma in _row_swaps(rec.sigma):
                s = Solution(n, sigma)
                report = validate(s)
                assert report == loop_validate(s), sigma
                if report.braid_counterexample:
                    lhs, rhs = braid_sides(pair_map(s), *report.braid_counterexample)
                    differing.add(tuple(i for i in range(3) if lhs[i] != rhs[i]))
    # the packed comparison catches a failure in each component on its own
    assert {(0,), (1,), (2,)} <= differing


def test_validate_involutive_for_every_table_of_rows():
    # gamma is derived from sigma, so r(r(x, y)) = (x, y) for any rows at all
    rng = random.Random(5)
    failing = 0
    for _ in range(300):
        n = rng.randint(1, 9)
        rows = tuple(tuple(rng.sample(range(n), n)) for _ in range(n))
        report = validate(Solution(n, rows))
        assert report.involutive and report.involutive_counterexample is None, rows
        failing += not report.passed
    assert failing > 200  # the corpus is mostly not solutions


def test_validate_involutivity_restatement():
    # r applied twice returns every pair, for a sample of valid tables
    for s in (Solution.trivial(3), CYCLIC3, IRRETRACTABLE4):
        gt = gamma_table(s)
        for x in range(s.n):
            for y in range(s.n):
                u, v = s.sigma[x][y], gt[y][x]
                assert (s.sigma[u][v], gt[v][u]) == (x, y)


def test_is_indecomposable():
    assert is_indecomposable(CYCLIC3)
    assert not is_indecomposable(Solution.trivial(2))
    assert not is_indecomposable(Solution.permutation_solution((1, 0, 2)))
    assert is_indecomposable(Solution.trivial(1))


def test_sigma_class_blocks():
    part = sigma_class_blocks(Solution.permutation_solution((1, 0, 3, 2)))
    assert part.classes == ((0, 1, 2, 3),)
    assert part.generator_invariant

    part = sigma_class_blocks(IRRETRACTABLE4)
    assert part.classes == ((0,), (1,), (2,), (3,))
    assert part.generator_invariant

    part = sigma_class_blocks(Solution.trivial(3))
    assert part.classes == ((0, 1, 2),)


def test_sigma_classes_are_group_invariant():
    for s in (CYCLIC3, IRRETRACTABLE4, Solution.trivial(4)):
        part = sigma_class_blocks(s)
        class_sets = {frozenset(c) for c in part.classes}
        for g in solution_group(s):
            for c in part.classes:
                assert frozenset(g[x] for x in c) in class_sets


def test_retract():
    assert retract(Solution.permutation_solution((1, 2, 3, 4, 0))).n == 1
    r = retract(IRRETRACTABLE4)
    assert r.n == 4 and r.sigma == IRRETRACTABLE4.sigma
    assert retract(Solution.trivial(4)).n == 1


def test_retract_validates():
    mixed = Solution.from_rows([[1, 0, 2], [1, 0, 2], [0, 1, 2]])
    assert validate(mixed).passed
    r = retract(mixed)
    assert validate(r).passed
    assert r.n == 2


def test_retract_refuses_classes_that_rows_split():
    # row (2 1 0) maps the class {0, 1} onto {1, 2}, which is no class
    s = Solution(3, ((0, 1, 2), (0, 1, 2), (2, 1, 0)))
    assert not sigma_class_blocks(s).generator_invariant
    with pytest.raises(AssertionError, match="not well defined"):
        retract(s)


def test_multipermutation_level():
    assert multipermutation_level(Solution.trivial(1)) == 0
    assert multipermutation_level(Solution.permutation_solution((1, 0))) == 1
    assert multipermutation_level(IRRETRACTABLE4) is None
    assert multipermutation_level(Solution.trivial(3)) == 1


def test_canonical_form_idempotent_and_invariant():
    c = canonical_form(IRRETRACTABLE4)
    assert canonical_form(c).sigma == c.sigma
    assert canonical_form(Solution.trivial(3)).sigma == Solution.trivial(3).sigma
    # the two relabelings of a 3-cycle permutation solution agree
    a = canonical_form(Solution.permutation_solution((1, 2, 0)))
    b = canonical_form(Solution.permutation_solution((2, 0, 1)))
    assert a.sigma == b.sigma


@given(st.permutations(range(4)).map(tuple))
def test_canonical_form_constant_on_orbits(f):
    s = IRRETRACTABLE4
    assert canonical_form(relabel(s, f)).sigma == canonical_form(s).sigma


def test_canonical_form_is_orbit_minimum():
    # cross-check the vectorized sweep against a plain relabeling loop
    for s in (
        IRRETRACTABLE4,
        Solution.from_rows([[1, 0, 2], [1, 0, 2], [0, 1, 2]]),
        Solution.permutation_solution((2, 0, 1)),
    ):
        expected = min(
            relabel(s, f).sigma for f in itertools.permutations(range(s.n))
        )
        assert canonical_form(s).sigma == expected


def test_relabel_round_trip():
    f = (2, 0, 3, 1)
    finv = (1, 3, 0, 2)
    s = IRRETRACTABLE4
    assert relabel(relabel(s, f), finv) == s


@pytest.mark.parametrize("f", [(0, 1, 5), (0, 0, 0)])
def test_relabel_rejects_a_relabeling_that_is_not_a_permutation(f):
    with pytest.raises(ValueError, match=r"relabeling \(0, \d, \d\) is not a permutation"):
        relabel(Solution.permutation_solution((1, 2, 0)), f)


def test_is_isomorphic():
    assert is_isomorphic(
        Solution.permutation_solution((1, 2, 0)), Solution.permutation_solution((2, 0, 1))
    )
    assert not is_isomorphic(Solution.trivial(3), CYCLIC3)
    assert not is_isomorphic(Solution.trivial(3), Solution.trivial(4))


def test_irretractable_flag():
    assert is_irretractable(IRRETRACTABLE4)
    assert not is_irretractable(Solution.trivial(2))
