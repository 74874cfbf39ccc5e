import dataclasses
import itertools
import random
import tracemalloc

import numpy as np
import pytest

from ybekit.braces import (
    _verify_construction,
    additive_identities_check,
    additive_orders,
    associated_solution,
    brace_from_solution,
    check_brace_axiom,
    decomp_check,
    find_additive_identity_counterexample,
    find_brace_axiom_counterexample,
    is_trivial_brace,
    lambda_matches_action,
    permutational_isomorphism_check,
    socle,
    socle_is_ideal,
    sylow_decomposition,
)
from reference import closure, exhaustive_verify_construction, loop_permutational_isomorphism
from ybekit.enumeration import fast_enumerate
from ybekit.errors import BudgetExceededError, ConstructionError
from ybekit.permgroup import PermGroup
from ybekit.perms import compose
from ybekit.solutions import Solution, validate

# derived by exhaustive search: an irretractable size-4 class (group of order 8)
IRRETRACTABLE4 = Solution.from_rows(
    [[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]]
)
# derived by exhaustive search: a size-5 class whose group is nonabelian of
# order 6, giving a nontrivial brace with two Sylow parts
MIXED6 = Solution.from_rows(
    [[0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [0, 2, 1, 4, 3], [1, 0, 2, 4, 3]]
)


def test_one_element_brace():
    b = brace_from_solution(Solution.trivial(3))
    assert b.order == 1
    assert check_brace_axiom(b)
    assert additive_identities_check(b)
    assert is_trivial_brace(b)
    assert socle(b) == (0,)
    assert sylow_decomposition(b).primes == ()


def test_cyclic_brace_is_trivial():
    b = brace_from_solution(Solution.permutation_solution((1, 2, 0)))
    assert b.order == 3
    assert np.array_equal(b.add, b.mul)
    assert is_trivial_brace(b)
    assert socle(b) == (0, 1, 2)


def test_mixed_prime_trivial_brace():
    # constant-row solution on a (2,3)-cycle permutation: cyclic group C6
    s = Solution.permutation_solution((1, 0, 3, 4, 2))
    b = brace_from_solution(s)
    assert b.order == 6
    assert is_trivial_brace(b)
    d = sylow_decomposition(b)
    assert d.primes == (2, 3)
    assert sorted(len(p) for p in d.parts) == [2, 3]
    assert decomp_check(b, d)


def test_nontrivial_order6_brace():
    assert validate(MIXED6).passed
    b = brace_from_solution(MIXED6)
    assert b.order == 6
    assert not is_trivial_brace(b)
    assert check_brace_axiom(b)
    assert find_brace_axiom_counterexample(b) is None
    assert additive_identities_check(b)
    assert find_additive_identity_counterexample(b) is None
    assert socle(b) == (0, 3, 4)
    assert socle_is_ideal(b)
    d = sylow_decomposition(b)
    assert d.primes == (2, 3)
    assert d.parts == ((0, 5), (0, 3, 4))
    assert decomp_check(b, d)
    assert lambda_matches_action(b, MIXED6)


def test_additive_orders():
    b = brace_from_solution(Solution.permutation_solution((1, 0, 3, 4, 2)))
    orders = sorted(additive_orders(b).tolist())
    assert orders == [1, 2, 3, 3, 6, 6]


def test_irretractable_brace_has_trivial_socle():
    b = brace_from_solution(IRRETRACTABLE4)
    assert b.order == 8
    assert socle(b) == (0,)
    assert not is_trivial_brace(b)
    assert socle_is_ideal(b)
    assert lambda_matches_action(b, IRRETRACTABLE4)


def test_socle_is_decided_once_per_brace():
    b = brace_from_solution(IRRETRACTABLE4)
    assert "_socle" not in vars(b)
    assert socle(b) is socle(b) == (0,)
    assert is_trivial_brace(b) is False and socle_is_ideal(b)
    # a brace with other tables decides its own socle, cross-check included
    trivial = brace_from_solution(Solution.permutation_solution((1, 2, 0)))
    assert socle(trivial) == (0, 1, 2)
    broken = dataclasses.replace(trivial, lam=trivial.lam[:, [0, 2, 1]])
    with pytest.raises(AssertionError, match="kernel of lambda"):
        socle(broken)


def test_decomp_check_with_zero_factor():
    # the factorization of b_i * 0 must pick the neutral element
    b = brace_from_solution(MIXED6)
    d = sylow_decomposition(b)
    for part_i, part_j in ((d.parts[0], d.parts[1]), (d.parts[1], d.parts[0])):
        for x in part_i:
            assert int(b.lam[x, 0]) == 0
    assert decomp_check(b, d)


def test_associated_solution_validates():
    for s in (Solution.trivial(2), MIXED6, IRRETRACTABLE4):
        b = brace_from_solution(s)
        assoc = associated_solution(b)
        assert assoc.n == b.order
        assert validate(assoc).passed
    trivial = brace_from_solution(Solution.permutation_solution((1, 2, 0)))
    assert associated_solution(trivial).sigma == Solution.trivial(3).sigma


def test_permutational_isomorphism_check():
    assert permutational_isomorphism_check(Solution.trivial(1))
    assert permutational_isomorphism_check(IRRETRACTABLE4)
    with pytest.raises(ValueError):
        permutational_isomorphism_check(Solution.permutation_solution((1, 2, 0)))


def test_permutational_isomorphism_check_matches_loop_reference(monkeypatch, records_up_to_6):
    """The check agrees with the loop reference on every irretractable class
    with n <= 6, and both reject a lambda table with two rows swapped."""
    classes = [
        Solution(n, rec.sigma)
        for n, recs in records_up_to_6.items()
        for rec in recs
        if rec.irretractable
    ]
    assert len(classes) == 16 and Solution.trivial(1) in classes
    for s in classes:
        assert permutational_isomorphism_check(s) and loop_permutational_isomorphism(s)

    original = brace_from_solution

    def swapped(s, **kwargs):
        b = original(s, **kwargs)
        return dataclasses.replace(b, lam=b.lam[[0, 2, 1, *range(3, b.order)]])

    monkeypatch.setattr("ybekit.braces.brace_from_solution", swapped)
    swapped_classes = [s for s in classes if original(s).order >= 3]
    assert len(swapped_classes) == 15
    for s in swapped_classes:
        assert not permutational_isomorphism_check(s)
        assert not loop_permutational_isomorphism(s)


def test_construction_rejects_every_invalid_table_up_to_3_points():
    """Every table of permutation rows with n <= 3 that fails `validate` (206
    of them) is refused by `brace_from_solution`; no separate group-table
    test runs before `_verify_construction`."""
    invalid = []
    for n in (1, 2, 3):
        rows = list(itertools.permutations(range(n)))
        for sigma in itertools.product(rows, repeat=n):
            s = Solution(n, sigma)
            if not validate(s).passed:
                invalid.append(s)
    assert len(invalid) == 206
    for s in invalid:
        with pytest.raises(ConstructionError):
            brace_from_solution(s)


def test_brace_cap():
    with pytest.raises(BudgetExceededError):
        brace_from_solution(IRRETRACTABLE4, cap=4)


def test_brace_cap_bounds_the_closure(monkeypatch):
    # three 7-cycle permutation solutions side by side: group order 7**3 = 343
    rows = []
    for b in range(3):
        row = list(range(21))
        row[7 * b : 7 * b + 7] = [7 * b + (i + 1) % 7 for i in range(7)]
        rows += [row] * 7
    caps = []
    closure = PermGroup.closure.__func__

    def spy(cls, *args, **kwargs):
        caps.append(kwargs.get("cap"))
        return closure(cls, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "closure", classmethod(spy))
    with pytest.raises(BudgetExceededError, match="cap 50"):
        brace_from_solution(Solution.from_rows(rows), cap=50)
    assert caps == [50]


def test_brace_json_export():
    b = brace_from_solution(MIXED6)
    blob = b.to_json(include_lambda=True)
    assert blob["order"] == 6
    assert len(blob["elements"]) == 6
    assert blob["mul"][0] == list(range(6))
    assert blob["add"][0] == list(range(6))
    assert blob["lambda"][0] == list(range(6))


def test_lambda_is_action_on_generators():
    # covariance on the generators, stated directly on sigma rows
    for s in (MIXED6, IRRETRACTABLE4):
        b = brace_from_solution(s)
        for x in range(s.n):
            for y in range(s.n):
                gx = b.row_index[x]
                gy = b.row_index[y]
                assert int(b.lam[gx, gy]) == b.row_index[s.sigma[x][y]]


@pytest.mark.parametrize(
    "finder, witness, message",
    [
        ("find_brace_axiom_counterexample", (0, 0, 0), "compatibility axiom"),
        ("find_additive_identity_counterexample", (0, 0), "difference identities"),
    ],
)
def test_construction_rejects_brace_identity_witness(monkeypatch, finder, witness, message):
    # the invariant suite relies on the construction to check both identities
    monkeypatch.setattr(f"ybekit.braces.{finder}", lambda b: witness)
    with pytest.raises(ConstructionError, match=message):
        brace_from_solution(IRRETRACTABLE4)


def test_construction_rejects_non_action():
    # constant bijective lambda rows P give lambda_{ab} = P but lambda_a lambda_b = P^2
    b = brace_from_solution(MIXED6)
    shift = np.roll(np.arange(b.order), 1)
    with pytest.raises(ConstructionError, match="not a multiplicative action"):
        _verify_construction(dataclasses.replace(b, lam=np.tile(shift, (b.order, 1))))


def test_large_cyclic_brace_tables_and_check_memory():
    # one 24-point permutation of cycle type (3, 5, 16): a cyclic group of order 240,
    # large enough that mul is gathered in more than one row slab
    pi = [0] * 24
    for start, length in ((0, 3), (3, 5), (8, 16)):
        for i in range(length):
            pi[start + i] = start + (i + 1) % length
    b = brace_from_solution(Solution.permutation_solution(tuple(pi)))
    k, elements = b.order, b.group.elements
    assert k == 240
    index = {p: i for i, p in enumerate(elements)}
    assert b.mul.tolist() == [[index[compose(p, q)] for q in elements] for p in elements]
    # the construction checks keep k x k temporaries; one k^3 int32 cube is 960 k^2 bytes
    tracemalloc.start()
    try:
        _verify_construction(b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * k * k


def test_validate_memory_on_the_order_140_associated_solution():
    # constant rows of cycle type (4, 5, 7): a cyclic group of order 140, whose
    # 140-point associated solution is the largest validate of analyze-large
    pi = [0] * 16
    for start, length in ((0, 4), (4, 5), (9, 7)):
        for i in range(length):
            pi[start + i] = start + (i + 1) % length
    s = associated_solution(brace_from_solution(Solution.permutation_solution(tuple(pi))))
    assert s.n == 140
    # a slab here is one x, n^2 triples, so each of its intp temporaries takes
    # 8 n^2 bytes, as does each pair table; about 15 of those are live at once
    tracemalloc.start()
    try:
        assert validate(s).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 8 * max(1 << 16, s.n**2)


def _verdict(verify, b):
    """The ConstructionError message without its witness, or None."""
    try:
        verify(b)
    except ConstructionError as exc:
        return str(exc).split(" at ")[0]
    return None


def _with_tables(b, add=None, mul=None, lam=None):
    """`b` with replaced tables; neg, minv and (unless given) lam follow them."""
    add = b.add if add is None else add
    mul = b.mul if mul is None else mul
    neg, minv = (add == 0).argmax(axis=1), (mul == 0).argmax(axis=1)
    lam = add[mul, neg[:, None]] if lam is None else lam
    return dataclasses.replace(b, add=add, mul=mul, lam=lam, neg=neg, minv=minv)


def _relabel(table, rng, fix_0=True):
    k = len(table)
    f = np.array([0] + rng.sample(range(1, k), k - 1) if fix_0 else rng.sample(range(k), k))
    out = np.empty_like(table)
    out[np.ix_(f, f)] = f[table]
    return out


def _swap_intercalate(table, rng, symmetric):
    """
    Swap u and v in a 2 x 2 subsquare (u v / v u) away from row and column 0:
    still Latin with neutral 0, in general no longer associative. A symmetric
    subsquare on rows and columns {r, s} keeps a commutative table commutative.
    """
    k = len(table)
    pairs = [(r, s) for r in range(1, k) for s in range(r + 1, k)]
    quads = [
        (r1, r2, c1, c2)
        for r1, r2 in pairs
        for c1, c2 in ([(r1, r2)] if symmetric else pairs)
        if table[r1, c1] == table[r2, c2] and table[r1, c2] == table[r2, c1]
    ]
    if not quads:
        return None
    r1, r2, c1, c2 = rng.choice(quads)
    out = table.copy()
    out[[r1, r1, r2, r2], [c1, c2, c1, c2]] = table[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    return out


def _twist_off_subgroup(b, gens):
    """
    lam composed with a fixed non-identity bijection on the rows outside the
    subgroup H generated by all generators but the last: lam[a c] =
    lam[a] lam[c] still holds for every a in H, so only the last generator
    can show that lam is not an action.
    """
    sub = closure(b.mul, [0, *gens[:-1]])
    if len(sub) == b.order:
        return None
    lam = b.lam.copy()
    outside = [x for x in range(b.order) if x not in sub]
    lam[outside] = lam[outside][:, np.roll(np.arange(b.order), 1)]
    return lam


def test_verify_construction_matches_exhaustive_reference():
    """
    Deciding associativity, compatibility and the action property on the
    generators gives the verdicts of the all-element checks, on a seeded
    corpus of broken brace tables: intercalate swaps (Latin with neutral
    element 0, not associative), relabeled tables (groups, not compatible;
    where 0 is moved off the neutral element, the generators may fall short
    of reaching every element), and lambda tables that fail to be an action
    at one generator only.
    """
    rng = random.Random(9)
    sols = [MIXED6, IRRETRACTABLE4] + [
        Solution(n, rec.sigma)
        for n in (3, 4, 5)
        for rec in fast_enumerate(n)
        if rec.group_order >= 4
    ]
    braces = [brace_from_solution(s) for s in rng.sample(sols, 24)]
    corpus = []
    for b in braces:
        gens = sorted(set(b.row_index))
        corpus.append(b)
        for _ in range(3):
            corpus.append(_with_tables(b, add=_relabel(b.add, rng)))
            corpus.append(_with_tables(b, mul=_relabel(b.mul, rng)))
            corpus.append(_with_tables(b, mul=_relabel(b.mul, rng, fix_0=False)))
            for kind, symmetric in (("mul", False), ("add", True)):
                swapped = _swap_intercalate(getattr(b, kind), rng, symmetric)
                if swapped is not None:
                    corpus.append(_with_tables(b, **{kind: swapped}))
        lam = _twist_off_subgroup(b, gens)
        if lam is not None:
            corpus.append(_with_tables(b, lam=lam))
    seen = set()
    for b in corpus:
        verdict = _verdict(_verify_construction, b)
        assert verdict == _verdict(exhaustive_verify_construction, b)
        seen.add(verdict)
    assert {
        None,
        "addition is not associative",
        "multiplication is not associative",
        "compatibility axiom fails",
        "lambda is not a multiplicative action",
    } <= seen


def test_verify_construction_rejects_non_generating_rows():
    # MIXED6 with one involution as its only row: the tables are a brace,
    # but under multiplication that row reaches only itself and 0, so no
    # check decided on it would be exact
    b = brace_from_solution(MIXED6)
    b = dataclasses.replace(b, row_index=(b.row_index[3],))
    message = "the generators do not reach every element by multiplication"
    assert _verdict(_verify_construction, b) == message
    assert _verdict(exhaustive_verify_construction, b) == message


@pytest.mark.parametrize("index", [lambda a, b: 3 * a + b, lambda a, b: 3 * b + a])
def test_verify_construction_finds_associativity_failing_at_one_generator(index):
    """
    The loop on Z3 x Z3 with (a, b)(a', b') = (a + a' + c(b, b'), b + b'),
    c(1, 1) = 1 and c = 0 elsewhere, next to the group Z3 x Z3 as addition:
    Latin with neutral element 0, and since c is not a cocycle, (x m) y =
    x (m y) fails for some x, y exactly at the m = (a, b) with b != 0. Of
    the generators (0, 1) and (1, 0) only (0, 1) shows it, whether it comes
    first or last in index order.
    """
    pairs = [(u, v) for u in range(3) for v in range(3)]
    at = {p: index(*p) for p in pairs}
    add = np.zeros((9, 9), dtype=np.int32)
    mul = np.zeros((9, 9), dtype=np.int32)
    for u, v in pairs:
        for u2, v2 in pairs:
            add[at[u, v], at[u2, v2]] = at[(u + u2) % 3, (v + v2) % 3]
            c = int(v == v2 == 1)
            mul[at[u, v], at[u2, v2]] = at[(u + u2 + c) % 3, (v + v2) % 3]
    nine = brace_from_solution(Solution.permutation_solution(tuple((x + 1) % 9 for x in range(9))))
    b = dataclasses.replace(_with_tables(nine, add=add, mul=mul), row_index=(at[0, 1], at[1, 0]))
    message = "multiplication is not associative"
    assert _verdict(_verify_construction, b) == message
    assert _verdict(exhaustive_verify_construction, b) == message
