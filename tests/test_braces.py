import dataclasses
import tracemalloc

import numpy as np
import pytest

from ybekit.braces import (
    _verify_construction,
    additive_identities_check,
    additive_order,
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
    orders = sorted(additive_order(b, a) for a in range(b.order))
    assert orders == [1, 2, 3, 3, 6, 6]


def test_irretractable_brace_has_trivial_socle():
    b = brace_from_solution(IRRETRACTABLE4)
    assert b.order == 8
    assert socle(b) == (0,)
    assert not is_trivial_brace(b)
    assert socle_is_ideal(b)
    assert lambda_matches_action(b, IRRETRACTABLE4)


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
