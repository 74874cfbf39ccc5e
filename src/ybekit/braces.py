"""
The left-brace structure carried by the permutation group of a solution.

A finite left brace is a set with two group operations sharing one neutral
element: an abelian addition and a (here: permutation-composition)
multiplication, linked by a*(b+c)+a = a*b+a*c. The lambda maps
lambda_a(b) = a*b-a then act on the additive group by automorphisms.

For the group generated by the rows of a validated solution, addition is
pinned down by the single recurrence

    a + sigma_y = a o sigma_{a^{-1}(y)}

which extends to all pairs by closure: every element is a sum of row
generators, so unfilled columns of the addition table are filled one
generator-step away from a filled one. `_verify_construction` then decides
every brace fact exactly and aborts on any failure (existence and uniqueness
of the brace are guaranteed, so a failure means a bug upstream); the checks
below decide only what construction does not.

All tables are dense k x k integer arrays over element indices; index 0 is
always the shared neutral element.
"""
from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConstructionError
from .permgroup import PermGroup
from .solutions import Solution, is_irretractable

DEFAULT_BRACE_CAP = 2000


@dataclass(frozen=True)
class FiniteBrace:
    """A permutation group plus dense multiplication/addition/lambda tables.

    `group` is the permutation group the brace was built on; table index i
    is `group.elements[i]`, so index 0 is the identity, the shared neutral
    element. `row_index[x]` is the index of the sigma row of point x.
    """

    group: PermGroup
    mul: np.ndarray
    add: np.ndarray
    lam: np.ndarray
    neg: np.ndarray
    minv: np.ndarray
    row_index: tuple[int, ...]

    @property
    def order(self) -> int:
        return self.group.order

    @functools.cached_property
    def _socle(self) -> tuple[int, ...]:
        by_tables = tuple(np.flatnonzero((self.mul == self.add).all(axis=1)).tolist())
        by_lambda = tuple(np.flatnonzero((self.lam == np.arange(self.order)).all(axis=1)).tolist())
        if by_tables != by_lambda:
            raise AssertionError("socle by tables disagrees with kernel of lambda")
        return by_tables

    def to_json(self, include_lambda: bool = False) -> dict:
        out = {
            "order": self.order,
            "elements": [list(p) for p in self.group.elements],
            "mul": self.mul.tolist(),
            "add": self.add.tolist(),
        }
        if include_lambda:
            out["lambda"] = self.lam.tolist()
        return out


@dataclass(frozen=True)
class SylowDecomposition:
    """Additive Sylow subgroups of a brace, indexed by the primes of its order."""

    primes: tuple[int, ...]
    parts: tuple[tuple[int, ...], ...]


def _prime_powers(k: int) -> dict[int, int]:
    """p: p^e for each prime p dividing k, with p^e the largest power dividing k."""
    out = {}
    d = 2
    while d * d <= k:
        q = 1
        while k % d == 0:
            k, q = k // d, q * d
        if q > 1:
            out[d] = q
        d += 1
    if k > 1:
        out[k] = k
    return out


def brace_from_solution(s: Solution, cap: int = DEFAULT_BRACE_CAP) -> FiniteBrace:
    """
    Build the brace on the group generated by the sigma rows.

    Multiplication is permutation composition. Addition starts from the
    generator recurrence a + sigma_y = a o sigma_{a^{-1}(y)} and is closed
    column by column; the finished tables are fully re-verified. The group
    is expanded under `cap`, so a group of larger order raises
    BudgetExceededError before it is built in full.
    """
    group = PermGroup.closure(sorted(set(s.sigma)), degree=s.n, cap=cap)
    k = group.order

    E = np.array(group.elements, dtype=np.int32).reshape(k, s.n)
    # rows of big-endian uint32 compare bytewise in lex order, and closure
    # sorts the elements, so one void key per row finds its index
    row_key = np.dtype((np.void, 4 * s.n))
    keys = E.astype(">u4").view(row_key).ravel()

    def index_of(perms: np.ndarray) -> np.ndarray:
        found = np.ascontiguousarray(perms, dtype=">u4").view(row_key)[..., 0]
        return np.searchsorted(keys, found).astype(np.int32)

    S = np.array(s.sigma, dtype=np.int32)
    row_index = tuple(int(i) for i in index_of(S))
    # mul[i, j] = index of E[i] o E[j], in row slabs of at most max(2^16, k n)
    # entries, so a slab's temporaries stay near 0.25 MB each
    step = max(1, (1 << 16) // (k * s.n))
    mul = np.concatenate([index_of(E[i : i + step, E]) for i in range(0, k, step)])

    # a + sigma_y = a o sigma_{a^{-1}(y)}, for every element a and point y
    Einv = np.argsort(E, axis=1).astype(np.int32)
    gen = index_of(E[np.arange(k)[:, None, None], S[Einv]])
    first_point = [s.sigma.index(row) for row in s.sigma]
    if not np.array_equal(gen, gen[:, first_point]):
        raise ConstructionError(
            "generator recurrence is ambiguous across equal sigma rows; "
            "input is not a validated solution"
        )
    add = np.full((k, k), -1, dtype=np.int32)
    add[0, :] = np.arange(k)
    add[:, 0] = np.arange(k)
    add[:, row_index] = gen

    # close remaining columns: if column p is total and g is a generator
    # column, the column of t = p + g satisfies add[i, t] = add[add[i, p], g].
    # A column is filled only whole, from filled columns, so none holds -1.
    gcols = sorted(set(row_index))
    filled = {0, *gcols}
    queue = [0, *gcols]
    while queue:
        p = queue.pop()
        col_p = add[:, p]
        for g in gcols:
            t = int(add[p, g])
            if t not in filled:
                add[:, t] = add[col_p, g]
                filled.add(t)
                queue.append(t)
    if len(filled) != k:
        raise ConstructionError(
            "additive closure did not reach every element; "
            "input is not a validated solution"
        )

    # each row's first 0; _verify_construction tests Latin-ness before use
    neg = (add == 0).argmax(axis=1).astype(np.int32)
    minv = (mul == 0).argmax(axis=1).astype(np.int32)
    lam = add[mul, neg[:, None]]  # lambda_a(b) = a*b - a

    brace = FiniteBrace(
        group=group,
        mul=mul,
        add=add,
        lam=lam,
        neg=neg,
        minv=minv,
        row_index=row_index,
    )
    _verify_construction(brace)
    return brace


def _is_latin(table: np.ndarray) -> bool:
    target = np.arange(table.shape[0])
    return bool(
        (np.sort(table, axis=0) == target[:, None]).all()
        and (np.sort(table, axis=1) == target).all()
    )


def _generated(table: np.ndarray, gens: np.ndarray) -> bool:
    """True iff the closure of `gens` under the operation of `table` is every index."""
    reached, r = np.bincount(gens, minlength=len(table)) > 0, gens[:0]
    while reached.sum() > len(r):
        r = np.flatnonzero(reached)
        reached[table[r[:, None], r]] = True
    return bool(reached.all())


def _verify_construction(b: FiniteBrace) -> None:
    """
    Re-verify the finished tables; raise ConstructionError on any failure.

    Associativity, compatibility and the action property are decided exactly
    on the generators G = sorted(set(row_index)). Light's test: the a with
    (x a) y = x (a y) for all x, y are closed under the operation, as
    (x (a c)) y = ((x a) c) y = (x a) (c y) = x (a (c y)) = x ((a c) y); so G
    suffices once G itself, not index 0, is shown to generate the table. With
    `add` an abelian group and `mul` a group, the axiom at a makes lambda_a(x)
    = a x - a additive, and then lambda_{ab} = lambda_a lambda_b; so the a
    where it holds are closed under `mul`, as are the a with lam[a c] =
    lam[a] lam[c] for all c.
    """
    k = b.order
    if not np.array_equal(b.add, b.add.T):
        raise ConstructionError("addition is not commutative")
    if not _is_latin(b.add) or not _is_latin(b.mul):
        raise ConstructionError("a table is not a Latin square")
    gens = np.array(sorted(set(b.row_index)), dtype=np.intp)
    for table, op in ((b.add, "addition"), (b.mul, "multiplication")):
        if not _generated(table, gens):
            raise ConstructionError(f"the generators do not reach every element by {op}")
        # (x a) y == x (a y) for a in G, one a at a time: k x k temporaries
        if not all(np.array_equal(table[table[:, a]], table[:, table[a]]) for a in gens):
            raise ConstructionError(f"{op} is not associative")
    if not np.array_equal(b.add[0], np.arange(k)) or not np.array_equal(
        b.mul[0], np.arange(k)
    ):
        raise ConstructionError("index 0 is not the shared neutral element")
    tri = find_brace_axiom_counterexample(b)
    if tri is not None:
        raise ConstructionError(f"compatibility axiom fails at {tri}")
    # lambda rows are additive automorphisms (bijectivity here; additivity
    # is equivalent to the compatibility axiom) and a multiplicative action
    if not (np.sort(b.lam, axis=1) == np.arange(k)).all():
        raise ConstructionError("a lambda map is not bijective")
    if not all(np.array_equal(b.lam[b.mul[a]], b.lam[a][b.lam]) for a in gens):
        raise ConstructionError("lambda is not a multiplicative action")
    if find_additive_identity_counterexample(b) is not None:
        raise ConstructionError("difference identities fail")


def find_brace_axiom_counterexample(b: FiniteBrace) -> tuple[int, int, int] | None:
    """First triple violating a*(b+c)+a == a*b+a*c with a a generator, or None;
    exact for group tables generated by the rows (see `_verify_construction`)."""
    for a in sorted(set(b.row_index)):
        ma = b.mul[a]
        lhs = b.add[ma[b.add], a]
        rhs = b.add[np.ix_(ma, ma)]
        if not np.array_equal(lhs, rhs):
            i, j = np.argwhere(lhs != rhs)[0]
            return (a, int(i), int(j))
    return None


def check_brace_axiom(b: FiniteBrace) -> bool:
    """The compatibility axiom, decided on the generators (see `_verify_construction`)."""
    return find_brace_axiom_counterexample(b) is None


def find_additive_identity_counterexample(b: FiniteBrace) -> tuple[int, int] | None:
    """
    First pair violating either difference identity, or None.

    Checked for all pairs (a, b):
      a*b^{-1} == a - lambda_{a*b^{-1}}(b)
      a - b == a + lambda_b(b^{-1}) == a * lambda_{a^{-1}}(lambda_b(b^{-1}))
             == a * lambda_{a^{-1}*b}(b^{-1})
    """
    k = b.order
    idx = np.arange(k)
    c = b.mul[:, b.minv]  # c[a, y] = a * y^{-1}
    lcb = b.lam[c, idx[None, :]]  # lcb[a, y] = lambda_{c[a,y]}(y)
    eq2 = b.add[idx[:, None], b.neg[lcb]]
    if not np.array_equal(c, eq2):
        a, y = np.argwhere(c != eq2)[0]
        return (int(a), int(y))

    sub = b.add[idx[:, None], b.neg[None, :]]  # sub[a, y] = a - y
    t1 = np.take_along_axis(b.lam, b.minv[:, None], axis=1)[:, 0]  # lambda_y(y^{-1})
    d1 = b.add[:, t1]
    m2 = b.lam[b.minv][:, t1]  # m2[a, y] = lambda_{a^{-1}}(t1[y])
    d2 = np.take_along_axis(b.mul, m2, axis=1)
    n2 = b.mul[b.minv]  # n2[a, y] = a^{-1} * y
    p2 = b.lam[n2, b.minv[None, :]]  # p2[a, y] = lambda_{a^{-1} y}(y^{-1})
    d3 = np.take_along_axis(b.mul, p2, axis=1)
    for other in (d1, d2, d3):
        if not np.array_equal(sub, other):
            a, y = np.argwhere(sub != other)[0]
            return (int(a), int(y))
    return None


def additive_identities_check(b: FiniteBrace) -> bool:
    """Both difference identities (and the full rewrite chain) on all pairs."""
    return find_additive_identity_counterexample(b) is None


def socle(b: FiniteBrace) -> tuple[int, ...]:
    """
    Elements with a*x == a+x for every x, cross-checked against ker(lambda) once per brace.

    >>> socle(brace_from_solution(Solution.permutation_solution((1, 2, 0))))
    (0, 1, 2)
    """
    return b._socle


def socle_is_ideal(b: FiniteBrace) -> bool:
    """The socle is normal under multiplicative conjugation and lambda-stable."""
    soc = np.array(socle(b), dtype=np.intp)
    inside = np.bincount(soc, minlength=b.order) > 0
    conj = b.mul[b.mul[:, soc], b.minv[:, None]]  # conj[g, a] = g a g^{-1}
    return bool(inside[conj].all() and inside[b.lam[:, soc]].all())


def is_trivial_brace(b: FiniteBrace) -> bool:
    """True iff addition and multiplication coincide: the socle is everything.

    >>> is_trivial_brace(brace_from_solution(Solution.permutation_solution((1, 2, 0))))
    True
    """
    return len(socle(b)) == b.order


def additive_orders(b: FiniteBrace) -> np.ndarray:
    """The additive order of every element, as one array."""
    idx = np.arange(b.order)
    orders = np.zeros(b.order, dtype=np.int64)
    multiple, t = idx, 1  # multiple[a] = t a
    while t <= b.order and not orders.all():
        orders[(multiple == 0) & (orders == 0)] = t
        multiple, t = b.add[multiple, idx], t + 1
    return orders


def sylow_decomposition(b: FiniteBrace) -> SylowDecomposition:
    """
    Split the additive group into its Sylow subgroups and verify they form a
    Sylow system of the multiplicative group: each part is a left ideal, any
    two parts permute, and the parts multiply out to the whole brace.
    """
    k = b.order
    powers = _prime_powers(k)
    orders = additive_orders(b)
    parts = []
    for p, expected in powers.items():
        # additive orders divide k, so the p-power orders are those dividing expected
        inside = expected % orders == 0
        part = np.flatnonzero(inside)
        if len(part) != expected:
            raise ConstructionError(
                f"Sylow {p}-part has size {len(part)}, expected {expected}"
            )
        if not inside[b.add[part[:, None], part]].all():
            raise ConstructionError(f"Sylow {p}-part is not additively closed")
        if not inside[b.lam[:, part]].all():
            raise ConstructionError(f"Sylow {p}-part is not a left ideal")
        parts.append(part)

    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            ij = np.bincount(b.mul[parts[i][:, None], parts[j]].ravel(), minlength=k) > 0
            ji = np.bincount(b.mul[parts[j][:, None], parts[i]].ravel(), minlength=k) > 0
            if not np.array_equal(ij, ji):
                raise ConstructionError("Sylow parts do not permute")
    prod = np.zeros(1, dtype=np.intp)
    for part in parts:
        prod = np.flatnonzero(np.bincount(b.mul[prod[:, None], part].ravel(), minlength=k))
    if len(prod) != k:
        raise ConstructionError("product of Sylow parts is not the whole brace")

    return SylowDecomposition(tuple(powers), tuple(tuple(part.tolist()) for part in parts))


def decomp_check(b: FiniteBrace, d: SylowDecomposition) -> bool:
    """
    Cross-part factorization: for b_i in B_i and b_j in B_j (i != j) the
    product b_i*b_j factors uniquely as a*c with a in B_j, c in B_i, and the
    B_j factor equals lambda_{b_i}(b_j). Degenerate with < 2 primes: True.
    """
    if len(d.primes) < 2:
        return True
    for bi, bj in itertools.permutations([np.array(part) for part in d.parts], 2):
        products = b.mul[bj[:, None], bi].ravel()  # a c for a in B_j, c in B_i
        count = np.bincount(products, minlength=b.order)
        factor = np.bincount(products, np.repeat(bj, len(bi)), b.order)  # sum of B_j factors
        xy = b.mul[bi[:, None], bj].ravel()
        bad = np.flatnonzero((count[xy] != 1) | (factor[xy] != b.lam[bi[:, None], bj].ravel()))
        if bad.size and count[xy[bad[0]]] != 1:  # the first failing pair, in x, y order
            raise ConstructionError(
                "cross-part factorization missing or non-unique; "
                "contradicts permutability of the Sylow parts"
            )
        if bad.size:
            return False
    return True


def associated_solution(b: FiniteBrace) -> Solution:
    """The solution on the brace elements with sigma_a = lambda_a."""
    return Solution(b.order, tuple(map(tuple, b.lam.tolist())))


def lambda_matches_action(b: FiniteBrace, s: Solution) -> bool:
    """
    Table form of the covariance identity: for every brace element g and
    every point x, lambda_g(sigma_x) == sigma_{g(x)} as elements.
    """
    rows = np.array(b.row_index)
    return np.array_equal(b.lam[:, rows], rows[np.array(b.group.elements)])


def permutational_isomorphism_check(s: Solution, cap: int = DEFAULT_BRACE_CAP) -> bool:
    """
    For an irretractable solution: the point-to-row map into the brace and
    the lambda map on the group form a permutational isomorphism onto the
    group of the brace-associated solution.

    x -> sigma_x is injective as s is irretractable, and construction has
    verified that g -> lambda_g is a homomorphism onto that group. So this
    decides that its kernel, the socle, is trivial, and the intertwining
    f1(g(x)) == f2(g)(f1(x)) for all g and x.

    >>> s = Solution.from_rows([[0, 1, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1], [1, 0, 2, 3]])
    >>> permutational_isomorphism_check(s)
    True
    """
    if not is_irretractable(s):
        raise ValueError("defined for irretractable solutions only")
    b = brace_from_solution(s, cap=cap)
    return socle(b) == (0,) and lambda_matches_action(b, s)
