"""
Exhaustive forms of checks that the library decides faster, kept as test
references; the tests require equal results.

* `loop_validate`: the brute-force loop checker for `validate`. It walks
  pairs and triples in lex order with plain Python loops and stops at the
  first failure of each axiom, so its witnesses are lex-first by
  construction; `validate` must agree on verdicts and on all three
  witnesses. `braid_sides` gives both sides of the braid relation at one
  triple, from the pair map `pair_map`.
* `all_pairs_derived_series`: the derived series with each derived
  subgroup closed from the commutators of all element pairs.
* `lexsort_min_relabeled`: every relabeled table built in full and sorted.
* `conjugate`: f p f^-1, the relabeling of one permutation, in a loop.
* `loop_mc`: the minimal-conjugate table from the cycles of every
  permutation, one at a time.
* `dense_candidate_mask`: the search's candidate filter as numpy gathers,
  every test run on all m candidates, not on bitsets of classes of them.
  It has no forced-row test at n = 8, where there is no composition table.
* `brute_prefix_canonical`: prefix canonicity by trying every relabeling
  in Sym(n), one at a time, instead of the aligners of each anchor.
* `exhaustive_verify_construction`: the construction checks, in their
  order and with their messages, with associativity, the compatibility
  axiom and the action property tested at every element, not on the
  generators only, and the generating-set test done by a set `closure`.
* `loop_permutational_isomorphism`: the permutational isomorphism check
  with every fact that brace construction verifies decided again: the
  lambda homomorphism by k^2 `compose` calls, its injectivity on the lambda
  rows, its surjectivity by closing the degree-k group of those rows, and
  the injectivity of the rows of s, besides the covariance identity.
"""
from __future__ import annotations

import itertools

import numpy as np

from ybekit import braces
from ybekit.braces import FiniteBrace, _is_latin, find_additive_identity_counterexample
from ybekit.errors import ConstructionError
from ybekit.permgroup import PermGroup
from ybekit.perms import compose, cycles, inverse
from ybekit.solutions import Solution, ValidationReport, gamma_table, is_irretractable
from ybekit.symtab import SymTables


def pair_map(s: Solution) -> list[list[tuple[int, int]]]:
    """r as nested lists: r[x][y] = (sigma_x(y), gamma_y(x))."""
    gt = gamma_table(s)
    return [[(s.sigma[x][y], gt[y][x]) for y in range(s.n)] for x in range(s.n)]


def braid_sides(r, x: int, y: int, z: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """r12 r23 r12 (x, y, z) and r23 r12 r23 (x, y, z), for r from `pair_map`."""
    a, b = r[x][y]
    c, d = r[b][z]
    e, f = r[a][c]
    g, h = r[y][z]
    i, j = r[x][g]
    k, m = r[j][h]
    return (e, f, d), (i, k, m)


def loop_validate(s: Solution) -> ValidationReport:
    n = s.n
    gt = gamma_table(s)
    r = pair_map(s)

    involutive_ce = None
    for x in range(n):
        for y in range(n):
            u, v = r[x][y]
            if r[u][v] != (x, y):
                involutive_ce = (x, y)
                break
        if involutive_ce:
            break

    nondegenerate_ce = None
    for y, row in enumerate(gt):
        for x in range(n):
            for x2 in range(x + 1, n):
                if row[x] == row[x2]:
                    nondegenerate_ce = (y, x, x2)
                    break
            if nondegenerate_ce:
                break
        if nondegenerate_ce:
            break

    braid_ce = None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs, rhs = braid_sides(r, x, y, z)
                if lhs != rhs:
                    braid_ce = (x, y, z)
                    break
            if braid_ce:
                break
        if braid_ce:
            break

    return ValidationReport(
        involutive=involutive_ce is None,
        nondegenerate=nondegenerate_ce is None,
        braid=braid_ce is None,
        braid_counterexample=braid_ce,
        involutive_counterexample=involutive_ce,
        nondegenerate_counterexample=nondegenerate_ce,
    )


def all_pairs_derived_series(group: PermGroup) -> list[PermGroup]:
    series = [group]
    while series[-1].order > 1:
        g = series[-1]
        comms = {compose(compose(a, b), inverse(compose(b, a))) for a in g for b in g}
        nxt = PermGroup.closure(sorted(comms), degree=g.degree)
        if nxt.order == g.order:
            break
        series.append(nxt)
    return series


def lexsort_min_relabeled(tab: SymTables, table) -> tuple[tuple[int, ...], ...]:
    m, n = tab.m, tab.n
    t = np.array(table, dtype=np.int16)
    a = t[tab.np_inv]  # a[f, i, j] = table[finv[i]][j]
    b = np.take_along_axis(a, tab.np_inv[:, None, :], axis=2)  # ...[finv[j]]
    c = tab.np_perms[np.arange(m)[:, None, None], b]  # value relabel by f
    flat = c.reshape(m, n * n)
    best = flat[np.lexsort(flat.T[::-1])[0]]
    return tuple(tuple(int(v) for v in best[i * n : (i + 1) * n]) for i in range(n))


def conjugate(f, p) -> tuple[int, ...]:
    """f p f^{-1} in image-list form: the relabeling of p along f."""
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[f[i]] = f[pi]
    return tuple(out)


def loop_mc(tab: SymTables) -> list[list[int]]:
    """
    mc[c][a]: the lex-first index with the cycle type of perms[c] whose
    0-cycle has the length of a's cycle, keyed from `cycles` one perm at a time.
    """
    types_lens = []
    lexmin_by_type_anchor: dict[tuple[tuple[int, ...], int], int] = {}
    for i, p in enumerate(tab.perms):
        cyc = cycles(p)
        t = tuple(sorted((len(c) for c in cyc), reverse=True))
        lens = [0] * tab.n  # per point, the length of its cycle
        for c in cyc:
            for x in c:
                lens[x] = len(c)
        types_lens.append((t, lens))
        lexmin_by_type_anchor.setdefault((t, lens[0]), i)  # first in lex order
    return [[lexmin_by_type_anchor[(t, ln)] for ln in lens] for t, lens in types_lens]


def dense_candidate_mask(search, rows, gmask, k) -> np.ndarray:
    """The boolean mask of `_Search._candidate_mask`, each test over all m candidates."""
    n, tab, root = search.n, search.tab, search.root
    # the tables are int8, and at n = 8 a gmask value (up to 255) would not fit
    P, IV = tab.np_perms.astype(np.intp), tab.np_inv.astype(np.intp)
    C, mc_np = tab.comp_np, tab.mc_np
    invi_np = np.frombuffer(tab.invi, dtype=np.int32)
    ar = np.arange(tab.m, dtype=np.int32)
    ok = mc_np[:, k] >= root
    rows_arr = np.fromiter((r if r is not None else -1 for r in rows), dtype=np.int32, count=n)

    def forced_ok(v, rv):
        va = np.where(v == k, -2, rows_arr[v])
        unknown_ok = mc_np[rv, v] >= root
        return np.where(va == -2, rv == ar, np.where(va >= 0, va == rv, unknown_ok))

    for y in range(n):  # k is x
        ucol = P[:, y]
        ru = np.where(ucol == k, ar, rows_arr[ucol])
        known = ru >= 0
        if not known.any():
            continue
        v = IV[ru, k]
        ok &= ~known | (((gmask[y] >> v) & 1) == 0)
        for x in range(n):  # gamma_y(x) = c^-1(x) for a known x != k with sigma_x(y) = k
            if rows[x] is not None and x != k and tab.perms[rows[x]][y] == k:
                ok &= ~known | (P[ar, v] != x)  # c(v) = x: it collides with gamma_y(k) = v
        ry = ar if y == k else rows[y]
        if C is not None and ry is not None:
            ok &= ~known | forced_ok(v, C[invi_np[ru], C[ar, ry]])
    for x in range(n):
        rx = rows[x]
        if rx is None or x == k:
            continue
        y = tab.iperms[rx][k]  # k is u
        v = IV[:, x]
        ok &= ((gmask[y] >> v) & 1) == 0
        if C is None:
            continue
        ry = ar if y == k else rows[y]
        if ry is not None:
            ok &= forced_ok(v, C[invi_np, C[rx, ry]])
        u = tab.perms[rx][k]  # k is y
        ru = rows[u]
        if ru is not None and u != k:
            ok &= forced_ok(IV[ru, x], C[invi_np[ru], C[rx]])
    return ok


def brute_prefix_canonical(prefix) -> bool:
    """
    Whether no relabeling f of Sym(n) that keeps {0..d-1} (d = len(prefix))
    and relabels some row of the prefix onto row 0 makes rows 1..d-1 of the
    relabeled prefix lex-smaller. Relabeled row i is f o sigma_{f^-1(i)} o f^-1.
    """
    d, n = len(prefix), len(prefix[0])
    for f in itertools.permutations(range(n)):
        if any(f[i] >= d for i in range(d)):
            continue
        finv = inverse(f)
        rel = [tuple(f[prefix[finv[i]][finv[j]]] for j in range(n)) for i in range(d)]
        if rel[0] == prefix[0] and rel[1:] < list(prefix[1:]):
            return False
    return True


def closure(table: np.ndarray, gens) -> set[int]:
    """The indices that are products of generators under `table`, by a set closure."""
    reached = set(gens)
    while True:
        grown = reached | {int(table[x, y]) for x in reached for y in reached}
        if grown == reached:
            return reached
        reached = grown


def assoc_counterexample(table: np.ndarray) -> tuple[int, int, int] | None:
    k = table.shape[0]
    for a in range(k):
        ra = table[a]
        lhs = table[ra]  # lhs[b, c] = table[table[a, b], c]
        rhs = ra[table]  # rhs[b, c] = table[a, table[b, c]]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return (a, int(b), int(c))
    return None


def brace_axiom_counterexample(b: FiniteBrace) -> tuple[int, int, int] | None:
    for a in range(b.order):
        ma = b.mul[a]
        lhs = b.add[ma[b.add], a]
        rhs = b.add[np.ix_(ma, ma)]
        if not np.array_equal(lhs, rhs):
            i, j = np.argwhere(lhs != rhs)[0]
            return (a, int(i), int(j))
    return None


def exhaustive_verify_construction(b: FiniteBrace) -> None:
    """The checks of `_verify_construction`, in its order and with its messages."""
    k = b.order
    if not np.array_equal(b.add, b.add.T):
        raise ConstructionError("addition is not commutative")
    if not _is_latin(b.add) or not _is_latin(b.mul):
        raise ConstructionError("a table is not a Latin square")
    gens = sorted(set(b.row_index))
    for table, op in ((b.add, "addition"), (b.mul, "multiplication")):
        if len(closure(table, gens)) != k:
            raise ConstructionError(f"the generators do not reach every element by {op}")
        if assoc_counterexample(table) is not None:
            raise ConstructionError(f"{op} is not associative")
    if not np.array_equal(b.add[0], np.arange(k)) or not np.array_equal(
        b.mul[0], np.arange(k)
    ):
        raise ConstructionError("index 0 is not the shared neutral element")
    tri = brace_axiom_counterexample(b)
    if tri is not None:
        raise ConstructionError(f"compatibility axiom fails at {tri}")
    if not (np.sort(b.lam, axis=1) == np.arange(k)).all():
        raise ConstructionError("a lambda map is not bijective")
    for a in range(k):
        if not np.array_equal(b.lam[b.mul[a]], b.lam[a][b.lam]):
            raise ConstructionError("lambda is not a multiplicative action")
    if find_additive_identity_counterexample(b) is not None:
        raise ConstructionError("difference identities fail")


def loop_permutational_isomorphism(s: Solution) -> bool:
    """`permutational_isomorphism_check`, reading `braces.brace_from_solution`
    at call time so that a test can replace it."""
    if not is_irretractable(s):
        raise ValueError("defined for irretractable solutions only")
    b = braces.brace_from_solution(s)
    k = b.order

    f1_injective = len(set(b.row_index)) == s.n

    lam_rows = [tuple(int(v) for v in b.lam[a]) for a in range(k)]
    homomorphism = all(
        lam_rows[int(b.mul[a, c])] == compose(lam_rows[a], lam_rows[c])
        for a in range(k)
        for c in range(k)
    )
    injective = len(set(lam_rows)) == k
    target_group = PermGroup.closure(sorted(set(lam_rows)), degree=k)
    surjective = set(lam_rows) == set(target_group.elements)

    compatible = braces.lambda_matches_action(b, s)

    return f1_injective and homomorphism and injective and surjective and compatible
