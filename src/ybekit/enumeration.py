"""
Exhaustive, isomorph-free enumeration of solutions for small set sizes.

Two independent routes exist:

* `oracle_enumerate` (n <= 4): sweep all (n!)^n sigma tables, keep the ones
  whose derived gamma columns are bijections (the non-degeneracy axiom,
  checked literally over arrays), pass those to `validate`, and bucket the
  solutions by canonical form. One path for every n, no derived identities;
  it is the ground truth the fast path is judged against.

* `fast_enumerate` (n <= 7 by default, n = 8 opt-in): depth-first search
  over partial sigma tables, one row at a time, with four pruning devices:

  1. constraint propagation from one triple rule: for a triple (x, y,
     u = sigma_x(y)), rows x and u give the gamma entry gamma_y(x) =
     v = sigma_u^{-1}(x), and row y as well forces row v to equal
     sigma_u^{-1} sigma_x sigma_y. Each new row completes the triples where
     it is x, u or y, so rows are forced long before they are branched on;
     partial gamma values are tracked per column and any collision (a
     non-degeneracy violation) kills the branch. A filter checks the same
     triples one step deep for the candidate values of the next row, with
     bitsets over permutation indices: a few big-int operations for each
     class {c : c(y) = u}. A triple with row k as u is, by r(k, v) = (x, y),
     one with k as x. Both are necessary, so no solution is pruned.
  2. ordered-invariant bound: in a lex-minimal table, relabeling any point
     v to 0 cannot produce a first row lex-smaller than row 0; each known
     row is checked against a precomputed minimal-conjugate table.
  3. canonicity: one vectorized comparator relabels rows 1..d-1 under all
     aligners of an anchor at once (relabelings taking the anchor to 0 and its
     row onto the root row). The aligners that keep {0..d-1} and their flat
     gather indices are prepared once per (row, anchor, d) in the search of
     one root, and die with it. At d = n it decides if a table is
     orbit-least; below, it prunes.
  4. solvability: G(X, r) is solvable (Etingof, Schedler and Soloviev,
     Duke Math. J. 1999, Thm 2.15), so a node is cut on entry if `certainly_nonsolvable`
     proves its known rows (distinct, in index order) generate a non-solvable group.

  Canonical leaves are re-validated with the brute-force checker before
  being emitted, so search-level shortcuts cannot admit a non-solution.

Search order is deterministic and the result is a pure function of n:
one unit per root row, pulled by idle workers, and results are merged as
sorted sets of canonical tables.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import symtab
# check_brace_axiom and additive_identities_check are unused here but stay
# importable from this module: the bench tracer patches them by name.
from .braces import (
    DEFAULT_BRACE_CAP,
    FiniteBrace,
    additive_identities_check,
    associated_solution,
    brace_from_solution,
    check_brace_axiom,
    decomp_check,
    is_trivial_brace,
    lambda_matches_action,
    socle,
    socle_is_ideal,
    sylow_decomposition,
)
from .catalog import CatalogRecord
from .errors import BudgetExceededError, ClassificationShapeError
from .permgroup import PermGroup, certainly_nonsolvable
from .perms import Perm, cycle_type
from .solutions import (
    Solution,
    canonical_form,
    is_irretractable,
    multipermutation_level,
    sigma_class_blocks,
    solution_group,
    validate,
)

ORACLE_LIMIT = 4
DEFAULT_EXHAUSTIVE_LIMIT = 7

@dataclass
class SearchStats:
    """
    Counters of one search. Every leaf (a complete table) is first tested for
    canonicity: `noncanonical_leaves` counts the leaves that fail it, and
    `invalid_leaves` the canonical leaves that then fail re-validation by the
    brute-force checker; the rest are `accepted`.
    """

    nodes: int = 0
    leaves: int = 0
    accepted: int = 0
    invalid_leaves: int = 0
    noncanonical_leaves: int = 0

    def merge(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.leaves += other.leaves
        self.accepted += other.accepted
        self.invalid_leaves += other.invalid_leaves
        self.noncanonical_leaves += other.noncanonical_leaves


@dataclass(frozen=True)
class _Enumeration:
    """The canonical tables of one size and the counters of the search that found them."""

    tables: tuple[tuple[Perm, ...], ...]
    stats: SearchStats

    @functools.cached_property
    def records(self) -> tuple[CatalogRecord, ...]:
        return tuple(_record_from_canonical(t) for t in self.tables)


_SEARCH_CACHE: dict[int, _Enumeration] = {}


class _Search:
    """Row-by-row backtracking over the sigma tables of one degree whose row 0 is `root`."""

    def __init__(self, n: int, root: int, deadline: float | None = None):
        self.tab = symtab.get_tables(n)
        self.tab.ensure_comp()
        self.n = n
        self.root = root
        self.arange_n = np.arange(n, dtype=np.intp)
        self.np_perms_flat = self.tab.np_perms.ravel()
        self._gather_cache: dict[tuple[int, int], list] = {}
        # the candidate filter's mc bound, and the sets it asks for in this search
        self._bound_np = self.tab.mc_np >= root
        self._mc_bits = [symtab.bits(col) for col in self._bound_np.T]
        self._conj = functools.cache(self.tab.conjugators)
        self._roots = functools.cache(self.tab.square_roots)
        self.deadline = deadline
        self.stats = SearchStats()
        self.results: list[tuple[Perm, ...]] = []

    # -- constraint propagation -------------------------------------------

    def _know(self, rows, gmask, r0: int, c0: int) -> bool:
        """
        Record row r0 = perms[c0] and cascade all consequences.

        Every constraint comes from a triple (x, y, u = sigma_x(y)): rows x and
        u give the gamma entry gamma_y(x) = v = sigma_u^{-1}(x), and row y as
        well forces row v = sigma_u^{-1} sigma_x sigma_y. A new row r completes
        the triples where it is x, u or y; all their gamma entries are checked
        before any forced row is composed. Returns False on any contradiction:
        a partial gamma collision, a forced row clashing with a known one, or a
        minimal-conjugate bound violation. Mutates rows and gmask in place.
        """
        n, tab = self.n, self.tab
        perms, iperms, invi, mc = tab.perms, tab.iperms, tab.invi, tab.mc
        root, compose, comp, m = self.root, tab.compose_idx, tab._comp, tab.m
        stack = [(r0, c0)]
        while stack:
            r, c = stack.pop()
            cur = rows[r]
            if cur is not None:
                if cur != c:
                    return False
                continue
            if mc[c][r] < root:
                return False
            rows[r] = c
            pr = perms[c]
            ipr = iperms[c]

            # gamma half; the complete triples are kept as (x, y, row u)
            done = []
            for y in range(n):  # r is x
                ru = rows[pr[y]]
                if ru is not None:
                    bit = 1 << iperms[ru][r]
                    if gmask[y] & bit:
                        return False
                    gmask[y] |= bit
                    if rows[y] is not None:
                        done.append((r, y, ru))
            for x in range(n):
                rx = rows[x]
                if rx is None or x == r:
                    continue
                y = iperms[rx][r]  # r is u
                bit = 1 << ipr[x]
                if gmask[y] & bit:
                    return False
                gmask[y] |= bit
                if rows[y] is not None:
                    done.append((x, y, c))
                u = perms[rx][r]  # r is y; u == r was taken as y == r above
                ru = rows[u]
                if ru is not None and u != r:
                    done.append((x, r, ru))

            # braid half
            for x, y, ru in done:
                v = iperms[ru][x]
                if comp is not None:  # n <= 7: read the composition buffer
                    rv = comp[invi[ru] * m + comp[rows[x] * m + rows[y]]]
                else:
                    rv = compose(invi[ru], compose(rows[x], rows[y]))
                cur = rows[v]
                if cur is None:
                    stack.append((v, rv))
                elif cur != rv:
                    return False
        return True

    # -- symmetry breaking ---------------------------------------------------

    def _gathers(self, src: int, x0: int) -> list:
        """
        Per prefix length d, the gathers of `_canonical` for anchor x0 with
        row src: the relabelings f with f(x0) = 0, f perms[src] f^-1 =
        perms[root] and f({0..d-1}) = {0..d-1} as the rows of F, with the flat
        gather indices of the relabeled rows 1..d-1 (None if no f is kept).
        """
        key = (src, x0)
        if key not in self._gather_cache:
            n = self.n
            every = np.array(list(self.tab.aligners(src, self.root, x0)), dtype=np.intp)
            every = every.reshape(-1, n)
            per_d = [None] * (n + 1)
            for d in range(max(2, x0 + 1), n + 1):
                F = every[(every[:, :d] < d).all(axis=1)]
                Fi, aoff = np.argsort(F, axis=1), np.arange(0, F.size, n)[:, None, None]
                if len(F):
                    per_d[d] = F, Fi[:, 1:d, None], Fi[:, None, :], aoff
            self._gather_cache[key] = per_d
        return self._gather_cache[key]

    def _canonical(self, rows, d: int) -> bool:
        """
        No relabeling that keeps {0..d-1} beats the d-row prefix. For each
        anchor x < d whose row conjugates onto the root row with x going to 0,
        every such aligner f relabels rows 1..d-1 at once, row i to
        f o sigma_{f^-1(i)} o f^-1, and none may give a lex-smaller block. At
        d = n this is exact lex-minimality of the table in its relabeling
        orbit; below, a prefix that fails it has no canonical completion.
        """
        if d < 2:
            return True
        mc, root, P = self.tab.mc, self.root, self.np_perms_flat
        R = np.array(rows[:d], dtype=np.intp) * self.n
        cur = P[R[1:, None] + self.arange_n].ravel()
        for x in range(d):
            g = self._gathers(rows[x], x)[d] if mc[rows[x]][x] == root else None
            if g is None:
                continue
            F, rowsel, colsel, aoff = g
            rel = F.ravel()[aoff + P[R[rowsel] + colsel]].reshape(len(F), -1)
            first = (rel != cur).argmax(axis=1)
            if (rel[np.arange(len(F)), first] < cur[first]).any():
                return False
        return True

    # -- search ------------------------------------------------------------------

    def _leaf(self, rows) -> None:
        self.stats.leaves += 1
        if not self._canonical(rows, self.n):
            self.stats.noncanonical_leaves += 1
            return
        table = tuple(self.tab.perms[i] for i in rows)
        if not validate(Solution(self.n, table)).passed:
            self.stats.invalid_leaves += 1
            return
        self.stats.accepted += 1
        self.results.append(table)

    def _candidate_mask(self, rows, gmask, k) -> np.ndarray:
        """
        Necessary conditions on candidate values c for row k, as a bitset over
        c: the triples of `_know` that row k completes, one step deep. On a
        class {c : c(y) = u} of `SymTables.sends` a triple's gamma entry v is
        fixed, and its test keeps or drops the class; the row rv it forces
        (rows named by their points) restricts c by what row v is, through
        `SymTables.conjugators` ("conj."), `SymTables.square_roots` ("c c =")
        and `_bound` (n <= 7), and c(v) = x for a known x != k with sigma_x(y) = k
        (gamma_y(x) = c^-1(x) = v). A dropped c would fail the exact cascade too.
        Blanks are untested: k as u is k as x by r(k, v) = (x, y); known rows x,
        u and v have forced row k; and the v = k cells cut no mask at n <= 7.

        triple           rv          v = k      row v = a    row v unknown
        k is x, y = k    u^-1 c c               c c = u a    bound of c c
        k is x, y != k   u^-1 c y    conj.      one c        bound of c
        k is u, y = k    c^-1 x c                            met: mc[x][x]
        k is u, y != k   c^-1 x y                            bound of c
        k is y           u^-1 x c                            bound of c
        """
        n, tab = self.n, self.tab
        perms, iperms, invi, sends = tab.perms, tab.iperms, tab.invi, tab.sends
        compose = tab.compose_idx
        ok = self._mc_bits[k]
        hits = [[] for _ in range(n)]  # hits[y]: the known x != k with sigma_x(y) = k
        for x in (x for x in range(n) if rows[x] is not None and x != k):
            hits[iperms[rows[x]][k]].append(x)
        for y in range(n):  # k is x; on the class c(y) = u, row u and v are fixed
            ry, keep = rows[y], 0
            for u in range(n):
                cls, ru = sends[y][u], rows[u]
                if u == k:  # row u is c, so v = y, whose forced row is row y itself
                    keep |= 0 if gmask[y] >> y & 1 else cls
                elif ru is None:
                    keep |= cls
                elif not gmask[y] >> iperms[ru][k] & 1:
                    v = iperms[ru][k]
                    cls &= ~sum(sends[v][x] for x in hits[y])  # c(v) = x: gamma_y(x) = v
                    if y == k and v != k:
                        if rows[v] is not None:
                            cls &= self._roots(compose(ru, rows[v]))
                        else:
                            cls &= self._bound(v, invi[ru], True)
                    elif ry is not None:  # so y != k
                        if v == k:
                            cls &= self._conj(ry, ru)
                        elif rows[v] is not None:
                            cls &= 1 << compose(compose(ru, rows[v]), invi[ry])
                        else:  # mc[u^-1 c y][v] = mc[y u^-1 c][y(v)]
                            cls &= self._bound(perms[ry][v], compose(ry, invi[ru]))
                    keep |= cls
            ok &= keep
        for x in (x for x in range(n) if rows[x] is not None):  # only bounds are new here
            rx = rows[x]
            y, ru = iperms[rx][k], rows[perms[rx][k]]  # k is u, then k is y
            if ru is not None:  # k is y, so u != k
                v = iperms[ru][x]
                if v != k and rows[v] is None:
                    ok &= self._bound(v, compose(invi[ru], rx))
            if rows[y] is not None:  # k is u, so y != k
                winv, keep = invi[compose(rx, rows[y])], 0
                for v in range(n):  # on the class c(v) = x, mc[c^-1 x y][v] = mc[y^-1 x^-1 c][v]
                    cls = sends[v][x]
                    keep |= cls if v == k or rows[v] is not None else cls & self._bound(v, winv)
                ok &= keep
        return symtab.unbits(ok, tab.m)

    def _bound(self, v: int, w: int, squared: bool = False) -> int:
        """{c : mc[w c][v] >= root}, with c c for c if squared; every c at n = 8."""
        C = self.tab.comp_np
        if C is None:
            return -1
        return symtab.bits(self._bound_np[C[w, C.diagonal()] if squared else C[w], v])

    def _dfs(self, rows, gmask) -> None:
        self.stats.nodes += 1
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise BudgetExceededError("enumeration time budget exceeded")
        k = None
        for i in range(self.n):
            if rows[i] is None:
                k = i
                break
        if k is None:
            self._leaf(rows)
            return
        if certainly_nonsolvable([self.tab.perms[r] for r in sorted(set(rows) - {None})], self.n):
            return
        if k >= 2 and not self._canonical(rows, k):
            return
        for c in np.flatnonzero(self._candidate_mask(rows, gmask, k)).tolist():
            rows2 = rows[:]
            gmask2 = gmask[:]
            if self._know(rows2, gmask2, k, c):
                self._dfs(rows2, gmask2)

    def run(self) -> list[tuple[Perm, ...]]:
        rows: list[int | None] = [None] * self.n
        gmask = [0] * self.n
        if self._know(rows, gmask, 0, self.root):
            self._dfs(rows, gmask)
        return self.results


def _search_root(unit) -> tuple[list[tuple[Perm, ...]], SearchStats]:
    """One unit of search work: every canonical table with row 0 = perms[root]."""
    search = _Search(*unit)
    return search.run(), search.stats


def canonical_root_rows(n: int) -> list[int]:
    """
    Perm indices that are lex-least conjugates pinning their anchor to 0:
    the candidates for row 0, one search unit each.

    >>> [len(canonical_root_rows(n)) for n in range(1, 9)]
    [1, 2, 4, 7, 12, 19, 30, 45]
    """
    mc0 = symtab.get_tables(n).mc_np[:, 0]
    return np.flatnonzero(mc0 == np.arange(len(mc0))).tolist()


def enumerate_canonical_tables(
    n: int,
    threads: int = 1,
    allow_large: bool = False,
    time_budget_secs: float | None = None,
    use_cache: bool = True,
    stats: SearchStats | None = None,
) -> tuple[tuple[Perm, ...], ...]:
    """
    All canonical sigma tables of valid solutions of size n, sorted.

    Exhaustive for n <= 7 by default; n = 8 requires allow_large (an
    extended, multi-hour run); larger n is refused outright. The search
    runs one unit per root row: in this process if threads is 1, else in a
    pool of that many workers that each take the next unit when idle. A
    time budget, if given, must be > 0 seconds. The counters of the search
    are merged into stats, also when the tables come from the cache.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if time_budget_secs is not None and not time_budget_secs > 0:  # NaN fails too
        raise ValueError("time budget must be > 0")
    if n > symtab.MAX_DEGREE:
        raise BudgetExceededError(f"enumeration beyond n={symtab.MAX_DEGREE} is unsupported")
    if n > DEFAULT_EXHAUSTIVE_LIMIT and not allow_large:
        raise BudgetExceededError(
            f"n={n} exceeds the default budget (n <= {DEFAULT_EXHAUSTIVE_LIMIT}); "
            "pass allow_large to opt in"
        )
    run = _SEARCH_CACHE.get(n) if use_cache else None
    if run is None:
        run = _run_search(n, threads, time_budget_secs)
        if use_cache:
            _SEARCH_CACHE[n] = run
    if stats is not None:
        stats.merge(run.stats)
    return run.tables


def _run_search(n: int, threads: int, time_budget_secs: float | None) -> _Enumeration:
    # every table the search reads, built before any fork: workers share them copy-on-write
    tab = symtab.get_tables(n)
    tab.ensure_comp()
    for name in symtab.LAZY_TABLES:
        getattr(tab, name)
    deadline = None if time_budget_secs is None else time.monotonic() + time_budget_secs
    units = [(n, root, deadline) for root in canonical_root_rows(n)]
    if threads == 1:
        parts = list(map(_search_root, units))
    else:
        from multiprocessing import get_context  # here only: it costs import time
        with get_context("fork").Pool(min(threads, len(units))) as pool:
            parts = pool.map(_search_root, units, chunksize=1)
    tables, stats = [], SearchStats()
    for part, stat in parts:
        tables.extend(part)
        stats.merge(stat)
    return _Enumeration(tuple(sorted(tables)), stats)


# -- record construction ------------------------------------------------------


def _brace_trivial_by_rows(s: Solution) -> bool:
    # the lambda action is trivial iff it fixes every additive generator,
    # which in row terms reads sigma_{sigma_x(y)} == sigma_y for all x, y
    return all(
        s.sigma[s.sigma[x][y]] == s.sigma[y] for x in range(s.n) for y in range(s.n)
    )


def _flags(s: Solution, group: PermGroup) -> dict:
    return {
        "indecomposable": group.is_transitive(),
        "irretractable": is_irretractable(s),
        "primitive": group.is_primitive(),
        "mpl": multipermutation_level(s),
        "group_order": group.order,
        "brace_trivial": _brace_trivial_by_rows(s),
    }


def _record_from_canonical(table: tuple[Perm, ...]) -> CatalogRecord:
    s = Solution(len(table), table)
    return CatalogRecord(n=s.n, sigma=s.sigma, valid=True, **_flags(s, solution_group(s)))


def invariant_suite(s: Solution, brace: FiniteBrace, flags: dict) -> bool:
    """
    The structural cross-check battery for a validated solution, its brace
    and its `_flags`: lambda/action covariance, socle coherence, sigma-class
    invariance, validity of the brace-associated solution, solvability of
    the group, and the Sylow system checks (with cross-part factorization
    when two or more primes divide the order). The brace construction
    already verified the compatibility axiom and the difference identities.
    """
    checks = [
        lambda_matches_action(brace, s),
        socle_is_ideal(brace),
        sigma_class_blocks(s).generator_invariant,
        validate(associated_solution(brace)).passed,
        brace.group.is_solvable(),
        is_trivial_brace(brace) == flags["brace_trivial"],
    ]
    decomposition = sylow_decomposition(brace)
    checks.append(decomp_check(brace, decomposition))
    if flags["irretractable"]:
        checks.append(socle(brace) == (0,))
    return all(checks)


def analyze(s: Solution, brace_cap: int = DEFAULT_BRACE_CAP) -> CatalogRecord:
    """
    Single-solution pipeline: validate, then compute every flag and run the
    invariant suite. Invalid input yields a record with `valid` False and
    all downstream fields absent.

    The flags and the brace share one permutation group, expanded once;
    `brace_cap` bounds its order during that expansion, and a larger group
    raises BudgetExceededError. The record's sigma is the canonical form of
    s, except for n > symtab.MAX_DEGREE, where it is s.sigma as given.
    """
    report = validate(s)
    if not report.passed:
        return CatalogRecord(n=s.n, sigma=s.sigma, valid=False)
    sigma = canonical_form(s).sigma if s.n <= symtab.MAX_DEGREE else s.sigma
    brace = brace_from_solution(s, cap=brace_cap)
    flags = _flags(s, brace.group)
    ok = invariant_suite(s, brace, flags)
    return CatalogRecord(n=s.n, sigma=sigma, valid=True, invariants_ok=ok, **flags)


# -- the oracle ----------------------------------------------------------------


def oracle_enumerate(n: int) -> list[CatalogRecord]:
    """
    Ground-truth enumeration for n <= 4: every sigma table is generated,
    the non-degenerate ones are validated with the brute-force checker, and
    the solutions are bucketed by canonical form.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
    if n > ORACLE_LIMIT:
        raise ValueError(f"the oracle sweeps (n!)^n tables; refusing n > {ORACLE_LIMIT}")
    return list(_oracle_records(n))


@functools.cache
def _oracle_records(n: int) -> tuple[CatalogRecord, ...]:
    survivors = [rows for rows in _nondegenerate_tables(n) if validate(Solution(n, rows)).passed]
    classes = sorted({canonical_form(Solution(n, rows)).sigma for rows in survivors})
    return tuple(_record_from_canonical(t) for t in classes)


def _nondegenerate_tables(n: int):
    """
    Every sigma table, in lex order, whose derived columns
    gamma_y(x) = sigma_{sigma_x(y)}^{-1}(x) are all bijections: the literal
    non-degeneracy axiom, decided at once for the (n!)^(n-1) tables sharing a
    row 0. Rows are read from their image arrays, not through the search's
    composition table, so a wrong table cannot make both routes drop the
    same solution.
    """
    tab = symtab.get_tables(n)
    perms, inv = tab.np_perms.astype(np.intp), tab.np_inv.astype(np.intp)
    pts = np.arange(n)
    # idx[t, x]: index of row x of table t; column 0 is set per row 0 below
    idx = np.array([(0, *r) for r in itertools.product(range(tab.m), repeat=n - 1)], dtype=np.intp)
    for i0 in range(tab.m):
        idx[:, 0] = i0
        u = perms[idx]  # u[t, x, y] = sigma_x(y)
        gam = inv[idx[np.arange(len(idx))[:, None, None], u], pts[:, None]]  # gamma_y(x)
        nondeg = (np.sort(gam, axis=1) == pts[:, None]).all(axis=(1, 2))
        for t in np.flatnonzero(nondeg):
            yield tuple(tab.perms[i] for i in idx[t].tolist())


# -- the fast path ---------------------------------------------------------------


def fast_enumerate(
    n: int,
    threads: int = 1,
    allow_large: bool = False,
    time_budget_secs: float | None = None,
    use_cache: bool = True,
    stats: SearchStats | None = None,
) -> list[CatalogRecord]:
    """
    Isomorph-free enumeration with records; output is a pure function of n
    (thread count only partitions the work). The counters of the search are
    merged into stats, also when the records come from the cache.
    """
    tables = enumerate_canonical_tables(
        n,
        threads=threads,
        allow_large=allow_large,
        time_budget_secs=time_budget_secs,
        use_cache=use_cache,
        stats=stats,
    )
    if use_cache:
        return list(_SEARCH_CACHE[n].records)
    return [_record_from_canonical(t) for t in tables]


# -- classification ----------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(math.isqrt(n)) + 1))


@dataclass(frozen=True)
class ClassificationReport:
    """Primitive classes per size, plus the shape verdict."""

    n_max: int
    primitive_by_n: dict[int, tuple[CatalogRecord, ...]] = field(default_factory=dict)

    @property
    def counts(self) -> dict[int, int]:
        return {n: len(v) for n, v in sorted(self.primitive_by_n.items())}

    def to_json(self) -> dict:
        return {
            "n_max": self.n_max,
            "per_n": {
                str(n): {
                    "count": len(records),
                    "classes": [[list(row) for row in r.sigma] for r in records],
                }
                for n, records in sorted(self.primitive_by_n.items())
            },
        }

    def csv_rows(self) -> list[tuple]:
        rows = [("n", "primitive_classes", "prime_size")]
        for n, records in sorted(self.primitive_by_n.items()):
            rows.append((n, len(records), _is_prime(n)))
        return rows


def classify_primitive(
    n_max: int,
    threads: int = 1,
    allow_large: bool = False,
    time_budget_secs: float | None = None,
) -> ClassificationReport:
    """
    Enumerate sizes 2..n_max, keep the classes whose group acts primitively,
    and verify the expected shape: composite sizes yield no primitive class,
    prime sizes yield exactly one, the constant-row solution on an n-cycle
    with cyclic group of order n. A violation raises ClassificationShapeError.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    per_n: dict[int, tuple[CatalogRecord, ...]] = {}
    for n in range(2, n_max + 1):
        records = fast_enumerate(
            n,
            threads=threads,
            allow_large=allow_large,
            time_budget_secs=time_budget_secs,
        )
        primitive = tuple(r for r in records if r.primitive)
        per_n[n] = primitive
        if _is_prime(n):
            if len(primitive) != 1:
                raise ClassificationShapeError(
                    f"expected exactly one primitive class at prime size {n}, "
                    f"found {len(primitive)}"
                )
            rec = primitive[0]
            rows = set(rec.sigma)
            if len(rows) != 1:
                raise ClassificationShapeError(
                    f"primitive class at {n} is not a constant-row solution"
                )
            if cycle_type(rec.sigma[0]) != (n,):
                raise ClassificationShapeError(
                    f"primitive class at {n} is not driven by an {n}-cycle"
                )
            if rec.group_order != n:
                raise ClassificationShapeError(
                    f"primitive class at {n} has group order {rec.group_order}, "
                    f"expected the cyclic group of order {n}"
                )
        else:
            if primitive:
                raise ClassificationShapeError(
                    f"found {len(primitive)} primitive classes at composite size {n}"
                )
    return ClassificationReport(n_max=n_max, primitive_by_n=per_n)
