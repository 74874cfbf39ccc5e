"""
Exhaustive, isomorph-free enumeration of solutions for small set sizes.

Two independent routes exist:

* `oracle_enumerate` (n <= 4): sweep all (n!)^n sigma tables, keep the ones
  whose derived gamma columns are bijections (the non-degeneracy axiom,
  checked literally over arrays), pass those to `validate`, and bucket the
  solutions by canonical form. One path for every n, no derived identities;
  it is the ground truth the fast path is judged against.

* `fast_enumerate` (n <= 7 by default, n = 8 opt-in): depth-first search
  over partial sigma tables, one row at a time, with three pruning devices:

  1. constraint propagation from one triple rule: for a triple (x, y,
     u = sigma_x(y)), rows x and u give the gamma entry gamma_y(x) =
     v = sigma_u^{-1}(x), and row y as well forces row v to equal
     sigma_u^{-1} sigma_x sigma_y. Each new row completes the triples where
     it is x, u or y, so rows are forced long before they are branched on;
     partial gamma values are tracked per column and any collision (a
     non-degeneracy violation) kills the branch. A vectorized filter checks
     the same triples one step deep for all candidate values of the next
     row. Both conditions are necessary, so no solution is ever pruned.
  2. ordered-invariant bound: in a lex-minimal table, relabeling any point
     v to 0 cannot produce a first row lex-smaller than row 0; each known
     row is checked against a precomputed minimal-conjugate table.
  3. canonicity: one vectorized comparator relabels rows 1..d-1 under all
     aligners of an anchor at once (relabelings taking the anchor to 0 and its
     row onto the root row; cached per search). At d = n it decides if a table
     is orbit-least; below, it prunes.

  Canonical leaves are re-validated with the brute-force checker before
  being emitted, so search-level shortcuts cannot admit a non-solution.

Search order is deterministic and the result is a pure function of n:
worker partitioning happens at the first branching level and results are
merged as sorted sets of canonical tables.
"""
from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from multiprocessing import get_context

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
from .permgroup import PermGroup
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
    """Row-by-row backtracking over sigma tables of one degree."""

    def __init__(self, n: int, deadline: float | None = None):
        self.tab = symtab.get_tables(n)
        self.tab.ensure_comp()
        self.n = n
        self.arange_m = np.arange(self.tab.m, dtype=np.int32)
        self._aligner_array_cache: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
        self.deadline = deadline
        self.stats = SearchStats()
        self.results: list[tuple[Perm, ...]] = []
        self.root = -1

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
        root, compose = self.root, tab.compose_idx
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
                rv = compose(invi[ru], compose(rows[x], rows[y]))
                cur = rows[v]
                if cur is None:
                    stack.append((v, rv))
                elif cur != rv:
                    return False
        return True

    # -- symmetry breaking ---------------------------------------------------

    def _aligner_arrays(self, src: int, x0: int) -> tuple[np.ndarray, np.ndarray]:
        """
        The relabelings f with f(x0) = 0 and f perms[src] f^-1 = perms[root]
        as the rows of F, and their inverses as the rows of Finv.
        """
        key = (src, self.root, x0)
        if key not in self._aligner_array_cache:
            F = np.array(list(self.tab.aligners(*key)), dtype=np.int8).reshape(-1, self.n)
            self._aligner_array_cache[key] = F, np.argsort(F, axis=1).astype(np.int8)
        return self._aligner_array_cache[key]

    def _lex_beaten(self, rows, x: int, d: int) -> bool:
        """
        Whether an aligner of anchor x that maps {0..d-1} into itself turns
        rows 1..d-1 into a lex-smaller block. Relabeled row i is
        f o sigma_{f^-1(i)} o f^-1, built for every aligner and row at once.
        """
        F, Finv = self._aligner_arrays(rows[x], x)
        keep = (F[:, :d] < d).all(axis=1)
        if d < 2 or not keep.any():
            return False
        F, Finv, k = F[keep], Finv[keep], int(keep.sum())
        R = np.array(rows[:d], dtype=np.intp)
        P = self.tab.np_perms
        rel = F[np.arange(k)[:, None, None], P[R[Finv[:, 1:d]][:, :, None], Finv[:, None, :]]]
        rel = rel.reshape(k, -1)
        cur = P[R[1:d]].reshape(-1)
        lt = rel < cur
        first = (lt | (rel > cur)).argmax(axis=1)
        return bool(lt[np.arange(k), first].any())

    def _canonical(self, rows, d: int) -> bool:
        """
        No relabeling that keeps {0..d-1} beats the d-row prefix. At d = n this
        is exact lex-minimality of the table in its relabeling orbit; below, a
        prefix that fails it has no canonical completion.
        """
        mc, root = self.tab.mc, self.root
        return not any(
            self._lex_beaten(rows, x, d) for x in range(d) if mc[rows[x]][x] == root
        )

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
        Vectorized necessary conditions on candidate values for row k: the
        triples of `_know` that row k completes, one step deep. Every rejected
        candidate would also be rejected by the exact cascade, so this only
        trims the loop, never the result set.
        """
        n, tab, root, ar = self.n, self.tab, self.root, self.arange_m
        P, IV, C, invi_np, mc_np = tab.np_perms, tab.np_inv, tab.comp_np, tab.invi_np, tab.mc_np
        ok = mc_np[:, k] >= root
        rows_arr = np.fromiter(
            (r if r is not None else -1 for r in rows), dtype=np.int32, count=n
        )

        def forced_ok(v, rv):
            # forced row v (one per candidate, or one for all) may take value rv
            va = np.where(v == k, -2, rows_arr[v])
            unknown_ok = mc_np[rv, v] >= root
            return np.where(va == -2, rv == ar, np.where(va >= 0, va == rv, unknown_ok))

        # per triple, the gamma entry v first, then the row forced at v once
        # row y is known; a row given as ar is the candidate itself
        for y in range(n):  # k is x
            ucol = P[:, y]
            ru = np.where(ucol == k, ar, rows_arr[ucol])
            known = ru >= 0
            if not known.any():
                continue
            v = IV[ru, k]
            ok &= ~known | (((gmask[y] >> v) & 1) == 0)
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
            u = tab.perms[rx][k]  # k is y; its gamma entry is known without row k
            ru = rows[u]
            if ru is not None and u != k:  # u == k was taken as y == k above
                ok &= forced_ok(IV[ru, x], C[invi_np[ru], C[rx]])
        return ok

    def _dfs(self, rows, gmask) -> None:
        self.stats.nodes += 1
        if self.deadline is not None and self.stats.nodes % 64 == 0:
            if time.monotonic() > self.deadline:
                raise BudgetExceededError("enumeration time budget exceeded")
        k = None
        for i in range(self.n):
            if rows[i] is None:
                k = i
                break
        if k is None:
            self._leaf(rows)
            return
        if k >= 2 and not self._canonical(rows, k):
            return
        candidates = np.nonzero(self._candidate_mask(rows, gmask, k))[0]
        for c in candidates:
            rows2 = rows[:]
            gmask2 = gmask[:]
            if self._know(rows2, gmask2, k, int(c)):
                self._dfs(rows2, gmask2)

    def run(self, roots) -> list[tuple[Perm, ...]]:
        for c in roots:
            self.root = c
            rows: list[int | None] = [None] * self.n
            gmask = [0] * self.n
            if self._know(rows, gmask, 0, c):
                self._dfs(rows, gmask)
        return self.results


def _search_worker(args) -> tuple[list[tuple[Perm, ...]], dict]:
    n, roots, deadline = args
    search = _Search(n, deadline)
    tables = search.run(roots)
    return tables, search.stats.__dict__


def canonical_root_rows(n: int) -> list[int]:
    """Perm indices that are lex-least conjugates pinning their anchor to 0."""
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
    extended, multi-hour run); larger n is refused outright. A time budget,
    if given, must be > 0 seconds. The counters of the search are merged
    into stats, also when the tables come from the cache.
    """
    if n < 1:
        raise ValueError("size must be >= 1")
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
    tab = symtab.get_tables(n)
    tab.ensure_comp()
    roots = canonical_root_rows(n)
    deadline = None if time_budget_secs is None else time.monotonic() + time_budget_secs

    if threads <= 1 or len(roots) <= 1:
        search = _Search(n, deadline)
        tables, stats = search.run(roots), search.stats
    else:
        chunks = [roots[i::threads] for i in range(threads)]
        chunks = [c for c in chunks if c]
        ctx = get_context("fork")
        with ctx.Pool(len(chunks)) as pool:
            parts = pool.map(_search_worker, [(n, c, deadline) for c in chunks])
        tables, stats = [], SearchStats()
        for part, stat in parts:
            tables.extend(part)
            stats.merge(SearchStats(**stat))
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


def invariant_suite(s: Solution, brace: FiniteBrace) -> bool:
    """
    The structural cross-check battery for a validated solution and its
    brace: lambda/action covariance, socle coherence, sigma-class
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
        is_trivial_brace(brace) == _brace_trivial_by_rows(s),
    ]
    decomposition = sylow_decomposition(brace)
    checks.append(decomp_check(brace, decomposition))
    if is_irretractable(s):
        checks.append(socle(brace) == (0,))
    return all(checks)


def analyze(s: Solution, brace_cap: int = DEFAULT_BRACE_CAP) -> CatalogRecord:
    """
    Single-solution pipeline: validate, then compute every flag and run the
    invariant suite. Invalid input yields a record with `valid` False and
    all downstream fields absent.

    The flags and the brace share one permutation group, expanded once;
    `brace_cap` bounds its order during that expansion, and a larger group
    raises BudgetExceededError.
    """
    report = validate(s)
    if not report.passed:
        return CatalogRecord(n=s.n, sigma=s.sigma, valid=False)
    sigma = canonical_form(s).sigma if s.n <= symtab.MAX_DEGREE else s.sigma
    brace = brace_from_solution(s, cap=brace_cap)
    flags = _flags(s, brace.group)
    ok = invariant_suite(s, brace)
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
