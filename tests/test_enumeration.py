import itertools
import random
import time

import numpy as np
import pytest

from reference import brute_prefix_canonical, dense_candidate_mask, lexsort_min_relabeled
from ybekit import symtab
from ybekit.catalog import CatalogRecord
from ybekit.enumeration import (
    SearchStats,
    _nondegenerate_tables,
    _run_search,
    _Search,
    analyze,
    canonical_root_rows,
    classify_primitive,
    enumerate_canonical_tables,
    fast_enumerate,
    oracle_enumerate,
)
from ybekit.errors import BudgetExceededError, ClassificationShapeError
from ybekit.permgroup import PermGroup
from ybekit.solutions import Solution, canonical_form, relabel, validate
from ybekit.symtab import SymTables, get_tables

# frozen regression counts, established by the exhaustive oracle (n <= 4)
# and by verified enumerator runs (n >= 5)
EXPECTED_CLASS_COUNTS = {1: 1, 2: 2, 3: 5, 4: 23, 5: 88, 6: 595}


def test_oracle_counts():
    assert len(oracle_enumerate(1)) == 1
    assert len(oracle_enumerate(2)) == 2
    assert len(oracle_enumerate(3)) == 5


def test_oracle_refuses_large_n():
    with pytest.raises(ValueError):
        oracle_enumerate(5)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_oracle_prepass_keeps_exactly_the_nondegenerate_tables(n):
    every = itertools.product(get_tables(n).perms, repeat=n)
    expected = [rows for rows in every if validate(Solution(n, rows)).nondegenerate]
    assert list(_nondegenerate_tables(n)) == expected


def test_oracle_prepass_at_n4():
    tables = list(_nondegenerate_tables(4))
    assert len(tables) == 3360
    assert sum(validate(Solution(4, rows)).passed for rows in tables) == 168


def test_oracle_equivalence_small():
    for n in (1, 2, 3):
        fast = {r.sigma for r in fast_enumerate(n)}
        oracle = {r.sigma for r in oracle_enumerate(n)}
        assert fast == oracle


def test_fast_counts():
    for n, count in EXPECTED_CLASS_COUNTS.items():
        if n <= 5:
            assert len(fast_enumerate(n)) == count


def test_n1_is_the_point_solution():
    recs = fast_enumerate(1)
    assert len(recs) == 1
    assert recs[0].sigma == ((0,),)
    assert recs[0].primitive and recs[0].indecomposable
    assert recs[0].mpl == 0


def test_enumerate_guards():
    with pytest.raises(ValueError):
        enumerate_canonical_tables(0)
    with pytest.raises(BudgetExceededError):
        enumerate_canonical_tables(8)
    with pytest.raises(BudgetExceededError):
        enumerate_canonical_tables(9, allow_large=True)
    for budget in (0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="time budget"):
            enumerate_canonical_tables(3, time_budget_secs=budget, use_cache=False)


def test_threads_must_be_positive():
    for threads in (0, -1):
        with pytest.raises(ValueError, match="threads must be >= 1"):
            enumerate_canonical_tables(4, threads=threads, use_cache=False)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            fast_enumerate(4, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            classify_primitive(3, threads=threads)


def test_time_budget_is_explicit_error():
    # with 2 threads the error is raised in a worker and must reach the caller
    for threads in (1, 2):
        with pytest.raises(BudgetExceededError):
            enumerate_canonical_tables(
                6, threads=threads, time_budget_secs=1e-9, use_cache=False
            )


def test_deadline_checked_at_every_node():
    search = _Search(6, canonical_root_rows(6)[0], deadline=time.monotonic() - 1.0)
    with pytest.raises(BudgetExceededError):
        search.run()
    assert search.stats.nodes == 1


def test_determinism_across_threads():
    for n in (4, 6):
        runs = []
        for threads in (1, 2, 3):
            stats = SearchStats()
            runs.append(
                enumerate_canonical_tables(n, threads=threads, use_cache=False, stats=stats)
            )
            assert stats == EXPECTED_STATS[n]
        assert runs[0] == runs[1] == runs[2]


def test_search_tables_are_built_before_the_fork(monkeypatch):
    # a table that a forked worker builds stays in that worker, so fresh
    # tables that hold every view after the run were built before the fork
    tab = SymTables(5)
    monkeypatch.setattr(symtab, "get_tables", lambda n: tab)
    run = _run_search(5, 2, None)
    assert run.stats == EXPECTED_STATS[5]
    for name in ("perms", "pidx", "iperms", "invi", "mc", "mc_np", "sends"):
        assert name in vars(tab)
    assert tab.comp_np is not None


def test_all_tables_are_canonical_and_valid():
    for n in (2, 3, 4, 5):
        for table in enumerate_canonical_tables(n):
            s = Solution(n, table)
            assert validate(s).passed
            assert canonical_form(s).sigma == table


# frozen search counters: a faster search must not be a smaller one
EXPECTED_STATS = {
    4: SearchStats(nodes=76, leaves=43, accepted=23, invalid_leaves=0, noncanonical_leaves=20),
    5: SearchStats(nodes=471, leaves=211, accepted=88, invalid_leaves=0, noncanonical_leaves=123),
    6: SearchStats(nodes=3947, leaves=1639, accepted=595, invalid_leaves=0, noncanonical_leaves=1044),
}


def test_stats_reported():
    for n, expected in EXPECTED_STATS.items():
        stats = SearchStats()
        enumerate_canonical_tables(n, use_cache=False, stats=stats)
        assert stats == expected


def test_n7_stats_of_the_classification_run(classification7):
    # the fixture's run filled the cache; this reads its counters, no new search
    stats = SearchStats()
    enumerate_canonical_tables(7, stats=stats)
    assert stats == SearchStats(
        nodes=38152, leaves=10664, accepted=3456, invalid_leaves=0, noncanonical_leaves=7208
    )


def test_stats_reported_on_cache_hit():
    # the first call may fill the cache, the others read it; all three must
    # report the counters of the search that filled it
    for call in (fast_enumerate, fast_enumerate, enumerate_canonical_tables):
        stats = SearchStats()
        call(4, stats=stats)
        assert stats == EXPECTED_STATS[4]


class _CountingSearch(_Search):
    """A search that counts its `_know` trials."""

    trials = 0

    def _know(self, rows, gmask, r0, c0):
        self.trials += 1
        return super()._know(rows, gmask, r0, c0)


def test_n8_search_on_a_3_cycle_root():
    # the only full tier-1 run of the n = 8 path: composition through the
    # dict, no composition table; the candidate mask makes every forced-row
    # test there but the mc bound of an unknown forced row, so the search
    # makes 22751 `_know` trials, where a mask without them made 221817
    root = get_tables(8).pidx[(1, 2, 0, 3, 4, 5, 6, 7)]
    assert root == 5760
    search = _CountingSearch(8, root)
    assert search.tab.comp_np is None
    tables = search.run()
    assert search.stats == SearchStats(
        nodes=748, leaves=3, accepted=3, invalid_leaves=0, noncanonical_leaves=0
    )
    assert search.trials <= 30_000
    for table in tables:
        s = Solution(8, table)
        assert validate(s).passed
        assert canonical_form(s).sigma == table


def test_column_collision_test_cuts_know_trials_at_n6():
    # the mask drops c(v) = x when a known row x sends y to k and the class
    # c(y) = u gives gamma_y(k) = v: two of row k's new gamma entries would
    # collide in column y. It prunes no node: the counters stay, and the
    # trials fall from 53249 (the mask without this test) to 45487
    stats, searches = _search_every_root(_CountingSearch, 6)
    assert stats == EXPECTED_STATS[6]
    assert sum(search.trials for search in searches) == 45487


def _search_every_root(cls, n):
    """Run a `_Search` class on every root row of degree n; the summed stats and the searches."""
    stats, searches = SearchStats(), []
    for root in canonical_root_rows(n):
        search = cls(n, root)
        search.run()
        stats.merge(search.stats)
        searches.append(search)
    return stats, searches


class _CheckedMaskSearch(_Search):
    """A search that runs the exact cascade on every candidate the mask drops."""

    rejected = 0

    def _candidate_mask(self, rows, gmask, k):
        ok = super()._candidate_mask(rows, gmask, k)
        for c in np.nonzero(~ok)[0]:
            assert not self._know(rows[:], gmask[:], k, int(c)), (rows, k, int(c))
            self.rejected += 1
        return ok


def test_candidate_mask_drops_only_what_know_rejects():
    # the mask is a vectorized shortcut of the cascade, one step deep; a
    # candidate it drops that _know would keep is a lost solution
    for n in (3, 4, 5):
        stats, searches = _search_every_root(_CheckedMaskSearch, n)
        assert sum(search.rejected for search in searches) > 0
        if n in EXPECTED_STATS:
            assert stats == EXPECTED_STATS[n]


class _FirstNodesCheckedSearch(_CheckedMaskSearch):
    """The check of `_CheckedMaskSearch` at the first `nodes_left` masks only."""

    nodes_left = 3

    def _candidate_mask(self, rows, gmask, k):
        if not self.nodes_left:
            return _Search._candidate_mask(self, rows, gmask, k)
        self.nodes_left -= 1
        return super()._candidate_mask(rows, gmask, k)


def test_n8_candidate_mask_drops_only_what_know_rejects():
    # the dense reference has no forced-row tests at n = 8, so the mask is
    # checked against the cascade there, at the first internal nodes of the
    # 3-cycle root, each with its 40320 candidates
    search = _FirstNodesCheckedSearch(8, 5760)
    search.run()
    assert search.nodes_left == 0 and search.rejected > 3 * 30_000
    assert search.stats.accepted == 3


class _DenseMaskSearch(_Search):
    """A search that checks every candidate mask against the dense reference."""

    calls = 0

    def _candidate_mask(self, rows, gmask, k):
        ok = super()._candidate_mask(rows, gmask, k)
        dense = dense_candidate_mask(self, rows, gmask, k)
        assert ok.dtype == bool and np.array_equal(ok, dense), (rows, k)
        self.calls += 1
        return ok


def test_candidate_mask_matches_dense_reference():
    calls = {}
    for n in range(1, 7):
        stats, searches = _search_every_root(_DenseMaskSearch, n)
        calls[n] = sum(search.calls for search in searches)
        if n in EXPECTED_STATS:
            assert stats == EXPECTED_STATS[n]
    assert calls[6] == 896


class _BrutePrefixSearch(_Search):
    """A search that checks every canonicity verdict against a sweep over Sym(n)."""

    def __init__(self, n, root):
        super().__init__(n, root)
        self.verdicts = set()

    def _canonical(self, rows, d):
        got = super()._canonical(rows, d)
        prefix = [self.tab.perms[r] for r in rows[:d]]
        assert got == brute_prefix_canonical(prefix), (rows, d)
        self.verdicts.add((d < self.n, got))
        return got


def test_prefix_canonicity_matches_brute_force():
    # every _canonical call of the searches: each _dfs prefix with k >= 2,
    # where d = k < n, and each leaf, where d = n
    for n in range(1, 6):
        stats, searches = _search_every_root(_BrutePrefixSearch, n)
        if n in EXPECTED_STATS:
            assert stats == EXPECTED_STATS[n]
        if n >= 4:
            verdicts = set().union(*(search.verdicts for search in searches))
            assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def _disjoint_union(a, b):
    """Each part acts on its own points by its sigma rows and fixes the other part."""
    na, nb = len(a), len(b)
    rows = [tuple(row) + tuple(range(na, na + nb)) for row in a]
    rows += [tuple(range(na)) + tuple(na + v for v in row) for row in b]
    return tuple(rows)


def _leaf_comparator_cases():
    """
    Every relabeling of every class with n <= 4, a seeded sample at n = 5,
    and n = 8 tables with the identity as root row: the trivial solution,
    and seeded relabelings and canonical forms of disjoint unions with at
    least four identity rows, whose identity anchors have 5040 aligners each.
    """
    rng = random.Random(20)
    cases = []
    for n in (1, 2, 3, 4):
        for rec in fast_enumerate(n):
            s = Solution(n, rec.sigma)
            cases += [relabel(s, f).sigma for f in itertools.permutations(range(n))]
    for rec in fast_enumerate(5):
        s = Solution(5, rec.sigma)
        cases += [s.sigma] + [relabel(s, tuple(rng.sample(range(5), 5))).sigma for _ in range(10)]

    trivial4 = tuple(tuple(range(4)) for _ in range(4))
    cases.append(_disjoint_union(trivial4, trivial4))
    for rec in rng.sample(fast_enumerate(4), 6):
        s = Solution(8, _disjoint_union(rec.sigma, trivial4))
        cases.append(canonical_form(s).sigma)
        identity_points = [x for x in range(8) if s.sigma[x] == tuple(range(8))]
        for _ in range(6):
            f = rng.sample(range(8), 8)
            x = rng.choice(identity_points)
            f[f.index(0)], f[x] = f[x], 0  # relabel an identity row to row 0
            cases.append(relabel(s, tuple(f)).sigma)
    return cases


def test_leaf_comparator_matches_min_relabeled():
    """
    The aligner comparator against min_relabeled on `_leaf_comparator_cases`,
    restricted to tables the search can reach as leaves: row 0 is the root
    and mc[rows[x]][x] >= root for every x.
    """
    cases = _leaf_comparator_cases()
    searches = {}  # one per (n, root)
    verdicts = {n: set() for n in (1, 2, 3, 4, 5, 8)}
    for table in cases:
        n = len(table)
        tab = get_tables(n)
        rows = [tab.pidx[row] for row in table]
        if any(tab.mc[r][x] < rows[0] for x, r in enumerate(rows)):
            continue
        search = searches.setdefault((n, rows[0]), _Search(n, rows[0]))
        canonical = tab.min_relabeled(table) == table
        assert search._canonical(rows, n) == canonical, table
        verdicts[n].add(canonical)
    assert verdicts[8] == {True, False}
    assert set().union(*verdicts.values()) == {True, False}

    for (n, root), search in searches.items():
        assert search._gather_cache or n == 1  # a one-row table is never compared
        for (src, x0), per_d in search._gather_cache.items():
            every = list(search.tab.aligners(src, root, x0))
            for d, gathers in enumerate(per_d):
                kept = {f for f in every if all(f[i] < d for i in range(d))}
                if gathers is None:
                    assert d < 2 or not kept
                    continue
                F, rowsel, colsel, aoff = gathers
                assert F.dtype == rowsel.dtype == colsel.dtype == aoff.dtype == np.intp
                got = {tuple(f) for f in F.tolist()}
                assert len(got) == len(F) and got == kept
                assert (np.take_along_axis(F, colsel[:, 0, :], axis=1) == np.arange(n)).all()
                assert (rowsel[:, :, 0] == colsel[:, 0, 1:d]).all()


def test_min_relabeled_matches_lexsort_reference():
    """
    The row-by-row min_relabeled against the full sort of all n! relabeled
    tables: seeded relabelings of every class with n <= 6, and the n = 8
    tables of `_leaf_comparator_cases`, the trivial table among them (all
    40320 relabelings tie on every row).
    """
    rng = random.Random(21)
    cases = []
    for n in range(1, 7):
        for rec in fast_enumerate(n):
            s = Solution(n, rec.sigma)
            cases += [relabel(s, tuple(rng.sample(range(n), n))).sigma for _ in range(2)]
    n8 = [table for table in _leaf_comparator_cases() if len(table) == 8]
    assert tuple(tuple(range(8)) for _ in range(8)) in n8
    for table in cases + n8:
        tab = get_tables(len(table))
        assert tab.min_relabeled(table) == lexsort_min_relabeled(tab, table), table


@pytest.mark.parametrize(
    "slab",
    [lambda m: 1, lambda m: 5, lambda m: max(1, m - 1)],
    ids=["1", "5", "m-1"],
)
def test_min_relabeled_matches_lexsort_reference_at_slab_bounds(records_up_to_5, monkeypatch, slab):
    # every class with n <= 5 and a seeded relabeling of it, with the tied
    # relabelings split one per slab, five per slab, and all but one per slab
    rng = random.Random(22)
    for n, records in records_up_to_5.items():
        tab = get_tables(n)
        monkeypatch.setattr(symtab, "_SLAB_RELABELINGS", slab(tab.m))
        for rec in records:
            s = Solution(n, rec.sigma)
            for table in (s.sigma, relabel(s, tuple(rng.sample(range(n), n))).sigma):
                assert tab.min_relabeled(table) == lexsort_min_relabeled(tab, table), table


@pytest.mark.parametrize("slab", [1, symtab._SLAB_RELABELINGS], ids=["1", "default"])
def test_min_relabeled_at_n6_matches_lexsort_reference_at_slab_bounds(
    records_up_to_6, monkeypatch, slab
):
    monkeypatch.setattr(symtab, "_SLAB_RELABELINGS", slab)
    rng = random.Random(23)
    tab = get_tables(6)
    for rec in records_up_to_6[6]:
        table = relabel(Solution(6, rec.sigma), tuple(rng.sample(range(6), 6))).sigma
        assert tab.min_relabeled(table) == lexsort_min_relabeled(tab, table), table


def test_root_rows_are_pinned_minimal():
    roots = canonical_root_rows(4)
    assert 0 in roots  # the identity row
    assert len(roots) < 24


def test_record_flags_reproducible_by_analyze():
    for rec in fast_enumerate(4):
        again = analyze(Solution(rec.n, rec.sigma))
        assert again.sigma == rec.sigma
        assert again.indecomposable == rec.indecomposable
        assert again.irretractable == rec.irretractable
        assert again.primitive == rec.primitive
        assert again.mpl == rec.mpl
        assert again.group_order == rec.group_order
        assert again.brace_trivial == rec.brace_trivial
        assert again.invariants_ok is True


def test_analyze_examples():
    rec = analyze(Solution.permutation_solution((1, 2, 3, 4, 0)))
    assert rec.indecomposable and rec.primitive and rec.brace_trivial
    assert not rec.irretractable
    assert rec.mpl == 1 and rec.group_order == 5

    rec = analyze(Solution.trivial(3))
    assert rec.valid and not rec.indecomposable and not rec.primitive
    assert rec.mpl == 1 and rec.group_order == 1

    rec = analyze(Solution.trivial(1))
    assert rec.indecomposable and rec.primitive
    assert rec.mpl == 0 and rec.group_order == 1

    rec = analyze(Solution.from_rows([[0, 1], [1, 0]]))
    assert not rec.valid
    assert rec.indecomposable is None and rec.group_order is None


def test_analyze_closes_the_group_once(monkeypatch):
    calls = []
    closure = PermGroup.closure.__func__

    def counted(cls, *args, **kwargs):
        calls.append(args)
        return closure(cls, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "closure", classmethod(counted))
    rec = analyze(Solution.permutation_solution((1, 2, 3, 4, 0)))
    assert rec.invariants_ok and rec.group_order == 5
    assert len(calls) == 1


def test_classify_small():
    report = classify_primitive(5)
    assert report.counts == {2: 1, 3: 1, 4: 0, 5: 1}
    rows = report.csv_rows()
    assert rows[0] == ("n", "primitive_classes", "prime_size")
    assert (4, 0, False) in rows

    degenerate = classify_primitive(1)
    assert degenerate.counts == {}


def _cycle_record(n, sigma=None, group_order=None):
    """A primitive record; by default the expected one, constant rows of an n-cycle."""
    cycle = tuple(range(1, n)) + (0,)
    return CatalogRecord(
        n=n, sigma=sigma or (cycle,) * n, valid=True, indecomposable=True,
        primitive=True, group_order=group_order or n,
    )


def _plant_records(monkeypatch, planted):
    """fast_enumerate returns planted[n], and elsewhere the expected shape."""

    def fake(n, **kwargs):
        if n in planted:
            return planted[n]
        return [_cycle_record(n)] if n in (2, 3, 5, 7) else []

    monkeypatch.setattr("ybekit.enumeration.fast_enumerate", fake)


C5 = (1, 2, 3, 4, 0)


@pytest.mark.parametrize(
    "n_max, planted, message",
    [
        (4, [_cycle_record(4)], "found 1 primitive classes at composite size 4"),
        (5, [], "expected exactly one primitive class at prime size 5, found 0"),
        (5, [_cycle_record(5)] * 2, "expected exactly one primitive class at prime size 5, found 2"),
        (
            5,
            [_cycle_record(5, sigma=(C5,) * 4 + ((4, 0, 1, 2, 3),))],
            "primitive class at 5 is not a constant-row solution",
        ),
        (
            5,
            [_cycle_record(5, sigma=((1, 0, 3, 4, 2),) * 5)],
            "primitive class at 5 is not driven by an 5-cycle",
        ),
        (
            5,
            [_cycle_record(5, group_order=10)],
            "primitive class at 5 has group order 10, expected the cyclic group of order 5",
        ),
    ],
)
def test_classify_shape_check_rejects_planted_records(monkeypatch, n_max, planted, message):
    _plant_records(monkeypatch, {n_max: planted})
    with pytest.raises(ClassificationShapeError) as exc:
        classify_primitive(n_max)
    assert str(exc.value) == message


def test_classify_representatives_are_cycle_solutions():
    report = classify_primitive(3)
    for n, recs in report.primitive_by_n.items():
        if recs:
            expected = canonical_form(
                Solution.permutation_solution(tuple(range(1, n)) + (0,))
            ).sigma
            assert recs[0].sigma == expected


def test_retract_closure_small():
    catalogs = {n: {r.sigma for r in fast_enumerate(n)} for n in (1, 2, 3, 4)}
    for n in (2, 3, 4):
        for rec in fast_enumerate(n):
            from ybekit.solutions import retract

            r = retract(Solution(rec.n, rec.sigma))
            assert canonical_form(r).sigma in catalogs[r.n]


def test_record_consistency_guard():
    with pytest.raises(AssertionError):
        CatalogRecord(
            n=2,
            sigma=((0, 1), (0, 1)),
            valid=True,
            indecomposable=False,
            primitive=True,
        )
