import itertools
import random

import numpy as np
import pytest

from reference import lexsort_min_relabeled
from ybekit.catalog import CatalogRecord
from ybekit.enumeration import (
    SearchStats,
    _nondegenerate_tables,
    _Search,
    analyze,
    canonical_root_rows,
    classify_primitive,
    enumerate_canonical_tables,
    fast_enumerate,
    oracle_enumerate,
)
from ybekit.errors import BudgetExceededError
from ybekit.permgroup import PermGroup
from ybekit.solutions import Solution, canonical_form, relabel, validate
from ybekit.symtab import get_tables

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


def test_time_budget_is_explicit_error():
    with pytest.raises(BudgetExceededError):
        enumerate_canonical_tables(6, time_budget_secs=1e-9, use_cache=False)


def test_determinism_across_threads():
    one = enumerate_canonical_tables(4, threads=1, use_cache=False)
    two = enumerate_canonical_tables(4, threads=2, use_cache=False)
    three = enumerate_canonical_tables(4, threads=3, use_cache=False)
    assert one == two == three


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
}


def test_stats_reported():
    for n, expected in EXPECTED_STATS.items():
        stats = SearchStats()
        enumerate_canonical_tables(n, use_cache=False, stats=stats)
        assert stats == expected


def test_stats_reported_on_cache_hit():
    # the first call may fill the cache, the others read it; all three must
    # report the counters of the search that filled it
    for call in (fast_enumerate, fast_enumerate, enumerate_canonical_tables):
        stats = SearchStats()
        call(4, stats=stats)
        assert stats == EXPECTED_STATS[4]


def test_n8_search_on_a_3_cycle_root():
    # the only tier-1 run of the n = 8 path: composition through the dict,
    # no composition table, so the candidate mask skips the forced-row checks
    search = _Search(8)
    assert search.tab.comp_np is None
    root = search.tab.pidx[(1, 2, 0, 3, 4, 5, 6, 7)]
    assert root == 5760
    tables = search.run([root])
    assert search.stats == SearchStats(
        nodes=748, leaves=3, accepted=3, invalid_leaves=0, noncanonical_leaves=0
    )
    for table in tables:
        s = Solution(8, table)
        assert validate(s).passed
        assert canonical_form(s).sigma == table


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
        search = _CheckedMaskSearch(n)
        search.run(canonical_root_rows(n))
        assert search.rejected > 0
        if n in EXPECTED_STATS:
            assert search.stats == EXPECTED_STATS[n]


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
    searches = {n: _Search(n) for n in (1, 2, 3, 4, 5, 8)}
    verdicts = {n: set() for n in searches}
    for table in cases:
        search = searches[len(table)]
        tab = search.tab
        rows = [tab.pidx[row] for row in table]
        search.root = rows[0]
        if any(tab.mc[r][x] < search.root for x, r in enumerate(rows)):
            continue
        canonical = tab.min_relabeled(table) == table
        assert search._canonical(rows, len(table)) == canonical, table
        verdicts[len(table)].add(canonical)
    assert verdicts[8] == {True, False}
    assert set().union(*verdicts.values()) == {True, False}

    for n, search in searches.items():
        assert search._aligner_array_cache
        for (src, root, x0), (F, Finv) in search._aligner_array_cache.items():
            got = {tuple(f) for f in F.tolist()}
            assert len(got) == len(F) and got == set(search.tab.aligners(src, root, x0))
            assert (np.take_along_axis(F, Finv, axis=1) == np.arange(n)).all()


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
