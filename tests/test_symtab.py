import functools
import itertools
import math
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from reference import conjugate, lexsort_min_relabeled, loop_mc
from ybekit import symtab
from ybekit.errors import BudgetExceededError
from ybekit.perms import compose, cycles, inverse
from ybekit.solutions import Solution, canonical_form
from ybekit.symtab import LAZY_TABLES, SymTables, get_tables, least_conjugate


def all_perms(n):
    return list(itertools.permutations(range(n)))


def test_tables_are_lex_sorted():
    tab = get_tables(4)
    assert tab.perms == sorted(tab.perms)
    assert tab.perms[0] == (0, 1, 2, 3)


def test_degree_cap():
    with pytest.raises(BudgetExceededError):
        SymTables(9)


def test_get_tables_caches_valid_degrees_only():
    assert get_tables(4) is get_tables(4)
    cached = get_tables.cache_info().currsize
    for n in (0, 9):
        with pytest.raises(BudgetExceededError):
            get_tables(n)
    assert get_tables.cache_info().currsize == cached


def test_compose_idx_matches_tuples():
    tab = get_tables(4)
    tab.ensure_comp()
    for i in (0, 5, 17, 23):
        for j in (1, 8, 22):
            composed = tuple(tab.perms[i][x] for x in tab.perms[j])
            assert tab.perms[tab.compose_idx(i, j)] == composed


@pytest.mark.parametrize("n", range(1, 7))
def test_compose_idx_builds_the_table_on_first_use(n):
    tab = SymTables(n)  # fresh: no ensure_comp call first
    for i, j in itertools.product(range(0, tab.m, 7), range(0, tab.m, 11)):
        assert tab.perms[tab.compose_idx(i, j)] == compose(tab.perms[i], tab.perms[j])
    assert tab.comp_np is not None


@pytest.mark.parametrize("n", range(1, 9))
def test_mc_matches_cycle_loop_reference(n):
    tab = get_tables(n)
    expected = loop_mc(tab)
    assert tab.mc == expected
    assert tab.mc_np.dtype == np.int32 and tab.mc_np.tolist() == expected


def test_mc_shares_one_int_object_per_value_at_n8():
    # a separate int per entry would cost about 10 MB at n = 8
    entries = [v for row in get_tables(8).mc for v in row]
    assert len({id(v) for v in entries}) == len(set(entries))


@pytest.mark.parametrize("n", range(1, 9))
def test_inverse_indices(n):
    tab = get_tables(n)
    for c, p in enumerate(tab.perms):
        assert tab.perms[tab.invi[c]] == inverse(p) == tab.iperms[c]


@pytest.mark.parametrize("n", range(1, 8))
def test_comp_np_matches_compose(n):
    tab = get_tables(n)
    tab.ensure_comp()
    assert tab.comp_np.shape == (tab.m, tab.m) and tab.comp_np.dtype == np.int16
    assert np.shares_memory(tab.comp_np, tab._comp)
    if n <= 5:
        pairs = itertools.product(range(tab.m), repeat=2)
    else:
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, tab.m, size=(2000, 2)).tolist()
    for i, j in pairs:
        assert tab.perms[tab.comp_np[i, j]] == compose(tab.perms[i], tab.perms[j])
        assert tab.compose_idx(i, j) == tab.comp_np[i, j]


def test_no_comp_table_at_n8():
    tab = get_tables(8)
    tab.ensure_comp()
    assert tab.comp_np is None
    i, j = 5760, 40319
    assert tab.perms[tab.compose_idx(i, j)] == compose(tab.perms[i], tab.perms[j])


def test_mc_is_min_conjugate():
    # mc[c][a] must index the lex-least conjugate over relabelings pinning a to 0
    tab = get_tables(4)
    fs = all_perms(4)
    for c in range(0, tab.m, 5):
        p = tab.perms[c]
        for a in range(4):
            best = min(conjugate(f, p) for f in fs if f[a] == 0)
            assert tab.perms[tab.mc[c][a]] == best


def test_aligners_match_brute_force():
    tab = get_tables(4)
    fs = all_perms(4)
    for src in (0, 3, 9, 16, 23):
        for x0 in range(4):
            tgt = tab.mc[src][x0]
            expected = {
                f
                for f in fs
                if f[x0] == 0 and conjugate(f, tab.perms[src]) == tab.perms[tgt]
            }
            got = list(tab.aligners(src, tgt, x0))
            assert len(got) == len(expected) and set(got) == expected
            assert got == sorted(got)


@pytest.mark.parametrize("n", [5, 6])
def test_aligner_count_is_centralizer_order_over_anchor_orbit(n):
    """
    The aligners of (src, mc[src][x0], x0) are a coset of the centralizer
    C(p) of p = perms[src], cut down to the f sending x0 to 0; C(p) moves x0
    transitively over the l * m_l points of the l-cycles, so there are
    |C(p)| / (l * m_l) of them, with |C(p)| = prod l^m_l * m_l!.
    """
    tab = get_tables(n)
    for src, p in enumerate(tab.perms):
        cyc = cycles(p)
        mult = Counter(len(c) for c in cyc)
        order = math.prod(ln**k * math.factorial(k) for ln, k in mult.items())
        for x0 in range(n):
            ln = next(len(c) for c in cyc if x0 in c)
            tgt = tab.mc[src][x0]
            got = list(tab.aligners(src, tgt, x0))
            assert len(got) == order // (ln * mult[ln]) == len(set(got))
            for f in got:
                assert f[x0] == 0 and conjugate(f, p) == tab.perms[tgt]


def test_identity_anchors_have_every_pinned_relabeling_at_n8():
    tab = get_tables(8)
    for x0 in range(8):
        assert tab.mc[0][x0] == 0
        assert len(list(tab.aligners(0, 0, x0))) == math.factorial(7)


def test_aligners_empty_for_type_mismatch():
    tab = get_tables(3)
    # a transposition cannot be conjugated onto a 3-cycle
    swap = tab.pidx[(1, 0, 2)]
    cycle = tab.pidx[(1, 2, 0)]
    assert list(tab.aligners(swap, cycle, 0)) == []


def test_min_relabeled_matches_brute_force():
    tab = get_tables(3)
    fs = all_perms(3)

    def relabel(table, f):
        finv = [0] * 3
        for i, v in enumerate(f):
            finv[v] = i
        return tuple(
            tuple(f[table[finv[i]][finv[j]]] for j in range(3)) for i in range(3)
        )

    for table in (
        ((1, 2, 0),) * 3,
        ((0, 1, 2), (0, 1, 2), (1, 0, 2)),
        ((1, 0, 2), (1, 0, 2), (0, 1, 2)),
    ):
        expected = min(relabel(table, f) for f in fs)
        assert tab.min_relabeled(table) == expected


def _bitset(indices):
    return sum(1 << c for c in set(indices))


@pytest.mark.parametrize("n", range(1, 6))
def test_bitset_tables_match_their_definitions(n):
    tab = SymTables(n)
    perms = tab.perms
    for y, u in itertools.product(range(n), repeat=2):
        assert tab.sends[y][u] == _bitset(c for c, p in enumerate(perms) if p[y] == u)
    squares = [tab.pidx[compose(p, p)] for p in perms]
    conj = {}
    for c, f in enumerate(perms):
        for src, p in enumerate(perms):
            conj.setdefault((src, tab.pidx[conjugate(f, p)]), set()).add(c)
    for p in range(tab.m):
        assert tab.square_roots(p) == _bitset(c for c in range(tab.m) if squares[c] == p)
        for src in range(tab.m):
            assert tab.conjugators(src, p) == _bitset(conj.get((src, p), ()))


def test_bitset_tables_at_n8_are_small_and_quick():
    # built on first use, not with the set-up; square roots held as one
    # bitset per permutation would take tens of MB
    tab = SymTables(8)
    tab.ensure_comp()
    assert "sends" not in vars(tab)
    tab.perms  # a view built on first read, which square_roots reads
    tracemalloc.start()
    try:
        start = time.perf_counter()
        sends, involutions = tab.sends, tab.square_roots(0)
        built = time.perf_counter() - start
        del involutions
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 2 * 2**20
    assert built < 0.5
    assert sends[0][0].bit_count() == math.factorial(7)
    assert tab.square_roots(0).bit_count() == 764  # the identity and the involutions


def test_construction_builds_no_view_at_n8():
    # the canonical form reads np_perms, np_inv and _radix only; the views of
    # the search held 18.5 MB when construction built them
    tracemalloc.start()
    try:
        tab = SymTables(8)
        tab.ensure_comp()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 4 * 2**20
    for name in ("perms", "pidx", "iperms", "invi", "mc", "mc_np"):
        assert name not in vars(tab)


def test_lazy_tables_are_the_cached_properties():
    cached = {k for k, v in vars(SymTables).items() if isinstance(v, functools.cached_property)}
    assert set(LAZY_TABLES) == cached and len(LAZY_TABLES) == len(cached)


def test_tables_are_int8_and_inverse():
    for n in range(1, 9):
        tab = get_tables(n)
        assert tab.np_perms.dtype == tab.np_inv.dtype == np.int8
        # np_perms[c][np_inv[c]] is the identity for every c
        assert (np.take_along_axis(tab.np_perms, tab.np_inv, 1) == np.arange(n)).all()


def test_tables_at_n8_are_small():
    # int8 entries and an inverse built by column scatters: no argsort into
    # a 2.6 MB int64 temporary
    tracemalloc.start()
    try:
        tab = SymTables(8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 0.75 * 2**20
    assert peak < 1.5 * 2**20
    assert tab.np_perms.shape == tab.np_inv.shape == (40320, 8)


@pytest.mark.parametrize(
    "table, form",
    [
        (
            # a relabeled disjoint union of two 4-point classes
            (
                (7, 1, 2, 3, 4, 5, 6, 0),
                (0, 2, 1, 3, 5, 4, 6, 7),
                (0, 4, 5, 3, 1, 2, 6, 7),
                (0, 1, 2, 6, 4, 5, 3, 7),
                (0, 4, 5, 3, 1, 2, 6, 7),
                (0, 2, 1, 3, 5, 4, 6, 7),
                (0, 1, 2, 6, 4, 5, 3, 7),
                (7, 1, 2, 3, 4, 5, 6, 0),
            ),
            (
                (1, 0, 2, 3, 4, 5, 6, 7),
                (1, 0, 2, 3, 4, 5, 6, 7),
                (0, 1, 3, 2, 4, 5, 6, 7),
                (0, 1, 3, 2, 4, 5, 6, 7),
                (0, 1, 2, 3, 5, 4, 7, 6),
                (0, 1, 2, 3, 6, 7, 4, 5),
                (0, 1, 2, 3, 6, 7, 4, 5),
                (0, 1, 2, 3, 5, 4, 7, 6),
            ),
        ),
        # the trivial solution: all 40320 relabelings tie on every row
        (Solution.trivial(8).sigma, Solution.trivial(8).sigma),
    ],
    ids=["union", "trivial"],
)
def test_canonical_form_at_n8_is_small(table, form):
    # the tied relabelings are scanned in slabs; all 40320 at once took
    # over 6 MB of temporaries
    get_tables(8)
    tracemalloc.start()
    try:
        got = canonical_form(Solution(8, table))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.sigma == form
    assert peak < 2 * 2**20


@pytest.mark.parametrize("n", range(1, 9))
def test_least_conjugate_is_the_mc_bound(n):
    # every permutation and anchor at n <= 7, a seeded sample at n = 8
    tab = get_tables(n)
    rng = np.random.default_rng(n)
    sample = range(tab.m) if n <= 7 else rng.integers(0, tab.m, size=400).tolist()
    for c in sample:
        for a in range(n):
            assert least_conjugate(tab.perms[c], a) == tab.perms[tab.mc[c][a]], (c, a)


def _random_row_table(rng, n):
    """n rows drawn from Sym(n), repeated in about half the tables: not a solution, in general."""
    rows = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, n))]
    return tuple(rng.choice(rows) for _ in range(n))


@pytest.mark.parametrize("n", range(1, 7))
def test_min_relabeled_matches_lexsort_on_random_row_tables(n):
    rng = random.Random(30 + n)
    tab = get_tables(n)
    for _ in range(150 if n < 6 else 40):
        table = _random_row_table(rng, n)
        assert tab.min_relabeled(table) == lexsort_min_relabeled(tab, table), table


def test_min_relabeled_matches_lexsort_at_n8():
    # the trivial table (every relabeling ties on row 0) and the union of
    # test_canonical_form_at_n8_is_small
    tab = get_tables(8)
    union = ((7, 1, 2, 3, 4, 5, 6, 0), (0, 2, 1, 3, 5, 4, 6, 7), (0, 4, 5, 3, 1, 2, 6, 7),
             (0, 1, 2, 6, 4, 5, 3, 7), (0, 4, 5, 3, 1, 2, 6, 7), (0, 2, 1, 3, 5, 4, 6, 7),
             (0, 1, 2, 6, 4, 5, 3, 7), (7, 1, 2, 3, 4, 5, 6, 0))
    for table in (Solution.trivial(8).sigma, union):
        assert tab.min_relabeled(table) == lexsort_min_relabeled(tab, table)


def test_canonical_form_at_n8_builds_no_search_view(monkeypatch):
    # row 0 comes from cycle lengths and its ties from the class bitsets, so
    # the canonical form reads np_perms, np_inv, _radix and sends only
    tab = SymTables(8)
    monkeypatch.setattr(symtab, "get_tables", lambda n: tab)

    def no_aligners(*args):
        raise AssertionError("the canonical form called aligners")

    monkeypatch.setattr(SymTables, "aligners", no_aligners)
    s = Solution(8, ((1, 2, 0, 3, 4, 5, 6, 7),) * 8)  # a constant-row solution
    assert canonical_form(s).sigma == ((0, 1, 2, 3, 4, 6, 7, 5),) * 8  # fixed points first
    for name in ("perms", "pidx", "iperms", "invi", "mc", "mc_np"):
        assert name not in vars(tab)
    assert "sends" in vars(tab)
