import itertools
import math
from collections import Counter

import pytest

from ybekit.errors import BudgetExceededError
from ybekit.perms import cycles
from ybekit.symtab import SymTables, conjugate, get_tables


def all_perms(n):
    return list(itertools.permutations(range(n)))


def test_tables_are_lex_sorted():
    tab = get_tables(4)
    assert tab.perms == sorted(tab.perms)
    assert tab.perms[0] == (0, 1, 2, 3)


def test_degree_cap():
    with pytest.raises(BudgetExceededError):
        SymTables(9)


def test_compose_idx_matches_tuples():
    tab = get_tables(4)
    tab.ensure_comp()
    for i in (0, 5, 17, 23):
        for j in (1, 8, 22):
            composed = tuple(tab.perms[i][x] for x in tab.perms[j])
            assert tab.perms[tab.compose_idx(i, j)] == composed


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
