"""
Cached per-degree tables over the full symmetric group Sym(n), n <= 8.

These back the relabeling machinery: canonical forms of sigma tables, the
minimal-conjugate bound of the search's symmetry breaking, and index-based
composition and candidate sets for its core. `SymTables` is the only place
a Sym(n) lookup is built, each with array operations over the lex-ordered
permutations. Construction builds only the arrays every caller reads: the
permutations `np_perms`, their inverses `np_inv` (int8, 0.6 MB at n = 8)
and the radix of their keys, which is all that `min_relabeled` (the
canonical form, over slabs of relabelings) needs. The search's tables are
built on first read: its scalar views (`perms`, `pidx`, `iperms`, inverse
indices `invi`, the minimal-conjugate table `mc_np` from cycle lengths and
its list form `mc`), the composition table (degrees <= 7; one buffer read
through its (m, m) view `comp_np`) and the bitsets {c : c(y) = u}, from
which one rule gives the conjugators, square roots and aligners. Tables are
built once per degree and shared, read-only once built; the search builds
them all before it forks its workers, which then inherit them
copy-on-write.
"""
from __future__ import annotations

import functools
import itertools
import math
from array import array
from operator import itemgetter, or_
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError
from .perms import Perm

MAX_DEGREE = 8
# Tied relabelings per slab of `SymTables.min_relabeled`: at n = 8 a slab's
# temporaries take at most 0.13 MB each, not 1.3 MB for all 40320 at once.
_SLAB_RELABELINGS = 1 << 11
# the tables of SymTables built on first read, all of which the search reads
LAZY_TABLES = ("perms", "pidx", "iperms", "invi", "mc_np", "mc", "sends")


class SymTables:
    """
    Lex-ordered array of all degree-n permutations plus derived lookup tables.

    Construction builds `np_perms`, `np_inv` and `_radix`; every other table
    is built on first read and then kept. `np_perms` and `np_inv` are int8,
    since every entry is below n <= 8 (0.6 MB together at n = 8); their
    readers compute in a wider type. `np_inv` is built by one column
    scatter per point, with no (m, n) sort. A process that forks workers reads
    the tables they use first, so that they share one copy-on-write instead
    of each building its own.

    >>> tab = SymTables(3)
    >>> "mc" in vars(tab)  # not built yet
    False
    >>> tab.perms[4], tab.mc[4]  # a 3-cycle: every anchor gives the least 3-cycle
    ((2, 0, 1), [3, 3, 3])
    >>> "mc" in vars(tab)
    True
    >>> tab.perms[1], tab.mc[1]  # 0 is fixed; 1 and 2 lie on a 2-cycle
    ((0, 2, 1), [1, 2, 2])
    >>> list(tab.invi)  # the two 3-cycles are each other's inverse
    [0, 1, 2, 4, 3, 5]
    """

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DEGREE:
            raise BudgetExceededError(
                f"symmetric-group tables supported for degree 1..{MAX_DEGREE}, got {n}"
            )
        self.n = n
        self.m = math.factorial(n)
        flat = itertools.chain.from_iterable(itertools.permutations(range(n)))  # lex order
        self.np_perms = np.fromiter(flat, dtype=np.int8, count=self.m * n).reshape(self.m, n)
        self.np_inv = np.empty_like(self.np_perms)
        every = np.arange(self.m)
        for j in range(n):  # np_perms[c, j] = i  <=>  np_inv[c, i] = j
            self.np_inv[every, self.np_perms[:, j]] = j
        self._radix = np.array([n**k for k in range(n)], dtype=np.int64)
        # perms[i] o perms[j] at index i * m + j (degrees <= 7, on demand);
        # comp_np is an (m, m) view of the same buffer
        self._comp: array | None = None
        self.comp_np: np.ndarray | None = None

    # -- the search's views, each built on first read ----------------------

    @functools.cached_property
    def perms(self) -> list[Perm]:
        """perms[c]: row c of np_perms as a tuple."""
        return list(itertools.permutations(range(self.n)))

    @functools.cached_property
    def pidx(self) -> dict[Perm, int]:
        """The index of each permutation: pidx[perms[c]] == c."""
        return {p: i for i, p in enumerate(self.perms)}

    @functools.cached_property
    def iperms(self) -> list[Perm]:
        """iperms[c]: perms[c]^-1 as a tuple."""
        return list(map(tuple, self.np_inv.tolist()))

    @functools.cached_property
    def invi(self) -> array:
        """invi[c]: the index of perms[c]^-1, the lex rank of row c of np_inv."""
        rank = np.empty(self.m, dtype=np.int32)
        rank[np.lexsort(self.np_inv.T[::-1])] = np.arange(self.m, dtype=np.int32)
        return array("i", rank.tobytes())

    @functools.cached_property
    def mc_np(self) -> np.ndarray:
        """
        mc_np[c, a]: index of the lex-least conjugate of perms[c] under
        relabelings sending point a to 0. Equals the lex-least perm with the
        same cycle type whose 0-cycle has the length of a's cycle.
        """
        n, P = self.n, self.np_perms
        # lens[c, x] is the length of x's cycle; its sorted row is the type
        pts = np.broadcast_to(np.arange(n, dtype=np.int16), P.shape)
        img, lens = pts, np.zeros((self.m, n), dtype=np.int64)
        for k in range(1, n + 1):
            img = np.take_along_axis(P, img, axis=1)
            lens[(img == pts) & (lens == 0)] = k
        typ = np.sort(lens, axis=1) @ (n + 1) ** np.arange(n, dtype=np.int64)
        key = typ[:, None] * (n + 1) + lens  # (type, length of the anchor's cycle)
        keys, first = np.unique(key[:, 0], return_index=True)  # lex-first index per key
        return first.astype(np.int32)[np.searchsorted(keys, key)]

    @functools.cached_property
    def mc(self) -> list[list[int]]:
        """mc_np as lists, for the scalar reads of the search: one shared int object per value."""
        return np.arange(self.m).astype(object)[self.mc_np].tolist()

    # -- composition on indices ------------------------------------------

    def ensure_comp(self) -> None:
        """Materialize the m*m composition table (degrees <= 7 only)."""
        if self._comp is not None or self.n > 7:
            return
        m, n = self.m, self.n
        keys = self.np_perms.astype(np.int64) @ self._radix
        key2idx = np.full(n**n, -1, dtype=np.int32)
        key2idx[keys] = np.arange(m, dtype=np.int32)
        comp = array("h", [0]) * (m * m)
        view = np.frombuffer(comp, dtype=np.int16).reshape(m, m)
        for i in range(m):
            composed = self.np_perms[i][self.np_perms]  # (m, n): perms[i] o perms[j]
            view[i] = key2idx[composed.astype(np.int64) @ self._radix]
        self._comp, self.comp_np = comp, view

    def compose_idx(self, i: int, j: int) -> int:
        """Index of perms[i] o perms[j] (q applied first is perms[j])."""
        if self._comp is not None:
            return self._comp[i * self.m + j]
        if self.n <= 7:  # the table is the only path at n <= 7, built on first use
            self.ensure_comp()
            return self._comp[i * self.m + j]
        # the dict path is n = 8 only, where itemgetter of n items returns a tuple
        return self.pidx[itemgetter(*self.perms[j])(self.perms[i])]

    # -- bitsets over indices: bit c of an int stands for perms[c] ---------

    @functools.cached_property
    def sends(self) -> list[list[int]]:
        """sends[y][u]: the bitset of {c : perms[c](y) = u}."""
        return [[bits(col == u) for u in range(self.n)] for col in self.np_perms.T]

    def _forcing(self, forced) -> int:
        """The bitset of {c : for every x, c(x) = w forces c into the class forced(x, w)}."""
        sends, out = self.sends, -1
        for x in range(self.n):
            out &= functools.reduce(or_, [cls & forced(x, w) for w, cls in enumerate(sends[x])])
        return out

    def square_roots(self, p: int) -> int:
        """The bitset of {c : perms[c] o perms[c] = perms[p]}: c(x) = w forces c(w) = p(x)."""
        q, sends = self.perms[p], self.sends
        return self._forcing(lambda x, w: sends[w][q[x]])

    def conjugators(self, src: int, tgt: int) -> int:
        """The bitset of {c : c b c^-1 = a}, b = perms[src], a = perms[tgt]: c(b(x)) = a(c(x))."""
        b, a, sends = self.perms[src], self.perms[tgt], self.sends
        return self._forcing(lambda x, w: sends[b[x]][a[w]])

    # -- canonical relabeling ---------------------------------------------

    def min_relabeled(self, table: list[Perm] | tuple[Perm, ...]) -> tuple[Perm, ...]:
        """
        Lexicographically least table over all n! relabelings.

        Relabeling by f sends row x to f o sigma_{f^{-1}(x)} o f^{-1}; tables
        compare row-major. The relabeled rows are built one row at a time,
        for the relabelings still tied for least only: after each row, every
        f whose row is not the least one is dropped. A row's keys are
        computed over slabs of at most `_SLAB_RELABELINGS` tied relabelings,
        so no temporary spans all n! of them: at n = 8 the largest are the
        int32 indices and keys of the tied relabelings, 0.16 MB each, and a
        traced call peaks below 1 MB.
        """
        n = self.n
        t = np.array(table, dtype=np.intp).ravel()
        flat, weights = self.np_perms.ravel(), self._radix[::-1]
        tied = np.arange(self.m, dtype=np.int32)
        best = []
        for x in range(n):
            key = np.empty(len(tied), dtype=np.int32)  # n^n <= 2^24
            for a in range(0, len(tied), _SLAB_RELABELINGS):
                f = tied[a : a + _SLAB_RELABELINGS]
                finv = self.np_inv.take(f, axis=0).astype(np.intp)
                at = t.take(finv[:, x, None] * n + finv)  # table[finv(x)][finv(j)]
                at += f[:, None] * n  # where np_perms.ravel() holds f of that entry
                key[a : a + _SLAB_RELABELINGS] = flat.take(at) @ weights
            low = key.min()  # a lex-order key: its base-n digits are the row
            tied = tied[key == low]
            best.append(tuple(map(int, np.unravel_index(low, (n,) * n))))
        return tuple(best)

    # -- conjugation aligners ----------------------------------------------

    def aligners(self, src: int, tgt: int, x0: int) -> Iterator[Perm]:
        """
        Yield, in lex order, every relabeling f (full-domain bijection) with
        f(x0) == 0 and f perms[src] f^{-1} == perms[tgt]: the conjugators
        of src onto tgt that send x0 to 0.
        """
        found = self.conjugators(src, tgt) & self.sends[x0][0]
        for i in np.flatnonzero(unbits(found, self.m)).tolist():
            yield self.perms[i]


def bits(mask: np.ndarray) -> int:
    """The bitset of a boolean array: bit i is mask[i]."""
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def unbits(b: int, m: int) -> np.ndarray:
    """The boolean array of a bitset 0 <= b < 2^m, the inverse of `bits`.

    >>> unbits(bits(np.array([True, False, True, True])), 4)
    array([ True, False,  True,  True])
    """
    raw = np.frombuffer(b.to_bytes(-(-m // 8), "little"), dtype=np.uint8)
    return np.unpackbits(raw, count=m, bitorder="little").view(bool)


@functools.cache
def get_tables(n: int) -> SymTables:
    """The shared tables of degree n, built on first use."""
    return SymTables(n)
