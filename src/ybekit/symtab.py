"""
Cached per-degree tables over the full symmetric group Sym(n), n <= 8.

These back the relabeling machinery: canonical forms of sigma tables, the
minimal-conjugate bound used for symmetry breaking during enumeration, and
index-based composition for the search core. Tables are built once per
degree and shared (they are read-only after construction, so forked worker
processes inherit them copy-on-write).
"""
from __future__ import annotations

import itertools
from array import array
from typing import Iterator

import numpy as np

from .errors import BudgetExceededError
from .perms import Perm, cycles

MAX_DEGREE = 8

_CACHE: dict[int, "SymTables"] = {}


def conjugate(f: Perm, p: Perm) -> Perm:
    """f p f^{-1} in image-list form: the relabeling of p along f."""
    out = [0] * len(p)
    for i, pi in enumerate(p):
        out[f[i]] = f[pi]
    return tuple(out)


class SymTables:
    """Lex-ordered list of all degree-n permutations plus derived lookup tables."""

    def __init__(self, n: int):
        if not 1 <= n <= MAX_DEGREE:
            raise BudgetExceededError(
                f"symmetric-group tables supported for degree 1..{MAX_DEGREE}, got {n}"
            )
        self.n = n
        perms = list(itertools.permutations(range(n)))  # lex order
        self.m = len(perms)
        self.perms: list[Perm] = perms
        self.pidx: dict[Perm, int] = {p: i for i, p in enumerate(perms)}
        self.np_perms = np.array(perms, dtype=np.int16)

        self.np_inv = np.argsort(self.np_perms, axis=1).astype(np.int16)
        self.iperms: list[Perm] = list(map(tuple, self.np_inv.tolist()))
        self.invi = array("i", (self.pidx[q] for q in self.iperms))

        # mc[c][a]: index of the lex-least conjugate of perms[c] under
        # relabelings sending point a to 0. Equals the lex-least perm with
        # the same cycle type whose 0-cycle has the length of a's cycle.
        types_lens: list[tuple[tuple[int, ...], list[int]]] = []
        lexmin_by_type_anchor: dict[tuple[tuple[int, ...], int], int] = {}
        for i, p in enumerate(perms):
            cyc = cycles(p)
            t = tuple(sorted((len(c) for c in cyc), reverse=True))
            lens = [0] * n  # per point, the length of its cycle
            for c in cyc:
                for x in c:
                    lens[x] = len(c)
            types_lens.append((t, lens))
            lexmin_by_type_anchor.setdefault((t, lens[0]), i)  # first in lex order
        self.mc: list[list[int]] = [
            [lexmin_by_type_anchor[(t, lens[a])] for a in range(n)] for t, lens in types_lens
        ]
        self.mc_np = np.array(self.mc, dtype=np.int32)

        self._comp: array | None = None  # flat m*m composition index table
        self._radix = np.array([n**k for k in range(n)], dtype=np.int64)

    # -- composition on indices ------------------------------------------

    def ensure_comp(self) -> None:
        """Materialize the m*m composition table (degrees <= 7 only)."""
        if self._comp is not None or self.n > 7:
            return
        m, n = self.m, self.n
        keys = self.np_perms.astype(np.int64) @ self._radix
        key2idx = np.full(n**n, -1, dtype=np.int32)
        key2idx[keys] = np.arange(m, dtype=np.int32)
        comp16 = np.empty((m, m), dtype=np.int16)
        for i in range(m):
            composed = self.np_perms[i][self.np_perms]  # (m, n): perms[i] o perms[j]
            comp16[i] = key2idx[composed.astype(np.int64) @ self._radix]
        flat = array("h")
        flat.frombytes(comp16.tobytes())
        self._comp = flat

    def compose_idx(self, i: int, j: int) -> int:
        """Index of perms[i] o perms[j] (q applied first is perms[j])."""
        if self._comp is not None:
            return self._comp[i * self.m + j]
        p, q = self.perms[i], self.perms[j]
        return self.pidx[tuple(p[x] for x in q)]

    @property
    def comp_flat(self) -> array | None:
        return self._comp

    # -- canonical relabeling ---------------------------------------------

    def min_relabeled(self, table: list[Perm] | tuple[Perm, ...]) -> tuple[Perm, ...]:
        """
        Lexicographically least table over all n! relabelings.

        Relabeling by f sends row x to f o sigma_{f^{-1}(x)} o f^{-1}; tables
        compare row-major. The relabeled rows are built one row at a time,
        for the relabelings still tied for least only: after each row, every
        f whose row is not the least one is dropped.
        """
        n = self.n
        t = np.array(table, dtype=np.int32).ravel()
        f, finv = self.np_perms.astype(np.int32), self.np_inv.astype(np.int32)
        best = []
        for x in range(n):
            # row[i, j] = f_i(table[finv_i(x)][finv_i(j)]), by flat gathers
            at = t[finv[:, x, None] * n + finv]
            row = f.ravel()[at + np.arange(0, f.size, n, dtype=np.int32)[:, None]]
            key = row @ self._radix[::-1].astype(np.int32)  # a lex-order key
            keep = key == key.min()
            if not keep.all():
                f, finv, row = f[keep], finv[keep], row[keep]
            best.append(tuple(int(v) for v in row[0]))
        return tuple(best)

    # -- conjugation aligners ----------------------------------------------

    def aligners(self, src: int, tgt: int, x0: int) -> Iterator[Perm]:
        """
        Yield, in lex order, every relabeling f (full-domain bijection) with
        f(x0) == 0 and f perms[src] f^{-1} == perms[tgt]. The (n-1)!
        relabelings pinning x0 to 0 are conjugated in one gather and filtered.
        """
        P = self.np_perms
        f = np.flatnonzero(P[:, x0] == 0)
        conj = P[f[:, None], P[src][self.np_inv[f]]]  # conj[k, y] = f(p(f^-1(y)))
        for i in f[(conj == P[tgt]).all(axis=1)]:
            yield self.perms[i]


def get_tables(n: int) -> SymTables:
    tab = _CACHE.get(n)
    if tab is None:
        tab = SymTables(n)
        _CACHE[n] = tab
    return tab
