"""
Candidate solutions on a finite set, given by their table of row permutations.

A candidate is a set size n plus rows sigma[x] (one permutation per point);
the map r(x, y) = (sigma_x(y), gamma_y(x)) is then fully determined, since
for involutive solutions gamma is forced: gamma_y(x) = sigma_{sigma_x(y)}^{-1}(x).
Only the sigma table is ever stored; gamma is always derived.

`validate` decides the three defining axioms (involutivity, non-degeneracy
of the derived gamma maps, and the braid relation on every triple) by
evaluating both sides literally over numpy arrays, each braid triple's two
sides packed into one integer and the triples taken in slabs of at most
max(2^14, n^2), and gives a lex-first witness for each failed axiom.
Everything downstream -- retraction, multipermutation level,
indecomposability, canonical forms -- assumes a validated solution.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import symtab
from .errors import InvalidSolutionError
from .perms import Perm, cycle_type, is_perm
from .permgroup import PermGroup


def _entry(v: Any) -> int:
    """A sigma entry as an int; bools, floats and strings are refused, not coerced."""
    if isinstance(v, bool):
        raise TypeError(f"entry {v!r} is a bool, not an integer")
    return operator.index(v)


def _table(rows: Any) -> tuple[Perm, ...]:
    """The rows as tuples of ints; their count and shape are checked later."""
    try:
        return tuple(tuple(_entry(v) for v in row) for row in rows)
    except TypeError as exc:
        raise InvalidSolutionError(f"malformed sigma table: {exc}") from exc


@dataclass(frozen=True)
class Solution:
    """A set size n together with the rows sigma[x], each a degree-n permutation."""

    n: int
    sigma: tuple[Perm, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidSolutionError("set size must be >= 1")
        if len(self.sigma) != self.n:
            raise InvalidSolutionError(
                f"expected {self.n} sigma rows, got {len(self.sigma)}"
            )
        for x, row in enumerate(self.sigma):
            if len(row) != self.n or not is_perm(row):
                raise InvalidSolutionError(
                    f"sigma[{x}] = {list(row)} is not a permutation of 0..{self.n - 1}"
                )

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_rows(cls, rows: Any) -> "Solution":
        sigma = _table(rows)
        return cls(len(sigma), sigma)

    @classmethod
    def trivial(cls, n: int) -> "Solution":
        """The solution with every row the identity: r(x, y) = (y, x)."""
        row = tuple(range(n))
        return cls(n, (row,) * n)

    @classmethod
    def permutation_solution(cls, pi: Perm) -> "Solution":
        """The constant-row solution sigma_x = pi for all x."""
        pi = tuple(pi)
        return cls(len(pi), (pi,) * len(pi))

    @classmethod
    def from_json(cls, data: Any) -> "Solution":
        if not isinstance(data, dict) or "n" not in data or "sigma" not in data:
            raise InvalidSolutionError('expected an object {"n": ..., "sigma": [...]}')
        try:
            n = _entry(data["n"])
        except TypeError:
            raise InvalidSolutionError(f'"n" must be a JSON int, not {data["n"]!r}') from None
        sigma = _table(data["sigma"])
        if len(sigma) != n:
            raise InvalidSolutionError(f'"n" is {n} but the sigma table has {len(sigma)} rows')
        return cls(n, sigma)

    def to_json(self) -> dict:
        return {"n": self.n, "sigma": [list(row) for row in self.sigma]}


def gamma(s: Solution, y: int, x: int) -> int:
    """The derived right component: gamma_y(x) = sigma_{sigma_x(y)}^{-1}(x)."""
    if not 0 <= x < s.n or not 0 <= y < s.n:
        raise ValueError(f"points ({x}, {y}) out of range for size {s.n}")
    u = s.sigma[x][y]
    return s.sigma[u].index(x)


def gamma_table(s: Solution) -> list[tuple[int, ...]]:
    """All gamma values: row y holds (gamma_y(0), ..., gamma_y(n-1)).

    Rows need not be bijections; whether they are is exactly the
    non-degeneracy axiom.
    """
    inv = [None] * s.n
    seen: dict[Perm, list[int]] = {}
    for i, row in enumerate(s.sigma):
        cached = seen.get(row)
        if cached is None:
            cached = [0] * s.n
            for j, v in enumerate(row):
                cached[v] = j
            seen[row] = cached
        inv[i] = cached
    return [
        tuple(inv[s.sigma[x][y]][x] for x in range(s.n)) for y in range(s.n)
    ]


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of the three axiom checks; a solution passes iff all three hold.

    Each failed axiom carries its lex-first witness: the braid triple
    (x, y, z), the non-involutive pair (x, y), and (y, x, x') for the first
    y whose gamma_y is not a bijection, with x < x' its least colliding pair.
    """

    involutive: bool
    nondegenerate: bool
    braid: bool
    braid_counterexample: tuple[int, int, int] | None = None
    involutive_counterexample: tuple[int, int] | None = None
    nondegenerate_counterexample: tuple[int, int, int] | None = None

    @property
    def passed(self) -> bool:
        return self.involutive and self.nondegenerate and self.braid

    def to_json(self) -> dict:
        out = {
            "involutive": self.involutive,
            "nondegenerate": self.nondegenerate,
            "braid": self.braid,
            "passed": self.passed,
        }
        for name in ("braid", "involutive", "nondegenerate"):
            witness = getattr(self, f"{name}_counterexample")
            out[f"{name}_counterexample"] = list(witness) if witness else None
        return out


# Braid triples per slab of x, small enough that a slab's temporaries stay in
# cache: 2^14 ran fastest of 2^13..2^17 on the associated solutions of the
# analyze-large benchmark (n = 60..140, 2-core x86_64). A slab holds at least
# one x, so n^2 if n > 128.
_SLAB_TRIPLES = 1 << 14


def validate(s: Solution) -> ValidationReport:
    """
    Decide the axioms by literal evaluation over arrays.

    With S[x, y] = sigma_x(y) and R2[x, y] = gamma_y(x), r(x, y) is
    (S[x, y], R2[x, y]); a pair (p, q) is the flat index p * n + q, and
    SR = S * n + R2 is r as a map on pair indices.
    involutive: SR[SR] is the identity on pairs. With gamma derived from
    sigma this holds for every table of rows: if u = sigma_x(y) and
    v = sigma_u^{-1}(x), then r(u, v) = (sigma_u(v), sigma_x^{-1}(u)) =
    (x, y). The check stays literal, and its witness is always None.
    nondegenerate: every column gamma_y of R2 is a bijection.
    braid: r12 r23 r12 (x, y, z) = (e, f, d), where (a, b) = r(x, y),
    (c, d) = r(b, z), (e, f) = r(a, c), equals r23 r12 r23 (x, y, z) =
    (i, k, m), where (g, h) = r(y, z), (i, j) = r(x, g), (k, m) = r(j, h).
    The two sides are compared as the packed triples e n^2 + f n + d and
    i n^2 + k n + m, equal iff the triples are, since every entry is below
    n. Rows b of S and R2 hold c and d for every z; the other terms are
    flat gathers from pair-sized tables premultiplied once: SR * n at
    (a, c) gives e n^2 + f n, S * n^2 at (x, g) gives i n^2, R2 * n at
    (x, g) gives j n, and SR at (j, h) gives k n + m.
    It is evaluated on slabs of consecutive x of at most max(2^14, n^2)
    triples, in order, so the first failing slab holds the lex-first
    failing triple. Each failed axiom reports its lex-first witness.

    >>> validate(Solution(2, ((0, 1), (1, 0)))).braid_counterexample
    (0, 0, 1)
    """
    n = s.n
    pts = np.arange(n, dtype=np.intp)
    S = np.array(s.sigma, dtype=np.intp)
    inv = np.empty_like(S)
    inv[pts[:, None], S] = pts
    R2 = inv[S, pts[:, None]]
    del inv
    SR = S * n + R2
    SRf = SR.ravel()

    def first(bad: np.ndarray) -> tuple[int, ...] | None:  # lex-first True index
        i = int(bad.argmax())
        return tuple(int(v) for v in np.unravel_index(i, bad.shape)) if bad.flat[i] else None

    inv_ce = first(SRf[SR] != pts[:, None] * n + pts)

    cols = np.sort(R2, axis=0)
    y = first((cols[1:] == cols[:-1]).any(axis=0))
    del cols
    nondeg_ce = None
    if y is not None:
        col = R2[:, y[0]]
        x = first(np.bincount(col, minlength=n)[col] > 1)[0]
        nondeg_ce = (y[0], x, int(np.flatnonzero(col == col[x])[1]))

    braid_ce = None
    Sn = S * n
    SRn, Sn2, Rn = SRf * n, Sn.ravel() * n, R2.ravel() * n
    step = max(1, _SLAB_TRIPLES // (n * n))
    for x0 in range(0, n, step):
        X = slice(x0, x0 + step)
        B = R2[X]  # b = gamma_y(x) for each (x, y)
        ac = S.take(B, axis=0)  # c = sigma_b(z)
        ac += Sn[X, :, None]  # pair (a, c)
        xg = S + pts[X, None, None] * n  # pair (x, g), g = sigma_y(z)
        jh = Rn.take(xg)
        jh += R2  # pair (j, h)
        lhs = SRn.take(ac)  # e n^2 + f n
        lhs += R2.take(B, axis=0)  # + d
        rhs = Sn2.take(xg)  # i n^2
        rhs += SRf.take(jh)  # + k n + m
        braid_ce = first(lhs != rhs)
        if braid_ce is not None:
            braid_ce = (x0 + braid_ce[0],) + braid_ce[1:]
            break

    return ValidationReport(
        inv_ce is None, nondeg_ce is None, braid_ce is None, braid_ce, inv_ce, nondeg_ce
    )


def solution_group(s: Solution) -> PermGroup:
    """The permutation group generated by the rows of the sigma table."""
    return PermGroup.closure(sorted(set(s.sigma)), degree=s.n)


def is_indecomposable(s: Solution) -> bool:
    """True iff the group generated by the sigma rows is transitive."""
    return solution_group(s).is_transitive()


def is_irretractable(s: Solution) -> bool:
    """True iff all sigma rows are pairwise distinct."""
    return len(set(s.sigma)) == s.n


@dataclass(frozen=True)
class SigmaClassPartition:
    """Partition of the domain by equality of sigma rows.

    `generator_invariant` records whether every generator of the solution's
    group maps classes onto classes; for a validated solution this always
    holds, so False signals an upstream bug.
    """

    classes: tuple[tuple[int, ...], ...]
    generator_invariant: bool

    @property
    def class_count(self) -> int:
        return len(self.classes)


def sigma_class_blocks(s: Solution) -> SigmaClassPartition:
    """Group points by equal sigma rows and verify generator invariance."""
    by_row: dict[Perm, list[int]] = {}
    for x, row in enumerate(s.sigma):
        by_row.setdefault(row, []).append(x)
    classes = tuple(sorted((tuple(c) for c in by_row.values()), key=lambda c: c[0]))

    class_sets = [frozenset(c) for c in classes]
    invariant = True
    for g in set(s.sigma):
        for c in class_sets:
            if frozenset(g[x] for x in c) not in class_sets:
                invariant = False
    return SigmaClassPartition(classes, invariant)


def retract(s: Solution) -> Solution:
    """
    The quotient solution on sigma-classes.

    Classes are numbered by their least element; the induced table is
    sigma'_{[x]}([y]) = [sigma_x(y)], which is well defined for validated
    input (the group action permutes classes).
    """
    part = sigma_class_blocks(s)
    if not part.generator_invariant:
        raise AssertionError(
            "sigma-class quotient is not well defined; "
            "input was not a validated solution"
        )
    classes = part.classes
    index = {}
    for i, c in enumerate(classes):
        for x in c:
            index[x] = i
    rows = [tuple([index[s.sigma[c[0]][d[0]]] for d in classes]) for c in classes]
    return Solution(len(classes), tuple(rows))


def multipermutation_level(s: Solution) -> int | None:
    """
    Number of retract steps to reach the one-point solution, or None if the
    iteration stabilizes at size > 1. The one-point solution has level 0.
    """
    level = 0
    cur = s
    while cur.n > 1:
        nxt = retract(cur)
        if nxt.n == cur.n:
            return None
        cur = nxt
        level += 1
    return level


def relabel(s: Solution, f: Perm) -> Solution:
    """Transport the table along the relabeling f: row x becomes f sigma_{f^{-1}(x)} f^{-1}."""
    if len(f) != s.n:
        raise ValueError("relabeling degree mismatch")
    if not is_perm(f):
        raise ValueError(f"relabeling {f} is not a permutation")
    finv = [0] * s.n
    for i, v in enumerate(f):
        finv[v] = i
    rows = []
    for x in range(s.n):
        src = s.sigma[finv[x]]
        rows.append(tuple(f[src[finv[j]]] for j in range(s.n)))
    return Solution(s.n, tuple(rows))


def canonical_form(s: Solution) -> Solution:
    """
    The lexicographically least sigma table over all n! relabelings.

    Two solutions are isomorphic iff their canonical forms are equal; row 0 is the
    cycle-type bound and its ties are swept row by row: a true canonical representative.
    """
    tab = symtab.get_tables(s.n)
    return Solution(s.n, tab.min_relabeled(s.sigma))


def iso_invariants(s: Solution) -> tuple:
    """Cheap relabeling-invariants used to short-circuit isomorphism tests."""
    row_types = tuple(sorted(cycle_type(row) for row in s.sigma))
    class_profile = tuple(sorted(len(c) for c in sigma_class_blocks(s).classes))
    return (row_types, class_profile)


def is_isomorphic(a: Solution, b: Solution) -> bool:
    """Equality of canonical forms, behind an invariant pre-filter."""
    if a.n != b.n:
        return False
    if iso_invariants(a) != iso_invariants(b):
        return False
    return canonical_form(a).sigma == canonical_form(b).sigma
