"""
Permutations of {0, ..., n-1} in image-list ("one-line") form.

A permutation of degree n is a tuple p of length n whose entries are the
images: p[i] is the image of point i. Permutations serialize to JSON as
plain arrays of 0-based images.

All operations return fresh tuples; values are immutable and safe to share.
Composition is right-to-left: compose(p, q)[i] == p[q[i]], so q is applied
first. Every other module relies on this convention.
"""
from __future__ import annotations

from typing import Sequence


Perm = tuple[int, ...]


def is_perm(word: Sequence[int]) -> bool:
    """
    Check that word is a bijection of {0, ..., n-1} where n = len(word).

    >>> [is_perm(w) for w in [(0, 1), (1, 1), (2, 0), (1, 2, 0)]]
    [True, False, False, True]
    """
    n = len(word)
    seen = [False] * n
    for x in word:
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n or seen[x]:
            return False
        seen[x] = True
    return True


def identity(n: int) -> Perm:
    """
    The identity permutation of degree n.

    >>> identity(3)
    (0, 1, 2)
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(range(n))


def compose(p: Perm, q: Perm) -> Perm:
    """
    The composite applying q first: compose(p, q)[i] == p[q[i]].

    >>> compose((1, 2, 0), (1, 0, 2))
    (2, 1, 0)
    >>> compose((1, 0), (1, 0))
    (0, 1)
    """
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} vs {len(q)}")
    return tuple(p[x] for x in q)


def inverse(p: Perm) -> Perm:
    """
    The inverse permutation: compose(p, inverse(p)) is the identity.

    >>> inverse((1, 2, 0))
    (2, 0, 1)
    """
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def cycles(p: Perm) -> list[tuple[int, ...]]:
    """
    Disjoint cycles of p, each starting at its smallest point, ordered by
    that point. Fixed points appear as 1-cycles.

    >>> cycles((1, 2, 0, 3))
    [(0, 1, 2), (3,)]
    """
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_type(p: Perm) -> tuple[int, ...]:
    """
    Multiset of cycle lengths as a descending tuple; entries sum to the degree.

    >>> cycle_type((1, 2, 0))
    (3,)
    >>> cycle_type((1, 0, 2))
    (2, 1)
    """
    return tuple(sorted((len(c) for c in cycles(p)), reverse=True))


def from_cycles(n: int, *cyc: Sequence[int]) -> Perm:
    """
    Build a degree-n permutation from disjoint cycles; points not mentioned
    are fixed.

    >>> from_cycles(4, (0, 1, 2))
    (1, 2, 0, 3)
    """
    images = list(range(n))
    used: set[int] = set()
    for c in cyc:
        for x in c:
            if not 0 <= x < n:
                raise ValueError(f"point {x} out of range for degree {n}")
            if x in used:
                raise ValueError(f"point {x} appears in two cycles")
            used.add(x)
        for a, b in zip(c, tuple(c[1:]) + (c[0],)):
            images[a] = b
    return tuple(images)
