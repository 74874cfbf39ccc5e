"""
Finite permutation groups materialized as full element sets.

Groups here are small (they arise from sigma tables on <= 8 points), so
breadth-first closure over the generators is cheap and makes every later
query a set computation: orbits, minimal block systems, primitivity,
stabilizers, derived series. A configurable order cap turns runaway
closures into explicit errors instead of silent truncation.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import BudgetExceededError
from .perms import Perm, compose, identity, inverse, is_perm

DEFAULT_ORDER_CAP = 10**6


@dataclass(frozen=True)
class BlockSystem:
    """A partition of the domain into equal-size blocks preserved by a group."""

    blocks: tuple[tuple[int, ...], ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)


def _classes(generators, degree: int, pairs) -> tuple[tuple[int, ...], ...]:
    """
    The finest partition of range(degree) that joins each pair and that every
    generator preserves, classes sorted, by minimum: union-find, merging the
    images of merged pairs. The pairs (x, g(x)) with no generators give the
    orbits; one pair of an orbit, its finest block system joining the two.
    """
    parent = list(range(degree))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    stack = list(pairs)
    while stack:
        u, v = stack.pop()
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            for g in generators:
                stack.append((g[u], g[v]))
    classes: dict[int, list[int]] = {}
    for x in range(degree):
        classes.setdefault(find(x), []).append(x)
    return tuple(tuple(c) for c in classes.values())


class PermGroup:
    """A permutation group with its element set fully expanded."""

    def __init__(self, degree: int, generators: tuple[Perm, ...], elements: tuple[Perm, ...]):
        self.degree = degree
        self.generators = generators
        self.elements = elements
        self._eset = frozenset(elements)

    # -- construction -------------------------------------------------------

    @classmethod
    def closure(
        cls,
        generators: list[Perm] | tuple[Perm, ...],
        degree: int | None = None,
        cap: int = DEFAULT_ORDER_CAP,
    ) -> "PermGroup":
        """
        Expand the subgroup generated by the given permutations.

        Raises BudgetExceededError if the element count passes `cap`; an
        explicit degree is required when there are no generators.
        """
        gens = tuple(generators)
        if degree is None:
            if not gens:
                raise ValueError("degree required for an empty generating set")
            degree = len(gens[0])
        for g in gens:
            if len(g) != degree:
                raise ValueError("generators must share one degree")
            if not is_perm(g):
                raise ValueError(f"generator {g} is not a permutation")

        e = identity(degree)
        seen: set[Perm] = {e}
        frontier = [e]
        while frontier:
            nxt = []
            for p in frontier:
                for g in gens:
                    q = tuple(g[x] for x in p)  # g o p
                    if q not in seen:
                        if len(seen) >= cap:
                            raise BudgetExceededError(
                                f"group closure exceeded order cap {cap}"
                            )
                        seen.add(q)
                        nxt.append(q)
            frontier = nxt
        elements = tuple(sorted(seen))
        dedup_gens = tuple(sorted(set(gens)))
        return cls(degree, dedup_gens, elements)

    # -- basic protocol ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, p: Perm) -> bool:
        return p in self._eset

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PermGroup) and self._eset == other._eset

    def __hash__(self) -> int:
        return hash((self.degree, self._eset))

    # -- orbits and transitivity ----------------------------------------------

    def orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbit partition of the domain, each orbit sorted, ordered by minimum."""
        moves = [(x, g[x]) for g in self.generators for x in range(self.degree) if g[x] != x]
        return _classes((), self.degree, moves)

    def is_transitive(self) -> bool:
        return len(self.orbits()) == 1

    def orbit(self, x: int) -> tuple[int, ...]:
        for o in self.orbits():
            if x in o:
                return o
        raise ValueError(f"point {x} out of range")

    # -- blocks and primitivity -------------------------------------------------

    def minimal_block_containing(self, a: int, b: int) -> BlockSystem:
        """
        Finest block system whose block through `a` also contains `b`.

        Union-find closure: seed a~b, then repeatedly merge the images of
        merged pairs under every generator until stable. Requires a
        transitive group and a != b.
        """
        if not self.is_transitive():
            raise ValueError("block systems are defined for transitive groups only")
        if a == b:
            raise ValueError("need two distinct points")
        n = self.degree
        blocks = _classes(self.generators, n, [(a, b)])

        sizes = {len(blk) for blk in blocks}
        if len(sizes) != 1 or n % len(blocks[0]) != 0:
            raise AssertionError("block closure produced unequal blocks")
        block_index = {}
        for i, blk in enumerate(blocks):
            for x in blk:
                block_index[x] = i
        for g in self.elements:
            for blk in blocks:
                images = {block_index[g[x]] for x in blk}
                if len(images) != 1:
                    raise AssertionError("computed blocks are not preserved by the group")
        return BlockSystem(blocks)

    def is_primitive(self) -> bool:
        """
        True iff the group is transitive and admits no nontrivial block system.

        Degree 1 counts as primitive. For transitive groups it suffices to
        test minimal blocks through pairs (0, b): any nontrivial system has a
        block containing 0 and some other point.
        """
        if self.degree == 1:
            return True
        if not self.is_transitive():
            return False
        for b in range(1, self.degree):
            system = self.minimal_block_containing(0, b)
            if system.block_count != 1:
                return False
        return True

    # -- stabilizers -----------------------------------------------------------

    def stabilizer(self, x: int) -> "PermGroup":
        """Point stabilizer as a full subgroup; checks |G| = |orbit| * |stab|."""
        if not 0 <= x < self.degree:
            raise ValueError(f"point {x} out of range")
        fixed = tuple(p for p in self.elements if p[x] == x)
        sub = PermGroup(self.degree, fixed, fixed)
        if len(self.orbit(x)) * len(fixed) != self.order:
            raise AssertionError("orbit-stabilizer count mismatch")
        return sub

    # -- solvability -------------------------------------------------------------

    def derived_subgroup(self) -> "PermGroup":
        """The normal closure of the commutators of the generators."""
        gens, e = self.generators, identity(self.degree)
        pairs = itertools.combinations(gens, 2)
        new = {compose(compose(g, h), inverse(compose(h, g))) for g, h in pairs} - {e}
        sub = PermGroup(self.degree, (), (e,))
        while new:  # conjugate by the generators until stable
            gens_sub = sorted(new.union(sub.generators))
            sub = PermGroup.closure(gens_sub, degree=self.degree, cap=self.order + 1)
            new = {compose(compose(g, c), inverse(g)) for g in gens for c in sub.generators}
            new -= sub._eset
        return sub

    def derived_series(self) -> list["PermGroup"]:
        """
        G, G', G'', ... until the trivial group or a repeated term.

        >>> [g.order for g in PermGroup.closure([(1, 0, 2, 3), (1, 2, 3, 0)]).derived_series()]
        [24, 12, 4, 1]
        """
        series = [self]
        while series[-1].order > 1:
            nxt = series[-1].derived_subgroup()
            if nxt.order == series[-1].order:
                break
            series.append(nxt)
        return series

    def is_solvable(self) -> bool:
        """True iff the derived series reaches the trivial group."""
        return self.derived_series()[-1].order == 1


def certainly_nonsolvable(generators: list[Perm] | tuple[Perm, ...], degree: int) -> bool:
    """
    True only on a proof, found on an orbit D, that the group G the
    generators generate is not solvable; False proves nothing.

    Subgroups and quotients of a solvable group are solvable (H <= G has
    H^(i) <= G^(i), and a homomorphism f has f(G)^(i) = f(G^(i))), so it
    suffices that H, the image of G in Sym(D), is not solvable. Were it
    solvable, a minimal normal subgroup N of H would be an elementary
    abelian p-group (N' and the p-torsion of N are characteristic in N, so
    normal in H); if H is primitive and |D| > 1, N is transitive (its
    orbits form blocks), so regular, and |D| = |N| a power of p. Proofs:

    (a) |D| is not a prime power, and H is primitive on D.
    If |D| = p is prime, H is primitive and N = <c> for a p-cycle c; with
    D as Z/p and c as x -> x + 1, each h in H has h c h^-1 = c^a, so
    h(x + 1) = h(x) + a: H lies in AGL(1, p). Hence:
    (b) a generator is a p-cycle c' that some generator does not
        normalize: <c'> is a Sylow p-subgroup (p^2 does not divide p!),
        so <c'> = N, normal in H (and the first p-cycle found decides);
    (c) a generator, or a product of two, moves D yet fixes two points of
        it: x -> a x + b fixes none (a = 1, b != 0), one (a != 1) or all.
    """
    moves = [(x, g[x]) for g in generators for x in range(degree) if g[x] != x]
    for orbit in _classes((), degree, moves):
        k = len(orbit)
        if k < 5:  # Sym(k) is solvable
            continue
        p = next(d for d in range(2, k + 1) if k % d == 0)  # the least prime factor
        if p == k and _outside_agl(generators, orbit):
            return True
        if p ** k.bit_length() % k:  # k is not a power of p: (a) if the action is primitive
            systems = (_classes(generators, degree, [(orbit[0], b)]) for b in orbit[1:])
            if all(len(blocks) == degree - k + 1 for blocks in systems):
                return True
    return False


def _outside_agl(gens: list[Perm] | tuple[Perm, ...], orbit: tuple[int, ...]) -> bool:
    """Proofs (c), then (b), of `certainly_nonsolvable` on an orbit of prime size."""
    k = len(orbit)
    pairs = itertools.combinations_with_replacement(gens, 2)
    words = itertools.chain(gens, itertools.starmap(compose, pairs))
    if any(2 <= sum(w[x] == x for x in orbit) < k for w in words):
        return True
    for c in gens:
        pos, x = {}, orbit[0]
        while x not in pos:
            pos[x], x = len(pos), c[x]
        if len(pos) == k:  # g normalizes <c> iff pos(g c x) - pos(g x) is constant
            return any(len({(pos[g[c[x]]] - pos[g[x]]) % k for x in orbit}) > 1 for g in gens)
    return False
