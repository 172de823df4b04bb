"""Finite groups by multiplication table, and their one-object groupoids."""

from __future__ import annotations

from functools import partial
from operator import itemgetter

from .categories import as_groupoid, monoid_category


class FiniteGroup:
    """A finite group given by its Cayley table.

    `mul[(a, b)]` is the product a*b, total on all pairs.  Validation
    is separate so partially wrong tables can be inspected.
    """

    def __init__(self, elements, unit, mul):
        self.elements = tuple(elements)
        self.unit = unit
        self.mul = dict(mul)

    def op(self, a, b):
        return self.mul[(a, b)]

    def inverse(self, a):
        for b in self.elements:
            if self.mul[(a, b)] == self.unit and self.mul[(b, a)] == self.unit:
                return b
        raise ValueError(f"element '{a}' has no inverse")

    def __repr__(self):
        return f"FiniteGroup({len(self.elements)} elements)"


def validate_group(G):
    """Violations of closure, unit, associativity and invertibility."""
    report = []
    els = set(G.elements)
    if len(els) != len(G.elements):
        report.append("duplicate element names")
    if G.unit not in els:
        report.append(f"unit '{G.unit}' is not an element")
        return report
    for a in G.elements:
        for b in G.elements:
            c = G.mul.get((a, b))
            if c is None:
                report.append(f"product of ({a}, {b}) missing")
            elif c not in els:
                report.append(f"product of ({a}, {b}) is unknown element '{c}'")
    if report:
        return report
    for a in G.elements:
        if G.mul[(G.unit, a)] != a or G.mul[(a, G.unit)] != a:
            report.append(f"unit law fails at '{a}'")
    for a in G.elements:
        for b in G.elements:
            for c in G.elements:
                if G.mul[(G.mul[(a, b)], c)] != G.mul[(a, G.mul[(b, c)])]:
                    report.append(f"associativity fails on ({a}, {b}, {c})")
                    return report
    for a in G.elements:
        if not any(
            G.mul[(a, b)] == G.unit and G.mul[(b, a)] == G.unit for b in G.elements
        ):
            report.append(f"element '{a}' has no inverse")
    return report


def cyclic_group(n):
    """Z/n with elements e, g1, ..., g<n-1>."""
    if n < 1:
        raise ValueError("cyclic group order must be >= 1")
    names = ["e"] + [f"g{k}" for k in range(1, n)]
    mul = {
        (names[a], names[b]): names[(a + b) % n] for a in range(n) for b in range(n)
    }
    return FiniteGroup(names, "e", mul)


def _perm_name(images):
    return "p" + "".join(str(v) for v in images)


def _compose_perm(p, q):
    """(p * q)(x) = p(q(x)); permutations as image tuples."""
    return tuple(p[q[x]] for x in range(len(p)))


def perm_group(degree, generators):
    """Subgroup of the symmetric group generated by image-tuple permutations."""
    ident = tuple(range(degree))
    for g in generators:
        if sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of 0..{degree - 1}: {g}")
    closure = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in generators]
    while frontier:
        nxt = []
        for p in frontier:
            for g in gens:
                q = _compose_perm(g, p)
                if q not in closure:
                    closure.add(q)
                    nxt.append(q)
        frontier = nxt
    perms = sorted(closure)
    names = {p: _perm_name(p) for p in perms}
    if degree < 2:  # itemgetter of one index gives a scalar, of none raises
        gathers = [(names[q], partial(_compose_perm, q=q)) for q in perms]
    else:  # p * q = itemgetter(*q)(p), one C-level gather per entry
        gathers = [(names[q], itemgetter(*q)) for q in perms]
    mul = {(names[p], b): names[gather(p)] for p in perms for b, gather in gathers}
    return FiniteGroup([names[p] for p in perms], names[ident], mul)


def symmetric_group(degree):
    """The full symmetric group on 0..degree-1."""
    if degree < 1:
        raise ValueError("degree must be >= 1")
    if degree == 1:
        return perm_group(1, [])
    swaps = [tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, degree)) for k in range(degree - 1)]
    return perm_group(degree, swaps)


def cycles_to_images(degree, cycles):
    """Image tuple of a product of cycles, applied right cycle first."""
    images = list(range(degree))
    for cyc in reversed(cycles):
        step = list(range(degree))
        for pos, v in enumerate(cyc):
            if not 0 <= v < degree:
                raise ValueError(f"cycle entry {v} outside 0..{degree - 1}")
            step[v] = cyc[(pos + 1) % len(cyc)]
        images = [step[images[x]] for x in range(degree)]
    return tuple(images)


def subgroup_closure(G, subset):
    """Smallest subgroup containing the given elements."""
    closure = {G.unit}
    frontier = [G.unit]
    gens = list(subset)
    for a in gens:
        if a not in G.elements:
            raise ValueError(f"unknown element '{a}'")
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = G.mul[(b, a)]
                if c not in closure:
                    closure.add(c)
                    nxt.append(c)
        frontier = nxt
    # generated subsets of a finite group close under inverses automatically
    return frozenset(closure)


def is_subgroup(G, subset):
    sub = set(subset)
    if G.unit not in sub:
        return False
    return all(G.mul[(a, b)] in sub for a in sub for b in sub)


def left_cosets(G, H):
    """Left cosets gH as sorted name tuples, in order of smallest member."""
    H = set(H)
    seen = set()
    cosets = []
    for g in sorted(G.elements):
        if g in seen:
            continue
        cos = tuple(sorted({G.mul[(g, h)] for h in H}))
        seen.update(cos)
        cosets.append(cos)
    return cosets


def one_object_groupoid(G, obj="pt"):
    """The group as a groupoid with a single object.

    Morphism names are the element names; the unit becomes the
    identity morphism.
    """
    while obj in G.elements:
        obj = obj + "_"
    C = monoid_category(obj, G.elements, G.unit, G.mul)
    gpd = as_groupoid(C)
    if gpd is None:
        raise ValueError("multiplication table is not a group")
    return gpd
