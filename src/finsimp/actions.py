"""Groupoid actions on families of finite sets, and their groupoids.

An action of a groupoid G on a family of sets indexed by its objects
is a table sending (arrow g : a -> b, point x over a) to a point over
b, compatible with units and composition.  The action groupoid has the
points as objects and one arrow g@x per such pair.  Saturation,
restriction to object subsets, orbit groupoids of coset translation,
and functor groupoids are all realized by direct table constructions.
"""

from __future__ import annotations

import itertools

from .categories import (
    FiniteGroupoid,
    composable_chain_count,
    nerve,
    validate_category,
)
from .groups import is_subgroup, left_cosets, one_object_groupoid
from .lifting import CheckResult
from .simplicial import simplices


class FamilyOverObjects:
    """A finite set over each object of a base groupoid."""

    def __init__(self, base, fibers):
        self.base = base
        self.fibers = {a: tuple(points) for a, points in fibers.items()}

    def fiber(self, obj):
        return self.fibers[obj]


class GroupoidAction:
    """A groupoid acting on a family, as an explicit arrow-point table."""

    def __init__(self, family, act):
        self.family = family
        self.act = dict(act)

    @property
    def base(self):
        return self.family.base

    def apply(self, g, x):
        return self.act[(g, x)]


def group_action(G, points, act, obj="pt"):
    """A group acting on one finite set, as a one-object groupoid action.

    `act` gives (element, point) -> point for the non-unit elements;
    unit entries are filled in.
    """
    base = one_object_groupoid(G, obj)
    ident = base.identities[obj]
    table = {}
    for m in base.non_identities():
        for x in points:
            table[(m, x)] = act[(m, x)]
    for x in points:
        table[(ident, x)] = x
    return GroupoidAction(FamilyOverObjects(base, {obj: points}), table)


def validate_action(A):
    """All violated action conditions, each with the offending entry."""
    base = A.base
    reports = validate_category(base)
    if reports:
        return ["base: " + r for r in reports]
    fam = A.family
    for a in fam.fibers:
        if a not in base.objects:
            reports.append(f"fiber over unknown object '{a}'")
    for a in base.objects:
        if a not in fam.fibers:
            reports.append(f"object '{a}' has no fiber")
    if reports:
        return reports

    fibers = fam.fibers
    for g in base.morphisms:
        for x in fibers[base.src[g]]:
            if (g, x) not in A.act:
                reports.append(f"missing entry for ({g}, {x})")
            elif A.act[(g, x)] not in fibers[base.tgt[g]]:
                reports.append(
                    f"entry ({g}, {x}) -> {A.act[(g, x)]} lands outside the fiber over {base.tgt[g]}"
                )
    for key in A.act:
        g, x = key
        if g not in base.src or x not in fibers.get(base.src.get(g), ()):
            reports.append(f"stray entry for ({g}, {x})")
    if reports:
        return reports

    for a in base.objects:
        i = base.identities[a]
        for x in fibers[a]:
            if A.act[(i, x)] != x:
                reports.append(f"unit law fails: ({i}, {x}) -> {A.act[(i, x)]}")
    for (g, h), gh in base.comp.items():
        for x in fibers[base.src[h]]:
            left = A.act[(gh, x)]
            right = A.act[(g, A.act[(h, x)])]
            if left != right:
                reports.append(
                    f"compatibility fails on ({g}, {h}, {x}): {gh} sends it to {left}, stepwise gives {right}"
                )
    return reports


def _unique_names(names, what):
    seen = set()
    for n in names:
        if n in seen:
            raise ValueError(f"{what} name clash: '{n}'")
        seen.add(n)


def action_groupoid(A):
    """The groupoid of points and action arrows, objects x@a and arrows g@x."""
    reports = validate_action(A)
    if reports:
        raise ValueError("invalid action: " + reports[0])
    base = A.base
    fibers = A.family.fibers

    obj_of = {}
    objects = []
    for a in base.objects:
        for x in fibers[a]:
            name = f"{x}@{a}"
            obj_of[(a, x)] = name
            objects.append(name)
    _unique_names(objects, "object")

    arr_of = {}
    morphisms = []
    src = {}
    tgt = {}
    for g in base.morphisms:
        a, b = base.src[g], base.tgt[g]
        for x in fibers[a]:
            name = f"{g}@{x}"
            arr_of[(g, x)] = name
            morphisms.append(name)
            src[name] = obj_of[(a, x)]
            tgt[name] = obj_of[(b, A.act[(g, x)])]
    _unique_names(morphisms, "arrow")

    identities = {
        obj_of[(a, x)]: arr_of[(base.identities[a], x)]
        for a in base.objects
        for x in fibers[a]
    }
    comp = {}
    for (g, h), gh in base.comp.items():
        for x in fibers[base.src[h]]:
            y = A.act[(h, x)]
            comp[(arr_of[(g, y)], arr_of[(h, x)])] = arr_of[(gh, x)]
    inverses = {
        arr_of[(g, x)]: arr_of[(base.inverses[g], A.act[(g, x)])]
        for (g, x) in arr_of
    }
    return FiniteGroupoid(objects, morphisms, src, tgt, comp, identities, inverses)


def restriction(G, U):
    """The full subgroupoid on the object subset U."""
    U = list(U)
    unknown = [a for a in U if a not in G.objects]
    if unknown:
        raise ValueError(f"unknown object names: {unknown}")
    keep_obj = set(U)
    objects = tuple(a for a in G.objects if a in keep_obj)
    morphisms = tuple(
        m for m in G.morphisms if G.src[m] in keep_obj and G.tgt[m] in keep_obj
    )
    keep = set(morphisms)
    src = {m: G.src[m] for m in morphisms}
    tgt = {m: G.tgt[m] for m in morphisms}
    comp = {
        (g, f): h
        for (g, f), h in G.comp.items()
        if g in keep and f in keep
    }
    identities = {a: G.identities[a] for a in objects}
    inverses = {m: G.inverses[m] for m in morphisms}
    return FiniteGroupoid(objects, morphisms, src, tgt, comp, identities, inverses)


def is_saturated(G, Z):
    """No arrow leaves Z; a failing arrow is returned as witness."""
    Z = set(Z)
    unknown = [a for a in Z if a not in G.objects]
    if unknown:
        raise ValueError(f"unknown object names: {unknown}")
    for m in G.morphisms:
        if G.src[m] in Z and G.tgt[m] not in Z:
            return CheckResult(False, m)
    return CheckResult(True, None)


def orbit_groupoid(G, H):
    """The action groupoid of G translating its left cosets by H."""
    if not is_subgroup(G, H):
        raise ValueError("H is not a subgroup")
    cosets = left_cosets(G, H)
    rep_of = {}
    for c in cosets:
        for e in c:
            rep_of[e] = c[0]
    points = tuple(c[0] for c in cosets)
    act = {
        (g, x): rep_of[G.mul[(g, x)]]
        for g in G.elements
        if g != G.unit
        for x in points
    }
    return action_groupoid(group_action(G, points, act))


def groupoid_nerve(G, depth):
    """The nerve of a groupoid, cross-checked against chain counting."""
    N = nerve(G, depth)
    for n in range(depth + 1):
        got = len(simplices(N, n))
        want = composable_chain_count(G, n)
        if got != want:
            raise RuntimeError(
                f"chain count mismatch in dimension {n}: nerve has {got}, table count is {want}"
            )
    return N


def _functor_assignments(H, G):
    """All functors H -> G as (object map, morphism map) pairs."""
    non_ids = H.non_identities()
    out = []
    for images in itertools.product(G.objects, repeat=len(H.objects)):
        f0 = dict(zip(H.objects, images))
        pools = [G.hom(f0[H.src[h]], f0[H.tgt[h]]) for h in non_ids]
        for choice in itertools.product(*pools):
            f1 = dict(zip(non_ids, choice))
            for a in H.objects:
                f1[H.identities[a]] = G.identities[f0[a]]
            if all(
                f1[gh] == G.comp[(f1[g], f1[h])] for (g, h), gh in H.comp.items()
            ):
                out.append((f0, f1))
    return out


def _transformations(H, G, f, g):
    """Natural transformations f => g, as component tuples over H.objects."""
    f0, f1 = f
    g0, g1 = g
    pools = [G.hom(f0[a], g0[a]) for a in H.objects]
    out = []
    for eta in itertools.product(*pools):
        comp_at = dict(zip(H.objects, eta))
        if all(
            G.comp[(comp_at[H.tgt[h]], f1[h])] == G.comp[(g1[h], comp_at[H.src[h]])]
            for h in H.non_identities()
        ):
            out.append(eta)
    return out


def functor_groupoid(H, G):
    """Functors H -> G with natural transformations as arrows.

    Both inputs must be groupoids, so every transformation is
    invertible.  Objects are named F0, F1, ... in enumeration order.
    """
    functors = _functor_assignments(H, G)
    objects = [f"F{i}" for i in range(len(functors))]

    arrows = {}
    names = []
    src = {}
    tgt = {}
    counter = 0
    for i, f in enumerate(functors):
        for j, g in enumerate(functors):
            for eta in _transformations(H, G, f, g):
                if i == j and all(
                    G.is_identity(c) for c in eta
                ):
                    name = f"id_F{i}"
                else:
                    name = f"t{counter}"
                    counter += 1
                arrows[(i, j, eta)] = name
                names.append(name)
                src[name] = objects[i]
                tgt[name] = objects[j]
    _unique_names(names, "transformation")

    identities = {}
    for i, f in enumerate(functors):
        f0 = f[0]
        eta = tuple(G.identities[f0[a]] for a in H.objects)
        identities[objects[i]] = arrows[(i, i, eta)]
    comp = {}
    inverses = {}
    for (i, j, eta), n1 in arrows.items():
        inv = tuple(G.inverses[c] for c in eta)
        inverses[n1] = arrows[(j, i, inv)]
        for (j2, k, mu), n2 in arrows.items():
            if j2 != j:
                continue
            vert = tuple(G.comp[(m, e)] for m, e in zip(mu, eta))
            comp[(n2, n1)] = arrows[(i, k, vert)]
    return FiniteGroupoid(objects, names, src, tgt, comp, identities, inverses)
