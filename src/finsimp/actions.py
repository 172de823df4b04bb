"""Groupoid actions on families of finite sets, and their groupoids.

An action of a groupoid G on a family of sets indexed by its objects
is a table sending (arrow g : a -> b, point x over a) to a point over
b, compatible with units and composition.  The action groupoid has the
points as objects and one arrow g@x per such pair.  Saturation,
restriction to object subsets and orbit groupoids of coset translation
are direct table constructions.  The functor groupoid H -> G takes its
functors from the map search, as the maps of 2-truncated nerves, and
its transformations as conjugations by choices of components.  Its
objects F0, F1, ... follow object images in G.objects order, then hom
choices in G.hom order.
"""

from __future__ import annotations

import itertools
from operator import itemgetter

from .categories import (
    FiniteGroupoid,
    composable_chain_count,
    nerve,
    validate_category,
)
from .groups import is_subgroup, left_cosets, one_object_groupoid
from .lifting import CheckResult
from .simplicial import map_rows, simplices


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


def functor_groupoid(H, G):
    """Functors H -> G with natural transformations as arrows.

    Both inputs must be groupoids.  The functors are the maps
    nerve(H, 2) -> nerve(G, 2) of the map search, the nerve being fully
    faithful and 2-coskeletal.  They are named F0, F1, ... by object
    images in G.objects order, then hom choices in G.hom order.  As G
    is a groupoid, each choice of components eta_a out of f(a) is one
    transformation f => g, to the conjugate g(h) = eta_tgt(h) f(h)
    eta_src(h)^-1.  The arrows out of F<i> are numbered by target, then
    by components in G.hom order; they compose and invert component by
    component.
    """
    k = len(H.objects)
    nonid = H.non_identities()
    obj_pos = {a: p for p, a in enumerate(G.objects)}
    mor_pos = {m: p for p, m in enumerate(G.morphisms)}
    # a functor is its object images over H.objects, then its images of H's non-identities;
    # a degenerate edge value is the identity of its vertex
    N = nerve(G, 2)
    vertices, edges = simplices(N, 0), simplices(N, 1)
    functors = sorted(
        (
            tuple(vertices[z].gen for z in row[:k])
            + tuple(G.identities[r.gen] if r.word else r.gen for r in map(edges.__getitem__, row[k:k + len(nonid)]))
            for row in map_rows(nerve(H, 2), N)
        ),
        key=lambda f: [obj_pos[a] for a in f[:k]] + [mor_pos[m] for m in f[k:]],
    )
    index = {f: i for i, f in enumerate(functors)}
    at = {a: p for p, a in enumerate(H.objects)}
    ends = [(at[H.src[h]], at[H.tgt[h]]) for h in nonid]
    out_of = {a: [] for a in G.objects}
    for m in G.morphisms:
        out_of[G.src[m]].append(m)
    comp, inv = G.comp, G.inverses

    objects = [f"F{i}" for i in range(len(functors))]
    arrows = {}  # (i, components) -> name
    starting = []  # per i, the (components, j, name) of the arrows out of F<i>
    names, src, tgt = [], {}, {}
    counter = itertools.count()
    for i, f in enumerate(functors):
        unit = tuple(G.identities[a] for a in f[:k])
        found = []
        for eta in itertools.product(*(out_of[a] for a in f[:k])):
            g = tuple(G.tgt[c] for c in eta) + tuple(
                comp[(comp[(eta[t], m)], inv[eta[s]])] for m, (s, t) in zip(f[k:], ends)
            )
            found.append((index[g], eta))
        found.sort(key=itemgetter(0))  # stable: product order within a target
        starting.append([])
        for j, eta in found:
            name = f"id_F{i}" if eta == unit else f"t{next(counter)}"
            arrows[(i, eta)] = name
            starting[i].append((eta, j, name))
            names.append(name)
            src[name], tgt[name] = objects[i], objects[j]

    identities = {a: f"id_{a}" for a in objects}
    table, inverses = {}, {}
    for i, out in enumerate(starting):
        for eta, j, name in out:
            inverses[name] = arrows[(j, tuple(inv[c] for c in eta))]
            for mu, _, after in starting[j]:
                table[(after, name)] = arrows[(i, tuple(comp[(m, c)] for m, c in zip(mu, eta)))]
    return FiniteGroupoid(objects, names, src, tgt, table, identities, inverses)
