"""Functor groupoids built by brute force, as before the map search.

The functors are every object map and every tuple of hom choices that
composition does not rule out, the transformations f => g every tuple
of components that passes naturality, and composition is tried on all
pairs of arrows.  Kept as the oracle of actions.functor_groupoid: the
same objects, arrows, sources, targets, composition table (in
insertion order), identities and inverses.
"""

import itertools

from finsimp.actions import _unique_names
from finsimp.categories import FiniteGroupoid


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
