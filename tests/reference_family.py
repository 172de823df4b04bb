"""Slices, coslices, mapping spaces and cone searches built from composed maps.

The constructions as they were before value rows: every level element
is a SimplicialMap, a face or degeneracy is `compose` with an induced
coface or codegeneracy, and from_level_data files the maps by their
hash.  Kept as the oracle of the row-based constructions: same sets,
same level order, same vertex maps, same cone results.
"""

from finsimp.constructions import join_of_maps, join_parts, left_cone, product_of_maps, product_parts, right_cone
from finsimp.limits import ConeResult, is_final, is_initial
from finsimp.simplicial import (
    SimplexRef,
    codegeneracy_map,
    coface_map,
    compose,
    enumerate_maps,
    from_level_data,
    identity_map,
    standard_simplex,
)


def family_maps(S, depth, induced, pin):
    """(sset, levels, to_ref): level n lists the pinned maps out of induced(id_n)'s source."""
    levels = [
        enumerate_maps(induced(identity_map(standard_simplex(n))).source, S, fixed=pin(n))
        for n in range(depth + 1)
    ]
    coface = {
        (n, k): induced(coface_map(n, k)) for n in range(1, depth + 1) for k in range(n + 1)
    }
    codegeneracy = {
        (n, k): induced(codegeneracy_map(n + 1, k)) for n in range(depth) for k in range(n + 1)
    }
    sset, to_ref = from_level_data(
        levels,
        lambda n, k, F: compose(F, coface[(n, k)]),
        lambda n, k, F: compose(F, codegeneracy[(n, k)]),
    )
    return sset, levels, to_ref


def cone_maps(p, depth, under):
    """(sset, level maps, vertex_of) of the slice of p, or the coslice when `under`."""
    K, S = p.source, p.target
    id_K = identity_map(K)

    def joined(simplex_part, k_part):
        return (k_part, simplex_part) if under else (simplex_part, k_part)

    def pin(n):
        parts = join_parts(*joined(standard_simplex(n), K))
        return {name: p.assign[y] for y, name in (parts.left if under else parts.right).items()}

    sset, levels, to_ref = family_maps(S, depth, lambda theta: join_of_maps(*joined(theta, id_K)), pin)
    return sset, levels, {to_ref[(0, F)].gen: F for F in levels[0]}


def slice_data(p, depth):
    return cone_maps(p, depth, under=False)


def coslice_data(p, depth):
    return cone_maps(p, depth, under=True)


def mapping_space(C, x, y, depth):
    edge = standard_simplex(1)
    id_edge = identity_map(edge)
    ends = {"0": x, "1": y}

    def end_pin(n):
        pin = {}
        for name, (r1, r2) in product_parts(standard_simplex(n), edge).pairs.items():
            if r2.gen in ends:
                pin[name] = SimplexRef(tuple(range(r1.dim - 1, -1, -1)), ends[r2.gen], r1.dim)
        return pin

    return family_maps(C, depth, lambda theta: product_of_maps(theta, id_edge), end_pin)[0]


def cone_search(p, N, under):
    """The first final vertex of the slice, or initial vertex of the coslice, as a ConeResult."""
    sl, _, vertex_of = cone_maps(p, N, under)
    apex = (right_cone if under else left_cone)(p.source).apex
    extremal = is_initial if under else is_final
    cones = [vertex_of[name] for name in sl.gens[0] if extremal(sl, name, N).holds]
    if not cones:
        return ConeResult(None, None, N, ())
    passers = tuple(F.assign[apex].gen for F in cones)
    return ConeResult(passers[0], cones[0], N, passers)
