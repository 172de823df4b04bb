"""Mapping spaces, connected components, final/initial vertices, (co)limits.

The mapping space between two vertices is modelled on cylinders: its
n-simplices are the maps from (standard n-simplex) x (edge) that
collapse the two ends of the cylinder to the chosen vertices, built
by the pinned-maps construction of slices (constructions._family_maps).  A
vertex is final when every sphere ending at it fills, up to the
requested depth; limits are final vertices of the slice, colimits
initial vertices of the coslice.  Everything reports witnesses.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constructions import (
    _family_maps,
    coslice_data,
    left_cone,
    product_of_maps,
    product_parts,
    right_cone,
    slice_data,
)
from .lifting import FinalityResult, check_depth, matching_simplices
from .simplicial import (
    SimplexRef,
    SimplicialMap,
    TruncationError,
    enumerate_maps,
    identity_map,
    simplex_boundary,
    standard_simplex,
)


def _require_vertex(S, v):
    if v not in S.gen_dim or S.gen_dim[v] != 0:
        raise ValueError(f"'{v}' is not a vertex")


def mapping_space(C, x, y, depth):
    """The space of paths from x to y in C, as a truncated simplicial set.

    Level n enumerates the cylinder maps (n-simplex x edge) -> C whose
    0-end collapses to x and whose 1-end collapses to y.  Needs
    simplices of C up to dimension depth+1, so a window must be at
    least that deep.
    """
    _require_vertex(C, x)
    _require_vertex(C, y)
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if C.truncated and depth + 1 > C.bound:
        raise TruncationError(
            f"mapping space to depth {depth} needs simplices past the window bound {C.bound}"
        )
    edge = standard_simplex(1)
    id_edge = identity_map(edge)
    ends = {"0": x, "1": y}

    def end_pin(n):
        pin = {}
        for name, (r1, r2) in product_parts(standard_simplex(n), edge).pairs.items():
            if r2.gen in ends:
                pin[name] = SimplexRef(tuple(range(r1.dim - 1, -1, -1)), ends[r2.gen], r1.dim)
        return pin

    return _family_maps(C, depth, lambda theta: product_of_maps(theta, id_edge), end_pin)[0]


def pi0(S):
    """Connected components: vertex partition under the edge relation."""
    if S.bound < 0:
        return ()
    if S.truncated and S.bound < 1:
        raise TruncationError("components need the 1-skeleton of the window")
    parent = {v: v for v in S.gens[0]}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    if S.bound >= 1:
        for e in S.gens[1]:
            d0, d1 = S.face_table[e]
            a, b = find(d0.gen), find(d1.gen)
            if a != b:
                parent[a] = b
    comps = {}
    for v in S.gens[0]:
        comps.setdefault(find(v), []).append(v)
    return tuple(tuple(sorted(c)) for c in sorted(comps.values()))


def _extension_check(C, v, N, pinned_vertex):
    _require_vertex(C, v)
    check_depth(N, "finality check", C)
    for n in range(1, N + 1):
        B, _ = simplex_boundary(n)
        pin = {pinned_vertex(n): C.generator(v)}
        for t in enumerate_maps(B, C, fixed=pin):
            if not matching_simplices(C, t.assign, n):
                return FinalityResult(False, t, N)
    return FinalityResult(True, None, N)


def is_final(C, v, N):
    """Every sphere with last vertex v extends to a simplex, up to depth N."""
    return _extension_check(C, v, N, lambda n: str(n))


def is_initial(C, v, N):
    """Every sphere with first vertex v extends to a simplex, up to depth N."""
    return _extension_check(C, v, N, lambda n: "0")


@dataclass
class ConeResult:
    """Outcome of a limit/colimit search.

    `apex` is the winning vertex of the ambient set and `cone` the
    corresponding cone map out of (or into) the join; `passers` lists
    the apexes of every cone vertex that passed, in the deterministic
    enumeration order of the slice.
    """

    apex: str | None
    cone: SimplicialMap | None
    verified_to: int
    passers: tuple

    def __bool__(self):
        return self.apex is not None


def _cone_search(p, N, under):
    """The first final vertex of the slice (initial vertex of the coslice when `under`)."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    sl, _, vertex_of = (coslice_data if under else slice_data)(p, N)
    apex = (right_cone if under else left_cone)(p.source).apex
    extremal = is_initial if under else is_final
    cones = [vertex_of[name] for name in sl.gens[0] if extremal(sl, name, N).holds]
    if not cones:
        return ConeResult(None, None, N, ())
    passers = tuple(F.assign[apex].gen for F in cones)
    return ConeResult(passers[0], cones[0], N, passers)


def limit(p, N):
    """A limit cone of the diagram p : K -> S, certified to depth N.

    Builds the slice to depth N and scans its vertices for finality;
    the first passer in enumeration order wins.
    """
    return _cone_search(p, N, under=False)


def colimit(p, N):
    """A colimit cone of p : K -> S, dual to limit via the coslice."""
    return _cone_search(p, N, under=True)
