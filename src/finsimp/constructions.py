"""Joins, cones, products, slices and coslices.

All constructions present their output in generator/face-table form,
so the cardinality bookkeeping is exact:

* (S * T)_n = S_n + T_n + sum over i+j=n-1 of S_i x T_j; a mixed
  simplex (sigma, tau) is non-degenerate iff both coordinates are, so
  the generators are the pure generators of each side plus all pairs
  of generators.  The normal form of a mixed pair glues the left word
  with the right word shifted past the left coordinate.

* (S x T)_n = S_n x T_n; a pair is degenerate exactly when the two
  degeneracy words share a letter, so the generators in dimension n
  are the pairs of n-simplices with disjoint words.  Normalisation
  strips the shared letters and reindexes the rest.

* The slice of p : K -> S in dimension n is the set of maps from the
  join of the standard n-simplex with K into S restricting to p; faces
  and degeneracies precompose with coface/codegeneracy joined with the
  identity of K.  Coslices are dual.  Slices, coslices and the mapping
  spaces of `limits` are one construction, `_family_maps`: pinned maps
  out of a family of shapes over the standard simplices, with the
  induced cofaces and codegeneracies built once per (n, k).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .simplicial import (
    EMPTY,
    MAX_DIM,
    DimensionError,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    codegeneracy_map,
    coface_map,
    compose,
    enumerate_maps,
    face,
    from_level_data,
    identity_map,
    simplices,
    standard_simplex,
)


# ---------------------------------------------------------------------------
# Join.


@dataclass(frozen=True)
class JoinParts:
    """A join together with its generator naming maps."""

    sset: SimplicialSet
    left: dict
    right: dict
    mixed: dict


def _mixed_ref(parts, r1, r2):
    """Normal form of the mixed simplex with coordinates r1 (left), r2 (right).

    The left word survives unchanged; the right word shifts past the
    left coordinate (its letters move up by dim(r1) + 1).  The ranges
    never overlap because a valid left word lies below dim(r1).
    """
    shifted = set(r1.word) | {r1.dim + 1 + t for t in r2.word}
    word = tuple(sorted(shifted, reverse=True))
    gen = parts.mixed[(r1.gen, r2.gen)]
    return SimplexRef(word, gen, r1.dim + r2.dim + 1)


@lru_cache(maxsize=None)
def join_parts(S, T):
    """The join with its naming maps; identity-shaped parts on empty factors."""
    if S.bound < 0:
        return JoinParts(T, {}, {g: g for level in T.gens for g in level}, {})
    if T.bound < 0:
        return JoinParts(S, {g: g for level in S.gens for g in level}, {}, {})
    bound = S.bound + T.bound + 1
    if bound > MAX_DIM:
        raise DimensionError(f"join bound {bound} exceeds the supported maximum {MAX_DIM}")

    left = {g: f"l.{g}" for level in S.gens for g in level}
    right = {g: f"r.{g}" for level in T.gens for g in level}
    mixed = {}
    for a in range(S.bound + 1):
        for x in S.gens[a]:
            for b in range(T.bound + 1):
                for y in T.gens[b]:
                    mixed[(x, y)] = f"({x})*({y})"

    gens_by_dim = []
    for n in range(bound + 1):
        level = []
        if n <= S.bound:
            level.extend(left[g] for g in S.gens[n])
        if n <= T.bound:
            level.extend(right[g] for g in T.gens[n])
        for a in range(min(n - 1, S.bound) + 1):
            b = n - 1 - a
            if b > T.bound:
                continue
            for x in S.gens[a]:
                for y in T.gens[b]:
                    level.append(mixed[(x, y)])
        gens_by_dim.append(level)

    placeholder = JoinParts(None, left, right, mixed)
    faces = {}
    for g, refs in S.face_table.items():
        faces[left[g]] = tuple(SimplexRef(r.word, left[r.gen], r.dim) for r in refs)
    for g, refs in T.face_table.items():
        faces[right[g]] = tuple(SimplexRef(r.word, right[r.gen], r.dim) for r in refs)
    for (x, y), name in mixed.items():
        a = S.gen_dim[x]
        b = T.gen_dim[y]
        xr = SimplexRef((), x, a)
        yr = SimplexRef((), y, b)
        refs = []
        for k in range(a + 1):
            if a == 0:
                refs.append(SimplexRef((), right[y], b))
            else:
                refs.append(_mixed_ref(placeholder, face(S, k, xr), yr))
        for k in range(b + 1):
            if b == 0:
                refs.append(SimplexRef((), left[x], a))
            else:
                refs.append(_mixed_ref(placeholder, xr, face(T, k, yr)))
        faces[name] = tuple(refs)

    sset = SimplicialSet(gens_by_dim, faces, truncated=S.truncated or T.truncated)
    return JoinParts(sset, left, right, mixed)


def join(S, T):
    """The join S * T; joining with the empty set returns the other factor."""
    return join_parts(S, T).sset


def join_of_maps(f, g):
    """The induced map between joins, (f * g) on mixed pairs coordinatewise."""
    src = join_parts(f.source, g.source)
    tgt = join_parts(f.target, g.target)
    assign = {}
    for x, name in src.left.items():
        r = f.assign[x]
        assign[name] = SimplexRef(r.word, tgt.left[r.gen], r.dim)
    for y, name in src.right.items():
        r = g.assign[y]
        assign[name] = SimplexRef(r.word, tgt.right[r.gen], r.dim)
    for (x, y), name in src.mixed.items():
        assign[name] = _mixed_ref(tgt, f.assign[x], g.assign[y])
    return SimplicialMap(src.sset, tgt.sset, assign)


@dataclass
class Cone:
    """A join against a point, with the apex vertex singled out."""

    sset: SimplicialSet
    apex: str


def left_cone(K):
    """Cone with the apex added as a new initial vertex (apex * K)."""
    pt = standard_simplex(0)
    parts = join_parts(pt, K)
    apex = parts.left.get("0", "0")
    return Cone(parts.sset, apex)


def right_cone(K):
    """Cone with the apex added as a new terminal vertex (K * apex)."""
    pt = standard_simplex(0)
    parts = join_parts(K, pt)
    apex = parts.right.get("0", "0")
    return Cone(parts.sset, apex)


# ---------------------------------------------------------------------------
# Product.


def _ref_label(r):
    if not r.word:
        return r.gen
    return "s" + "s".join(str(k) for k in r.word) + "_" + r.gen


@dataclass(frozen=True)
class ProductParts:
    """A binary product with its generator naming maps."""

    sset: SimplicialSet
    pairs: dict
    names: dict


def _product_ref(parts, r1, r2):
    """Normal form of the pair (r1, r2): strip the shared degeneracy letters.

    The shared letters (in both words) form the pair's word; the
    leftover letters reindex by the number of smaller shared letters.
    """
    shared = set(r1.word) & set(r2.word)
    word = tuple(sorted(shared, reverse=True))

    def strip(w):
        return tuple(x - sum(1 for t in shared if t < x) for x in w if x not in shared)

    core1 = SimplexRef(strip(r1.word), r1.gen, r1.dim - len(shared))
    core2 = SimplexRef(strip(r2.word), r2.gen, r2.dim - len(shared))
    gen = parts.names[(core1, core2)]
    return SimplexRef(word, gen, r1.dim)


@lru_cache(maxsize=None)
def product_parts(S, T):
    """The product with generator pairs = same-dimension refs, disjoint words."""
    if S.bound < 0 or T.bound < 0:
        return ProductParts(EMPTY, {}, {})
    bound = S.bound + T.bound
    if bound > MAX_DIM:
        raise DimensionError(
            f"product bound {bound} exceeds the supported maximum {MAX_DIM}"
        )
    pairs = {}
    names = {}
    gens_by_dim = []
    for n in range(bound + 1):
        level = []
        for r1 in simplices(S, n):
            for r2 in simplices(T, n):
                if set(r1.word) & set(r2.word):
                    continue
                name = f"({_ref_label(r1)})x({_ref_label(r2)})"
                pairs[name] = (r1, r2)
                names[(r1, r2)] = name
                level.append(name)
        gens_by_dim.append(level)

    placeholder = ProductParts(None, pairs, names)
    faces = {}
    for name, (r1, r2) in pairs.items():
        n = r1.dim
        if n == 0:
            continue
        faces[name] = tuple(
            _product_ref(placeholder, face(S, k, r1), face(T, k, r2))
            for k in range(n + 1)
        )
    sset = SimplicialSet(gens_by_dim, faces, truncated=S.truncated or T.truncated)
    return ProductParts(sset, pairs, names)


def product(S, T):
    """The levelwise product S x T."""
    return product_parts(S, T).sset


def product_of_maps(f, g):
    """The induced map between products, coordinatewise on generator pairs."""
    src = product_parts(f.source, g.source)
    tgt = product_parts(f.target, g.target)
    assign = {}
    for name, (r1, r2) in src.pairs.items():
        assign[name] = _product_ref(tgt, f.apply(r1), g.apply(r2))
    return SimplicialMap(src.sset, tgt.sset, assign)


def product_projections(S, T):
    """The two projection maps out of the product."""
    parts = product_parts(S, T)
    first = {name: r1 for name, (r1, _) in parts.pairs.items()}
    second = {name: r2 for name, (_, r2) in parts.pairs.items()}
    return (
        SimplicialMap(parts.sset, S, first),
        SimplicialMap(parts.sset, T, second),
    )


# ---------------------------------------------------------------------------
# Slices and coslices.


def _family_maps(S, depth, induced, pin):
    """The simplicial set of pinned maps from a family of shapes into S, to `depth`.

    `induced(theta)` is the family's map for a map theta of standard
    simplices (theta joined with, or multiplied by, an identity), and
    level n lists the maps from the shape over the n-simplex into S
    that agree with `pin(n)`, in enumeration order.  Faces and
    degeneracies precompose with the induced cofaces and codegeneracies,
    each built once.  Returns (sset, levels, to_ref) as from_level_data.
    """
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


def _cone_maps(p, depth, under):
    """Level elements and simplicial set of the slice, or the coslice when `under`.

    Level n holds the maps (simplex * K) -> S, or (K * simplex) -> S,
    restricting to p on K.
    """
    K, S = p.source, p.target
    if depth < 0 or depth > MAX_DIM:
        what = "coslice" if under else "slice"
        raise DimensionError(f"{what} depth {depth} outside 0..{MAX_DIM}")
    id_K = identity_map(K)

    def joined(simplex_part, k_part):
        return (k_part, simplex_part) if under else (simplex_part, k_part)

    def pin(n):
        parts = join_parts(*joined(standard_simplex(n), K))
        return {name: p.assign[y] for y, name in (parts.left if under else parts.right).items()}

    induced = lambda theta: join_of_maps(*joined(theta, id_K))
    sset, levels, to_ref = _family_maps(S, depth, induced, pin)
    vertex_of = {to_ref[(0, F)].gen: F for F in levels[0]}
    return sset, levels, vertex_of


def slice_data(p, depth):
    """Level elements and the slice simplicial set of maps under p.

    Level n holds the maps (simplex * K) -> S restricting to p on K.
    Returns (sset, level_elements, vertex_of) where level_elements[n]
    lists the maps in enumeration order and vertex_of names the level-0
    generator of each vertex map.
    """
    return _cone_maps(p, depth, under=False)


def slice_over(p, depth):
    """The slice simplicial set of the map p : K -> S, up to `depth`."""
    return slice_data(p, depth)[0]


def coslice_data(p, depth):
    """Dual of slice_data: maps (K * simplex) -> S restricting to p on K."""
    return _cone_maps(p, depth, under=True)


def coslice_under(p, depth):
    """The coslice simplicial set of the map p : K -> S, up to `depth`."""
    return coslice_data(p, depth)[0]
