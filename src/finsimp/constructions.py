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
  strips the shared letters and reindexes the rest.  Faces are read
  as id pairs from the factors' numbered levels, with one normal form
  per distinct pair; a truncated factor cuts the product at its bound.

* The slice of p : K -> S in dimension n is the set of maps from the
  join of the standard n-simplex with K into S restricting to p; faces
  and degeneracies precompose with coface/codegeneracy joined with the
  identity of K.  Coslices are dual.  Slices, coslices and the mapping
  spaces of `limits` are one construction, `_family_maps`: pinned maps
  out of a family of shapes over the standard simplices, kept as the
  id rows of map_rows (the ids of a map's values on its source's
  generators, in order).  Each induced coface and codegeneracy becomes
  a gather plan once per (n, k): per generator, an index into the row
  and a degeneracy column of the target's numbered levels.  So a face
  or degeneracy of a row is one list read per value, and the rows file
  into from_level_data as int tuples.  Rows become SimplicialMaps
  (maps_of_rows) only for what slice_data and coslice_data return.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add
from typing import NamedTuple

from .simplicial import (
    EMPTY,
    MAX_DIM,
    DimensionError,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    _column,
    codegeneracy_map,
    coface_map,
    from_level_data,
    identity_map,
    map_rows,
    maps_of_rows,
    numbered_level,
    standard_simplex,
)


# ---------------------------------------------------------------------------
# Join.


class JoinParts(NamedTuple):
    """A join together with its generator naming maps."""

    sset: SimplicialSet
    left: dict
    right: dict
    mixed: dict


def _mixed_ref(mixed, r1, r2):
    """Normal form of the mixed simplex with coordinates r1 (left), r2 (right); `mixed` names the pairs.

    The left word survives unchanged; the right word shifts past the
    left coordinate (its letters move up by dim(r1) + 1).  The ranges
    never overlap because a valid left word lies below dim(r1).
    """
    shifted = set(r1.word) | {r1.dim + 1 + t for t in r2.word}
    word = tuple(sorted(shifted, reverse=True))
    gen = mixed[(r1.gen, r2.gen)]
    return SimplexRef(word, gen, r1.dim + r2.dim + 1)


# join_parts and product_parts keep this many recent factor pairs: one
# slice, coslice or mapping space asks for at most MAX_DIM + 2, and a
# bound lets the sets of finished constructions be freed
PARTS_CACHE_SIZE = 64


@lru_cache(maxsize=PARTS_CACHE_SIZE)
def join_parts(S, T):
    """The join with its naming maps; identity-shaped parts on empty factors.

    A truncated factor cuts the join at its bound: level n of S * T
    reads the levels up to n of both factors, so past the bound of a
    window it is not known.
    """
    if S.bound < 0:
        return JoinParts(T, {}, {g: g for level in T.gens for g in level}, {})
    if T.bound < 0:
        return JoinParts(S, {g: g for level in S.gens for g in level}, {}, {})
    bound = min([S.bound + T.bound + 1] + [F.bound for F in (S, T) if F.truncated])
    if bound > MAX_DIM:
        raise DimensionError(f"join bound {bound} exceeds the supported maximum {MAX_DIM}")

    left = {g: f"l.{g}" for level in S.gens[:bound + 1] for g in level}
    right = {g: f"r.{g}" for level in T.gens[:bound + 1] for g in level}
    mixed = {}
    for a in range(min(S.bound, bound - 1) + 1):
        for x in S.gens[a]:
            for b in range(min(T.bound, bound - 1 - a) + 1):
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

    faces = {}
    for g, refs in S.face_table.items():
        if g in left:
            faces[left[g]] = tuple(SimplexRef(r.word, left[r.gen], r.dim) for r in refs)
    for g, refs in T.face_table.items():
        if g in right:
            faces[right[g]] = tuple(SimplexRef(r.word, right[r.gen], r.dim) for r in refs)
    for (x, y), name in mixed.items():
        # d_0..d_a act on the left coordinate, the rest on the right; deleting a vertex leaves the other side
        a = S.gen_dim[x]
        b = T.gen_dim[y]
        xr = SimplexRef((), x, a)
        yr = SimplexRef((), y, b)
        refs = [_mixed_ref(mixed, r, yr) for r in S.face_table[x]] if a else [SimplexRef((), right[y], b)]
        refs += [_mixed_ref(mixed, xr, r) for r in T.face_table[y]] if b else [SimplexRef((), left[x], a)]
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
        assign[name] = _mixed_ref(tgt.mixed, f.assign[x], g.assign[y])
    return SimplicialMap(src.sset, tgt.sset, assign)


class Cone(NamedTuple):
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


class ProductParts(NamedTuple):
    """A binary product with its generator naming maps."""

    sset: SimplicialSet
    pairs: dict
    names: dict


@lru_cache(maxsize=1024)
def _split(w1, w2):
    """The shared letters of two degeneracy words, and each word with them stripped.

    The shared letters, decreasing, are the word of the pair; a
    leftover letter drops by the number of smaller shared letters.
    """
    shared = set(w1) & set(w2)

    def strip(w):
        return tuple(x - sum(1 for t in shared if t < x) for x in w if x not in shared)

    return tuple(sorted(shared, reverse=True)), strip(w1), strip(w2)


def _product_ref(parts, r1, r2):
    """Normal form of the pair (r1, r2): the shared letters over the pair of what is left."""
    word, w1, w2 = _split(r1.word, r2.word)
    m = r1.dim - len(word)
    gen = parts.names.get((SimplexRef(w1, r1.gen, m), SimplexRef(w2, r2.gen, m)))
    if gen is None:
        raise TruncationError(f"a pair of dimension {m} lies past the product's window bound {parts.sset.bound}")
    return SimplexRef(word, gen, r1.dim)


@lru_cache(maxsize=PARTS_CACHE_SIZE)
def product_parts(S, T):
    """The product with generator pairs = same-dimension refs, disjoint words.

    A truncated factor cuts the product at its bound.  The faces of a
    pair are read as id pairs from the factors' numbered levels, and
    each distinct id pair gets one normal form, shared by every face
    tuple that names it.
    """
    if S.bound < 0 or T.bound < 0:
        return ProductParts(EMPTY, {}, {})
    bound = min([S.bound + T.bound] + [F.bound for F in (S, T) if F.truncated])
    if bound > MAX_DIM:
        raise DimensionError(f"product bound {bound} exceeds the supported maximum {MAX_DIM}")
    pairs, names, faces, gens_by_dim = {}, {}, {}, []
    placeholder = ProductParts(None, pairs, names)
    for n in range(bound + 1):
        level, memo = [], {}  # memo: normal form per face id pair y1 * width + y2
        L1, L2 = numbered_level(S, n), numbered_level(T, n)
        labels1, labels2 = list(map(_ref_label, L1.refs)), list(map(_ref_label, L2.refs))
        if n:  # the faces are pairs one level down, named already
            width = len(low2)
            rows1 = [[y * width for y in row] for row in zip(*L1.faces)]
            rows2 = list(zip(*L2.faces))
        for word, run in L1.blocks.items():
            partners = [z2 for w2, run2 in L2.blocks.items() if set(word).isdisjoint(w2) for z2 in run2]
            for z1 in run:
                r1, label = L1.refs[z1], labels1[z1]
                for z2 in partners:
                    name = f"({label})x({labels2[z2]})"
                    pairs[name] = pair = (r1, L2.refs[z2])
                    names[pair] = name
                    level.append(name)
                    if n:
                        faces[name] = tuple(
                            [
                                memo.get(k)
                                or memo.setdefault(k, _product_ref(placeholder, low1[k // width], low2[k % width]))
                                for k in map(add, rows1[z1], rows2[z2])
                            ]
                        )
        gens_by_dim.append(level)
        low1, low2 = L1.refs, L2.refs
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


def _gather_plan(S, f):
    """f as a gather on rows into S: per generator x of f's source, (i, column) for f(x) = s_w g.

    i indexes g among f's target's generators in declaration order, the
    order of a row, and the column takes the id of a value on g in S's
    numbered levels to that of s_w of it (_column), or is None when w
    is empty.  So a row F of a map out of f's target into S gives F
    after f as _gather(plan, F).
    """
    index = {g: i for i, g in enumerate(g for level in f.target.gens for g in level)}
    refs = (f.assign[x] for level in f.source.gens for x in level)
    return tuple((index[r.gen], _column(S, r.dim - len(r.word), (), r.word) if r.word else None) for r in refs)


def _gather(plan, row):
    return tuple([row[i] if col is None else col[row[i]] for i, col in plan])


def _family_maps(S, depth, shape, induced, pin):
    """The simplicial set of pinned maps from a family of shapes into S, to `depth`.

    `shape(n)` is the family's shape over the standard n-simplex and
    `induced(theta)` the family's map for a map theta of standard
    simplices (theta joined with, or multiplied by, an identity).
    Level n lists the maps from shape(n) into S that agree with
    `pin(n)`, as id rows (map_rows) in enumeration order.  Faces and
    degeneracies precompose with the induced cofaces and codegeneracies,
    each turned into a gather plan on S's numbered levels once.  Returns
    (sset, levels); the level-0 rows are the vertices sset.gens[0], in
    order.
    """
    levels = [map_rows(shape(n), S, fixed=pin(n)) for n in range(depth + 1)]
    coface = {
        (n, k): _gather_plan(S, induced(coface_map(n, k))) for n in range(1, depth + 1) for k in range(n + 1)
    }
    codegeneracy = {
        (n, k): _gather_plan(S, induced(codegeneracy_map(n + 1, k))) for n in range(depth) for k in range(n + 1)
    }
    sset, _ = from_level_data(
        levels,
        lambda n, k, row: _gather(coface[(n, k)], row),
        lambda n, k, row: _gather(codegeneracy[(n, k)], row),
    )
    return sset, levels


def _cone_rows(p, depth, under):
    """The slice of p, or the coslice when `under`, with its level rows.

    Level n holds the maps (simplex * K) -> S, or (K * simplex) -> S,
    restricting to p on K, as id rows over shape(n), the join.  A
    truncated S must hold every generator of shape(depth) within its
    bound.  K must be complete: a join with a window stops at the
    window's bound, below the simplices a cone on K adds.  Returns
    (sset, shape, levels).
    """
    K, S = p.source, p.target
    what = "coslice" if under else "slice"
    if depth < 0 or depth > MAX_DIM:
        raise DimensionError(f"{what} depth {depth} outside 0..{MAX_DIM}")
    if K.truncated:
        raise TruncationError(f"{what} of a map out of a window needs simplices past its bound {K.bound}")
    id_K = identity_map(K)

    def joined(simplex_part, k_part):
        return (k_part, simplex_part) if under else (simplex_part, k_part)

    def shape(n):
        return join_parts(*joined(standard_simplex(n), K)).sset

    def pin(n):
        parts = join_parts(*joined(standard_simplex(n), K))
        return {name: p.assign[y] for y, name in (parts.left if under else parts.right).items()}

    if S.truncated and any(shape(depth).gens[S.bound + 1:]):
        raise TruncationError(f"{what} to depth {depth} needs simplices past the window bound {S.bound}")
    induced = lambda theta: join_of_maps(*joined(theta, id_K))
    sset, levels = _family_maps(S, depth, shape, induced, pin)
    return sset, shape, levels


def _cone_maps(p, depth, under):
    """_cone_rows with the rows made SimplicialMaps: (sset, level maps, vertex_of)."""
    sset, shape, levels = _cone_rows(p, depth, under)
    maps = [maps_of_rows(shape(n), p.target, rows) for n, rows in enumerate(levels)]
    return sset, maps, dict(zip(sset.gens[0], maps[0]))


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
    return _cone_rows(p, depth, under=False)[0]


def coslice_data(p, depth):
    """Dual of slice_data: maps (K * simplex) -> S restricting to p on K."""
    return _cone_maps(p, depth, under=True)


def coslice_under(p, depth):
    """The coslice simplicial set of the map p : K -> S, up to `depth`."""
    return _cone_rows(p, depth, under=True)[0]
