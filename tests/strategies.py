"""Hypothesis strategies shared by the test modules."""

import itertools

from hypothesis import strategies as st

from finsimp.categories import (
    as_groupoid,
    discrete_category,
    disjoint_union_category,
    monoid_category,
    poset_category,
)
from finsimp.groups import one_object_groupoid, perm_group
from finsimp.simplicial import SimplexRef, SimplicialSet, face, simplices, validate


@st.composite
def small_simplicial_sets(draw):
    """A valid bound-2 set: a few vertices, edges (loops allowed) and triangles.

    Triangles are drawn from all face triples of 1-simplices, degenerate
    ones included, with d_i y_j = d_{j-1} y_i for i < j, and may repeat,
    so fillers can be missing or multiple.
    """
    verts = [f"v{j}" for j in range(draw(st.integers(1, 3)))]
    ends = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)), max_size=4))
    edges = [f"e{j}" for j in range(len(ends))]
    faces = {e: (SimplexRef((), b, 0), SimplexRef((), a, 0)) for e, (a, b) in zip(edges, ends)}
    skeleton = SimplicialSet([verts, edges], faces)
    triples = [
        ys for ys in itertools.product(simplices(skeleton, 1), repeat=3)
        if all(face(skeleton, i, ys[j]) == face(skeleton, j - 1, ys[i]) for j in range(3) for i in range(j))
    ]
    tops = draw(st.lists(st.sampled_from(triples), max_size=4))
    faces.update((f"t{j}", ys) for j, ys in enumerate(tops))
    S = SimplicialSet([verts, edges, [f"t{j}" for j in range(len(tops))]], faces)
    assert validate(S) == []
    return S


@st.composite
def small_perm_groups(draw, max_degree=3):
    """perm_group of degree 1 to max_degree on 0 to 2 random permutations."""
    degree = draw(st.integers(1, max_degree))
    return perm_group(degree, draw(st.lists(st.permutations(range(degree)), max_size=2)))


@st.composite
def _groupoid_pieces(draw):
    """A one-object groupoid of a small_perm_groups group, or a discrete one."""
    if draw(st.booleans()):
        return one_object_groupoid(draw(small_perm_groups()))
    return as_groupoid(discrete_category([f"o{j}" for j in range(draw(st.integers(0, 2)))]))


def small_groupoids():
    """A groupoid piece (see _groupoid_pieces) or the disjoint union of two."""
    pieces = _groupoid_pieces()
    return st.one_of(
        pieces,
        st.builds(lambda C, D: as_groupoid(disjoint_union_category(C, D)), pieces, pieces),
    )


@st.composite
def small_posets(draw, max_points=4):
    """(category, leq) of a poset on 1 to max_points points p0, p1, ...; leq is its order on the names.

    Each pair i < j is drawn related or not, then closed transitively,
    so every finite poset up to relabelling can come out.
    """
    names = [f"p{j}" for j in range(draw(st.integers(1, max_points)))]
    below = {(a, a) for a in names}
    below |= {(a, b) for a, b in itertools.combinations(names, 2) if draw(st.booleans())}
    for b, a, c in itertools.product(names, repeat=3):  # b outermost: Warshall's closure
        if (a, b) in below and (b, c) in below:
            below.add((a, c))

    def leq(a, b):
        return (a, b) in below

    return poset_category(names, leq), leq


def _self_maps():
    return st.lists(st.integers(0, 2), min_size=3, max_size=3).map(tuple)


def _monoid_of(maps):
    """The one-object category of the monoid of self-maps of {0, 1, 2} that `maps` generate.

    Its elements are listed breadth first from the identity, each
    element composed with every map in turn; for one map, its powers.
    """
    elements = [(0, 1, 2)]
    for g in elements:  # the list grows as it is read
        for f in maps:
            if (fg := tuple(f[x] for x in g)) not in elements:
                elements.append(fg)
    name = {g: "m" + "".join(map(str, g)) for g in elements}
    mul = {(name[g], name[h]): name[tuple(g[x] for x in h)] for g in elements for h in elements}
    return monoid_category("pt", list(name.values()), name[(0, 1, 2)], mul)


def _cyclic_monoids():
    """The one-object category of the monoid generated by one self-map of {0, 1, 2}."""
    return _self_maps().map(lambda f: _monoid_of([f]))


def small_monoids(max_size=8):
    """The one-object category of the monoid generated by two self-maps of {0, 1, 2}, of at most max_size elements.

    Two maps generate up to 24 elements; about three draws in four
    have at most 8.
    """
    return st.lists(_self_maps(), min_size=2, max_size=2).map(_monoid_of).filter(
        lambda C: len(C.morphisms) <= max_size
    )


def small_categories():
    """A poset on at most 5 points, a cyclic transformation monoid on {0, 1, 2}, or the union of two.

    A chain of 5 points has non-degenerate 4-simplices, so scans at depth 4 have work to do.
    """
    pieces = st.one_of(small_posets(5).map(lambda pair: pair[0]), _cyclic_monoids())
    return st.one_of(pieces, st.builds(disjoint_union_category, pieces, pieces))
