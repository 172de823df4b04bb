"""Hypothesis strategies shared by the test modules."""

import itertools

from hypothesis import strategies as st

from finsimp.categories import as_groupoid, discrete_category, disjoint_union_category
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
def _groupoid_pieces(draw):
    """A one-object groupoid of a perm_group of degree <= 3 on 1-2 random generators, or a discrete one."""
    if draw(st.booleans()):
        degree = draw(st.integers(1, 3))
        gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=2))
        return one_object_groupoid(perm_group(degree, gens))
    return as_groupoid(discrete_category([f"o{j}" for j in range(draw(st.integers(0, 2)))]))


def small_groupoids():
    """A groupoid piece (see _groupoid_pieces) or the disjoint union of two."""
    pieces = _groupoid_pieces()
    return st.one_of(
        pieces,
        st.builds(lambda C, D: as_groupoid(disjoint_union_category(C, D)), pieces, pieces),
    )
