"""Theorems about nerves of categories, checked on generated categories.

The categories come from the `small_categories` strategy: posets on at
most 5 points, monoids generated by one self-map of {0, 1, 2}, and
disjoint unions of two of these.  Each property is a theorem about the
nerve N(C), so it must hold on every draw:
- N(C) is Kan exactly when C is a groupoid (Joyal, *Quasi-categories
  and Kan complexes*, 2002);
- N(C) is a quasi-category whose inner horns fill uniquely, and
  nerve_detect gives C back up to isomorphism;
- a vertex is final exactly when it is terminal, and initial exactly
  when it is initial (Lurie, *Higher Topos Theory*, 1.2.12);
- the mapping space from x to y is the discrete set Hom(x, y);
- in a poset, the limit and the colimit of two points are their meet
  and their join, and there is no apex when these do not exist;
- the nerve preserves products: N(C x D) is N(C) x N(D) (Lurie,
  *Kerodon*, on the nerve of a category);
- a nerve is 2-coskeletal: every n-sphere in it, n >= 3, has exactly
  one filler (Kerodon, on the nerve of a category);
- the nerve takes joins of categories to joins: N(C * D) is
  N(C) * N(D) (Joyal, *Quasi-categories and Kan complexes*, 2002); so
  the cone on the window nerve(C, k) is the nerve of the cone on C
  through level k, the bound at which the cone on a window stops.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from finsimp.categories import (
    FiniteCategory,
    categories_isomorphic,
    chain_category,
    is_groupoid,
    join_categories,
    nerve,
    nerve_detect,
    poset_category,
    terminal_category,
)
from finsimp.constructions import join, left_cone, product, right_cone
from finsimp.groups import cyclic_group, one_object_groupoid, symmetric_group
from finsimp.lifting import _unfilled, has_unique_inner_fillers, is_kan, is_quasicategory
from finsimp.limits import colimit, is_final, is_initial, limit, mapping_space
from finsimp.simplicial import SimplicialMap, TruncationError, discrete_simplicial_set, find_isomorphism, truncate
from strategies import small_categories, small_posets


@settings(max_examples=40)
@given(small_categories())
def test_nerve_is_kan_exactly_for_groupoids(C):
    assert is_kan(nerve(C, 4), 3).holds == is_groupoid(C).holds


@settings(max_examples=40)
@given(small_categories())
def test_nerve_is_a_quasicategory_that_gives_its_category_back(C):
    N = nerve(C, 4)
    assert is_quasicategory(N, 3)
    assert has_unique_inner_fillers(N, 3)
    detected = nerve_detect(N)
    assert detected.reason is None
    assert categories_isomorphic(detected.category, C)


@settings(max_examples=40)
@given(small_categories())
def test_final_vertices_are_terminal_objects(C):
    N = nerve(C, 4)
    for v in C.objects:
        assert is_final(N, v, 3).holds == all(len(C.hom(x, v)) == 1 for x in C.objects)
        assert is_initial(N, v, 3).holds == all(len(C.hom(v, x)) == 1 for x in C.objects)


@settings(max_examples=30)
@given(small_categories())
def test_the_scans_agree_with_the_theorems_at_depth_four(C):
    # a chain of 5 poset points has non-degenerate 4-simplices, so the depth-4 scans have work
    N = nerve(C, 4)
    assert is_kan(N, 4).holds == is_groupoid(C).holds
    assert has_unique_inner_fillers(N, 4)
    for v in C.objects:
        assert is_final(N, v, 4).holds == all(len(C.hom(x, v)) == 1 for x in C.objects)
        assert is_initial(N, v, 4).holds == all(len(C.hom(v, x)) == 1 for x in C.objects)


@settings(max_examples=30)
@given(small_categories())
def test_mapping_spaces_are_discrete_hom_sets(C):
    N = nerve(C, 4)
    for x in C.objects:
        for y in C.objects:
            M = mapping_space(N, x, y, 1)
            assert not M.gens[1]
            assert len(M.gens[0]) == len(C.hom(x, y))


def greatest_lower_bound(names, leq, a, b):
    """The greatest point below both a and b under leq, or None."""
    lower = [c for c in names if leq(c, a) and leq(c, b)]
    return next((m for m in lower if all(leq(c, m) for c in lower)), None)


@settings(max_examples=60)
@given(small_posets(), st.data())
def test_limits_of_two_points_are_meets_and_colimits_joins(poset, data):
    C, leq = poset
    N = nerve(C, 4)
    a, b = (data.draw(st.sampled_from(C.objects)) for _ in range(2))
    K = discrete_simplicial_set(["p", "q"])
    pair = SimplicialMap(K, N, {"p": N.generator(a), "q": N.generator(b)})
    assert limit(pair, 2).apex == greatest_lower_bound(C.objects, leq, a, b)
    assert colimit(pair, 2).apex == greatest_lower_bound(C.objects, lambda c, d: leq(d, c), a, b)


def product_category(C, D):
    """C x D, every object and morphism named as the product of the nerves names the pair of simplices.

    An identity coordinate is the degenerate edge s0 on its object, and
    objects and non-identities are declared in name order, so the nerve
    of C x D lists vertices and edges in the order of the product of nerves.
    """

    def label(E, m):
        return f"s0_{E.src[m]}" if E.is_identity(m) else m

    obj = {(a, b): f"({a})x({b})" for a in C.objects for b in D.objects}
    mor = {
        (f, g): f"({label(C, f)})x({label(D, g)})" if not (C.is_identity(f) and D.is_identity(g))
        else f"id_{obj[(C.src[f], D.src[g])]}"
        for f in C.morphisms for g in D.morphisms
    }
    src = {name: obj[(C.src[f], D.src[g])] for (f, g), name in mor.items()}
    tgt = {name: obj[(C.tgt[f], D.tgt[g])] for (f, g), name in mor.items()}
    comp = {
        (mor[(g1, g2)], mor[(f1, f2)]): mor[(C.comp[(g1, f1)], D.comp[(g2, f2)])]
        for (g1, f1) in C.comp for (g2, f2) in D.comp
    }
    identities = {obj[(a, b)]: mor[(C.identities[a], D.identities[b])] for a, b in obj}
    ids = set(identities.values())
    morphisms = sorted(ids) + sorted(set(mor.values()) - ids)
    return FiniteCategory(sorted(obj.values()), morphisms, src, tgt, comp, identities)


@settings(max_examples=30)
@given(small_categories(), small_categories(), st.integers(1, 3))
@example(one_object_groupoid(cyclic_group(2)), chain_category(1), 3)
@example(one_object_groupoid(cyclic_group(3)), one_object_groupoid(cyclic_group(2)), 2)
def test_the_nerve_preserves_products(C, D, depth):
    # identity coordinates are degenerate edges, (f, id) is the pair (f, s0 a); the
    # groupoid examples add degenerate faces, where f after its inverse is an identity
    N = nerve(product_category(C, D), depth)
    P = truncate(product(nerve(C, depth), nerve(D, depth)), depth)
    iso = find_isomorphism(N, P)
    assert iso is not None
    assert N.truncated == P.truncated
    # the comparison map keeps the names of vertices and edges
    assert all(iso.assign[g].gen == g for level in N.gens[:2] for g in level)


def not_one_filler(_, fillers):
    return None if len(fillers) == 1 else len(fillers)


@settings(max_examples=30)
@given(small_categories())
@example(chain_category(4))
@example(one_object_groupoid(symmetric_group(3)))
@example(poset_category(["1", "2", "3", "6"], lambda a, b: int(b) % int(a) == 0))
def test_nerves_are_2_coskeletal(C):
    # unpinned, and with the last vertex pinned to each vertex, as the finality scans pin it
    N = nerve(C, 4)
    for n in (3, 4):
        assert _unfilled(N, n, None, not_one_filler) is None
        for v in N.gens[0]:
            assert _unfilled(N, n, None, not_one_filler, {str(n): N.generator(v)}) is None


@settings(max_examples=30)
@given(small_categories(), small_categories())
@example(chain_category(1), chain_category(2))
@example(one_object_groupoid(cyclic_group(2)), chain_category(1))
@example(chain_category(0), one_object_groupoid(cyclic_group(3)))
def test_the_nerve_preserves_joins(C, D):
    # truncated at 3 on both sides: the join of two windows is not compared past its bound
    N = nerve(join_categories(C, D), 3)
    J = truncate(join(nerve(C, 3), nerve(D, 3)), 3)
    assert find_isomorphism(N, J) is not None


@settings(max_examples=30)
@given(small_categories(), st.integers(0, 3))
@example(chain_category(2), 1)
@example(one_object_groupoid(cyclic_group(2)), 2)
def test_the_cone_on_a_window_is_the_nerve_of_the_cone_category_through_its_bound(C, k):
    # the window nerve(C, k) knows the cone up to level k only: a truncated cone stops there
    W = nerve(C, k)
    point = terminal_category()
    for cone, category in ((right_cone, join_categories(C, point)), (left_cone, join_categories(point, C))):
        K = cone(W).sset
        assert (K.bound, K.truncated) == ((k, True) if W.truncated else (k + 1, False))
        N = nerve(category, k)
        T = truncate(K, k)
        assert T.truncated == N.truncated
        assert find_isomorphism(N, T) is not None
        if K.bound:
            assert is_quasicategory(K, K.bound)
        if K.truncated:
            with pytest.raises(TruncationError):
                is_quasicategory(K, K.bound + 1)
