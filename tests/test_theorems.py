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
  and their join, and there is no apex when these do not exist.
"""

from hypothesis import given, settings, strategies as st

from finsimp.categories import categories_isomorphic, is_groupoid, nerve, nerve_detect
from finsimp.lifting import has_unique_inner_fillers, is_kan, is_quasicategory
from finsimp.limits import colimit, is_final, is_initial, limit, mapping_space
from finsimp.simplicial import SimplicialMap, discrete_simplicial_set
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
