"""Slices, coslices, mapping spaces and (co)limits built on value rows.

The compose-based constructions in reference_family are the oracle:
the row-based ones must give equal sets, the same level maps in the
same order, the same vertex maps and the same cone results.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import reference_family as ref
from finsimp import constructions, simplicial
from finsimp.categories import arrow_category, chain_category, nerve, poset_category
from finsimp.constructions import coslice_data, coslice_under, slice_data, slice_over
from finsimp.groups import cyclic_group, one_object_groupoid
from finsimp.limits import colimit, limit, mapping_space
from finsimp.simplicial import (
    EMPTY,
    SimplicialMap,
    discrete_simplicial_set,
    enumerate_maps,
    map_rows,
    maps_of_rows,
    standard_simplex,
)


def diagram(N, objects):
    K = discrete_simplicial_set([f"k{j}" for j in range(len(objects))]) if objects else EMPTY
    return SimplicialMap(K, N, {f"k{j}": N.generator(o) for j, o in enumerate(objects)})


def assert_matches_reference(p, depth):
    for data, want_data, sset, cone, want_cone in [
        (slice_data, ref.slice_data, slice_over, limit, False),
        (coslice_data, ref.coslice_data, coslice_under, colimit, True),
    ]:
        got, want = data(p, depth), want_data(p, depth)
        assert got[0] == want[0]
        assert got[1] == want[1]  # the same maps (sources, targets, values), level by level, in order
        assert got[2] == want[2]
        assert sset(p, depth) == want[0]
        if depth >= 1:
            assert cone(p, depth) == ref.cone_search(p, depth, want_cone)


def corpus_diagrams(corpus):
    for name, C, _ in corpus:
        N = nerve(C, 3)
        objects = list(C.objects)
        yield name, diagram(N, [])
        yield name, diagram(N, objects[:1])
        yield name, diagram(N, [objects[0], objects[-1]])


def test_slices_and_cones_match_the_compose_reference_on_the_corpus(corpus):
    for name, p in corpus_diagrams(corpus):
        for depth in (0, 1) if name == "bs3" else (0, 1, 2):  # bs3 at depth 2 takes seconds
            assert_matches_reference(p, depth)


def test_mapping_spaces_match_the_compose_reference(corpus):
    for name, C, _ in corpus:
        N = nerve(C, 3)
        for x in C.objects[:2]:
            for y in C.objects[:2]:
                for depth in (0, 1, 2):
                    assert mapping_space(N, x, y, depth) == ref.mapping_space(N, x, y, depth), name


SMALL_CATEGORIES = [
    chain_category(2),
    arrow_category(),
    one_object_groupoid(cyclic_group(2)),
    poset_category(["a", "b", "c"], lambda x, y: x == y or (x, y) in {("a", "b"), ("a", "c")}),
]


@settings(max_examples=12)
@given(
    st.sampled_from(SMALL_CATEGORIES).flatmap(
        lambda C: st.tuples(st.just(C), st.lists(st.sampled_from(C.objects), max_size=2))
    ),
    st.integers(1, 3),
)
def test_discrete_diagrams_match_the_compose_reference(case, depth):
    C, objects = case
    N = nerve(C, depth + 1)
    p = diagram(N, objects)
    assert_matches_reference(p, depth)
    x, y = C.objects[0], C.objects[-1]
    assert mapping_space(N, x, y, depth - 1) == ref.mapping_space(N, x, y, depth - 1)


def test_cone_searches_compose_and_hash_no_maps(monkeypatch):
    # the slice is built and scanned on value rows: no composite and no map hash
    divisors = ["1", "2", "3", "4", "6", "12"]
    N = nerve(poset_category(divisors, lambda a, b: int(b) % int(a) == 0), 4)
    p = diagram(N, ["4", "6"])
    want = ref.cone_search(p, 2, False), ref.cone_search(p, 2, True)

    def boom(*args):
        raise AssertionError("a map was composed or hashed")

    monkeypatch.setattr(constructions, "compose", boom, raising=False)
    monkeypatch.setattr(simplicial, "compose", boom)
    monkeypatch.setattr(SimplicialMap, "__hash__", boom)
    assert (limit(p, 2), colimit(p, 2)) == want
    assert want[0].apex == "2" and want[1].apex == "12"


def test_map_rows_are_enumerate_maps_values():
    A, B = standard_simplex(2), nerve(chain_category(2), 3)
    rows = map_rows(A, B)
    assert all(isinstance(x, int) for row in rows for x in row)
    assert maps_of_rows(A, B, rows) == enumerate_maps(A, B)
    assert map_rows(A, B, limit=3) == rows[:3]
    assert maps_of_rows(A, B, rows[:3]) == enumerate_maps(A, B, limit=3)
