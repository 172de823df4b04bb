"""Joins, cones, products, slices: cardinalities, identities, isomorphisms."""

import gc
import itertools
import math
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from finsimp import limits
from finsimp.categories import chain_category, join_categories, nerve
from finsimp.constructions import (
    Cone,
    _cone_rows,
    _product_ref,
    coslice_data,
    coslice_under,
    join,
    join_of_maps,
    join_parts,
    left_cone,
    product,
    product_of_maps,
    product_parts,
    product_projections,
    right_cone,
    slice_data,
    slice_over,
)
from finsimp.groups import cyclic_group, one_object_groupoid
from finsimp.lifting import is_quasicategory
from finsimp.limits import mapping_space
from finsimp.simplicial import (
    EMPTY,
    DimensionError,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    discrete_simplicial_set,
    enumerate_maps,
    face,
    find_isomorphism,
    identity_map,
    maps_of_rows,
    simplex_boundary,
    simplices,
    standard_simplex,
    truncate,
    validate,
)
from strategies import small_simplicial_sets


def join_level_oracle(S, T, n):
    """|S*T|_n by the defining formula on total simplex counts."""
    total = len(simplices(S, n)) + len(simplices(T, n))
    for i in range(n):
        total += len(simplices(S, i)) * len(simplices(T, n - 1 - i))
    return total


JOIN_PAIRS = [
    (lambda: standard_simplex(0), lambda: standard_simplex(1)),
    (lambda: standard_simplex(1), lambda: standard_simplex(1)),
    (lambda: standard_simplex(2), lambda: standard_simplex(1)),
    (lambda: simplex_boundary(2)[0], lambda: standard_simplex(0)),
    (lambda: nerve(one_object_groupoid(cyclic_group(2)), 2), lambda: standard_simplex(0)),
    (lambda: discrete_simplicial_set(["a", "b"]), lambda: standard_simplex(1)),
]


@pytest.mark.parametrize("mk_s,mk_t", JOIN_PAIRS)
def test_join_levels_match_formula(mk_s, mk_t):
    S, T = mk_s(), mk_t()
    J = join(S, T)
    assert validate(J) == []
    for n in range(J.bound + 1):
        assert len(simplices(J, n)) == join_level_oracle(S, T, n), n


def test_join_with_empty_returns_other_factor():
    S = standard_simplex(2)
    assert join(S, EMPTY) is S
    assert join(EMPTY, S) is S


def test_join_of_simplices_is_a_simplex():
    for i, j in [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (2, 1)]:
        J = join(standard_simplex(i), standard_simplex(j))
        assert find_isomorphism(J, standard_simplex(i + j + 1)) is not None, (i, j)


def test_join_bound_overflow():
    with pytest.raises(DimensionError):
        join(standard_simplex(5), standard_simplex(5))


def test_join_truncation_flag():
    N = nerve(one_object_groupoid(cyclic_group(2)), 2)
    assert N.truncated
    assert join(N, standard_simplex(0)).truncated
    assert not join(standard_simplex(1), standard_simplex(1)).truncated


def test_join_compatible_with_category_join():
    # nerve of a categorical join vs join of nerves, in low dimensions
    from finsimp.categories import arrow_category, chain_category, terminal_category

    pairs = [
        (terminal_category(), terminal_category()),
        (arrow_category(), terminal_category()),
        (terminal_category(), chain_category(1)),
        (arrow_category(), arrow_category()),
    ]
    for C, D in pairs:
        lhs = nerve(join_categories(C, D), 3)
        rhs = truncate(join(nerve(C, 3), nerve(D, 3)), 3)
        assert lhs.size_vector() == rhs.size_vector()
        assert find_isomorphism(lhs, rhs) is not None


def test_join_of_quasicategories_is_a_quasicategory():
    N = nerve(one_object_groupoid(cyclic_group(2)), 2)
    J = join(N, standard_simplex(0))
    assert is_quasicategory(J, 2).holds
    J2 = join(standard_simplex(1), standard_simplex(1))
    assert is_quasicategory(J2, 3).holds


def test_join_of_maps_is_natural():
    S, T = standard_simplex(1), standard_simplex(1)
    f = identity_map(S)
    g = enumerate_maps(T, standard_simplex(0))[0]
    jm = join_of_maps(f, g)
    assert jm.validate() == []
    assert jm.source == join(S, T)
    assert jm.target == join(S, standard_simplex(0))


def test_cones():
    B, _ = simplex_boundary(2)
    lc = left_cone(B)
    rc = right_cone(B)
    assert isinstance(lc, Cone)
    assert lc.apex in lc.sset.gens[0]
    assert rc.apex in rc.sset.gens[0]
    assert lc.apex == "l.0"
    assert rc.apex == "r.0"
    # one 2-cell per rim edge: the apex joined with it
    assert validate(lc.sset) == []
    assert len(lc.sset.gens[2]) == len(B.gens[1])
    assert left_cone(EMPTY).sset == standard_simplex(0)


# --- products ----------------------------------------------------------------

@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 2)])
def test_product_top_cells_are_shuffles(p, q):
    P = product(standard_simplex(p), standard_simplex(q))
    assert validate(P) == []
    assert P.bound == p + q
    assert len(P.gens[p + q]) == math.comb(p + q, p)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2)])
def test_product_levels_multiply(p, q):
    S, T = standard_simplex(p), standard_simplex(q)
    P = product(S, T)
    for n in range(P.bound + 1):
        assert len(simplices(P, n)) == len(simplices(S, n)) * len(simplices(T, n))


def pairwise_product_generators(S, T, n):
    """The generator pairs of S x T in dimension n, by a filter on all pairs of n-simplices."""
    return [(r1, r2) for r1 in simplices(S, n) for r2 in simplices(T, n) if not set(r1.word) & set(r2.word)]


def test_product_generators_match_the_pairwise_filter():
    bz2 = nerve(one_object_groupoid(cyclic_group(2)), 3)
    cases = [
        (standard_simplex(3), standard_simplex(4)),
        (simplex_boundary(2)[0], standard_simplex(2)),
        (bz2, standard_simplex(1)),
        (standard_simplex(1), bz2),
    ]
    for S, T in cases:
        parts = product_parts(S, T)
        for n, level in enumerate(parts.sset.gens):
            assert [parts.pairs[g] for g in level] == pairwise_product_generators(S, T, n)


def product_face_table_oracle(S, T):
    """The face table of S x T by the face calculus: d_k of a pair is the normal form of its faces' pair."""
    parts = product_parts(S, T)
    return {
        name: tuple(_product_ref(parts, face(S, k, r1), face(T, k, r2)) for k in range(r1.dim + 1))
        for name, (r1, r2) in parts.pairs.items()
        if r1.dim
    }


def test_product_face_table_matches_the_face_calculus():
    bz2 = nerve(one_object_groupoid(cyclic_group(2)), 2)
    cases = [(standard_simplex(p), standard_simplex(4 - p)) for p in range(5)]
    cases += [(simplex_boundary(2)[0], standard_simplex(2)), (bz2, standard_simplex(1)), (bz2, bz2)]
    for S, T in cases:
        P = product(S, T)
        assert list(P.face_table.items()) == list(product_face_table_oracle(S, T).items())
        assert validate(P) == []


@settings(max_examples=40)
@given(small_simplicial_sets(), small_simplicial_sets(), st.integers(0, 2), st.integers(0, 2))
def test_product_face_table_matches_the_face_calculus_on_generated_sets(S, T, d1, d2):
    S, T = truncate(S, d1), truncate(T, d2)  # bounds summing to at most 4
    P = product(S, T)
    assert list(P.face_table.items()) == list(product_face_table_oracle(S, T).items())
    assert validate(P) == []


def test_product_with_point_is_identity_shaped():
    S = simplex_boundary(2)[0]
    P = product(S, standard_simplex(0))
    assert find_isomorphism(P, S) is not None
    assert product(S, EMPTY) == EMPTY


def test_product_projections_validate():
    S, T = standard_simplex(1), standard_simplex(2)
    pr1, pr2 = product_projections(S, T)
    assert pr1.validate() == []
    assert pr2.validate() == []


def test_product_universal_property_on_maps():
    # maps into a product biject with pairs of maps
    A = simplex_boundary(2)[0]
    S, T = standard_simplex(1), standard_simplex(1)
    P = product(S, T)
    into_p = enumerate_maps(A, P)
    into_s = enumerate_maps(A, S)
    into_t = enumerate_maps(A, T)
    assert len(into_p) == len(into_s) * len(into_t)
    pr1, pr2 = product_projections(S, T)
    from finsimp.simplicial import compose

    seen = {
        (
            tuple(sorted(compose(pr1, f).assign.items())),
            tuple(sorted(compose(pr2, f).assign.items())),
        )
        for f in into_p
    }
    assert len(seen) == len(into_p)


def test_product_of_maps_validates():
    f = enumerate_maps(standard_simplex(1), standard_simplex(0))[0]
    g = identity_map(standard_simplex(1))
    pm = product_of_maps(f, g)
    assert pm.validate() == []


def test_product_faces_share_one_object_per_face_value():
    # every face tuple names the one normal form of its face pair
    P = product(standard_simplex(3), standard_simplex(4))
    refs = [r for refs in P.face_table.values() for r in refs]
    assert len(refs) == 14380
    assert len(set(refs)) == len({id(r) for r in refs}) == 3036


def test_product_of_windows_stops_at_the_smallest_window_bound():
    # N(chain 2) cut at 1, squared: the true product is the nerve of the 3 x 3 grid,
    # which has 37 triangles, not the 18 pairs of triangles of the windows
    N = nerve(chain_category(2), 1)
    P = product(N, N)
    assert P.truncated and P.size_vector() == (9, 27)
    with pytest.raises(TruncationError):
        is_quasicategory(P, 2)
    assert product(standard_simplex(2), N).size_vector() == (9, 27)
    assert product(standard_simplex(2), standard_simplex(1)).bound == 3


def test_product_bound_guard_reads_the_cut_bound():
    window = SimplicialSet([["v"], [], [], [], [], []], {}, truncated=True)
    assert product(window, window).bound == 5
    with pytest.raises(DimensionError, match="bound 10"):
        product(standard_simplex(5), standard_simplex(5))


def test_product_of_maps_past_the_target_window_raises():
    N = nerve(chain_category(2), 1)
    e = N.generator("le_0_1")
    f = SimplicialMap(standard_simplex(1), N, {"0": N.generator("0"), "1": N.generator("1"), "01": e})
    assert f.validate() == []
    # the triangles of the source square land on pairs of triangles above the window
    with pytest.raises(TruncationError, match="window bound 1"):
        product_of_maps(f, f)


def test_products_and_mapping_spaces_leave_no_cyclic_garbage():
    C = nerve(chain_category(2), 3)
    S, T = standard_simplex(2), nerve(chain_category(1), 2)
    product_parts.cache_clear()  # so that both build their products here
    gc.collect()
    gc.disable()
    try:
        assert product(S, T).size_vector() == (6, 12, 10, 3, 0)
        assert mapping_space(C, "0", "2", 2).bound == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- slices ------------------------------------------------------------------

def vertex_inclusion(S, v):
    from finsimp.simplicial import SimplicialMap

    pt = standard_simplex(0)
    return SimplicialMap(pt, S, {"0": S.generator(v)})


def test_slice_over_a_vertex_of_the_triangle():
    S = standard_simplex(2)
    p = vertex_inclusion(S, "2")
    sl, levels, vertex_of = slice_data(p, 2)
    assert validate(sl) == []
    # maps (point * point) -> triangle hitting vertex 2 on the right:
    # an edge into 2, including the degenerate one
    assert len(levels[0]) == 3
    # the slice counts every level as raw pinned-map enumeration
    for n in range(3):
        assert len(simplices(sl, n)) == len(levels[n]), n


def test_slices_coslices_and_mapping_spaces_keep_their_levels_as_id_rows(monkeypatch):
    def id_rows(levels):
        return all(levels) and all(type(row) is tuple and all(type(x) is int for x in row) for rows in levels for row in rows)

    N = nerve(chain_category(2), 3)
    p = vertex_inclusion(N, "1")
    for under, data in [(False, slice_data), (True, coslice_data)]:
        _, shape, levels = _cone_rows(p, 2, under)
        assert id_rows(levels)
        assert [maps_of_rows(shape(n), N, rows) for n, rows in enumerate(levels)] == data(p, 2)[1]
    built = []
    family_maps = limits._family_maps
    monkeypatch.setattr(limits, "_family_maps", lambda *args: built.append(family_maps(*args)) or built[-1])
    mapping_space(N, "0", "2", 1)
    ((_, levels),) = built
    assert id_rows(levels)


def test_slice_faces_are_consistent():
    S = standard_simplex(2)
    p = vertex_inclusion(S, "2")
    sl = slice_over(p, 2)
    assert sl.truncated
    assert validate(sl) == []


def test_coslice_is_dual():
    S = standard_simplex(2)
    under0 = coslice_data(vertex_inclusion(S, "0"), 1)
    over2 = slice_data(vertex_inclusion(S, "2"), 1)
    assert [len(l) for l in under0[1]] == [len(l) for l in over2[1]]


def test_slice_over_empty_diagram_is_the_whole_set():
    # K empty: the slice in level n is just all maps simplex -> S
    S = standard_simplex(1)
    from finsimp.simplicial import SimplicialMap

    p = SimplicialMap(EMPTY, S, {})
    sl, levels, _ = slice_data(p, 1)
    assert len(levels[0]) == len(simplices(S, 0))
    assert len(levels[1]) == len(simplices(S, 1))


@pytest.mark.parametrize("low", [0, 1])
def test_slice_over_a_wide_discrete_map_into_the_edge(low):
    # 1500 top cells that share one edge: the map search is linear in them
    K = discrete_simplicial_set([f"v{j}" for j in range(1500)])
    S = standard_simplex(1)
    from finsimp.simplicial import SimplicialMap

    p = SimplicialMap(K, S, {v: S.generator("1" if j else str(low)) for j, v in enumerate(K.gens[0])})
    # an n-simplex of the slice is a weakly increasing (a_0, ..., a_n) in {0, 1}
    # with a_n at most every value of p, so at most `low`; the strictly
    # increasing ones are the non-degenerate ones
    want = tuple(len(list(itertools.combinations(range(low + 1), n + 1))) for n in range(2))
    assert slice_over(p, 1).size_vector() == want


def test_parts_caches_let_go_of_finished_diagrams():
    # 100 fresh one-vertex diagrams, two join_parts keys each: a bounded
    # cache must drop some, and with them the last reference to the set
    S = standard_simplex(1)
    from finsimp.simplicial import SimplicialMap

    sources = []
    for j in range(100):
        K = discrete_simplicial_set([f"w{j}"])
        assert slice_over(SimplicialMap(K, S, {f"w{j}": S.generator("0")}), 1).bound == 1
        sources.append(weakref.ref(K))
    del K
    gc.collect()
    assert any(ref() is None for ref in sources)


def test_slice_depth_guard():
    S = standard_simplex(1)
    p = vertex_inclusion(S, "1")
    with pytest.raises(DimensionError):
        slice_over(p, 99)
    assert coslice_under(vertex_inclusion(S, "0"), 0).bound == 0


def test_slices_and_coslices_of_maps_out_of_a_window_are_refused():
    # the cone on a window stops at its bound, below the cone's own top simplices
    window, full = nerve(chain_category(2), 1), nerve(chain_category(3), 4)
    p = SimplicialMap(window, full, {g: full.generator(g) for level in window.gens for g in level})
    assert p.validate() == []
    for construct, what in [(slice_over, "slice"), (coslice_under, "coslice")]:
        with pytest.raises(TruncationError, match=f"^{what} of a map out of a window needs simplices past its bound 1$"):
            construct(p, 0)


def test_a_join_with_a_window_stops_at_its_bound():
    # right_cone(nerve of 0 < 1 < 2, cut at 1) once reached level 2 with 3 of the 4 triangles
    window = nerve(chain_category(2), 1)
    for J in (right_cone(window).sset, left_cone(window).sset, join(window, standard_simplex(2))):
        assert (J.bound, J.truncated) == (1, True)
    assert right_cone(window).sset.size_vector() == (4, 6)
    assert right_cone(nerve(chain_category(2), 2)).sset.size_vector() == (4, 6, 4, 1)


def test_slices_and_coslices_refuse_to_look_past_a_window():
    # the coslice of 0 in 0 < 1 < 2 < 3 has (4, 6, 4) simplices to depth 2, read from the
    # complete nerve; the window cut at 2 lacks the 3-simplices of its join shape Δ0 * Δ2
    full, window = nerve(chain_category(3), 4), nerve(chain_category(3), 2)
    assert window.truncated and not full.truncated
    point = lambda S: SimplicialMap(standard_simplex(0), S, {"0": SimplexRef((), "0", 0)})
    assert coslice_under(point(full), 2).size_vector() == (4, 6, 4)
    for construct, what in [(slice_over, "slice"), (coslice_under, "coslice")]:
        with pytest.raises(TruncationError, match=f"^{what} to depth 2 needs simplices past the window bound 2$"):
            construct(point(window), 2)
        assert construct(point(window), 1) == construct(point(full), 1)
