"""Core calculus: normal forms, the standard family, validation, map search."""

import gc
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from finsimp.categories import nerve, poset_category
from finsimp.constructions import slice_over
from finsimp.groups import cyclic_group, one_object_groupoid, symmetric_group
from finsimp.lifting import HornMap, horn_maps, is_kan
from finsimp.simplicial import (
    EMPTY,
    DimensionError,
    MapSearch,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    _search_plan,
    codegeneracy_map,
    coface_map,
    compose,
    degeneracy,
    discrete_simplicial_set,
    enumerate_maps,
    face,
    face_index,
    face_id_index,
    face_lookup,
    find_isomorphism,
    from_level_data,
    horn,
    identity_map,
    insert_degeneracy,
    map_key,
    map_rows,
    maps_of_rows,
    numbered_level,
    ref_key,
    rename_generators,
    simplex_boundary,
    simplex_map_from_vertices,
    simplices,
    standard_simplex,
    truncate,
    validate,
    word_apply,
)
from reference_search import dfs_tops, reference_isomorphism, reference_maps
from strategies import small_simplicial_sets


# --- oracles -----------------------------------------------------------------

def monotone_maps(k, n):
    """All weakly increasing (k+1)-tuples with entries in 0..n."""
    return list(itertools.combinations_with_replacement(range(n + 1), k + 1))


def subset_model_sizes(n, kept_facets):
    """Non-degenerate simplex counts of a union of facets of the n-simplex.

    A subset of vertices spans a cell iff it lies inside some kept
    facet; counts per dimension are the independent oracle for
    boundaries and horns.
    """
    cells = set()
    for facet in kept_facets:
        for r in range(1, len(facet) + 1):
            cells.update(itertools.combinations(facet, r))
    top = max((len(c) for c in cells), default=0)
    return tuple(sum(1 for c in cells if len(c) == m + 1) for m in range(top))


def reference_simplices(S, n):
    """The n-simplices by enumeration: every normal form (word, generator), sorted by ref_key.

    A word over a dimension-m generator at dimension n is a strictly
    decreasing (n-m)-subset of {0..n-1}; nothing is read from the
    numbered levels.
    """
    if n < 0:
        return ()
    out = [
        SimplexRef(word, g, n)
        for m in range(min(n, S.bound) + 1)
        for word in itertools.combinations(range(n - 1, -1, -1), n - m)
        for g in S.gens[m]
    ]
    return tuple(sorted(out, key=ref_key))


def boundary_oracle(n):
    verts = tuple(range(n + 1))
    return subset_model_sizes(n, [verts[:k] + verts[k + 1:] for k in range(n + 1)])


def horn_oracle(n, i):
    verts = tuple(range(n + 1))
    return subset_model_sizes(n, [verts[:k] + verts[k + 1:] for k in range(n + 1) if k != i])


# --- degeneracy word calculus ------------------------------------------------

decreasing_words = st.lists(st.integers(0, 8), max_size=5).map(
    lambda xs: tuple(sorted(set(xs), reverse=True))
)


@given(decreasing_words, st.integers(0, 8))
def test_insert_degeneracy_keeps_words_strictly_decreasing(word, k):
    out = insert_degeneracy(word, k)
    assert len(out) == len(word) + 1
    assert all(out[t] > out[t + 1] for t in range(len(out) - 1))


def test_insert_degeneracy_examples():
    # s_0 s_0 = s_1 s_0 and friends
    assert insert_degeneracy((0,), 0) == (1, 0)
    assert insert_degeneracy((1, 0), 0) == (2, 1, 0)
    assert insert_degeneracy((0,), 2) == (2, 0)
    assert insert_degeneracy((2, 0), 1) == (3, 1, 0)


@given(decreasing_words, st.integers(0, 3))
def test_word_apply_tracks_dimension(word, gdim):
    ref = SimplexRef((), "g", gdim)
    out = word_apply(word, ref)
    assert out.dim == gdim + len(word)
    assert all(out.word[t] > out.word[t + 1] for t in range(len(out.word) - 1))


# --- simplices of the standard family ----------------------------------------

@pytest.mark.parametrize("n", range(5))
@pytest.mark.parametrize("k", range(6))
def test_simplex_counts_match_monotone_map_oracle(n, k):
    assert len(simplices(standard_simplex(n), k)) == len(monotone_maps(k, n))


def test_simplices_sorted_and_stable():
    S = standard_simplex(2)
    out = simplices(S, 3)
    assert out == tuple(sorted(out, key=lambda r: (r.word, r.gen)))
    assert simplices(S, 3) is out  # memoised


def test_simplices_match_the_enumeration(corpus):
    # the corpus nerves (windows among them), the standard family, EMPTY and truncations
    nerves = {name: nerve(C, 3) for name, C, _ in corpus}
    sets = [*nerves.values(), *map(standard_simplex, range(4)), EMPTY]
    sets += [simplex_boundary(n)[0] for n in range(1, 4)]
    sets += [horn(n, i)[0] for n in range(1, 4) for i in range(n + 1)]
    sets += [truncate(standard_simplex(3), 1), truncate(nerves["bs3"], 2)]
    # generators declared against name order, which the levels must not follow
    flat = [g for level in standard_simplex(3).gens for g in level]
    sets += [rename_generators(standard_simplex(3), {g: f"g{len(flat) - i:02d}" for i, g in enumerate(flat)})]
    sets += [discrete_simplicial_set(["q", "p", "r"], bound=1)]
    assert sum(S.truncated for S in sets) >= 5
    for S in sets:
        for n in range(-1, S.bound + 3):
            assert simplices(S, n) == reference_simplices(S, n), (S, n)


@settings(max_examples=40)
@given(small_simplicial_sets())
def test_simplices_match_the_enumeration_on_generated_sets(S):
    for n in range(-1, S.bound + 3):
        assert simplices(S, n) == reference_simplices(S, n)


def test_face_keeps_no_state():
    S = nerve(poset_category(["a", "b", "c"], lambda x, y: x <= y), 3)
    levels = [simplices(S, n) for n in range(5)]
    S.face_table  # a nerve derives its face table once, on first read; face itself must add nothing
    state = {name: len(v) if isinstance(v, dict) else v for name, v in vars(S).items()}
    for zs in levels[1:]:
        for z in zs:
            for k in range(z.dim + 1):
                face(S, k, z)
    assert {name: len(v) if isinstance(v, dict) else v for name, v in vars(S).items()} == state


def test_simplices_above_bound_all_degenerate():
    S = standard_simplex(1)
    for k in range(2, 5):
        assert all(r.is_degenerate() for r in simplices(S, k))


@pytest.mark.parametrize("n", range(1, 5))
def test_boundary_matches_subset_oracle(n):
    B, incl = simplex_boundary(n)
    assert B.size_vector() == boundary_oracle(n)
    assert validate(B) == []
    assert incl.validate() == []


@pytest.mark.parametrize("n", range(1, 5))
def test_horns_match_subset_oracle(n):
    for i in range(n + 1):
        H, incl = horn(n, i)
        assert H.size_vector() == horn_oracle(n, i)
        assert validate(H) == []
        assert incl.validate() == []


def test_lowest_horns_are_single_vertices():
    H0, _ = horn(1, 0)
    H1, _ = horn(1, 1)
    assert H0.size_vector() == (1,)
    assert H0.gens[0] == ("0",)
    assert H1.gens[0] == ("1",)


def test_empty_and_discrete():
    assert EMPTY.bound == -1
    assert validate(EMPTY) == []
    D = discrete_simplicial_set(["a", "b"], bound=2)
    assert D.bound == 2
    assert D.size_vector() == (2, 0, 0)
    assert validate(D) == []


# --- face and degeneracy identities ------------------------------------------

def all_refs_up_to(S, top):
    for k in range(top + 1):
        yield from simplices(S, k)


@pytest.mark.parametrize("builder", [
    lambda: standard_simplex(3),
    lambda: simplex_boundary(3)[0],
    lambda: horn(2, 1)[0],
])
def test_face_face_identity_on_all_simplices(builder):
    S = builder()
    for ref in all_refs_up_to(S, 4):
        n = ref.dim
        if n < 2:
            continue
        for j in range(1, n + 1):
            for i in range(j):
                assert face(S, i, face(S, j, ref)) == face(S, j - 1, face(S, i, ref))


def test_face_degeneracy_identities_on_all_simplices():
    S = standard_simplex(2)
    for ref in all_refs_up_to(S, 3):
        n = ref.dim
        for j in range(n + 1):
            sj = degeneracy(S, j, ref)
            # d_j s_j = id = d_{j+1} s_j
            assert face(S, j, sj) == ref
            assert face(S, j + 1, sj) == ref
            for i in range(n + 2):
                if i < j:
                    assert face(S, i, sj) == degeneracy(S, j - 1, face(S, i, ref))
                elif i > j + 1:
                    assert face(S, i, sj) == degeneracy(S, j, face(S, i - 1, ref))


def test_degeneracy_degeneracy_identity():
    S = standard_simplex(2)
    for ref in all_refs_up_to(S, 2):
        n = ref.dim
        for j in range(n + 1):
            for i in range(j + 1):
                # s_i s_j = s_{j+1} s_i for i <= j
                assert degeneracy(S, i, degeneracy(S, j, ref)) == degeneracy(
                    S, j + 1, degeneracy(S, i, ref)
                )


def test_face_index_out_of_range():
    S = standard_simplex(1)
    e = S.generator("01")
    with pytest.raises(DimensionError):
        face(S, 2, e)
    with pytest.raises(DimensionError):
        degeneracy(S, 2, e)
    v = S.generator("0")
    with pytest.raises(DimensionError):
        face(S, 0, v)


def test_no_level_below_0():
    for S in (standard_simplex(1), EMPTY):
        with pytest.raises(DimensionError):
            numbered_level(S, -1)
        assert simplices(S, -1) == ()
        assert simplices(S, -3) == ()


# --- validation --------------------------------------------------------------

def scan_for_faces(S, n, skip, key):
    """The n-simplices whose faces d_k, k != skip, equal `key`, by a linear scan."""
    ks = [k for k in range(n + 1) if k != skip]
    return [z for z in simplices(S, n) if all(face(S, k, z) == want for k, want in zip(ks, key))]


def test_partial_face_index_matches_linear_scan(corpus):
    sets = [nerve(C, 2) for _, C, _ in corpus]
    sets += [standard_simplex(3), horn(3, 1)[0], simplex_boundary(3)[0]]
    for S in sets:
        for n in range(1, S.bound + 2):
            for skip in [None, *range(n + 1)]:
                positions = tuple((k,) for k in range(n + 1) if k != skip)
                index = face_index(S, n, positions=positions)
                keys = {
                    tuple(face(S, k, z) for k in range(n + 1) if k != skip)
                    for z in simplices(S, n)
                }
                assert set(index) == keys
                for key in keys:
                    assert index[key] == scan_for_faces(S, n, skip, key)


def test_face_index_by_iterated_faces_matches_linear_scan(corpus):
    # a position deletes the vertices of a strictly decreasing word, highest first
    for S in [nerve(C, 3) for _, C, _ in corpus] + [standard_simplex(3), horn(3, 1)[0]]:
        for positions in [((),), ((3, 1),), ((2,), (3, 1, 0)), ((2, 1, 0), (3, 2), (3, 0))]:
            index = face_index(S, 3, positions=positions)
            for z in simplices(S, 3):
                key = []
                for w in positions:
                    y = z
                    for k in w:
                        y = face(S, k, y)
                    key.append(y)
                assert z in index[tuple(key)]
            assert sum(len(zs) for zs in index.values()) == len(simplices(S, 3))
            assert all(zs == [z for z in simplices(S, 3) if z in zs] for zs in index.values())


def test_face_index_files_every_vertex_under_the_empty_key():
    for S in [standard_simplex(2), horn(3, 1)[0], discrete_simplicial_set(["b", "a"])]:
        assert face_index(S, 0) == {(): list(simplices(S, 0))}
    assert face_index(EMPTY, 0) == {}


def face_words(n):
    """The face words on [n] that leave a vertex, fewest deleted first."""
    return [w for r in range(n + 1) for w in itertools.combinations(range(n, -1, -1), r)]


def test_face_lookup_matches_the_face_index_on_nerves_and_a_slice(corpus):
    # every key of every table of one or two positions, n <= 3
    N = nerve(poset_category(["1", "2", "3", "4", "6", "12"], lambda a, b: int(b) % int(a) == 0), 3)
    over_6 = slice_over(SimplicialMap(standard_simplex(0), N, {"0": N.generator("6")}), 2)
    for S in [nerve(C, 3) for _, C, _ in corpus] + [N, over_6]:
        for n in range(4):
            words = face_words(n)
            for positions in [*((w,) for w in words), *itertools.combinations(words, 2)]:
                for key, zs in face_id_index(S, n, positions).items():
                    assert face_lookup(S, n, positions, key) == zs


@given(small_simplicial_sets(), st.data())
def test_face_lookup_matches_the_face_index(S, data):
    n = data.draw(st.integers(0, 3))
    positions = tuple(data.draw(st.lists(st.sampled_from(face_words(n)), min_size=1, max_size=3)))
    table = face_id_index(S, n, positions)
    parts = [st.sampled_from(range(len(simplices(S, n - len(w))))) for w in positions]
    mixed = data.draw(st.lists(st.tuples(*parts), max_size=6))
    for key in [*table, *mixed]:
        assert face_lookup(S, n, positions, key) == table.get(key, [])


def assert_numbered_levels_match_the_calculus(S, top):
    for n in range(top + 1):
        level = numbered_level(S, n)
        assert level.refs is simplices(S, n)
        assert level.ids() == {z: i for i, z in enumerate(simplices(S, n))}
        below = simplices(S, n - 1)
        for k, col in enumerate(level.faces):
            assert [below[i] for i in col] == [face(S, k, z) for z in simplices(S, n)]
        for j, col in enumerate(level.degens):
            assert [level.refs[i] for i in col] == [word_apply((j,), y) for y in below]


def test_levels_turn_single_ids_into_simplices_and_back_without_listing_them(corpus):
    # ref and id_of read the blocks and their generator names; refs stays unmade
    for _, C, _ in corpus:
        N, M = nerve(C, 3), nerve(C, 3)
        for n in range(5):
            level, listed = numbered_level(N, n), simplices(M, n)
            assert [level.ref(z) for z in range(level.size)] == list(listed)
            assert [level.id_of(r) for r in listed] == list(range(level.size))
            assert level._refs is None
            assert level.id_of(SimplexRef((), "no such generator", n)) is None
            assert all(level.id_of(r) is None for r in simplices(M, n + 1)[:3])


def test_a_level_refuses_ids_outside_its_range_before_and_after_listing_its_simplices():
    D = standard_simplex(2)
    level = numbered_level(SimplicialSet(D.gens, D.face_table), 1)
    for listed in (False, True):
        assert (level._refs is not None) == listed
        for z in (-1, level.size):
            with pytest.raises(IndexError):
                level.ref(z)
        level.refs


def test_numbered_levels_match_the_face_and_degeneracy_calculus(corpus):
    # ids follow simplices(S, n); every d_k and s_j array entry is face or word_apply on refs
    for _, C, _ in corpus:
        assert_numbered_levels_match_the_calculus(nerve(C, 3), 4)
    for n in range(1, 5):
        for skip in [None, *range(n + 1)]:
            assert_numbered_levels_match_the_calculus((simplex_boundary(n) if skip is None else horn(n, skip))[0], n + 1)
    assert_numbered_levels_match_the_calculus(EMPTY, 2)


@settings(max_examples=40)
@given(small_simplicial_sets())
def test_numbered_levels_match_the_calculus_on_generated_sets(S):
    assert_numbered_levels_match_the_calculus(S, 4)


def test_face_index_is_the_view_of_the_id_table(corpus):
    for S in [nerve(C, 3) for _, C, _ in corpus[:4]] + [horn(3, 1)[0]]:
        for positions in [((0,), (2,)), ((3, 1),), ((),), ((2, 1, 0), (3,))]:
            ids = face_id_index(S, 3, positions)
            view = face_index(S, 3, positions=positions)
            assert list(view) == [tuple(simplices(S, 3 - len(w))[x] for w, x in zip(positions, key)) for key in ids]
            assert list(view.values()) == [[simplices(S, 3)[z] for z in zs] for zs in ids.values()]


@settings(max_examples=40, deadline=None)
@given(small_simplicial_sets(), small_simplicial_sets())
def test_id_rows_sort_like_their_ref_rows(A, B):
    search = MapSearch(A, B)
    rows = list(search.rows(*search.join()))
    assert all(isinstance(x, int) for row in rows for x in row)
    flat = [g for level in A.gens for g in level]
    refs = [tuple(F.assign[g] for g in flat) for F in maps_of_rows(A, B, rows)]
    assert sorted(range(len(rows)), key=rows.__getitem__) == sorted(range(len(refs)), key=refs.__getitem__)
    assert sorted(refs) == [tuple(f.assign[g] for g in flat) for f in reference_maps(A, B)]


def test_validate_accepts_standard_family():
    for n in range(5):
        assert validate(standard_simplex(n)) == []


def test_validate_reports_identity_violation():
    S = standard_simplex(2)
    faces = dict(S.face_table)
    refs = list(faces["012"])
    refs[0], refs[2] = refs[2], refs[0]  # swap d_0 and d_2 of the triangle
    faces["012"] = tuple(refs)
    broken = SimplicialSet(S.gens, faces)
    report = validate(broken)
    assert report
    assert any("012" in line and "d_0 d_1" in line for line in report)


def test_validate_reports_bad_references():
    bad = SimplicialSet(
        [["v"], ["e"]],
        {"e": (SimplexRef((), "v", 0), SimplexRef((), "ghost", 0))},
    )
    report = validate(bad)
    assert any("ghost" in line for line in report)

    wrong_arity = SimplicialSet([["v"], ["e"]], {"e": (SimplexRef((), "v", 0),)})
    assert any("face entries" in line for line in validate(wrong_arity))

    bad_word = SimplicialSet(
        [["v"], [], [], ["t"]],
        {"t": tuple(SimplexRef((0, 1), "v", 2) for _ in range(4))},
    )
    assert any("non-decreasing" in line for line in validate(bad_word))


def test_validate_reports_duplicate_names():
    dup = SimplicialSet([["v", "v"]], {})
    assert any("repeated" in line for line in validate(dup))


# --- maps: identity, composition, vertex-induced ------------------------------

def test_identity_and_compose():
    S = standard_simplex(2)
    i = identity_map(S)
    assert i.validate() == []
    assert compose(i, i) == i
    B, incl = simplex_boundary(2)
    assert compose(i, incl) == incl


def test_maps_between_equal_distinct_sets_compare_and_hash_equal():
    S = standard_simplex(2)
    T = SimplicialSet(S.gens, S.face_table)
    assert S is not T and S == T and hash(S) == hash(T)
    f, g = identity_map(S), identity_map(T)
    assert f == g and hash(f) == hash(g)
    assert len({f, g}) == 1
    # an equal assignment into a different target is a different map
    point = standard_simplex(0)
    into_edge, into_triangle = (
        SimplicialMap(point, X, {"0": X.generator("0")}) for X in (standard_simplex(1), S)
    )
    assert into_edge != into_triangle


def test_compose_requires_matching_ends():
    with pytest.raises(ValueError):
        compose(identity_map(standard_simplex(1)), identity_map(standard_simplex(2)))


def test_vertex_induced_maps_validate():
    f = simplex_map_from_vertices(2, 1, [0, 0, 1])
    assert f.validate() == []
    assert f.assign["012"] == SimplexRef((0,), "01", 2)
    with pytest.raises(ValueError):
        simplex_map_from_vertices(1, 2, [1, 0])


def test_cosimplicial_relations():
    # collapsing after including either neighbouring face is the identity
    for n in range(1, 4):
        for k in range(n):
            s = codegeneracy_map(n, k)
            assert compose(s, coface_map(n, k)) == identity_map(standard_simplex(n - 1))
            assert compose(s, coface_map(n, k + 1)) == identity_map(standard_simplex(n - 1))


def test_cofaces_and_codegeneracies_are_built_once_per_n_and_k():
    assert coface_map(3, 1) is coface_map(3, 1)
    assert codegeneracy_map(3, 1) is codegeneracy_map(3, 1)
    assert coface_map(3, 1) is not coface_map(3, 2)


# --- map enumeration ----------------------------------------------------------

@pytest.mark.parametrize("k,n", [(0, 0), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2), (3, 1)])
def test_map_counts_match_monotone_oracle(k, n):
    maps = enumerate_maps(standard_simplex(k), standard_simplex(n))
    assert len(maps) == len(monotone_maps(k, n))
    for f in maps:
        assert f.validate() == []


def test_map_from_empty_set_is_unique():
    assert len(enumerate_maps(EMPTY, standard_simplex(2))) == 1


def test_map_to_empty_set():
    assert enumerate_maps(standard_simplex(0), EMPTY) == []


def test_enumeration_is_deterministic_and_sorted():
    B = simplex_boundary(2)[0]
    a = enumerate_maps(B, standard_simplex(1))
    b = enumerate_maps(B, standard_simplex(1))
    assert a == b
    order = [g for level in B.gens for g in level]
    keys = [tuple((f.assign[g].word, f.assign[g].gen) for g in order) for f in a]
    assert keys == sorted(keys)


def test_enumeration_respects_fixed_and_limit():
    S = standard_simplex(1)
    vertex0 = SimplexRef((), "0", 0)
    pinned = enumerate_maps(S, S, fixed={"0": vertex0, "1": vertex0})
    # both endpoints at vertex 0 forces the degenerate edge
    assert len(pinned) == 1
    assert pinned[0].assign["01"] == SimplexRef((0,), "0", 1)
    first = enumerate_maps(S, S, limit=1)
    assert len(first) == 1


def test_enumeration_count_invariant_under_renaming():
    B = simplex_boundary(2)[0]
    renamed = rename_generators(B, {g: f"x_{g}" for level in B.gens for g in level})
    assert validate(renamed) == []
    n_orig = len(enumerate_maps(B, standard_simplex(2)))
    n_ren = len(enumerate_maps(renamed, standard_simplex(2)))
    assert n_orig == n_ren


def test_sphere_maps_include_the_vertex_swap():
    B, _ = simplex_boundary(1)
    maps = enumerate_maps(B, standard_simplex(1))
    assert len(maps) == 4
    swap = {f.assign["0"].gen + f.assign["1"].gen for f in maps}
    assert "10" in swap


def test_enumeration_depth_is_not_bounded_by_the_recursion_limit():
    # one search level per generator: 1500 levels exceed Python's default limit
    A = discrete_simplicial_set([f"v{i}" for i in range(1500)])
    maps = enumerate_maps(A, standard_simplex(0))
    assert len(maps) == 1
    assert set(maps[0].assign.values()) == {SimplexRef((), "0", 0)}


def assigns(maps):
    return [f.assign for f in maps]


@settings(max_examples=40, deadline=None)
@given(small_simplicial_sets())
def test_horn_and_sphere_maps_match_the_reference_search(S):
    for n in (1, 2, 3):
        for skip in [None, *range(n + 1)]:
            A = simplex_boundary(n)[0] if skip is None else horn(n, skip)[0]
            tops = list(MapSearch(A, S))
            assert len(set(tops)) == len(tops)
            want = reference_maps(A, S)
            assert assigns(enumerate_maps(A, S)) == assigns(want)
            if skip is not None:
                assert horn_maps(S, n, skip) == [HornMap(n, skip, f) for f in want]
        B = simplex_boundary(n)[0]
        for p in range(n + 1):
            for v in S.gens[0]:
                fixed = {str(p): S.generator(v)}
                assert assigns(enumerate_maps(B, S, fixed=fixed)) == assigns(reference_maps(B, S, fixed=fixed))


def assert_join_matches_the_depth_first_loop(search):
    tops = list(search)
    assert tops == list(dfs_tops(search))
    count, cols = search.join()
    assert count == len(tops)
    assert [tuple(c) for c in cols] == (list(zip(*tops)) if tops else [() for _ in search.slots])


@settings(max_examples=60, deadline=None)
@given(small_simplicial_sets(), small_simplicial_sets(), st.data())
def test_enumerate_maps_matches_the_reference_search(A, B, data):
    # random sources bring loops and degenerate faces, which a cell shares with itself
    flat = [g for level in A.gens for g in level]
    every = reference_maps(A, B)
    # pins: values of one map (they agree) or arbitrary simplices (they may not)
    model = data.draw(st.sampled_from(every)) if every and data.draw(st.booleans()) else None
    fixed = {
        g: model.assign[g] if model else data.draw(st.sampled_from(simplices(B, A.gen_dim[g])))
        for g in data.draw(st.lists(st.sampled_from(flat), unique=True, max_size=3))
    }
    targets = [h for level in B.gens for h in level]
    banned = set(data.draw(st.lists(st.tuples(st.sampled_from(flat), st.sampled_from(targets)), max_size=3)))

    def constrain(g, r):
        return (g, r.gen) not in banned

    for kwargs in [{}, {"fixed": fixed}, {"constrain": constrain}, {"fixed": fixed, "constrain": constrain}]:
        want = reference_maps(A, B, **kwargs)
        assert assigns(enumerate_maps(A, B, **kwargs)) == assigns(want)
        assert assigns(enumerate_maps(A, B, limit=1, **kwargs)) == assigns(want[:1])
        assert_join_matches_the_depth_first_loop(MapSearch(A, B, **kwargs))


def test_enumerated_maps_make_their_assignments_on_first_read():
    # every reader of a map made from a row (==, hash, validate, map_key, assign) sees the map made from a dict
    readers = [
        lambda f: (f, hash(f)),
        lambda f: (f.validate(), map_key(f)),
        lambda f: f.assign,
    ]
    G = one_object_groupoid(symmetric_group(3))
    for n in (1, 2, 3):
        N = nerve(G, n)
        for i in range(n + 1):
            A = horn(n, i)[0]
            want = [SimplicialMap(A, N, f.assign) for f in reference_maps(A, N)]
            assert want
            for read in readers:
                maps = enumerate_maps(A, N)
                assert not any("assign" in vars(f) for f in maps)
                assert [read(f) for f in maps] == [read(f) for f in want]
                assert all("assign" in vars(f) and "_row" not in vars(f) for f in maps)
            assert all(f.validate() == [] for f in want)


def test_enumerated_maps_make_the_target_levels_on_first_read():
    # the maps of one enumeration share one maker of the target levels: no map whose
    # values are unread makes a simplex, and the first read makes the levels for all
    G = one_object_groupoid(symmetric_group(3))
    A, N = standard_simplex(3), nerve(G, 3)
    maps = enumerate_maps(A, N)
    assert len(maps) == 216 and sorted(N._level_memo) == [0, 1, 2, 3]
    assert all(level._refs is None for level in N._level_memo.values())
    want = reference_maps(A, nerve(G, 3))
    assert maps[100].assign == want[100].assign
    assert all(level._refs is not None for level in N._level_memo.values())
    assert [f.assign for f in maps] == [f.assign for f in want]


def test_horn_and_boundary_inclusions_make_their_assignments_on_first_read():
    # only a lifting witness reads an inclusion: a scan leaves the cached ones unread
    for n in range(1, 5):
        D = standard_simplex(n)
        for A, incl in [*(horn.__wrapped__(n, i) for i in range(n + 1)), simplex_boundary.__wrapped__(n)]:
            assert "assign" not in vars(incl)
            assert incl.assign == {g: D.generator(g) for level in A.gens for g in level}
            assert incl.validate() == [] and "_make" not in vars(incl)
    horn.cache_clear()
    assert is_kan(standard_simplex(0), 6)
    assert not any("assign" in vars(horn(n, i)[1]) for n in range(1, 7) for i in range(n + 1))


def test_a_negative_limit_is_refused():
    A, B = standard_simplex(1), standard_simplex(2)
    assert len(enumerate_maps(A, B)) == 6
    for search in (map_rows, enumerate_maps):
        with pytest.raises(ValueError):
            search(A, B, limit=-1)
        assert search(A, B, limit=0) == []


def test_enumeration_pins_the_faces_of_a_pinned_generator():
    S = standard_simplex(1)
    edge = S.generator("01")
    want = {"0": S.generator("0"), "1": S.generator("1"), "01": edge}
    assert assigns(enumerate_maps(S, S, fixed={"01": edge})) == [want]
    # d_0 of the edge is vertex 1, so pinning vertex 0 there leaves no map
    assert enumerate_maps(S, S, fixed={"01": edge, "0": S.generator("1")}) == []
    # a pin outside the target, or not in normal form, leaves no map either
    assert enumerate_maps(S, S, fixed={"01": SimplexRef((), "ghost", 1)}) == []
    assert enumerate_maps(S, S, fixed={"01": SimplexRef((5,), "0", 1)}) == []


def test_map_search_without_steps_or_with_dead_pins_matches_the_depth_first_loop():
    S = standard_simplex(1)
    edge = S.generator("01")
    empty = MapSearch(EMPTY, S)
    assert not empty.steps
    assert list(empty) == [()]
    assert_join_matches_the_depth_first_loop(empty)
    for A, kwargs in [
        (S, {"fixed": {"01": edge, "0": S.generator("1")}}),
        (S, {"fixed": {"01": edge}, "constrain": lambda g, r: g != "1"}),
        (horn(3, 1)[0], {"fixed": {"0": S.generator("1"), "01": edge}}),
    ]:
        search = MapSearch(A, S, **kwargs)
        assert not search.live
        assert list(search) == []
        assert_join_matches_the_depth_first_loop(search)
        assert map_rows(A, S, **kwargs) == []


class CountedTable(dict):
    """A face table that counts its lookups: one per row entering its step."""

    def __init__(self, table, calls, step):
        super().__init__(table)
        self.calls, self.step = calls, step

    def get(self, key, default=None):
        self.calls[self.step] += 1
        return super().get(key, default)


class CountedSearch(MapSearch):
    def _lookups(self):
        lookups = super()._lookups()
        self.calls = [0] * len(lookups)
        return [(CountedTable(table, self.calls, j), *rest) for j, (table, *rest) in enumerate(lookups)]


def test_join_rows_per_step_are_the_depth_first_nodes_per_depth():
    # machine-independent: the rows after step j (the lookups of step j + 1, and the
    # maps after the last) are the search nodes at depth j of the depth-first loop
    N = nerve(one_object_groupoid(symmetric_group(3)), 4)
    for i in range(5):
        search = CountedSearch(horn(4, i)[0], N)
        count, _ = search.join()
        rows = [*search.calls[1:], count]
        nodes = [0] * len(search.steps)
        assert len(list(dfs_tops(search, nodes))) == count
        assert rows == nodes == [216, 1296, 1296, 1296]


def test_map_search_and_map_rows_leave_no_cyclic_garbage():
    # the join's readers and filters are bound methods and partials, no closures
    N = nerve(one_object_groupoid(symmetric_group(3)), 3)
    pin = {"0": SimplexRef((), "pt", 0)}

    def run():
        assert len(list(MapSearch(horn(3, 1)[0], N))) == 216
        assert len(map_rows(standard_simplex(2), N)) == 36
        assert len(map_rows(standard_simplex(2), N, fixed=pin, constrain=no_identity_edge)) == 20

    run()  # builds the memos on N
    gc.collect()
    gc.disable()
    try:
        run()
        assert gc.collect() == 0
    finally:
        gc.enable()


def no_identity_edge(g, r):
    return r.dim != 1 or r.word != (0,)


# --- isomorphism search -------------------------------------------------------

def test_isomorphism_with_renamed_copy():
    S = simplex_boundary(3)[0]
    ren = rename_generators(S, {g: f"q{idx}" for idx, g in enumerate(
        g for level in S.gens for g in level)})
    iso = find_isomorphism(S, ren)
    assert iso is not None
    assert iso.validate() == []
    back = find_isomorphism(ren, S)
    assert back is not None


def test_isomorphism_rejects_mismatched_sets():
    assert find_isomorphism(standard_simplex(1), standard_simplex(2)) is None
    assert find_isomorphism(simplex_boundary(2)[0], horn(2, 1)[0]) is None


def test_horn_shapes_are_direction_sensitive():
    # two edges out of a vertex vs a directed path: same size vectors, no iso
    H0 = horn(2, 0)[0]
    H1 = horn(2, 1)[0]
    assert H0.size_vector() == H1.size_vector()
    assert find_isomorphism(H0, H1) is None
    ren = rename_generators(H0, {"0": "a", "1": "b", "2": "c", "01": "ab", "02": "ac"})
    assert find_isomorphism(H0, ren) is not None


def shuffled_names(S, rnd):
    """A renaming of S's generators onto a random permutation of their names."""
    names = [g for level in S.gens for g in level]
    return rename_generators(S, dict(zip(names, rnd.sample(names, len(names)))))


def assert_same_isomorphism(A, B):
    got, want = find_isomorphism(A, B), reference_isomorphism(A, B)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.assign == want.assign
        assert got.validate() == []


@settings(max_examples=60, deadline=None)
@given(small_simplicial_sets(), small_simplicial_sets(), st.randoms(use_true_random=False))
def test_find_isomorphism_matches_the_reference_search(A, B, rnd):
    # the same first isomorphism in lexicographic order, or None for both
    for left, right in [(A, A), (A, B), (A, shuffled_names(A, rnd)), (shuffled_names(A, rnd), A)]:
        assert_same_isomorphism(left, right)


@settings(max_examples=20, deadline=None)
@given(st.randoms(use_true_random=False))
def test_find_isomorphism_breaks_ties_like_the_reference_search(rnd):
    # many isomorphisms: discrete sets (every bijection) and nerve(B Z3) (two automorphisms)
    N = nerve(one_object_groupoid(cyclic_group(3)), 2)
    points = discrete_simplicial_set(["c", "a", "d", "b"], bound=1)
    for S in (points, N):
        for left, right in [(S, S), (S, shuffled_names(S, rnd)), (shuffled_names(S, rnd), S)]:
            assert_same_isomorphism(left, right)


def test_find_isomorphism_takes_the_first_bijection_by_name():
    # A's generators in declaration order, each sent to the first free candidate by name
    A = discrete_simplicial_set(["c", "a", "d", "b"])
    B = discrete_simplicial_set(["z", "x", "y", "w"])
    assert {g: r.gen for g, r in find_isomorphism(A, B).assign.items()} == {"c": "w", "a": "x", "d": "y", "b": "z"}


# --- truncation and windows ---------------------------------------------------

def test_truncate_marks_windows():
    S = standard_simplex(2)
    T = truncate(S, 1)
    assert T.bound == 1
    assert T.truncated
    assert T.size_vector() == (3, 3)
    assert validate(T) == []
    assert truncate(S, 2) is S
    assert not truncate(discrete_simplicial_set(["a"], bound=3), 1).truncated


# --- from_level_data ----------------------------------------------------------

def test_from_level_data_round_trips_a_simplex():
    S = standard_simplex(2)
    levels = [simplices(S, n) for n in range(3)]
    built, to_ref = from_level_data(
        levels,
        lambda n, k, e: face(S, k, e),
        lambda n, k, e: degeneracy(S, k, e),
        truncated=False,
    )
    assert built.size_vector() == S.size_vector()
    assert validate(built) == []
    assert find_isomorphism(built, S) is not None
    # degenerate elements resolve to degenerate refs
    deg = degeneracy(S, 0, S.generator("01"))
    assert to_ref[(2, deg)].word == (0,)


@pytest.mark.parametrize(
    "S",
    [standard_simplex(2), standard_simplex(3), horn(2, 0)[0], horn(3, 1)[0]],
    ids=["simplex2", "simplex3", "horn20", "horn31"],
)
def test_from_level_data_recovers_the_normal_form(S):
    top = S.bound + 2
    levels = [simplices(S, n) for n in range(top + 1)]
    built, to_ref = from_level_data(
        levels,
        lambda n, k, e: face(S, k, e),
        lambda n, k, e: degeneracy(S, k, e),
        truncated=False,
    )
    rename = {to_ref[(n, z)].gen: z.gen for n in range(top + 1) for z in levels[n] if not z.word}
    for n in range(top + 1):
        for z in levels[n]:
            assert to_ref[(n, z)].word == z.word
            assert rename[to_ref[(n, z)].gen] == z.gen
    assert [sorted(rename[g] for g in level) for level in built.gens[: S.bound + 1]] == [
        sorted(level) for level in S.gens
    ]
    assert not any(built.gens[S.bound + 1:])
    faces = {
        rename[g]: tuple(SimplexRef(r.word, rename[r.gen], r.dim) for r in refs)
        for g, refs in built.face_table.items()
    }
    assert faces == S.face_table


def test_search_plan_leaves_no_cyclic_garbage():
    A = horn(4, 1)[0]
    gc.collect()
    gc.disable()
    try:
        _search_plan(A, ())
        assert gc.collect() == 0
    finally:
        gc.enable()
