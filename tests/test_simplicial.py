"""Core calculus: normal forms, the standard family, validation, map search."""

import itertools

import pytest
from hypothesis import given, strategies as st

from finsimp.categories import nerve
from finsimp.simplicial import (
    EMPTY,
    DimensionError,
    SimplexRef,
    SimplicialSet,
    codegeneracy_map,
    coface_map,
    compose,
    degeneracy,
    discrete_simplicial_set,
    enumerate_maps,
    face,
    face_index,
    find_isomorphism,
    from_level_data,
    horn,
    identity_map,
    insert_degeneracy,
    rename_generators,
    simplex_boundary,
    simplex_map_from_vertices,
    simplices,
    standard_simplex,
    truncate,
    validate,
    word_apply,
)


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
                index = face_index(S, n, skip)
                keys = {
                    tuple(face(S, k, z) for k in range(n + 1) if k != skip)
                    for z in simplices(S, n)
                }
                assert set(index) == keys
                for key in keys:
                    assert index[key] == scan_for_faces(S, n, skip, key)
                assert face_index(S, n, skip) is index


def test_face_index_files_every_vertex_under_the_empty_key():
    for S in [standard_simplex(2), horn(3, 1)[0], discrete_simplicial_set(["b", "a"])]:
        assert face_index(S, 0) == {(): list(simplices(S, 0))}
    assert face_index(EMPTY, 0) == {}


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
