"""Finite categories, nerves with the chain-count oracle, nerve recognition."""

import pytest
from hypothesis import given, settings, strategies as st

from finsimp.categories import (
    DetectResult,
    FiniteCategory,
    arrow_category,
    as_groupoid,
    build_category,
    categories_isomorphic,
    chain_category,
    chain_ref,
    composable_chain_count,
    discrete_category,
    disjoint_union_category,
    is_groupoid,
    join_categories,
    nerve,
    nerve_detect,
    terminal_category,
    validate_category,
)
from finsimp.groups import cyclic_group, one_object_groupoid
from finsimp.simplicial import (
    DimensionError,
    SimplexRef,
    SimplicialSet,
    TruncationError,
    enumerate_maps,
    face,
    simplex_boundary,
    simplices,
    standard_simplex,
    validate,
)
from reference_nerve import reference_nerve
from strategies import small_categories


def test_corpus_categories_are_valid(corpus):
    for name, C, _ in corpus:
        assert validate_category(C) == [], name


def test_is_groupoid_matches_expectation(corpus):
    for name, C, expected in corpus:
        chk = is_groupoid(C)
        assert chk.holds == expected, name
        if expected:
            assert set(chk.inverses) == set(C.morphisms)
            for m, inv in chk.inverses.items():
                assert C.comp[(inv, m)] == C.identities[C.src[m]]
        else:
            assert chk.witness in C.morphisms
            assert as_groupoid(C) is None


def test_validate_category_reports_problems():
    C = arrow_category()
    broken = build_category(["a", "b"], {"f": ("a", "b"), "g": ("b", "a")}, {})
    report = validate_category(broken)
    assert any("missing composite" in line for line in report)

    bad_assoc = dict(C.comp)
    no_id = dict(C.identities)
    del no_id["a"]
    missing_id = type(C)(C.objects, C.morphisms, C.src, C.tgt, bad_assoc, no_id)
    assert any("identity" in line for line in validate_category(missing_id))


# --- nerve -------------------------------------------------------------------

def test_nerve_counts_match_chain_count_oracle(corpus):
    for name, C, _ in corpus:
        N = nerve(C, 4)
        assert validate(N) == [], name
        for n in range(5):
            assert len(simplices(N, n)) == composable_chain_count(C, n), (name, n)


def test_nerve_simplices_agree_with_simplex_map_counts(corpus):
    # |N_n| equals the number of maps from the standard n-simplex
    for name, C, _ in corpus:
        if name == "bs3":
            continue  # larger target, covered by the counting test above
        N = nerve(C, 3)
        for n in range(3):
            got = len(enumerate_maps(standard_simplex(n), N))
            assert got == composable_chain_count(C, n), (name, n)


def test_nerve_truncation_flags(corpus):
    flags = dict(
        terminal=False, bz2=True, bz3=True, arrow=False, chain3=False,
        discrete2=False, two_bz3=True, bs3=True, square=False,
        idempotent=True, walking_iso=True,
    )
    for name, C, _ in corpus:
        assert nerve(C, 4).truncated == flags[name], name


def test_nerve_depth_above_max_dim_is_rejected():
    with pytest.raises(DimensionError, match="nerve depth 10 exceeds the supported maximum 9"):
        nerve(terminal_category(), 10)
    assert nerve(terminal_category(), 9).bound == 9


def test_nerve_of_terminal_category():
    N = nerve(terminal_category(), 4)
    assert N.size_vector() == (1, 0, 0, 0, 0)
    assert not N.truncated


def test_nerve_of_arrow_category_is_a_standard_edge():
    N = nerve(arrow_category(), 3)
    assert N.size_vector() == (2, 1, 0, 0)


def test_nerve_faces_compose_letters():
    C = one_object_groupoid(cyclic_group(2))
    N = nerve(C, 3)
    (g,) = C.non_identities()
    pair = f"{g}.{g}"
    d0, d1, d2 = N.face_table[pair]
    assert d0 == SimplexRef((), g, 1)
    assert d2 == SimplexRef((), g, 1)
    # the middle face composes g with g, giving the degenerate identity edge
    assert d1 == SimplexRef((0,), "pt", 1)


def test_chain_ref_strips_identities():
    C = chain_category(2)
    ids = C.identities
    r = chain_ref(C, (ids["0"], "le_0_1", ids["1"]))
    assert r.word == (2, 0)
    assert r.gen == "le_0_1"
    all_ids = chain_ref(C, (ids["1"], ids["1"]))
    assert all_ids.gen == "1"
    assert all_ids.word == (1, 0)


# --- nerve recognition -------------------------------------------------------

def test_nerve_detect_round_trips_small_categories(corpus):
    for name, C, _ in corpus:
        if name == "bs3":
            continue  # covered in the acceptance suite at its own depth
        S = nerve(C, 3)
        res = nerve_detect(S, 3)
        assert res.category is not None, (name, res.reason)
        assert categories_isomorphic(res.category, C), name


def test_nerve_detect_rejects_a_boundary():
    B, _ = simplex_boundary(2)
    res = nerve_detect(B, 2)
    assert res.category is None
    assert "no filler" in res.reason


def test_nerve_detect_rejects_ambiguous_composites():
    # two triangles over the same middle horn: fillers not unique
    S = SimplicialSet(
        [["x", "y", "z"], ["a", "b", "c1", "c2"], ["t1", "t2"]],
        {
            "a": (SimplexRef((), "y", 0), SimplexRef((), "x", 0)),
            "b": (SimplexRef((), "z", 0), SimplexRef((), "y", 0)),
            "c1": (SimplexRef((), "z", 0), SimplexRef((), "x", 0)),
            "c2": (SimplexRef((), "z", 0), SimplexRef((), "x", 0)),
            "t1": (SimplexRef((), "b", 1), SimplexRef((), "c1", 1), SimplexRef((), "a", 1)),
            "t2": (SimplexRef((), "b", 1), SimplexRef((), "c2", 1), SimplexRef((), "a", 1)),
        },
    )
    assert validate(S) == []
    res = nerve_detect(S, 2)
    assert res.category is None
    assert "multiple fillers" in res.reason


def test_nerve_detect_respects_windows():
    S = nerve(one_object_groupoid(cyclic_group(2)), 2)
    with pytest.raises(TruncationError):
        nerve_detect(S, 3)
    res = nerve_detect(S, 2)
    assert res.category is not None


def test_nerve_detect_empty_set():
    res = nerve_detect(SimplicialSet([], {}), 2)
    assert res.category is None


# --- category comparison and constructions -----------------------------------

def test_categories_isomorphic_positive_and_negative(corpus):
    bz3 = one_object_groupoid(cyclic_group(3))
    renamed = build_category(
        ["obj"],
        {"r": ("obj", "obj"), "rr": ("obj", "obj")},
        {("r", "r"): "rr", ("rr", "rr"): "r", ("r", "rr"): "id_obj", ("rr", "r"): "id_obj"},
    )
    assert categories_isomorphic(bz3, renamed)
    by_name = {name: C for name, C, _ in corpus}
    assert not categories_isomorphic(by_name["bz2"], by_name["bz3"])
    assert not categories_isomorphic(by_name["chain3"], by_name["discrete2"])
    assert not categories_isomorphic(by_name["arrow"], by_name["walking_iso"])


def test_isomorphism_search_is_not_bounded_by_the_recursion_limit():
    # one search level per object: 1200 levels exceed Python's default limit
    D = discrete_category([f"o{i}" for i in range(1200)])
    assert categories_isomorphic(D, D)


def test_disjoint_union_and_join_categories_are_valid(corpus):
    by_name = {name: C for name, C, _ in corpus}
    for left, right in [("terminal", "bz2"), ("arrow", "chain3")]:
        U = disjoint_union_category(by_name[left], by_name[right])
        assert validate_category(U) == []
        J = join_categories(by_name[left], by_name[right])
        assert validate_category(J) == []
        n_bridge = len(by_name[left].objects) * len(by_name[right].objects)
        assert len(J.morphisms) == len(U.morphisms) + n_bridge


def test_join_categories_bridge_composition():
    J = join_categories(arrow_category(), terminal_category())
    # the bridge out of the arrow's source equals any composite through it
    assert J.comp[("to_b_x", "l_f")] == "to_a_x"


def test_chain_counts_on_discrete_category():
    D = discrete_category(["u", "v", "w"])
    assert composable_chain_count(D, 0) == 3
    assert composable_chain_count(D, 2) == 3
    assert nerve(D, 2).size_vector() == (3, 0, 0)


def test_detect_result_shape():
    res = nerve_detect(nerve(arrow_category(), 2), 2)
    assert isinstance(res, DetectResult)
    assert res.reason is None


def relabelled(C, names):
    """C with its non-identity morphisms renamed, in order, by `names`."""
    rename = dict(zip(C.non_identities(), names))
    new = lambda m: rename.get(m, m)
    return FiniteCategory(
        C.objects,
        [new(m) for m in C.morphisms],
        {new(m): a for m, a in C.src.items()},
        {new(m): b for m, b in C.tgt.items()},
        {(new(g), new(f)): new(h) for (g, f), h in C.comp.items()},
        C.identities,
    )


@st.composite
def categories_named_out_of_order(draw):
    """A small category whose letters may hold ' ', '(' and '-', which sort below the '.' of chain names."""
    C = draw(small_categories())
    count = len(C.non_identities())
    names = draw(st.lists(st.text(" (-ab", min_size=1, max_size=3), min_size=count, max_size=count, unique=True))
    return relabelled(C, names)


def assert_nerve_matches_the_reference(C, depth):
    N, R = nerve(C, depth), reference_nerve(C, depth)
    assert N.gens == R.gens
    assert N.truncated == R.truncated
    assert list(N.face_table.items()) == list(R.face_table.items())
    assert N == R


def test_nerve_matches_the_reference_nerve_on_the_corpus(corpus):
    for _, C, _ in corpus:
        for depth in range(5):
            assert_nerve_matches_the_reference(C, depth)


def test_nerve_matches_the_reference_when_chain_order_is_not_name_order():
    # Z3 with letters "b" and "a(": chain order lists "b" first, name order "a(" ("(" < ".");
    # b after a( is the identity, so d_1 of the chain (a(, b) is the degenerate s_0 of the vertex
    Z3 = one_object_groupoid(cyclic_group(3))
    C = relabelled(Z3, ["b", "a("])
    N = nerve(C, 4)
    assert N.gens[2] == ("b.b", "b.a(", "a(.b", "a(.a(") != tuple(sorted(N.gens[2]))
    assert N.face_table["a(.b"] == (SimplexRef((), "b", 1), SimplexRef((0,), "pt", 1), SimplexRef((), "a(", 1))
    for depth in range(5):
        assert_nerve_matches_the_reference(C, depth)


@settings(max_examples=60)
@given(st.one_of(small_categories(), categories_named_out_of_order()), st.integers(0, 4))
def test_nerve_matches_the_reference_nerve_on_generated_categories(C, depth):
    assert_nerve_matches_the_reference(C, depth)


def reference_nerve_faces(C, depth):
    """The nerve's face table with every face rebuilt by chain_ref."""
    N = nerve(C, depth)
    faces = {}
    for n in range(1, depth + 1):
        for name in N.gens[n]:
            c = tuple(name.split("."))
            if n == 1:
                faces[name] = (SimplexRef((), C.tgt[c[0]], 0), SimplexRef((), C.src[c[0]], 0))
                continue
            merged = [c[: k - 1] + (C.comp[(c[k], c[k - 1])],) + c[k + 1:] for k in range(1, n)]
            faces[name] = tuple(chain_ref(C, f) for f in [c[1:], *merged, c[:-1]])
    return faces


def test_nerve_faces_looked_up_equal_chain_ref(corpus):
    for name, C, _ in corpus:
        for depth in range(5):
            N = nerve(C, depth)
            assert N.face_table == reference_nerve_faces(C, depth), (name, depth)
            assert set(N.face_table) == {g for level in N.gens[1:] for g in level}
