"""Parsing, diagnostics, and round-trips of the text format."""

import pytest

from finsimp.actions import action_groupoid, validate_action
from finsimp.categories import arrow_category, as_groupoid, build_category, nerve
from finsimp.dsl import (
    Document,
    DslParseError,
    parse_document,
    print_document,
    sanitize_sset,
)
from finsimp.groups import cyclic_group, one_object_groupoid, symmetric_group
from finsimp.simplicial import standard_simplex, validate


POINT = "sset pt { dim 0; gen 0 v; }\n"

EDGE = """
sset edge {
  dim 1;
  gen 0 a b;
  gen 1 e;
  face e 0 -> [] b;
  face e 1 -> [] a;
}
"""

Z2 = "group Z2 { elements e g1; unit e; mul g1.g1 = e; }\n"

WALKING_ISO = """
groupoid W {
  obj a b;
  mor u: a -> b;
  mor v: b -> a;
  comp v.u = id_a;
  comp u.v = id_b;
}
"""


def parse_one(text, name):
    return parse_document(text).value(name)


# ---------------------------------------------------------------------------
# Happy paths.


def test_point_document():
    doc = parse_document(POINT)
    assert doc.kind("pt") == "sset"
    S = doc.value("pt")
    assert S.size_vector() == (1,)
    assert validate(S) == []


def test_edge_document_matches_interval_shape():
    S = parse_one(EDGE, "edge")
    assert S.size_vector() == (2, 1)
    assert S.face_table["e"][0].gen == "b"
    assert S.face_table["e"][1].gen == "a"


def test_degenerate_face_words_parse():
    text = """
    sset collapsed {
      dim 2;
      gen 0 a;
      gen 2 t;
      face t 0 -> [0] a;
      face t 1 -> [0] a;
      face t 2 -> [0] a;
    }
    """
    S = parse_one(text, "collapsed")
    assert validate(S) == []
    assert S.face_table["t"][0].word == (0,)


def test_category_block_matches_builder():
    text = "category C { obj a b; mor f: a -> b; }\n"
    C = parse_one(text, "C")
    assert C == arrow_category()


def test_groupoid_block_with_identity_composites():
    W = parse_one(WALKING_ISO, "W")
    expected = as_groupoid(
        build_category(
            ["a", "b"],
            {"u": ("a", "b"), "v": ("b", "a")},
            {("v", "u"): "id_a", ("u", "v"): "id_b"},
        )
    )
    assert W == expected
    assert W.inverses["u"] == "v"


def test_group_table_block():
    G = parse_one(Z2, "Z2")
    H = cyclic_group(2)
    assert G.elements == H.elements
    assert G.unit == H.unit
    assert G.mul == H.mul


def test_perm_group_one_liner():
    text = "group S3 perm 3 gens (0 1), (1 2);\n"
    G = parse_one(text, "S3")
    H = symmetric_group(3)
    assert G.elements == H.elements
    assert G.mul == H.mul

    text2 = "group A { elements e; unit e; }\ngroup C3 perm 3 gens (0 1 2);\n"
    C3 = parse_document(text2).value("C3")
    assert len(C3.elements) == 3


def test_action_block():
    text = Z2 + "action swap { group Z2; on a b; act g1 a = b; act g1 b = a; }\n"
    doc = parse_document(text)
    A = doc.value("swap")
    assert validate_action(A) == []
    AG = action_groupoid(A)
    assert len(AG.objects) == 2
    assert len(AG.morphisms) == 4


def test_map_block_between_ssets():
    text = POINT + EDGE + "map collapse: edge -> pt { a -> [] v; b -> [] v; e -> [0] v; }\n"
    doc = parse_document(text)
    f = doc.value("collapse")
    assert f.source == doc.value("edge")
    assert f.assign["e"].word == (0,)


def test_map_into_a_group_uses_its_nerve():
    text = Z2 + EDGE + "map loop: edge -> Z2 { a -> [] pt; b -> [] pt; e -> [] g1; }\n"
    f = parse_document(text).value("loop")
    assert f.target.gen_dim["g1"] == 1
    # chain generators of the nerve are renamed to token-safe forms
    assert "g1_g1" in f.target.gen_dim


def test_comments_and_layout_are_free():
    text = "sset pt {\n  # a point\n  dim 0; gen 0 v;\n}\n"
    assert parse_document(text).value("pt").size_vector() == (1,)


# ---------------------------------------------------------------------------
# Diagnostics.


def diagnostics_of(text):
    with pytest.raises(DslParseError) as exc:
        parse_document(text)
    return exc.value.diagnostics


def test_unknown_face_target_is_located():
    text = "sset S {\n  dim 1;\n  gen 0 a;\n  gen 1 e;\n  face e 0 -> [] ghost;\n  face e 1 -> [] a;\n}\n"
    diags = diagnostics_of(text)
    assert any(line == 5 and "ghost" in msg for line, msg in diags)


def test_missing_face_is_reported():
    text = "sset S { dim 1; gen 0 a; gen 1 e; face e 0 -> [] a; }\n"
    diags = diagnostics_of(text)
    assert any("missing face d_1 of 'e'" in msg for _, msg in diags)


def test_nondecreasing_word_is_rejected():
    text = (
        "sset S { dim 2; gen 0 a; gen 2 t;"
        " face t 0 -> [0 1] a; face t 1 -> [0] a; face t 2 -> [0] a; }\n"
    )
    diags = diagnostics_of(text)
    assert any("strictly decreasing" in msg for _, msg in diags)


def test_missing_composite_names_the_pair():
    text = "category C { obj a b c; mor f: a -> b; mor g: b -> c; }\n"
    diags = diagnostics_of(text)
    assert any("missing composite 'g.f'" in msg for _, msg in diags)


def test_wrong_identity_composite_is_rejected():
    text = (
        "category C { obj a b; mor f: a -> b; comp id_b.f = id_b; }\n"
    )
    diags = diagnostics_of(text)
    assert any("must be f" in msg for _, msg in diags)


def test_noninvertible_groupoid_is_rejected():
    text = "groupoid C { obj a b; mor f: a -> b; }\n"
    diags = diagnostics_of(text)
    assert any("no inverse" in msg for _, msg in diags)


def test_duplicate_entity_names():
    diags = diagnostics_of(POINT + POINT)
    assert any("duplicate entity" in msg for _, msg in diags)


def test_a_failed_sset_block_stores_nothing():
    # as for every other block: a later block of the same name is no duplicate
    bad_faces = (
        "sset T { gen 0 a b; gen 1 x; gen 2 t; face x 0 -> [] b; face x 1 -> [] a; "
        "face t 0 -> [] x; face t 1 -> [] x; face t 2 -> [] x; }\n"
    )
    bad_statement = "sset T { gen 0 a; obj b; }\n"
    for first in (bad_faces, bad_statement):
        diags = diagnostics_of(first + "sset T { gen 0 a; }\n")
        assert diags and all(line == 1 for line, _ in diags)
        assert not any("duplicate entity" in msg for _, msg in diags)


def test_unknown_map_endpoint():
    text = POINT + "map f: pt -> nowhere { v -> [] v; }\n"
    diags = diagnostics_of(text)
    assert any("unknown entity 'nowhere'" in msg for _, msg in diags)


def test_unnatural_map_is_reported():
    text = (
        EDGE
        + "sset edge2 {\n  dim 1;\n  gen 0 x y;\n  gen 1 d;\n  face d 0 -> [] y;\n  face d 1 -> [] x;\n}\n"
        + "map f: edge -> edge2 { a -> [] x; b -> [] x; e -> [] d; }\n"
    )
    diags = diagnostics_of(text)
    assert any("face d_0 not preserved" in msg for _, msg in diags)


def test_group_diagnostics():
    diags = diagnostics_of("group G { elements e g; unit e; }\n")
    assert any("missing product 'g.g'" in msg for _, msg in diags)

    diags = diagnostics_of("group G { elements e g; unit e; mul e.g = e; mul g.g = e; }\n")
    assert any("unit product" in msg for _, msg in diags)


def test_perm_group_with_a_repeated_point_is_located():
    diags = diagnostics_of("group G perm 3 gens (0 1 0);")
    assert diags == ((1, "not a permutation of 0..2: (0, 0, 2)"),)


def test_perm_group_cycle_repeating_an_entry_is_located():
    # these read as permutations (the identity and (0 1)), but are not cycles
    assert diagnostics_of("group G perm 3 gens (0 0);") == ((1, "cycle (0 0) repeats 0"),)
    diags = diagnostics_of("group G\n  perm 3 gens (1 2),\n  (0 1 0 1);")
    assert diags == ((3, "cycle (0 1 0 1) repeats 0"),)


def test_dimension_above_max_dim_is_located():
    diags = diagnostics_of("sset K {\n  dim 12;\n  gen 0 a;\n}\n")
    assert diags == ((2, "dim 12 exceeds the supported maximum 9"),)
    # without a dim statement the bound comes from the generators
    diags = diagnostics_of("sset K {\n  gen 0 a;\n  gen 10 b;\n}\n")
    assert diags[0] == (3, "gen 10 exceeds the supported maximum 9")


def test_action_diagnostics():
    text = Z2 + "action A { group Z2; on a b; act g1 a = b; }\n"
    diags = diagnostics_of(text)
    assert any("missing action entry for (g1, b)" in msg for _, msg in diags)

    text = Z2 + "action A { group Z2; on a b; act g9 a = b; act g1 b = a; }\n"
    diags = diagnostics_of(text)
    assert any("unknown element 'g9'" in msg for _, msg in diags)


def test_missing_semicolon_is_reported():
    text = "sset pt { dim 0; gen 0 v }\n"
    diags = diagnostics_of(text)
    assert any("missing ';'" in msg for _, msg in diags)


def test_multiple_diagnostics_collected():
    text = (
        "sset S { dim 1; gen 0 a; gen 1 e; face e 0 -> [] ghost; }\n"
        "category C { obj a b; mor f: a -> c; }\n"
    )
    diags = diagnostics_of(text)
    assert len(diags) >= 2
    assert all(isinstance(line, int) and line >= 1 for line, _ in diags)


# ---------------------------------------------------------------------------
# Round-trips.


CORPUS_DOC = (
    POINT
    + EDGE
    + Z2
    + WALKING_ISO
    + "category Arrow { obj p q; mor f: p -> q; }\n"
    + "group S3 perm 3 gens (0 1), (1 2);\n"
    + "action swap { group Z2; on a b; act g1 a = b; act g1 b = a; }\n"
    + "map collapse: edge -> pt { a -> [] v; b -> [] v; e -> [0] v; }\n"
    + "map loop: edge -> Z2 { a -> [] pt; b -> [] pt; e -> [] g1; }\n"
)


def test_round_trip_preserves_every_entity():
    doc = parse_document(CORPUS_DOC)
    text = print_document(doc)
    doc2 = parse_document(text)
    assert doc2.order == doc.order
    for name in doc.order:
        kind = doc.kind(name)
        assert doc2.kind(name) == kind
        a, b = doc.value(name), doc2.value(name)
        if kind == "group":
            assert (a.elements, a.unit, a.mul) == (b.elements, b.unit, b.mul)
        elif kind == "action":
            assert a.act == b.act
            assert a.family.fibers == b.family.fibers
        else:
            assert a == b, name


def test_printing_is_stable():
    doc = parse_document(CORPUS_DOC)
    text = print_document(doc)
    assert text == print_document(parse_document(text))


def test_sanitize_renames_dotted_chains():
    N = nerve(one_object_groupoid(cyclic_group(2)), 3)
    S = sanitize_sset(N)
    assert validate(S) == []
    assert "g1_g1" in S.gen_dim

    doc = Document()
    doc.entities["N"] = ("sset", N)
    reparsed = parse_document(print_document(doc)).value("N")
    assert reparsed.size_vector() == N.size_vector()


def test_sanitize_leaves_clean_sets_alone():
    S = standard_simplex(2)
    assert sanitize_sset(S) is S


def test_map_value_with_an_out_of_range_degeneracy_is_located():
    # [1] a would be s_1 of a vertex: no 1-simplex has that normal form
    text = EDGE + "map m: edge -> edge { a -> [] a; b -> [] a; e -> [1] a; }\n"
    diags = diagnostics_of(text)
    assert diags == ((9, "in map m: value of 'e' is not a normal-form simplex"),)
