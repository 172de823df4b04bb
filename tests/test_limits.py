"""Mapping spaces, components, finality, and (co)limits."""

import json
from pathlib import Path

import pytest

from finsimp.categories import (
    chain_category,
    disjoint_union_category,
    nerve,
    poset_category,
)
from finsimp.constructions import join_parts, product, slice_over
from finsimp.dsl import parse_document
from finsimp.groups import cyclic_group, one_object_groupoid
from finsimp.lifting import LiftingProblem, is_kan, is_quasicategory, matching_simplices, solve_lift
from finsimp.limits import colimit, is_final, is_initial, limit, mapping_space, pi0
from finsimp.simplicial import (
    EMPTY,
    MapSearch,
    SimplicialMap,
    TruncationError,
    codegeneracy_map,
    coface_map,
    compose,
    discrete_simplicial_set,
    enumerate_maps,
    from_level_data,
    horn,
    identity_map,
    simplex_boundary,
    standard_simplex,
    truncate,
    validate,
)
from finsimp.constructions import product_of_maps
from witness_check import check_sphere_witness


# ---------------------------------------------------------------------------
# Mapping spaces.


def test_mapping_space_of_interval():
    edge = standard_simplex(1)
    forward = mapping_space(edge, "0", "1", 1)
    assert validate(forward) == []
    assert len(forward.gens[0]) == 1
    assert pi0(forward) == ((forward.gens[0][0],),)

    backward = mapping_space(edge, "1", "0", 0)
    assert backward.gens[0] == ()

    loop = mapping_space(edge, "0", "0", 0)
    assert len(loop.gens[0]) == 1


def test_loop_space_of_group_nerve():
    N = nerve(one_object_groupoid(cyclic_group(2)), 3)
    loops = mapping_space(N, "pt", "pt", 2)
    assert validate(loops) == []
    # one path component per group element, each contractible
    assert len(loops.gens[0]) == 2
    assert len(pi0(loops)) == 2
    assert is_kan(loops, 1).holds


def test_mapping_space_in_poset_nerve_is_a_point():
    C = poset_category(["1", "3", "12"], lambda a, b: int(b) % int(a) == 0)
    N = nerve(C, 3)
    M = mapping_space(N, "3", "12", 1)
    assert len(M.gens[0]) == 1
    assert len(M.gens[1]) == 0


def test_mapping_space_requires_deep_enough_window():
    N = nerve(one_object_groupoid(cyclic_group(2)), 3)
    with pytest.raises(TruncationError):
        mapping_space(truncate(N, 2), "pt", "pt", 2)


def test_mapping_space_rejects_non_vertices():
    with pytest.raises(ValueError):
        mapping_space(standard_simplex(1), "01", "0", 0)


# ---------------------------------------------------------------------------
# Components.


def test_pi0_of_connected_and_discrete_sets():
    assert pi0(standard_simplex(3)) == (("0", "1", "2", "3"),)
    assert pi0(discrete_simplicial_set(["a", "b"])) == (("a",), ("b",))
    assert pi0(EMPTY) == ()


def test_pi0_counts_nerve_components():
    G = one_object_groupoid(cyclic_group(3))
    C = disjoint_union_category(G, G)
    assert len(pi0(nerve(C, 2))) == 2


def test_pi0_needs_the_one_skeleton():
    with pytest.raises(TruncationError):
        pi0(truncate(standard_simplex(2), 0))


# ---------------------------------------------------------------------------
# Final and initial vertices.


def test_final_vertices_of_simplices():
    for n in (2, 3):
        S = standard_simplex(n)
        assert is_final(S, str(n), min(n, 3)).holds
        assert is_initial(S, "0", min(n, 3)).holds


def test_non_final_vertex_has_sphere_witness():
    S = standard_simplex(2)
    res = is_final(S, "0", 2)
    assert not res.holds
    assert res.witness is not None
    # the witness sphere really ends at the tested vertex
    n = res.witness.source.bound + 1
    assert res.witness.assign[str(n)].gen == "0"

    res2 = is_initial(S, "2", 1)
    assert not res2.holds
    assert res2.witness.assign["0"].gen == "2"


def test_finality_matches_terminal_objects(corpus):
    def categorical_terminals(C):
        return sorted(t for t in C.objects if all(len(C.hom(a, t)) == 1 for a in C.objects))

    def categorical_initials(C):
        return sorted(s for s in C.objects if all(len(C.hom(s, b)) == 1 for b in C.objects))

    for name, C, _ in corpus:
        N = nerve(C, 4)
        finals = sorted(v for v in N.gens[0] if is_final(N, v, 2).holds)
        initials = sorted(v for v in N.gens[0] if is_initial(N, v, 2).holds)
        assert finals == categorical_terminals(C), name
        assert initials == categorical_initials(C), name


def test_final_and_initial_agree_on_group_nerves():
    for order in (2, 3):
        N = nerve(one_object_groupoid(cyclic_group(order)), 4)
        for depth in (1, 2):
            f = is_final(N, "pt", depth)
            i = is_initial(N, "pt", depth)
            assert f.holds == i.holds
            # a sphere prescribing a wrong composite cannot fill
            assert f.holds == (depth == 1)


def reference_extension_check(C, v, N, pinned):
    """(holds, witness assignment), scanning enumerate_maps of the pinned spheres."""
    for n in range(1, N + 1):
        for t in enumerate_maps(simplex_boundary(n)[0], C, fixed={pinned(n): C.generator(v)}):
            if not matching_simplices(C, t.assign, n):
                return False, t.assign
    return True, None


def finality_sets(corpus):
    golden = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())
    sets = [(name, nerve(C, 4)) for name, C, _ in corpus]
    sets.append(("chain3", nerve(chain_category(3), 4)))
    sets.append(("Twin", parse_document(golden["documents"]["extra"]).value("Twin")))
    sets.append(("sphere2", simplex_boundary(2)[0]))
    return sets


def test_finality_reports_the_enumerate_maps_witness(corpus):
    for name, C in finality_sets(corpus):
        for v in C.gens[0]:
            for check, pinned in [(is_final, str), (is_initial, lambda n: "0")]:
                res = check(C, v, 3)
                want = reference_extension_check(C, v, 3, pinned)
                got = res.holds, res.witness and res.witness.assign
                assert got == want, (name, v, check.__name__)
                assert res.checked_to == 3


def test_finality_witnesses_pass_the_independent_check(corpus):
    failed = 0
    for name, C in finality_sets(corpus):
        for v in C.gens[0]:
            for check, pinned in [(is_final, lambda n: n), (is_initial, lambda n: 0)]:
                res = check(C, v, 3)
                if not res.holds:
                    check_sphere_witness(C, v, res, pinned)
                    failed += 1
    assert failed >= 20


def test_finality_guards():
    S = standard_simplex(2)
    with pytest.raises(ValueError):
        is_final(S, "2", 0)
    with pytest.raises(TruncationError):
        is_final(truncate(S, 1), "2", 2)


# ---------------------------------------------------------------------------
# Limits and colimits.


DIVISORS = ["1", "2", "3", "4", "6", "12"]


def divisor_nerve():
    C = poset_category(DIVISORS, lambda a, b: int(b) % int(a) == 0)
    return nerve(C, 4)


def pair_diagram(N, a, b):
    K = discrete_simplicial_set(["p", "q"])
    return SimplicialMap(K, N, {"p": N.generator(a), "q": N.generator(b)})


def test_limit_is_gcd_and_colimit_is_lcm():
    N = divisor_nerve()
    assert not N.truncated
    cases = [("4", "6", "2", "12"), ("2", "3", "1", "6"), ("4", "12", "4", "12")]
    for a, b, meet, join_ in cases:
        lim = limit(pair_diagram(N, a, b), 2)
        assert lim.apex == meet
        assert lim.passers == (meet,)
        assert bool(lim)
        colim = colimit(pair_diagram(N, a, b), 2)
        assert colim.apex == join_
        assert colim.passers == (join_,)


def test_limits_and_colimits_refuse_to_look_past_a_window():
    # the slice of a two-point diagram at depth 2 maps the 3-simplices of Δ2 * K into the
    # nerve, which a window cut at 2 lacks (1 | 2 | 4 | 12 is a longer chain)
    window = truncate(divisor_nerve(), 2)
    assert window.truncated
    for search, what in [(limit, "slice"), (colimit, "coslice")]:
        with pytest.raises(TruncationError, match=f"^{what} to depth 2 needs simplices past the window bound 2$"):
            search(pair_diagram(window, "4", "6"), 2)
        assert search(pair_diagram(window, "4", "6"), 1).passers == search(pair_diagram(divisor_nerve(), "4", "6"), 1).passers


def test_limit_cone_map_restricts_to_the_diagram():
    N = divisor_nerve()
    p = pair_diagram(N, "4", "6")
    lim = limit(p, 2)
    cone = lim.cone
    assert cone.target == N
    assert cone.assign["r.p"].gen == "4"
    assert cone.assign["r.q"].gen == "6"
    assert cone.assign["l.0"].gen == "2"


def test_limit_files_no_full_face_index_for_pinned_cells():
    # each top cell of a slice level holds a pinned vertex, so its candidates are
    # derived from generators (face_lookup) rather than a table of all simplices
    N = divisor_nerve()
    p = pair_diagram(N, "4", "6")
    assert limit(p, 2).apex == "2"
    pinned = set()
    for n in range(3):
        parts = join_parts(standard_simplex(n), p.source)
        search = MapSearch(parts.sset, N, {name: p.assign[y] for y, name in parts.right.items()})
        for dim, positions, ties, *_ in search.steps:
            if any(slot < len(search.pins) for slot, *_ in ties):
                pinned.add((dim, positions))
    assert pinned
    assert not pinned & set(N._index_memo)


def assert_ids_only(S):
    assert S._gen_index_memo
    for memo in (S._index_memo, S._gen_index_memo):
        for table in memo.values():
            assert all(type(x) is int for key, zs in table.items() for x in (*key, *zs))


def test_pinned_and_constrained_searches_build_no_tables_of_simplices():
    # every search runs on ids: its tables hold ints
    for run in (lambda N: limit(pair_diagram(N, "4", "6"), 2), lambda N: colimit(pair_diagram(N, "4", "6"), 2)):
        N = divisor_nerve()
        assert run(N)
        assert_ids_only(N)
    N = divisor_nerve()
    # 12 is terminal, so the slice over it is the whole nerve again
    assert slice_over(SimplicialMap(standard_simplex(0), N, {"0": N.generator("12")}), 2).size_vector() == (6, 12, 10)
    assert_ids_only(N)
    N = divisor_nerve()
    assert mapping_space(N, "2", "12", 2).size_vector() == (1, 0, 0)
    assert_ids_only(N)
    # pinned on the horn, constrained to lie over the square's bottom: the lift is the bottom
    N = divisor_nerve()
    faces = tuple(N.generator(e) for e in ("le_4_12", "le_2_12", "le_2_4"))
    chain = next(t for t in N.gens[2] if N.face_table[t] == faces)
    sigma = enumerate_maps(standard_simplex(2), N, fixed={"012": N.generator(chain)})[0]
    incl = horn(2, 1)[1]
    assert solve_lift(LiftingProblem(incl, identity_map(N), compose(sigma, incl), sigma)) == sigma
    assert_ids_only(N)


def test_limit_of_empty_diagram_is_terminal_vertex():
    N = divisor_nerve()
    p = SimplicialMap(EMPTY, N, {})
    assert limit(p, 2).apex == "12"
    assert colimit(p, 2).apex == "1"


def test_limit_can_fail():
    N = nerve(poset_category(["a", "b"], lambda x, y: x == y), 2)
    res = limit(pair_diagram(N, "a", "b"), 1)
    assert not res
    assert res.apex is None
    assert res.passers == ()


def test_failing_results_are_falsy():
    # results are named tuples, which are truthy unless __bool__ says otherwise
    kan = is_kan(standard_simplex(1), 2)
    assert not kan.holds and not kan
    N = nerve(poset_category(["a", "b"], lambda x, y: x == y), 2)
    res = colimit(pair_diagram(N, "a", "b"), 1)
    assert res.apex is None and not res


# ---------------------------------------------------------------------------
# Functor spaces assemble into quasi-categories.


def test_interval_functors_into_group_nerve_form_a_quasicategory():
    N = nerve(one_object_groupoid(cyclic_group(2)), 4)
    edge = standard_simplex(1)
    levels = [
        enumerate_maps(product(standard_simplex(n), edge), N) for n in range(3)
    ]
    # functors [n]x[1] -> BZ/2: free on covering edges modulo one
    # relation per commuting square, so 2^1, 2^3, 2^5
    assert [len(level) for level in levels] == [2, 8, 32]

    def face_fn(n, k, F):
        return compose(F, product_of_maps(coface_map(n, k), identity_map(edge)))

    def degeneracy_fn(n, k, F):
        return compose(F, product_of_maps(codegeneracy_map(n + 1, k), identity_map(edge)))

    F, _ = from_level_data(levels, face_fn, degeneracy_fn, truncated=True)
    assert validate(F) == []
    assert is_quasicategory(F, 2).holds
