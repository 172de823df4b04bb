"""Horn filling, Kan/quasi-category checks, lifting problems, fibrations."""

import gc
import itertools
import json
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finsimp.categories import chain_category, is_groupoid, nerve, nerve_detect
from finsimp.dsl import parse_document
from finsimp.groups import cyclic_group, one_object_groupoid, symmetric_group
from finsimp.lifting import (
    CheckResult,
    HornMap,
    LiftingProblem,
    FibrationResult,
    has_unique_inner_fillers,
    horn_fillers,
    horn_maps,
    is_kan,
    is_kan_fibration,
    is_quasicategory,
    is_trivial_fibration,
    _joined,
    _restrictions,
    matching_simplices,
    solve_lift,
)
from finsimp.simplicial import (
    MapSearch,
    SimplicialSet,
    TruncationError,
    codegeneracy_map,
    compose,
    constant_map,
    enumerate_maps,
    horn,
    identity_map,
    simplex_boundary,
    standard_simplex,
    truncate,
)
from finsimp.limits import is_final, is_initial
from reference_search import scanned_horns
from strategies import small_categories, small_groupoids, small_monoids, small_simplicial_sets
from witness_check import check_horn_witness, check_sphere_witness, check_square_witness, scan_fillers

EXTRA = parse_document(
    json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())["documents"]["extra"]
)


# --- horn map counting oracles -----------------------------------------------

def test_low_horn_maps_count_vertices():
    S = standard_simplex(2)
    for i in (0, 1):
        assert len(horn_maps(S, 1, i)) == 3


def test_middle_horn_maps_into_an_edge():
    # maps of the composable-pair shape into the edge = weakly increasing
    # triples in {0, 1}
    maps = horn_maps(standard_simplex(1), 2, 1)
    triples = [t for t in itertools.product(range(2), repeat=3) if t[0] <= t[1] <= t[2]]
    assert len(maps) == len(triples)


def test_outer_horn_maps_into_a_group_nerve():
    N = nerve(one_object_groupoid(cyclic_group(2)), 3)
    assert len(horn_maps(N, 2, 0)) == 4


def test_horn_fillers_in_the_full_simplex():
    S = standard_simplex(2)
    for hm in horn_maps(S, 2, 1):
        assert len(horn_fillers(S, hm)) >= 1


# --- Kan and quasi-category checks -------------------------------------------

def test_edge_is_not_kan_but_is_quasicategory():
    S = standard_simplex(1)
    res = is_kan(S, 2)
    assert not res.holds
    assert res.witness.n == 2 and res.witness.i in (0, 2)
    assert is_quasicategory(S, 2).holds


def test_boundary_of_triangle_is_not_a_quasicategory():
    B, _ = simplex_boundary(2)
    res = is_quasicategory(B, 2)
    assert not res.holds
    assert res.witness.i == 1


def test_kan_iff_groupoid_over_corpus(corpus):
    for name, C, expect_gpd in corpus:
        N = nerve(C, 4)
        res = is_kan(N, 3)
        assert res.holds == expect_gpd, name
        if not expect_gpd:
            # the witness is always an outer horn
            assert res.witness.i in (0, res.witness.n), name


def test_nerves_are_quasicategories_with_unique_inner_fillers(corpus):
    for name, C, _ in corpus:
        N = nerve(C, 4)
        assert is_quasicategory(N, 3).holds, name
        uniq = has_unique_inner_fillers(N, 3)
        assert uniq.holds, name


def test_unique_fillers_fail_on_a_kan_complex_with_loops():
    # the free homotopy from g to itself gives two fillers for one inner horn
    N = nerve(one_object_groupoid(cyclic_group(2)), 4)
    assert has_unique_inner_fillers(N, 3).holds
    # shrink the check: fillers of a middle horn in the 2-truncated window
    W = truncate(N, 2)
    with pytest.raises(TruncationError):
        has_unique_inner_fillers(W, 3)


def test_checks_guard_windows():
    W = truncate(standard_simplex(3), 2)
    with pytest.raises(TruncationError):
        is_kan(W, 3)
    assert is_quasicategory(W, 2).holds
    with pytest.raises(ValueError):
        is_kan(standard_simplex(1), 0)


# --- lifting problems ---------------------------------------------------------

def test_solve_lift_composable_pair():
    # a composable pair in the nerve of the walking arrow lifts uniquely
    from finsimp.categories import arrow_category

    N = nerve(arrow_category(), 3)
    H, incl = horn(2, 1)
    p = constant_map(N, standard_simplex(0), "0")
    for hm in horn_maps(N, 2, 1):
        bottom = constant_map(standard_simplex(2), standard_simplex(0), "0")
        problem = LiftingProblem(incl, p, hm.assignment, bottom)
        assert problem.validate() == []
        sols = solve_lift(problem, find_all=True)
        assert len(sols) == 1
        lift = solve_lift(problem)
        assert compose(p, lift) == bottom
        assert lift.assign["01"] == hm.assignment.assign["01"]


def test_solve_lift_unsolvable():
    S = standard_simplex(1)
    H, incl = horn(2, 0)
    hms = horn_maps(S, 2, 0)
    p = constant_map(S, standard_simplex(0), "0")
    bottom = constant_map(standard_simplex(2), standard_simplex(0), "0")
    bad = [
        hm for hm in hms
        if hm.assignment.assign["01"].gen == "01" and hm.assignment.assign["02"].word
    ]
    assert bad
    problem = LiftingProblem(incl, p, bad[0].assignment, bottom)
    assert solve_lift(problem) is None
    assert solve_lift(problem, find_all=True) == []


def test_solve_lift_without_find_all_is_the_first_of_all_lifts():
    # the three edges of B Z3 fill the boundary of an edge; the first in map_key order is kept
    X = nerve(one_object_groupoid(cyclic_group(3)), 2)
    B, incl = simplex_boundary(1)
    p = constant_map(X, standard_simplex(0), "0")
    top = constant_map(B, X, X.gens[0][0])
    bottom = constant_map(standard_simplex(1), standard_simplex(0), "0")
    problem = LiftingProblem(incl, p, top, bottom)
    assert problem.validate() == []
    sols = solve_lift(problem, find_all=True)
    assert len(sols) == 3
    assert solve_lift(problem) == sols[0] == enumerate_maps(incl.target, X, fixed=top.assign, limit=1)[0]


def test_lifting_problem_validation_catches_non_commuting_squares():
    S = standard_simplex(1)
    H, incl = horn(1, 0)
    top = enumerate_maps(H, S)[0]
    p = identity_map(S)
    bottom = constant_map(S, S, "1")  # wrong: does not extend the top corner
    problem = LiftingProblem(incl, p, top, bottom)
    assert any("commute" in line for line in problem.validate())


# --- fibration checks ---------------------------------------------------------

def test_group_nerve_collapse_is_a_kan_fibration():
    N = nerve(one_object_groupoid(cyclic_group(2)), 4)
    p = constant_map(N, standard_simplex(0), "0")
    res = is_kan_fibration(p, 3)
    assert res.holds


def test_edge_collapse_is_a_kan_fibration_only_at_depth_one():
    S = standard_simplex(1)
    p = constant_map(S, standard_simplex(0), "0")
    assert is_kan_fibration(p, 1).holds
    res = is_kan_fibration(p, 2)
    assert not res.holds
    assert res.witness.validate() == []


def test_edge_collapse_is_not_a_trivial_fibration():
    S = standard_simplex(1)
    p = constant_map(S, standard_simplex(0), "0")
    res = is_trivial_fibration(p, 1)
    assert not res.holds
    witness_top = res.witness.top
    # the unsolvable sphere swaps the endpoints
    assert witness_top.assign["0"].gen == "1"
    assert witness_top.assign["1"].gen == "0"
    assert res.witness.validate() == []


def test_identity_is_a_trivial_fibration():
    S = standard_simplex(2)
    assert is_trivial_fibration(identity_map(S), 2).holds


def test_point_collapse_of_point_is_everything():
    S = standard_simplex(0)
    p = identity_map(S)
    assert is_kan_fibration(p, 2).holds
    assert is_trivial_fibration(p, 2).holds


def test_fibration_result_shape():
    S = standard_simplex(0)
    res = is_kan_fibration(identity_map(S), 1)
    assert isinstance(res, FibrationResult)
    assert res.checked_to == 1
    assert bool(res)


def test_kan_check_reaches_max_dim():
    res = is_kan(standard_simplex(0), 9)
    assert res.holds and res.checked_to == 9


# --- witness order: the enumerate_maps scans the checks replaced ----------------

def reference_horn_scan(K, N, inner, ok):
    """(holds, witness assignment, checked_to, count), scanning enumerate_maps(horn(n, i))."""
    for n in range(2 if inner else 1, N + 1):
        for i in range(1, n) if inner else range(n + 1):
            for f in enumerate_maps(horn(n, i)[0], K):
                fillers = matching_simplices(K, f.assign, n, i)
                if not ok(fillers):
                    return False, (n, i, f.assign), N, len(fillers)
    return True, None, N, None


def reference_lifting_check(p, N, boundary):
    """(holds, (top assignment, unliftable simplex)), scanning enumerate_maps of the shapes."""
    X, Y = p.source, p.target
    for n in range(1, N + 1):
        for i in [None] if boundary else range(n + 1):
            A = simplex_boundary(n)[0] if i is None else horn(n, i)[0]
            for top in enumerate_maps(A, X):
                for zY in matching_simplices(Y, compose(p, top).assign, n, i):
                    if not any(p.apply(zX) == zY for zX in matching_simplices(X, top.assign, n, i)):
                        return False, (top.assign, zY)
    return True, None


def scan_outcome(res):
    witness = res.witness and (res.witness.n, res.witness.i, res.witness.assignment.assign)
    return res.holds, witness, res.checked_to, res.count


def witness_order_sets(corpus):
    sets = [(name, nerve(C, 4)) for name, C, _ in corpus]
    sets.append(("chain3", nerve(chain_category(3), 4)))
    sets.append(("Twin", EXTRA.value("Twin")))
    sets.append(("Horn", EXTRA.value("Horn")))
    sets.append(("edge", standard_simplex(1)))
    sets.append(("sphere2", simplex_boundary(2)[0]))
    return sets


def test_horn_checks_report_the_enumerate_maps_witness(corpus):
    for name, K in witness_order_sets(corpus):
        N = 3
        assert scan_outcome(is_kan(K, N)) == reference_horn_scan(K, N, False, bool), name
        assert scan_outcome(is_quasicategory(K, N)) == reference_horn_scan(K, N, True, bool), name
        want = reference_horn_scan(K, N, True, lambda fillers: len(fillers) == 1)
        assert scan_outcome(has_unique_inner_fillers(K, N)) == want, name
        detected = nerve_detect(K, N)
        if want[0]:
            assert detected.reason is None or "inner horn" not in detected.reason, name
        else:
            n, i, _ = want[1]
            many = "no filler" if want[3] == 0 else "multiple fillers"
            assert detected.reason == f"inner horn ({n}, {i}) map with {many}", name


def fibration_maps(corpus):
    point = standard_simplex(0)
    return [
        (name, constant_map(nerve(C, 3), point, "0")) for name, C, _ in corpus
    ] + [
        ("chain3", constant_map(nerve(chain_category(3), 3), point, "0")),
        ("edge", constant_map(standard_simplex(1), point, "0")),
        ("codegeneracy", codegeneracy_map(2, 0)),
        ("identity", identity_map(standard_simplex(2))),
        ("Fold", EXTRA.value("Fold")),
        ("Crush", EXTRA.value("Crush")),
    ]


def test_fibration_checks_report_the_enumerate_maps_witness(corpus):
    for name, p in fibration_maps(corpus):
        for check, boundary in [(is_kan_fibration, False), (is_trivial_fibration, True)]:
            res = check(p, 2)
            want = reference_lifting_check(p, 2, boundary)
            assert res.holds == want[0], (name, check.__name__)
            assert res.checked_to == 2
            if not res.holds:
                top, zY = want[1]
                assert res.witness.top.assign == top, (name, check.__name__)
                n = res.witness.bottom.source.bound
                assert res.witness.bottom.assign["".join(map(str, range(n + 1)))] == zY
                assert res.witness.validate() == []


def filler_shapes():
    """(shape, n, skip) for every horn and every sphere of dimension at most 3."""
    for n in range(1, 4):
        for skip in [*range(n + 1), None]:
            yield (simplex_boundary(n) if skip is None else horn(n, skip))[0], n, skip


def assert_fillers_match_the_linear_scan(K):
    for A, n, skip in filler_shapes():
        for f in enumerate_maps(A, K):
            assert list(matching_simplices(K, f.assign, n, skip)) == scan_fillers(K, f.assign, n, skip)


def test_matching_simplices_matches_the_linear_scan(corpus):
    # the witness-order oracles look fillers up with matching_simplices, so it has an
    # oracle of its own: the linear scan of witness_check, which uses no face index
    for _, C, _ in corpus:
        assert_fillers_match_the_linear_scan(nerve(C, 3))


@settings(max_examples=40)
@given(small_simplicial_sets())
def test_matching_simplices_matches_the_linear_scan_on_generated_sets(K):
    assert_fillers_match_the_linear_scan(K)


def test_kan_scan_files_the_tables_of_the_map_search():
    # a horn (n, i) that holds is decided by counting, so a Kan check that holds files no
    # table of its top level: only the tables one level down that the searches of its horn
    # maps join on.  They run on ids, so the tables hold ints
    G = one_object_groupoid(symmetric_group(3))
    N = nerve(G, 4)
    assert is_kan(N, 4)
    assert max(n for n, _ in N._index_memo) == 3
    searched = nerve(G, 4)
    for n, i in ((n, i) for n in range(1, 5) for i in range(n + 1)):
        MapSearch(horn(n, i)[0], searched).join()
    assert set(N._index_memo) == set(searched._index_memo)
    assert len(N._index_memo) == 20
    assert all(
        type(x) is int for table in N._index_memo.values() for key, zs in table.items() for x in (*key, *zs)
    )


# --- counting verdicts: the horn checks against the scan they replaced -----------

def assert_counts_agree_with_the_scan(K, N):
    # verdict, witness, count and depth: a failing (n, i) is scanned as before, and
    # an (n, i) that holds by counting must hold by scanning
    for check, inner, unique in [(is_kan, False, False), (is_quasicategory, True, False),
                                 (has_unique_inner_fillers, True, True)]:
        assert check(K, N) == scanned_horns(K, N, inner, unique), check.__name__


def without_a_top_generator(S, pick):
    """S as a window without one generator of its highest non-empty level (the pick-th, cyclically); None if S is empty."""
    top = next((level for level in reversed(S.gens) if level), None)
    if top is None:
        return None
    g = top[pick % len(top)]
    faces = {h: refs for h, refs in S.face_table.items() if h != g}
    return SimplicialSet([[h for h in level if h != g] for level in S.gens], faces, truncated=True)


GENERATED = {
    "categories": small_categories(),
    "monoids": small_monoids(),
    "groupoids": small_groupoids(),  # of perm_groups on random generators, and discrete
}


@pytest.mark.parametrize("family", GENERATED)
@settings(max_examples=30)
@given(data=st.data())
def test_counting_verdicts_equal_the_scan_on_generated_nerves(family, data):
    K = nerve(data.draw(GENERATED[family]), 4)
    assert_counts_agree_with_the_scan(K, data.draw(st.integers(1, 4)))
    # a nerve window one top simplex short: the horn of its facets has no filler
    planted = without_a_top_generator(K, data.draw(st.integers(0, 99)))
    if planted is not None:
        assert_counts_agree_with_the_scan(planted, 4)


@settings(max_examples=40)
@given(small_simplicial_sets(), st.integers(1, 3))
def test_counting_verdicts_equal_the_scan_on_generated_sets(K, N):
    # repeated triangles give horns with several fillers, so unique fillers fail by count
    assert_counts_agree_with_the_scan(K, N)


def test_a_planted_failure_is_found_by_the_scan_of_its_horn():
    K = without_a_top_generator(nerve(one_object_groupoid(symmetric_group(3)), 3), 0)
    assert (_restrictions(K, 3, 1), _joined(K, 3, 1)[1], len(K.gens[3])) == (215, 216, 124)
    res = has_unique_inner_fillers(K, 3)
    assert (res.holds, res.witness.n, res.witness.i, res.count) == (False, 3, 1, 0)
    assert not is_kan(K, 3) and not is_quasicategory(K, 3)
    assert_counts_agree_with_the_scan(K, 3)


def assert_lazy(N, handed_back=()):
    """N has no derived face table, and no level of it outside `handed_back` has made its simplices."""
    assert N._level_memo
    assert N._face_table is None
    assert all(level._refs is None for n, level in N._level_memo.items() if n not in handed_back)


def test_scans_make_no_simplices_of_the_levels_they_do_not_hand_back():
    # a scan reads face ids: a nerve's face table stays underived and its levels make no
    # SimplexRef, except the levels whose simplices a witness holds
    N = nerve(one_object_groupoid(symmetric_group(3)), 4)
    assert is_kan(N, 4)
    assert_lazy(N)
    N = nerve(chain_category(4), 5)
    assert is_quasicategory(N, 5)
    assert_lazy(N)
    N = nerve(chain_category(3), 3)
    res = is_kan(N, 3)
    assert not res and res.witness.n == 2
    assert_lazy(N, handed_back={0, 1})
    assert N._level_memo[2]._refs is None


def test_nerve_detect_reads_the_tables_of_its_inner_horn_scan():
    # the composite lookup reads the table the (3, i) horn searches join on and the
    # isomorphism check the generator index, so nerve_detect files no id table the
    # unique-filler check does not
    G = one_object_groupoid(symmetric_group(3))
    N = nerve(G, 3)
    assert has_unique_inner_fillers(N, 3)
    scan = set(N._index_memo)
    N = nerve(G, 3)
    assert nerve_detect(N, 3).category is not None
    assert set(N._index_memo) == scan
    # the unique-filler check that holds files no table of level 3, its top level
    assert len(scan) == 6 and max(n for n, _ in scan) == 2
    for memo in (N._index_memo, N._gen_index_memo):
        for table in memo.values():
            assert all(type(x) is int for key, zs in table.items() for x in (*key, *zs))


def test_scans_and_searches_leave_no_cyclic_garbage_on_the_set():
    # the memos on a set hold ints and simplices, never the set: it dies with its last name
    gc.collect()
    gc.disable()
    try:
        N = nerve(one_object_groupoid(symmetric_group(3)), 3)
        assert is_kan(N, 3)
        assert len(enumerate_maps(horn(3, 1)[0], N)) == 216
        alive = weakref.ref(N)
        del N
        assert alive() is None
    finally:
        gc.enable()


# --- witnesses re-checked without the map search -------------------------------

HORN_CHECKS = [(is_kan, False), (is_quasicategory, False), (has_unique_inner_fillers, True)]


def test_failed_checks_have_witnesses_the_independent_check_accepts(corpus):
    failed = 0
    for name, K in witness_order_sets(corpus):
        for check, unique in HORN_CHECKS:
            res = check(K, 3)
            if not res.holds:
                check_horn_witness(K, res, unique)
                failed += 1
    for name, p in fibration_maps(corpus):
        for check in (is_kan_fibration, is_trivial_fibration):
            res = check(p, 2)
            if not res.holds:
                check_square_witness(p, res)
                failed += 1
    assert failed >= 20


@settings(max_examples=40)
@given(small_simplicial_sets())
def test_witnesses_on_random_sets_pass_the_independent_check(K):
    for check, unique in HORN_CHECKS:
        res = check(K, 3)
        if not res.holds:
            check_horn_witness(K, res, unique)
    p = constant_map(K, standard_simplex(0), "0")
    for check in (is_kan_fibration, is_trivial_fibration):
        res = check(p, 2)
        if not res.holds:
            check_square_witness(p, res)
    for v in K.gens[0]:
        for check, pinned in [(is_final, lambda n: n), (is_initial, lambda n: 0)]:
            res = check(K, v, 2)
            if not res.holds:
                check_sphere_witness(K, v, res, pinned)


def test_the_independent_check_rejects_a_fillable_horn():
    S = standard_simplex(1)
    res = is_kan(S, 2)
    check_horn_witness(S, res)
    fillable = CheckResult(False, horn_maps(S, 2, 1)[0], 2, 0)
    with pytest.raises(AssertionError):
        check_horn_witness(S, fillable)


# --- solve_lift ------------------------------------------------------------------

def lifting_squares():
    """The squares of the solve_lift tests, and spheres over a point, some with several lifts."""
    from finsimp.categories import arrow_category

    N = nerve(arrow_category(), 3)
    point = standard_simplex(0)
    squares = [
        LiftingProblem(horn(2, 1)[1], constant_map(N, point, "0"), hm.assignment,
                       constant_map(standard_simplex(2), point, "0"))
        for hm in horn_maps(N, 2, 1)
    ]
    S = standard_simplex(1)
    for hm in horn_maps(S, 2, 0):
        squares.append(LiftingProblem(horn(2, 0)[1], constant_map(S, point, "0"), hm.assignment,
                                      constant_map(standard_simplex(2), point, "0")))
    for K in (nerve(one_object_groupoid(cyclic_group(2)), 3), nerve(chain_category(2), 3)):
        p = constant_map(K, point, "0")
        for n in (1, 2):
            B, incl = simplex_boundary(n)
            for top in enumerate_maps(B, K):
                squares.append(LiftingProblem(incl, p, top, constant_map(standard_simplex(n), point, "0")))
    return squares


def test_solve_lift_returns_the_first_of_all_lifts():
    several = 0
    for problem in lifting_squares():
        assert problem.validate() == []
        lifts = solve_lift(problem, find_all=True)
        assert solve_lift(problem) == (lifts[0] if lifts else None)
        several += len(lifts) > 1
    assert several
