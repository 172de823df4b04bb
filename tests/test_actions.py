"""Groupoid actions, action groupoids, saturation, orbits, functor groupoids."""

import itertools

import pytest
from hypothesis import assume, given, settings

import reference_functors as ref
from conftest import walking_isomorphism
from finsimp.actions import (
    FamilyOverObjects,
    GroupoidAction,
    action_groupoid,
    functor_groupoid,
    group_action,
    groupoid_nerve,
    is_saturated,
    orbit_groupoid,
    restriction,
    validate_action,
)
from finsimp.categories import (
    as_groupoid,
    categories_isomorphic,
    discrete_category,
    disjoint_union_category,
    is_groupoid,
    validate_category,
)
from finsimp.groups import (
    cyclic_group,
    one_object_groupoid,
    subgroup_closure,
    symmetric_group,
)
from finsimp.lifting import is_kan
from finsimp.limits import pi0
from strategies import small_groupoids


def trivial_action():
    G = cyclic_group(3)
    act = {(g, "x"): "x" for g in G.elements if g != "e"}
    return group_action(G, ("x",), act)


def swap_action():
    G = cyclic_group(2)
    return group_action(G, ("a", "b"), {("g1", "a"): "b", ("g1", "b"): "a"})


def translation_action():
    G = cyclic_group(3)
    act = {
        (g, x): G.mul[(g, x)] for g in G.elements if g != "e" for x in G.elements
    }
    return group_action(G, G.elements, act)


def two_object_action():
    iso = as_groupoid(walking_isomorphism())
    fibers = {"a": ("x", "y"), "b": ("u", "v")}
    act = {
        ("u", "x"): "u",
        ("u", "y"): "v",
        ("v", "u"): "x",
        ("v", "v"): "y",
        ("id_a", "x"): "x",
        ("id_a", "y"): "y",
        ("id_b", "u"): "u",
        ("id_b", "v"): "v",
    }
    return GroupoidAction(FamilyOverObjects(iso, fibers), act)


ACTIONS = [
    ("trivial", trivial_action),
    ("swap", swap_action),
    ("translation", translation_action),
    ("two_object", two_object_action),
]


# ---------------------------------------------------------------------------
# Action laws.


def test_lawful_actions_validate_cleanly():
    for name, build in ACTIONS:
        assert validate_action(build()) == [], name


def test_validate_reports_the_offending_entry():
    A = swap_action()
    bad = dict(A.act)
    bad[("id_pt", "a")] = "b"
    reports = validate_action(GroupoidAction(A.family, bad))
    assert any("unit law" in r and "a" in r for r in reports)

    worse = dict(A.act)
    worse[("g1", "a")] = "a"
    reports = validate_action(GroupoidAction(A.family, worse))
    assert any("compatibility" in r for r in reports)


def test_validate_reports_typing_and_totality():
    A = two_object_action()
    missing = dict(A.act)
    del missing[("u", "x")]
    assert any("missing" in r for r in validate_action(GroupoidAction(A.family, missing)))

    offside = dict(A.act)
    offside[("u", "x")] = "y"  # lands in the fiber over a, not b
    assert any("outside" in r for r in validate_action(GroupoidAction(A.family, offside)))

    stray = dict(A.act)
    stray[("u", "nope")] = "u"
    assert any("stray" in r for r in validate_action(GroupoidAction(A.family, stray)))


def _lawful_mutants(A):
    """Well-typed single-entry rewrites of the action table."""
    out = []
    base = A.base
    fibers = A.family.fibers
    for (g, x), y in sorted(A.act.items()):
        for z in fibers[base.tgt[g]]:
            if z != y:
                table = dict(A.act)
                table[(g, x)] = z
                out.append(((g, x, z), GroupoidAction(A.family, table)))
    return out


def test_every_single_entry_mutant_is_detected():
    mutants = _lawful_mutants(translation_action()) + _lawful_mutants(swap_action())
    assert len(mutants) >= 20
    for label, mutant in mutants:
        assert validate_action(mutant) != [], label


# ---------------------------------------------------------------------------
# Action groupoids.


def test_action_groupoid_shapes():
    for name, build in ACTIONS:
        A = build()
        AG = action_groupoid(A)
        assert validate_category(AG) == [], name
        assert is_groupoid(AG).holds, name
        base = A.base
        fibers = A.family.fibers
        assert len(AG.objects) == sum(len(f) for f in fibers.values())
        # arrows = fiber product of arrow source with the family
        assert len(AG.morphisms) == sum(
            len(fibers[base.src[g]]) for g in base.morphisms
        )


def test_trivial_action_gives_the_group_back():
    AG = action_groupoid(trivial_action())
    assert categories_isomorphic(AG, one_object_groupoid(cyclic_group(3)))


def test_swap_action_groupoid_is_connected():
    AG = action_groupoid(swap_action())
    assert len(AG.objects) == 2
    assert len(AG.morphisms) == 4
    assert len(pi0(groupoid_nerve(AG, 1))) == 1


def test_translation_action_groupoid_is_codiscrete():
    AG = action_groupoid(translation_action())
    assert len(AG.objects) == 3
    assert len(AG.morphisms) == 9
    for u in AG.objects:
        for v in AG.objects:
            assert len(AG.hom(u, v)) == 1


def test_action_groupoid_nerves_are_kan():
    for name, build in ACTIONS:
        N = groupoid_nerve(action_groupoid(build()), 3)
        assert is_kan(N, 3).holds, name


def test_invalid_action_is_rejected():
    A = swap_action()
    bad = dict(A.act)
    bad[("g1", "a")] = "a"
    with pytest.raises(ValueError):
        action_groupoid(GroupoidAction(A.family, bad))


# ---------------------------------------------------------------------------
# Restriction and saturation.


def test_restriction_to_all_objects_is_identity():
    AG = action_groupoid(swap_action())
    assert restriction(AG, AG.objects) == AG


def test_restriction_to_empty_is_empty():
    AG = action_groupoid(swap_action())
    empty = restriction(AG, [])
    assert empty.objects == ()
    assert empty.morphisms == ()
    assert validate_category(empty) == []


def test_restriction_keeps_only_interior_arrows():
    AG = action_groupoid(swap_action())
    sub = restriction(AG, ["a@pt"])
    assert sub.objects == ("a@pt",)
    assert len(sub.morphisms) == 1  # the swap arrow leaves the subset
    assert validate_category(sub) == []


def test_restriction_rejects_unknown_objects():
    AG = action_groupoid(swap_action())
    with pytest.raises(ValueError):
        restriction(AG, ["mystery"])


def test_saturation_witness():
    AG = action_groupoid(swap_action())
    assert is_saturated(AG, AG.objects).holds
    res = is_saturated(AG, ["a@pt"])
    assert not res.holds
    assert res.witness == "g1@a"
    with pytest.raises(ValueError):
        is_saturated(AG, ["mystery"])


def test_saturated_subsets_are_component_unions():
    G3 = one_object_groupoid(cyclic_group(3))
    cases = [
        action_groupoid(swap_action()),
        as_groupoid(disjoint_union_category(G3, one_object_groupoid(cyclic_group(2)))),
        action_groupoid(two_object_action()),
    ]
    for G in cases:
        comps = [set(c) for c in pi0(groupoid_nerve(G, 1))]

        def union_of_components(Z):
            Z = set(Z)
            return all(c <= Z or not (c & Z) for c in comps)

        for r in range(len(G.objects) + 1):
            for Z in itertools.combinations(G.objects, r):
                assert is_saturated(G, Z).holds == union_of_components(Z), Z


def test_saturated_restriction_is_a_summand():
    G3 = one_object_groupoid(cyclic_group(3))
    G = as_groupoid(disjoint_union_category(G3, one_object_groupoid(cyclic_group(2))))
    Z = [a for a in G.objects if a.startswith("l_")]
    rest = [a for a in G.objects if not a.startswith("l_")]
    assert is_saturated(G, Z).holds
    assert is_saturated(G, rest).holds
    assert len(G.morphisms) == len(restriction(G, Z).morphisms) + len(
        restriction(G, rest).morphisms
    )


# ---------------------------------------------------------------------------
# Orbit groupoids.


def test_orbit_groupoid_of_s3_mod_a_transposition():
    S3 = symmetric_group(3)
    H = subgroup_closure(S3, ["p102"])
    orb = orbit_groupoid(S3, H)
    assert len(orb.objects) == 3
    assert len(orb.morphisms) == 18
    assert validate_category(orb) == []
    assert is_groupoid(orb).holds


def test_orbit_groupoid_extremes():
    S3 = symmetric_group(3)
    whole = orbit_groupoid(S3, S3.elements)
    assert len(whole.objects) == 1
    assert categories_isomorphic(whole, one_object_groupoid(S3))

    free = orbit_groupoid(S3, ["p012"])
    assert len(free.objects) == 6
    assert len(free.morphisms) == 36
    for u in free.objects:
        for v in free.objects:
            assert len(free.hom(u, v)) == 1


def test_orbit_groupoid_requires_a_subgroup():
    S3 = symmetric_group(3)
    with pytest.raises(ValueError):
        orbit_groupoid(S3, ["p012", "p120"])


# ---------------------------------------------------------------------------
# Nerves of groupoids.


def test_groupoid_nerve_counts_chains():
    N = groupoid_nerve(one_object_groupoid(cyclic_group(2)), 3)
    from finsimp.simplicial import simplices

    assert [len(simplices(N, n)) for n in range(4)] == [1, 2, 4, 8]


def test_groupoid_nerve_of_discrete_is_points():
    D = as_groupoid(discrete_category(["a", "b", "c"]))
    N = groupoid_nerve(D, 2)
    assert N.size_vector() == (3, 0, 0)


# ---------------------------------------------------------------------------
# Functor groupoids.


def test_functors_from_a_point_recover_the_target():
    pt = as_groupoid(discrete_category(["x"]))
    G = one_object_groupoid(cyclic_group(3))
    F = functor_groupoid(pt, G)
    assert categories_isomorphic(F, G)

    AG = action_groupoid(swap_action())
    F2 = functor_groupoid(pt, AG)
    assert categories_isomorphic(F2, AG)


def test_functor_groupoid_bz2_to_bz3():
    F = functor_groupoid(
        one_object_groupoid(cyclic_group(2)), one_object_groupoid(cyclic_group(3))
    )
    # only the trivial homomorphism Z/2 -> Z/3, conjugated by all of Z/3
    assert len(F.objects) == 1
    assert len(F.morphisms) == 3
    assert validate_category(F) == []
    assert is_groupoid(F).holds


def test_functor_groupoid_bz2_to_bz2():
    B = one_object_groupoid(cyclic_group(2))
    F = functor_groupoid(B, B)
    assert len(F.objects) == 2
    assert len(F.morphisms) == 4
    # no transformation connects the trivial and identity homomorphisms
    assert len(pi0(groupoid_nerve(F, 1))) == 2
    assert validate_category(F) == []


def test_functor_groupoid_bz3_endofunctors():
    B = one_object_groupoid(cyclic_group(3))
    F = functor_groupoid(B, B)
    assert len(F.objects) == 3
    assert len(F.morphisms) == 9
    assert validate_category(F) == []
    assert is_groupoid(F).holds


def tables(F):
    """Every table of a groupoid, dicts in insertion order."""
    return (
        F.objects,
        F.morphisms,
        list(F.src.items()),
        list(F.tgt.items()),
        list(F.comp.items()),
        list(F.identities.items()),
        list(F.inverses.items()),
    )


def fixed_groupoids():
    B = one_object_groupoid
    S3 = symmetric_group(3)
    discrete = as_groupoid(discrete_category(["a", "b"]))
    return {
        "BZ2": B(cyclic_group(2)),
        "BZ3": B(cyclic_group(3)),
        "BZ4": B(cyclic_group(4)),
        "BS3": B(S3),
        "discrete": discrete,
        "orbits": orbit_groupoid(S3, subgroup_closure(S3, ["p102"])),
        "union": as_groupoid(disjoint_union_category(B(cyclic_group(2)), discrete)),
    }


def test_functor_groupoid_matches_the_brute_force_reference_on_fixed_pairs():
    gpds = fixed_groupoids()
    # the reference's time grows with the hom choices it tries (orbits has 15 arrows:
    # 3^15 of them into BZ3) and with the square of the arrows (864 from union to BS3)
    slow = {("union", "BS3"), ("union", "orbits")}
    slow.update(("orbits", g) for g in gpds if g not in ("BZ2", "discrete"))
    for h, g in itertools.product(gpds, repeat=2):
        if (h, g) not in slow:
            H, G = gpds[h], gpds[g]
            assert tables(functor_groupoid(H, G)) == tables(ref.functor_groupoid(H, G)), (h, g)


def brute_force_size(H, G):
    """A bound on the tuples the reference tries: object maps times hom choices."""
    widest = max((len(G.hom(a, b)) for a in G.objects for b in G.objects), default=0)
    return len(G.objects) ** len(H.objects) * widest ** len(H.non_identities())


@settings(max_examples=40)
@given(small_groupoids(), small_groupoids())
def test_functor_groupoid_matches_the_brute_force_reference_on_small_groupoids(H, G):
    assume(brute_force_size(H, G) <= 2000)
    assert tables(functor_groupoid(H, G)) == tables(ref.functor_groupoid(H, G))


def test_functor_groupoid_bs3_to_bs4():
    F = functor_groupoid(
        one_object_groupoid(symmetric_group(3)), one_object_groupoid(symmetric_group(4))
    )
    # |Hom(S3, S4)| = 34 functors, each with one transformation per element of S4
    assert len(F.objects) == 34
    assert len(F.morphisms) == 34 * 24
    # up to conjugacy: the trivial map, the sign onto a transposition or onto a
    # product of two, and the embedding as a point stabiliser
    assert len(pi0(groupoid_nerve(F, 1))) == 4
    assert validate_category(F) == []
