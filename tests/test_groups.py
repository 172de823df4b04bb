"""Group tables, permutation groups, cosets, one-object groupoids."""

import itertools
import math

import pytest
from hypothesis import given

from finsimp.categories import validate_category
from finsimp.groups import (
    FiniteGroup,
    _compose_perm,
    _perm_name,
    cycles_to_images,
    cyclic_group,
    is_subgroup,
    left_cosets,
    one_object_groupoid,
    perm_group,
    subgroup_closure,
    symmetric_group,
    validate_group,
)
from strategies import small_perm_groups


def test_cyclic_groups_are_valid():
    for n in (1, 2, 3, 5):
        G = cyclic_group(n)
        assert len(G.elements) == n
        assert validate_group(G) == []


def test_symmetric_group_sizes():
    assert len(symmetric_group(1).elements) == 1
    assert len(symmetric_group(2).elements) == 2
    S3 = symmetric_group(3)
    assert len(S3.elements) == 6
    assert validate_group(S3) == []
    assert any(
        S3.mul[(a, b)] != S3.mul[(b, a)] for a in S3.elements for b in S3.elements
    )


def test_perm_group_closure():
    S3 = perm_group(3, [(1, 0, 2), (1, 2, 0)])
    assert len(S3.elements) == 6
    two = perm_group(3, [(1, 0, 2)])
    assert len(two.elements) == 2


def test_cycles_to_images():
    assert cycles_to_images(4, [(0, 1), (2, 3)]) == (1, 0, 3, 2)
    assert cycles_to_images(3, [(0, 1, 2)]) == (1, 2, 0)
    # right cycle applies first
    assert cycles_to_images(3, [(0, 1), (1, 2)]) == cycles_to_images(3, [(0, 1, 2)])
    with pytest.raises(ValueError):
        cycles_to_images(2, [(0, 5)])


def test_subgroups_and_cosets():
    S3 = symmetric_group(3)
    swap = "p102"
    H = subgroup_closure(S3, [swap])
    assert len(H) == 2
    assert is_subgroup(S3, H)
    assert not is_subgroup(S3, {swap})
    cosets = left_cosets(S3, H)
    assert len(cosets) == 3
    assert sorted(x for cos in cosets for x in cos) == sorted(S3.elements)
    assert subgroup_closure(S3, []) == frozenset({S3.unit})


def test_one_object_groupoid():
    G = cyclic_group(3)
    B = one_object_groupoid(G)
    assert validate_category(B) == []
    assert len(B.objects) == 1
    assert len(B.morphisms) == 3
    assert B.inverse("g1") == "g2"


def test_one_object_groupoid_avoids_name_clash():
    G = FiniteGroup(["e", "pt"], "e", {
        ("e", "e"): "e", ("e", "pt"): "pt", ("pt", "e"): "pt", ("pt", "pt"): "e",
    })
    assert validate_group(G) == []
    B = one_object_groupoid(G)
    assert B.objects[0] not in G.elements


def test_validate_group_reports_problems():
    broken = FiniteGroup(["e", "a"], "e", {
        ("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "a",
    })
    report = validate_group(broken)
    assert any("inverse" in line for line in report)
    missing = FiniteGroup(["e", "a"], "e", {("e", "e"): "e"})
    assert any("missing" in line for line in validate_group(missing))


def test_perm_group_table_matches_composition():
    # the table is filled by itemgetter gathers; _compose_perm is the definition
    for degree in range(1, 6):
        G = symmetric_group(degree)
        perms = {_perm_name(p): p for p in itertools.permutations(range(degree))}
        assert set(G.elements) == set(perms)
        want = {(a, b): _perm_name(_compose_perm(perms[a], perms[b])) for a in G.elements for b in G.elements}
        assert G.mul == want
        assert list(G.mul) == list(want)


@given(small_perm_groups(4))
def test_perm_groups_on_random_generators_are_subgroups_of_the_symmetric_group(G):
    # a subgroup of S_n with its product; Lagrange: its order divides n!
    degree = len(G.unit) - 1  # elements are named "p" and their images
    S = symmetric_group(degree)
    assert validate_group(G) == []
    assert math.factorial(degree) % len(G.elements) == 0
    assert is_subgroup(S, G.elements)
    assert all(G.mul[pair] == S.mul[pair] for pair in itertools.product(G.elements, repeat=2))
