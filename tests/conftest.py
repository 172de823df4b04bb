"""Shared corpus of finite categories used across the test modules.

Each entry is (name, category, is_groupoid_expected).  The mix covers
one-object groupoids of several groups, posets, a discrete category, a
disjoint union, a non-invertible monoid and the walking isomorphism.

Hypothesis runs derandomized: every run draws the same examples, as
the engine itself uses no randomness.
"""

import pytest
from hypothesis import settings

from finsimp.categories import (
    arrow_category,
    build_category,
    chain_category,
    discrete_category,
    disjoint_union_category,
    monoid_category,
    poset_category,
    terminal_category,
)
from finsimp.groups import cyclic_group, one_object_groupoid, symmetric_group

settings.register_profile("finsimp", derandomize=True, deadline=None)
settings.load_profile("finsimp")


def walking_isomorphism():
    return build_category(
        ["a", "b"],
        {"u": ("a", "b"), "v": ("b", "a")},
        {("v", "u"): "id_a", ("u", "v"): "id_b"},
    )


def idempotent_monoid():
    """Two-element monoid {1, z} with z*z = z; z is not invertible."""
    return monoid_category("pt", ["1", "z"], "1", {
        ("1", "1"): "1", ("1", "z"): "z", ("z", "1"): "z", ("z", "z"): "z",
    })


def square_poset():
    """The 2x2 divisibility square: bottom < left, right < top."""
    order = {
        ("00", "00"), ("00", "01"), ("00", "10"), ("00", "11"),
        ("01", "01"), ("01", "11"), ("10", "10"), ("10", "11"), ("11", "11"),
    }
    return poset_category(["00", "01", "10", "11"], lambda a, b: (a, b) in order)


def category_corpus():
    bz2 = one_object_groupoid(cyclic_group(2))
    bz3 = one_object_groupoid(cyclic_group(3))
    bs3 = one_object_groupoid(symmetric_group(3))
    return [
        ("terminal", terminal_category(), True),
        ("bz2", bz2, True),
        ("bz3", bz3, True),
        ("arrow", arrow_category(), False),
        ("chain3", chain_category(2), False),
        ("discrete2", discrete_category(["p", "q"]), True),
        ("two_bz3", disjoint_union_category(bz3, bz3), True),
        ("bs3", bs3, True),
        ("square", square_poset(), False),
        ("idempotent", idempotent_monoid(), False),
        ("walking_iso", walking_isomorphism(), True),
    ]


@pytest.fixture(scope="session")
def corpus():
    return category_corpus()
