"""Combinatorics of finite truncated simplicial sets and finite categories."""

from .simplicial import (
    EMPTY,
    MAX_DIM,
    DimensionError,
    SimplexRef,
    SimplicialMap,
    SimplicialSet,
    TruncationError,
    compose,
    degeneracy,
    discrete_simplicial_set,
    enumerate_maps,
    face,
    find_isomorphism,
    horn,
    identity_map,
    rename_generators,
    simplex_boundary,
    simplices,
    standard_simplex,
    truncate,
    validate,
)

from .categories import (
    FiniteCategory,
    FiniteGroupoid,
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
    monoid_category,
    nerve,
    nerve_detect,
    poset_category,
    terminal_category,
    validate_category,
)

from .groups import (
    FiniteGroup,
    cyclic_group,
    is_subgroup,
    left_cosets,
    one_object_groupoid,
    perm_group,
    subgroup_closure,
    symmetric_group,
    validate_group,
)

from .lifting import (
    CheckResult,
    HornMap,
    LiftingProblem,
    has_unique_inner_fillers,
    horn_fillers,
    horn_maps,
    is_kan,
    is_kan_fibration,
    is_quasicategory,
    is_trivial_fibration,
    solve_lift,
)

from .constructions import (
    Cone,
    coslice_data,
    coslice_under,
    join,
    join_of_maps,
    join_parts,
    left_cone,
    product,
    product_of_maps,
    product_parts,
    right_cone,
    slice_data,
    slice_over,
)

from .limits import (
    ConeResult,
    FinalityResult,
    colimit,
    is_final,
    is_initial,
    limit,
    mapping_space,
    pi0,
)

from .actions import (
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

from .dsl import (
    DslParseError,
    parse_document,
    print_document,
    print_entity,
    sanitize_sset,
)

__all__ = [name for name in dir() if not name.startswith("_")]
