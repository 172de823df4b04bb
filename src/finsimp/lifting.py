"""Horn filling, Kan and quasi-category checks, lifting problems.

Everything here is brute force over the finite simplex sets: a horn
map is a tuple of compatible facet values, one row of the join of the
top-cell map search (simplicial.MapSearch), a filler is a simplex
whose faces match it, and fibration checks enumerate commuting squares
against horn or boundary inclusions and search for diagonal lifts.

The horn checks decide each (n, i) by counting first.  Restricting an
n-simplex to its facets d_k, k != i, is a map K_n -> Hom(horn(n, i), K),
so every horn map fills exactly when the n-simplices have as many
distinct facet tuples as there are horn maps, and every horn map has
exactly one filler when |K_n| is that number too.  The horn maps are
counted by the rows of the search's join, and the facet tuples as one
set of packed ints (_restrictions), dropped after counting, so a check
that holds files no table of n-simplices.  Only an (n, i) whose counts
differ is scanned, by the one scan of _unfilled.  It reads the facet
values column by column and files fillers by the ids of their facets
d_k, k ascending, the key order of MapSearch's own tables, so the two
share them; its search plans are built once per shape (_scan_plan).
Fibration and finality checks are that scan only.  A full
SimplicialMap is built only for a witness: the failing map that
enumerate_maps would list first (MapSearch.first).

Checks on a truncated window refuse to look past its bound; on a
complete set any depth is allowed because everything above the bound
is degenerate.
"""

from __future__ import annotations

from functools import lru_cache, partial
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from .simplicial import (
    MapSearch,
    SimplicialMap,
    TruncationError,
    _search_plan,
    compose,
    enumerate_maps,
    face_id_index,
    horn,
    numbered_level,
    simplex_boundary,
    simplices,
    standard_simplex,
    word_apply,
)


class HornMap(NamedTuple):
    """A map out of the (n, i) horn, as a SimplicialMap from horn(n, i)."""

    n: int
    i: int
    assignment: SimplicialMap


class LiftingProblem(NamedTuple):
    """A commuting square: left and right vertical, top and bottom horizontal."""

    left: SimplicialMap
    right: SimplicialMap
    top: SimplicialMap
    bottom: SimplicialMap

    def validate(self):
        report = []
        for label, m in zip(self._fields, self):
            report.extend(f"{label}: {line}" for line in m.validate())
        if not report and compose(self.right, self.top) != compose(self.bottom, self.left):
            report.append("square does not commute")
        return report


class CheckResult(NamedTuple):
    """Outcome of a check.

    `holds` is the verdict and `witness` the first counterexample in
    scan order (a HornMap, a LiftingProblem, a sphere map or an arrow
    name), or None when the check holds.  `checked_to` is the depth the
    check covered, where it has one; `count` is the number of fillers
    of a horn-map witness.
    """

    holds: bool
    witness: object
    checked_to: int | None = None
    count: int | None = None

    def __bool__(self):
        return self.holds


FibrationResult = CheckResult
FinalityResult = CheckResult


def _facets(n, skip):
    """The (n, skip) horn, or the n-sphere for skip None, and its facets (k,), k ascending.

    MapSearch yields a map's facet values in top-cell order: k descending.
    """
    shape = simplex_boundary(n)[0] if skip is None else horn(n, skip)[0]
    return shape, tuple((k,) for k in range(n + 1) if k != skip)


@lru_cache(maxsize=None)
def _scan_plan(n, skip, pinned):
    """The search plan of _facets(n, skip)'s shape with the `pinned` generators, built once.

    Every search of that shape shares it, so it is only read.
    """
    return _search_plan(_facets(n, skip)[0], pinned)


def _joined(K, n, skip, fixed=None):
    """(search, count, tops): the MapSearch of the maps out of _facets(n, skip)'s shape into K, and its join."""
    search = MapSearch(_facets(n, skip)[0], K, fixed, _plans=partial(_scan_plan, n, skip))
    return search, *search.join()


def _unfilled(K, n, skip, fails, fixed=None, joined=None):
    """(map, payload) of the first map out of _facets(n, skip) into K, agreeing with `fixed`, that fails.

    fails(key, fillers) gets the ids of a map's facet values, k
    ascending, and of their fillers in K (face_id_index), and returns
    None for a map that passes.  None if all do.  The keys are read
    column by column off the search's join; `joined` is that search and
    join (_joined) when the caller has run them already.
    """
    get = face_id_index(K, n, _facets(n, skip)[1]).get
    search, _, tops = joined or _joined(K, n, skip, fixed)
    found = [(i, out) for i, k in enumerate(zip(*tops[::-1])) if (out := fails(k, get(k, ()))) is not None]
    return search.first(tops, found)


def _restrictions(K, n, skip):
    """How many distinct tuples of facets d_k, k != skip, the n-simplices of K have.

    Each tuple is packed into one int, the facet ids as the digits of a
    mixed radix whose base is the size of level n - 1, and the ints are
    counted as one set, dropped on return.
    """
    faces, base = numbered_level(K, n).faces, numbered_level(K, n - 1).size
    cols = [faces[k] for k in range(n + 1) if k != skip]
    packed = cols[0]
    for col in cols[1:]:
        packed = map(add, map(mul, packed, repeat(base)), col)
    return len(set(packed))


def matching_simplices(K, assign, n, skip=None):
    """The n-simplices of K whose faces d_k, k != skip, are the facet values of `assign`.

    `assign` is the generator assignment of a map out of the (n, skip)
    horn, or out of the n-sphere when `skip` is None; the result is a
    new list in the order of simplices(K, n).  The facet values are
    looked up by their ids in face_id_index(K, n, positions), the table
    _unfilled files for the (n, skip) scan.
    """
    shape, positions = _facets(n, skip)
    id_of = numbered_level(K, n - 1).id_of
    key = tuple([id_of(assign[g]) for g in reversed(shape.gens[n - 1])])  # None for a value not in K: no match
    refs = simplices(K, n)
    return [refs[z] for z in face_id_index(K, n, positions).get(key, ())]


def check_depth(N, what, *sets):
    """Reject a depth below 1, or one past the bound of a truncated window."""
    if N < 1:
        raise ValueError("depth must be >= 1")
    for S in sets:
        if S.truncated and N > S.bound:
            raise TruncationError(
                f"{what} to depth {N} needs simplices past the window bound {S.bound}"
            )


def horn_maps(K, n, i):
    """All maps from the (n, i) horn into K, in enumerate_maps order."""
    return [HornMap(n, i, f) for f in enumerate_maps(horn(n, i)[0], K)]


def horn_fillers(K, hm):
    """All n-simplices of K whose faces away from i match the horn map."""
    return matching_simplices(K, hm.assignment.assign, hm.n, hm.i)


def _horn_shapes(N, inner):
    """The (n, i) horns up to dimension N, n ascending, then i ascending."""
    for n in range(2 if inner else 1, N + 1):
        for i in range(1, n) if inner else range(n + 1):
            yield n, i


def horn_scan(K, N, inner, unique):
    """Check that every horn map into K up to dimension N has a filler, or exactly one when `unique` is set.

    Scans all horns, or only the inner ones (0 < i < n) when `inner` is
    set, n ascending, then i ascending.  An (n, i) holds when its horn
    maps, the distinct facet tuples of the n-simplices and, for
    `unique`, the n-simplices are equally many; else the scan of
    _unfilled looks for the witness: the first map in horn_maps order
    whose fillers are none (or not exactly one), with `count` its number
    of fillers.
    """
    ok = (lambda zs: len(zs) == 1) if unique else bool
    for n, i in _horn_shapes(N, inner):
        tuples = _restrictions(K, n, i)
        joined = _joined(K, n, i)
        if joined[1] == tuples and (not unique or tuples == numbered_level(K, n).size):
            continue
        found = _unfilled(K, n, i, lambda _, zs: None if ok(zs) else len(zs), joined=joined)
        return CheckResult(False, HornMap(n, i, found[0]), N, found[1])
    return CheckResult(True, None, N)


def is_kan(K, N):
    """Every horn map up to dimension N has a filler."""
    check_depth(N, "Kan check", K)
    return horn_scan(K, N, False, False)


def is_quasicategory(K, N):
    """Every inner horn map (0 < i < n) up to dimension N has a filler."""
    check_depth(N, "quasi-category check", K)
    return horn_scan(K, N, True, False)


def has_unique_inner_fillers(K, N):
    """Every inner horn map up to dimension N has exactly one filler."""
    check_depth(N, "unique-filler check", K)
    return horn_scan(K, N, True, True)


def solve_lift(problem, find_all=False):
    """Diagonal fillers for a lifting problem whose left map is an inclusion.

    The left map must send generators to non-degenerate simplices
    injectively (horn and boundary inclusions do); the lift is searched
    over maps from the left target pinned on the included part and
    constrained to project correctly, by the top-cell search of
    enumerate_maps.  Returns the full list, sorted by map_key, when
    find_all is set, and otherwise its first map, the lift with the
    smallest map_key (or None).
    """
    left, right, top, bottom = problem
    fixed = {}
    for a, r in left.assign.items():
        if r.word:
            raise ValueError("left map of the problem must be a generator inclusion")
        if r.gen in fixed and fixed[r.gen] != top.assign[a]:
            return [] if find_all else None
        fixed[r.gen] = top.assign[a]

    def constrain(g, cand):
        return word_apply(cand.word, right.assign[cand.gen]) == bottom.assign[g]

    sols = enumerate_maps(
        left.target,
        right.source,
        fixed=fixed,
        constrain=constrain,
        limit=None if find_all else 1,
    )
    if find_all:
        return sols
    return sols[0] if sols else None


def _lifting_check(p, N, shapes):
    """Right lifting property of p against the horn (n, i) or, for i None, boundary inclusions.

    Enumerates every map into the source together with every simplex
    of the target filling its image and looks for a filler upstairs
    lying over it.  The witness of a failure is the full unsolvable
    square, with the first failing top map in enumerate_maps order and
    its first unliftable simplex below.
    """
    X, Y = p.source, p.target
    for n, i in shapes:
        below = face_id_index(Y, n, _facets(n, i)[1])
        p_facets, p_simplices = _on_ids(p, n - 1), _on_ids(p, n)

        def unliftable(key, zs):
            over = {p_simplices[z] for z in zs}
            return next((zY for zY in below.get(tuple([p_facets[x] for x in key]), ()) if zY not in over), None)

        found = _unfilled(X, n, i, unliftable)
        if found is not None:
            top, zY = found
            simplex = standard_simplex(n)
            bottom = enumerate_maps(simplex, Y, fixed={simplex.gens[n][0]: simplices(Y, n)[zY]})[0]
            incl = (simplex_boundary(n) if i is None else horn(n, i))[1]
            return CheckResult(False, LiftingProblem(incl, p, top, bottom), N)
    return CheckResult(True, None, N)


def _on_ids(p, n):
    """The map p on level n, from ids of its source to ids of its target."""
    level = numbered_level(p.target, n)
    return [level.id_of(p.apply(z)) for z in simplices(p.source, n)]


def is_kan_fibration(p, N):
    """Right lifting property against all horn inclusions up to dimension N."""
    check_depth(N, "fibration check", p.source, p.target)
    return _lifting_check(p, N, _horn_shapes(N, False))


def is_trivial_fibration(p, N):
    """Right lifting property against all boundary inclusions up to dimension N."""
    check_depth(N, "trivial fibration check", p.source, p.target)
    return _lifting_check(p, N, ((n, None) for n in range(1, N + 1)))
