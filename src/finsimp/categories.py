"""Finite categories, their nerves, and nerve recognition.

A finite category is stored by name tables: objects, morphisms
(identities included), source/target, a total composition table on
composable pairs, and the identity assignment.  Composition is written
compose(g, f) = g after f.

The nerve of a category has the objects as vertices and, in dimension
n, the composable chains of n morphisms.  Chains containing an
identity letter are degenerate; the normal form of such a chain is the
degeneracy word of its identity positions (sorted decreasingly) over
the chain of its non-identity letters.  nerve() emits only the
non-degenerate chains as generators, so all counting happens through
the word calculus.  It gives their faces as id arrays (the face_ids of
SimplicialSet), computed a column at a time from each chain's parent,
so it makes no simplex; the face table is derived only when read.
"""

from __future__ import annotations

from itertools import accumulate, chain, repeat
from operator import add
from typing import NamedTuple

from .lifting import horn_scan, matching_simplices
from .simplicial import (
    MAX_DIM,
    DimensionError,
    SimplexRef,
    SimplicialSet,
    TruncationError,
    face,
    find_isomorphism,
    level_blocks,
    truncate,
)


class FiniteCategory:
    """A finite category presented by name tables.

    `morphisms` includes the identities; `comp` is total on composable
    pairs and comp[(g, f)] is g after f.  Instances are immutable by
    convention.
    """

    def __init__(self, objects, morphisms, src, tgt, comp, identities):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.src = dict(src)
        self.tgt = dict(tgt)
        self.comp = dict(comp)
        self.identities = dict(identities)
        self._ids = frozenset(self.identities.values())
        self._key = None

    def is_identity(self, m):
        return m in self._ids

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def non_identities(self):
        return tuple(m for m in self.morphisms if m not in self._ids)

    def hom(self, a, b):
        return tuple(m for m in self.morphisms if self.src[m] == a and self.tgt[m] == b)

    def _canonical_key(self):
        if self._key is None:
            self._key = (
                self.objects,
                self.morphisms,
                tuple(sorted(self.src.items())),
                tuple(sorted(self.tgt.items())),
                tuple(sorted(self.comp.items())),
                tuple(sorted(self.identities.items())),
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, FiniteCategory):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self):
        return hash(self._canonical_key())

    def __repr__(self):
        return f"{type(self).__name__}({len(self.objects)} objects, {len(self.morphisms)} morphisms)"


class FiniteGroupoid(FiniteCategory):
    """A finite category with a two-sided inverse table."""

    def __init__(self, objects, morphisms, src, tgt, comp, identities, inverses):
        super().__init__(objects, morphisms, src, tgt, comp, identities)
        self.inverses = dict(inverses)

    def inverse(self, m):
        return self.inverses[m]


def identity_names(objects, taken):
    """Identity name per object: id_<obj>, with `_` appended while taken.

    `taken` holds the non-identity morphism names; a name given to an
    earlier object counts as taken too.
    """
    used = set(taken)
    names = {}
    for a in objects:
        name = f"id_{a}"
        while name in used:
            name = name + "_"
        names[a] = name
        used.add(name)
    return names


def build_category(objects, homs, comp, cls=FiniteCategory, **extra):
    """Assemble a category from declared morphisms, adding identities.

    `homs` maps morphism name -> (source, target) for the non-identity
    morphisms; `comp` need only cover composable non-identity pairs,
    identity compositions are filled in.  Identity names are id_<obj>,
    uniquified if taken.
    """
    objects = tuple(objects)
    identities = identity_names(objects, homs)
    src = {m: st[0] for m, st in homs.items()}
    tgt = {m: st[1] for m, st in homs.items()}
    for a, i in identities.items():
        src[i] = a
        tgt[i] = a
    morphisms = tuple(identities[a] for a in objects) + tuple(homs)
    full = dict(comp)
    for f in morphisms:
        full[(identities[tgt[f]], f)] = f
        full[(f, identities[src[f]])] = f
    return cls(objects, morphisms, src, tgt, full, identities, **extra)


def validate_category(C):
    """Violations of typing, identity laws, totality and associativity."""
    report = []
    objset = set(C.objects)
    morset = set(C.morphisms)
    if len(objset) != len(C.objects):
        report.append("duplicate object names")
    if len(morset) != len(C.morphisms):
        report.append("duplicate morphism names")
    if objset & morset:
        clash = sorted(objset & morset)[0]
        report.append(f"name '{clash}' used for both an object and a morphism")
    for m in C.morphisms:
        if C.src.get(m) not in objset or C.tgt.get(m) not in objset:
            report.append(f"morphism '{m}' has missing or unknown endpoints")
    for a in C.objects:
        i = C.identities.get(a)
        if i is None or i not in morset:
            report.append(f"object '{a}' has no identity morphism")
        elif C.src.get(i) != a or C.tgt.get(i) != a:
            report.append(f"identity of '{a}' is not an endomorphism of it")
    if report:
        return report

    for (g, f), h in C.comp.items():
        if g not in morset or f not in morset or h not in morset:
            report.append(f"composition entry ({g}, {f}) -> {h} uses unknown morphisms")
            continue
        if C.src[g] != C.tgt[f]:
            report.append(f"composition entry ({g}, {f}) is not composable")
        elif C.src[h] != C.src[f] or C.tgt[h] != C.tgt[g]:
            report.append(f"composite of ({g}, {f}) has wrong endpoints")
    incoming = {a: [] for a in C.objects}  # the arrows into a, in declaration order
    for f in C.morphisms:
        incoming[C.tgt[f]].append(f)
    for g in C.morphisms:
        for f in incoming[C.src[g]]:
            if (g, f) not in C.comp:
                report.append(f"missing composite for composable pair ({g}, {f})")
    if report:
        return report

    for f in C.morphisms:
        if C.comp[(C.identities[C.tgt[f]], f)] != f:
            report.append(f"left identity law fails at '{f}'")
        if C.comp[(f, C.identities[C.src[f]])] != f:
            report.append(f"right identity law fails at '{f}'")
    for h in C.morphisms:
        for g in incoming[C.src[h]]:
            for f in incoming[C.src[g]]:
                if C.comp[(h, C.comp[(g, f)])] != C.comp[(C.comp[(h, g)], f)]:
                    report.append(f"associativity fails on ({h}, {g}, {f})")
    if isinstance(C, FiniteGroupoid):
        for m in C.morphisms:
            inv = C.inverses.get(m)
            if inv is None or inv not in morset:
                report.append(f"morphism '{m}' has no inverse entry")
                continue
            if (
                C.comp[(inv, m)] != C.identities[C.src[m]]
                or C.comp[(m, inv)] != C.identities[C.tgt[m]]
            ):
                report.append(f"inverse entry of '{m}' is not a two-sided inverse")
    return report


class GroupoidCheck(NamedTuple):
    holds: bool
    inverses: dict | None
    witness: str | None


def is_groupoid(C):
    """Two-sided invertibility of every morphism, with inverse table or witness."""
    inverses = {}
    for m in C.morphisms:
        inv = None
        for g in C.morphisms:
            if C.src[g] != C.tgt[m] or C.tgt[g] != C.src[m]:
                continue
            if (
                C.comp[(g, m)] == C.identities[C.src[m]]
                and C.comp[(m, g)] == C.identities[C.tgt[m]]
            ):
                inv = g
                break
        if inv is None:
            return GroupoidCheck(False, None, m)
        inverses[m] = inv
    return GroupoidCheck(True, inverses, None)


def as_groupoid(C):
    """Upgrade a category to a groupoid by inverse search; None if impossible."""
    chk = is_groupoid(C)
    if not chk.holds:
        return None
    return FiniteGroupoid(
        C.objects, C.morphisms, C.src, C.tgt, C.comp, C.identities, chk.inverses
    )


# ---------------------------------------------------------------------------
# The nerve.


def chain_ref(C, letters):
    """Normal form of a composable chain that may contain identity letters.

    Identity letters at positions P make the chain the degeneracy word
    sorted(P, decreasing) applied to the chain of remaining letters.
    """
    ids = C._ids
    if ids.isdisjoint(letters):
        return SimplexRef((), ".".join(letters), len(letters))
    word = tuple(p for p in range(len(letters) - 1, -1, -1) if letters[p] in ids)
    core = tuple(m for m in letters if m not in ids)
    gen = ".".join(core) if core else C.src[letters[0]]
    return SimplexRef(word, gen, len(letters))


def composable_chain_count(C, n):
    """Number of length-n composable tuples (identities allowed).

    Dynamic programming on chain endpoints; the independent oracle for
    nerve simplex counts.
    """
    counts = {a: 1 for a in C.objects}
    for _ in range(n):
        nxt = {a: 0 for a in C.objects}
        for m in C.morphisms:
            nxt[C.tgt[m]] += counts[C.src[m]]
        counts = nxt
    return sum(counts.values())


def nerve(C, depth=4):
    """The nerve, truncated at `depth`, with its generator faces as id arrays.

    Vertices are the objects; non-degenerate n-simplices are the
    composable chains of n non-identity morphisms, named by joining the
    letters with dots, listed parent by parent: the chains of level n - 1
    in order, each followed by its letters in declaration order.  Faces
    drop an end or compose two adjacent letters (falling into a
    degeneracy when the composite is an identity).  The result is
    flagged truncated exactly when some non-degenerate chain of length
    depth+1 exists.

    The faces are never made as simplices.  A chain is indexed by its
    parent and last letter, so the faces are computed as codes, columns
    at a time: d_n of a chain is its parent; d_k for k < n - 1 appends
    the last letter to d_k of the parent, so the d_k column runs over
    the children of the parent's d_k entries (_children); d_(n-1)
    composes the last two letters, a child of the grandparent or, for
    an identity composite, s_(n-2) of it.  A code of level m numbers its
    chains, then for each j its s_j over the chains one level down;
    _level_ids turns codes into the ids of numbered_level, and the
    columns, reordered by generator name, are the set's face_ids.
    """
    if depth < 0:
        raise TruncationError("nerve depth must be >= 0")
    if depth > MAX_DIM:
        raise DimensionError(f"nerve depth {depth} exceeds the supported maximum {MAX_DIM}")
    nonid = C.non_identities()
    vertex = {o: v for v, o in enumerate(C.objects)}
    letter = {m: x for x, m in enumerate(nonid)}
    outs = [[] for _ in C.objects]  # per object, the letters (indices into nonid) leaving it
    for x, m in enumerate(nonid):
        outs[vertex[C.src[m]]].append(x)
    place = [0] * len(nonid)  # a letter's place among the letters leaving its source
    for xs in outs:
        for p, x in enumerate(xs):
            place[x] = p
    ends = [vertex[C.tgt[m]] for m in nonid]
    # per letter y and each letter x after it: the place of x after y among the letters leaving
    # the source of y, or -1 when x after y is an identity
    ids = C._ids
    after = [
        [-1 if (z := C.comp[(nonid[x], m)]) in ids else place[letter[z]] for x in outs[ends[y]]]
        for y, m in enumerate(nonid)
    ]
    dotted = ["." + m for m in nonid]

    names = [list(C.objects), list(nonid)][:depth + 1]
    parents = [None, [vertex[C.src[m]] for m in nonid]]
    lasts = [None, list(range(len(nonid)))]
    codes = [None, [ends, parents[1]]]
    children = [outs]  # per level m < n - 1, per code of level m, the codes of its children at level m + 1
    for n in range(2, depth + 1):
        prev, below, grand = lasts[n - 1], children[n - 2], len(names[n - 2])
        degrees = [len(outs[ends[y]]) for y in prev]
        parent = list(chain.from_iterable(map(repeat, range(len(prev)), degrees)))
        last = list(chain.from_iterable(map(outs.__getitem__, map(ends.__getitem__, prev))))
        # d_k, k < n - 1: the last letter after d_k of the parent, so the children of its code
        cols = [list(chain.from_iterable(map(below.__getitem__, col))) for col in codes[n - 1][:n - 1]]
        # d_(n-1): the composite of the last two letters after the grandparent g, or s_(n-2) g
        base = len(prev) + (n - 2) * grand
        grown = [[*below[g], base + g] for g in range(grand)]
        cols.append(list(chain.from_iterable(
            map(grown[g].__getitem__, after[y]) for g, y in zip(parents[n - 1], prev)
        )))
        cols.append(parent)  # d_n
        if n < depth:
            children.append(_children(below[:grand], degrees, len(parent), n - 1))
        names.append(list(map(add, map(names[n - 1].__getitem__, parent), map(dotted.__getitem__, last))))
        parents.append(parent)
        lasts.append(last)
        codes.append(cols)

    by_name, ranks = [], []
    for level in names:
        order = sorted(range(len(level)), key=level.__getitem__)
        rank = [0] * len(order)
        for r, q in enumerate(order):
            rank[q] = r
        by_name.append(order)
        ranks.append(rank)
    sizes = [len(level) for level in names]
    face_ids = [()]
    for n in range(1, depth + 1):
        to_id = _level_ids(sizes, ranks, n - 1)
        face_ids.append(tuple(list(map(to_id.__getitem__, map(col.__getitem__, by_name[n]))) for col in codes[n]))

    frontier = set(C.objects)
    for _ in range(depth + 1):
        if not frontier:
            break
        frontier = {C.tgt[m] for m in nonid if C.src[m] in frontier}
    return SimplicialSet(names, face_ids=face_ids, truncated=bool(frontier))


def _children(below, degrees, size, m):
    """Per code of level m, the codes of its children at level m + 1.

    `below` holds the children's codes of the chains of level m - 1 and
    `degrees` the number of children of each chain of level m; there
    are `size` chains at level m + 1.  A chain's children are a run of
    them, and s_j r has the children s_j of r's children.
    """
    runs = list(accumulate(degrees, initial=0))
    out = list(map(range, runs, runs[1:]))
    for j in range(m):
        shift = size + j * len(degrees)
        out += [range(c.start + shift, c.stop + shift) if type(c) is range else [shift + t for t in c] for c in below]
    return out


def _level_ids(sizes, ranks, m):
    """Per code of level m, the id of its simplex in numbered_level: chains by name, then s_j of level m - 1."""
    to_id = list(ranks[m])
    if m and sizes[m - 1]:
        blocks = level_blocks(sizes, m)
        for j in range(m):
            to_id += map(blocks[(j,)].start.__add__, ranks[m - 1])
    return to_id


# ---------------------------------------------------------------------------
# Nerve recognition.


class DetectResult(NamedTuple):
    category: FiniteCategory | None
    reason: str | None


def nerve_detect(S, depth=4):
    """Recognise a truncated simplicial set as the nerve of a category.

    Checks that every inner horn up to `depth` has exactly one filler,
    reads the category off the 1-skeleton with composites from the
    unique middle-horn fillers, validates it, and confirms its nerve is
    isomorphic to S up to `depth`.  Returns the category or the reason
    recognition failed.
    """
    if S.bound < 0:
        return DetectResult(None, "empty simplicial set is not a nerve")
    if S.truncated and depth > S.bound:
        raise TruncationError(
            f"cannot certify to depth {depth}: set is a window truncated at {S.bound}"
        )
    unique = horn_scan(S, depth, True, True)
    if not unique.holds:
        n, i = unique.witness.n, unique.witness.i
        if unique.count == 0:
            return DetectResult(None, f"inner horn ({n}, {i}) map with no filler")
        return DetectResult(None, f"inner horn ({n}, {i}) map with multiple fillers")

    objects = list(S.gens[0])
    homs = {}
    if S.bound >= 1:
        for e in S.gens[1]:
            d0, d1 = S.face_table[e]
            homs[e] = (d1.gen, d0.gen)

    def edge_name(ref):
        # a 1-simplex is an edge or a degenerate identity edge
        return ("id", ref.gen) if ref.word else ref.gen

    comp = {}
    if S.bound >= 2 and homs:
        for f, (_, fb) in homs.items():
            for g, (ga, _) in homs.items():
                if ga != fb:
                    continue
                horn_assign = {"01": S.generator(f), "12": S.generator(g)}
                fillers = matching_simplices(S, horn_assign, 2, 1)
                if len(fillers) != 1:
                    return DetectResult(None, f"composite of ({g}, {f}) is not determined")
                mid = face(S, 1, fillers[0])
                comp[(g, f)] = edge_name(mid)

    identities = identity_names(objects, homs)
    resolved = {
        pair: (identities[h[1]] if isinstance(h, tuple) else h) for pair, h in comp.items()
    }
    C = build_category(objects, homs, resolved)
    report = validate_category(C)
    if report:
        return DetectResult(None, f"rebuilt table is not a category: {report[0]}")

    N = truncate(nerve(C, depth), min(depth, S.bound))
    T = truncate(S, depth) if depth < S.bound else S
    if find_isomorphism(N, T) is None:
        return DetectResult(None, "nerve of rebuilt category does not match the input")
    return DetectResult(C, None)


# ---------------------------------------------------------------------------
# Stock categories and comparisons.


def terminal_category():
    return build_category(["x"], {}, {})


def discrete_category(names):
    return build_category(names, {}, {})


def arrow_category():
    """The free walking arrow: two objects, one non-identity morphism."""
    return build_category(["a", "b"], {"f": ("a", "b")}, {})


def chain_category(k):
    """The poset 0 < 1 < ... < k as a category with one arrow per pair."""
    names = [str(t) for t in range(k + 1)]
    return poset_category(names, lambda a, b: int(a) <= int(b))


def poset_category(names, leq):
    """Category of a finite poset; arrow le_<a>_<b> whenever a <= b strictly."""
    homs = {}
    for a in names:
        for b in names:
            if a != b and leq(a, b):
                homs[f"le_{a}_{b}"] = (a, b)
    comp = {}
    for g, (gs, gt) in homs.items():
        for f, (fs, ft) in homs.items():
            if ft == gs:
                comp[(g, f)] = f"le_{fs}_{gt}"
    return build_category(names, homs, comp)


def monoid_category(obj, elements, unit, mul):
    """One-object category from a finite monoid given by its table.

    The monoid unit becomes the identity morphism of the single
    object; unit-valued products are folded onto the identity name.
    """
    homs = {e: (obj, obj) for e in elements if e != unit}
    comp = {
        (g, f): mul[(g, f)]
        for g in elements
        for f in elements
        if g != unit and f != unit
    }
    C = build_category([obj], homs, comp)
    ident = C.identities[obj]
    fixed = {pair: (ident if h == unit else h) for pair, h in C.comp.items()}
    return FiniteCategory(C.objects, C.morphisms, C.src, C.tgt, fixed, C.identities)


def disjoint_union_category(C, D):
    """Side-by-side union, names tagged `l_` (from C) and `r_` (from D)."""

    def l(x):
        return f"l_{x}"

    def r(x):
        return f"r_{x}"

    objects = [l(a) for a in C.objects] + [r(a) for a in D.objects]
    morphisms = [l(m) for m in C.morphisms] + [r(m) for m in D.morphisms]
    src = {l(m): l(C.src[m]) for m in C.morphisms}
    src.update({r(m): r(D.src[m]) for m in D.morphisms})
    tgt = {l(m): l(C.tgt[m]) for m in C.morphisms}
    tgt.update({r(m): r(D.tgt[m]) for m in D.morphisms})
    comp = {(l(g), l(f)): l(h) for (g, f), h in C.comp.items()}
    comp.update({(r(g), r(f)): r(h) for (g, f), h in D.comp.items()})
    identities = {l(a): l(C.identities[a]) for a in C.objects}
    identities.update({r(a): r(D.identities[a]) for a in D.objects})
    return FiniteCategory(objects, morphisms, src, tgt, comp, identities)


def join_categories(C, D):
    """Disjoint union plus exactly one arrow from each C-object to each D-object.

    The bridge arrows compose by collapsing: any composite through a
    bridge is the bridge between the outer endpoints.
    """
    U = disjoint_union_category(C, D)
    bridge = {}
    for a in C.objects:
        for b in D.objects:
            bridge[(a, b)] = f"to_{a}_{b}"
    objects = U.objects
    morphisms = U.morphisms + tuple(bridge.values())
    src = dict(U.src)
    tgt = dict(U.tgt)
    for (a, b), m in bridge.items():
        src[m] = f"l_{a}"
        tgt[m] = f"r_{b}"
    comp = dict(U.comp)
    for (a, b), m in bridge.items():
        for f in C.morphisms:
            if C.tgt[f] == a:
                comp[(m, f"l_{f}")] = bridge[(C.src[f], b)]
        for g in D.morphisms:
            if D.src[g] == b:
                comp[(f"r_{g}", m)] = bridge[(a, D.tgt[g])]
    return FiniteCategory(objects, morphisms, src, tgt, comp, U.identities)


def categories_isomorphic(C, D):
    """Existence of an isomorphism of categories (bijective on both levels).

    The nerve is fully faithful and a nerve is determined by its
    2-skeleton, so C and D are isomorphic exactly when their nerves
    truncated at 2 are.
    """
    return find_isomorphism(nerve(C, 2), nerve(D, 2)) is not None
