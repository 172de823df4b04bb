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
the word calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lifting import horn_scan, matching_simplices
from .simplicial import (
    MAX_DIM,
    DimensionError,
    SimplexRef,
    SimplicialSet,
    TruncationError,
    face,
    find_isomorphism,
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
        self._key = None

    def is_identity(self, m):
        return m in self._identity_set()

    def _identity_set(self):
        return set(self.identities.values())

    def compose(self, g, f):
        """g after f."""
        return self.comp[(g, f)]

    def non_identities(self):
        ids = self._identity_set()
        return tuple(m for m in self.morphisms if m not in ids)

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
    for g in C.morphisms:
        for f in C.morphisms:
            if C.src[g] == C.tgt[f] and (g, f) not in C.comp:
                report.append(f"missing composite for composable pair ({g}, {f})")
    if report:
        return report

    for f in C.morphisms:
        if C.comp[(C.identities[C.tgt[f]], f)] != f:
            report.append(f"left identity law fails at '{f}'")
        if C.comp[(f, C.identities[C.src[f]])] != f:
            report.append(f"right identity law fails at '{f}'")
    for h in C.morphisms:
        for g in C.morphisms:
            if C.src[h] != C.tgt[g]:
                continue
            for f in C.morphisms:
                if C.src[g] != C.tgt[f]:
                    continue
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


@dataclass
class GroupoidCheck:
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
    ids = C._identity_set()
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
    """The nerve, truncated at `depth`.

    Vertices are the objects; non-degenerate n-simplices are the
    composable chains of n non-identity morphisms, named by joining the
    letters with dots.  Faces drop an end or compose two adjacent
    letters (falling into a degeneracy when the composite is an
    identity).  The result is flagged truncated exactly when some
    non-degenerate chain of length depth+1 exists.
    """
    if depth < 0:
        raise TruncationError("nerve depth must be >= 0")
    if depth > MAX_DIM:
        raise DimensionError(f"nerve depth {depth} exceeds the supported maximum {MAX_DIM}")
    nonid = C.non_identities()
    gens_by_dim = [list(C.objects)]
    chains = {1: [(m,) for m in nonid]}
    for n in range(2, depth + 1):
        chains[n] = [
            c + (m,) for c in chains[n - 1] for m in nonid if C.src[m] == C.tgt[c[-1]]
        ]
    faces = {}
    for n in range(1, depth + 1):
        level = []
        for c in chains.get(n, []):
            name = ".".join(c)
            level.append(name)
            if n == 1:
                faces[name] = (
                    SimplexRef((), C.tgt[c[0]], 0),
                    SimplexRef((), C.src[c[0]], 0),
                )
            else:
                refs = []
                for k in range(n + 1):
                    if k == 0:
                        refs.append(chain_ref(C, c[1:]))
                    elif k == n:
                        refs.append(chain_ref(C, c[:-1]))
                    else:
                        merged = c[: k - 1] + (C.comp[(c[k], c[k - 1])],) + c[k + 1:]
                        refs.append(chain_ref(C, merged))
                faces[name] = tuple(refs)
        gens_by_dim.append(level)

    frontier = set(C.objects)
    for _ in range(depth + 1):
        if not frontier:
            break
        frontier = {C.tgt[m] for m in nonid if C.src[m] in frontier}
    return SimplicialSet(gens_by_dim, faces, truncated=bool(frontier))


# ---------------------------------------------------------------------------
# Nerve recognition.


@dataclass
class DetectResult:
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
    unique = horn_scan(S, depth, True, lambda fillers: len(fillers) == 1)
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
