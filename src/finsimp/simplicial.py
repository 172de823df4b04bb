"""Finite, dimension-truncated simplicial sets.

A simplicial set is stored by its non-degenerate simplices (the
"generators") together with a face table on generators.  Every simplex
is then a pair (word, generator) where `word` is a strictly decreasing
tuple of degeneracy indices, applied outermost first:

    word (2, 0) over g  means  s_2 s_0 g.

This is the Eilenberg-Zilber normal form; faces and degeneracies of
arbitrary simplices are computed by rewriting with the simplicial
identities until the word is normal again.  A set truncated at
dimension `bound` still has simplices in every dimension above the
bound (all degenerate), which is what the face/degeneracy calculus and
the map enumerator work with.

The `truncated` flag marks sets that are honest windows onto a larger
object (e.g. a nerve cut below its longest chain).  Constructions that
quantify over all simplices up to a dimension refuse to look past the
bound of such a set; on a complete set any dimension is fine because
everything above the bound is degenerate.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

MAX_DIM = 9

Word = tuple


class DimensionError(ValueError):
    """Raised when a construction would exceed MAX_DIM or an index is out of range."""


class TruncationError(ValueError):
    """Raised when a check would need simplices beyond a truncated set's bound."""


@dataclass(frozen=True)
class SimplexRef:
    """A simplex in normal form: degeneracy word over a non-degenerate generator.

    `word` is strictly decreasing, outermost operator first, so
    SimplexRef((1, 0), "v", 2) is s_1 s_0 v.  `dim` is len(word) plus
    the generator's dimension.
    """

    word: tuple
    gen: str
    dim: int

    def is_degenerate(self):
        return bool(self.word)

    def __repr__(self):
        if not self.word:
            return f"<{self.gen}>"
        ops = " ".join(f"s{k}" for k in self.word)
        return f"<{ops} {self.gen}>"


def ref_key(ref):
    """Deterministic sort key for simplices of equal dimension."""
    return (ref.word, ref.gen)


def insert_degeneracy(word, k):
    """Normal form of s_k applied after the degeneracy word `word`.

    Rewrites with s_k s_j = s_{j+1} s_k (k <= j) until k can be placed,
    keeping the word strictly decreasing.
    """
    out = []
    i = 0
    while i < len(word) and k <= word[i]:
        out.append(word[i] + 1)
        i += 1
    out.append(k)
    out.extend(word[i:])
    return tuple(out)


def word_apply(word, ref):
    """Apply a degeneracy word (outermost first) to a simplex."""
    w = ref.word
    for k in reversed(word):
        w = insert_degeneracy(w, k)
    return SimplexRef(w, ref.gen, ref.dim + len(word))


class SimplicialSet:
    """A dimension-truncated simplicial set presented by generators and faces.

    Parameters
    ----------
    gens_by_dim : sequence of sequences of str
        Non-degenerate simplex names per dimension; length is bound+1.
        Trailing empty levels are allowed and meaningful (a bound-3 set
        may have no generators above dimension 1).
    face_table : mapping str -> sequence of SimplexRef
        For each generator of dimension n >= 1, its n+1 faces d_0..d_n.
    truncated : bool
        True when the set is a window onto a larger object, i.e. the
        missing dimensions are not purely degenerate.

    Instances are immutable by convention; all internal caches are
    derived data.  Equality and hashing use a canonical structural key.
    """

    def __init__(self, gens_by_dim, face_table, truncated=False):
        self.gens = tuple(tuple(level) for level in gens_by_dim)
        self.bound = len(self.gens) - 1
        self.face_table = {g: tuple(refs) for g, refs in face_table.items()}
        self.truncated = bool(truncated)
        self.gen_dim = {}
        for n, level in enumerate(self.gens):
            for g in level:
                self.gen_dim[g] = n
        self._key = None
        self._face_memo = {}
        self._simplices_memo = {}
        self._index_memo = {}

    def ref(self, word, gen):
        """Build a SimplexRef over a generator of this set."""
        return SimplexRef(tuple(word), gen, self.gen_dim[gen] + len(word))

    def generator(self, name):
        return SimplexRef((), name, self.gen_dim[name])

    def size_vector(self):
        """Number of non-degenerate simplices per dimension."""
        return tuple(len(level) for level in self.gens)

    def _canonical_key(self):
        if self._key is None:
            faces = tuple(sorted(self.face_table.items()))
            self._key = (self.bound, self.gens, faces, self.truncated)
        return self._key

    def __eq__(self, other):
        if not isinstance(other, SimplicialSet):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self):
        return hash(self._canonical_key())

    def __repr__(self):
        sizes = ",".join(str(s) for s in self.size_vector())
        flag = ", truncated" if self.truncated else ""
        return f"SimplicialSet(bound={self.bound}, gens=[{sizes}]{flag})"


EMPTY = SimplicialSet([], {})


def face(S, k, ref):
    """d_k of a simplex, in normal form.

    Degenerate case by the identities d_k s_j = id (k in {j, j+1}),
    d_k s_j = s_{j-1} d_k (k < j), d_k s_j = s_j d_{k-1} (k > j+1);
    non-degenerate case by the face table.
    """
    if ref.dim < 1 or not 0 <= k <= ref.dim:
        raise DimensionError(f"face index {k} out of range for dimension {ref.dim}")
    memo = S._face_memo
    key = (k, ref)
    hit = memo.get(key)
    if hit is not None:
        return hit
    if ref.word:
        j = ref.word[0]
        inner = SimplexRef(ref.word[1:], ref.gen, ref.dim - 1)
        if k == j or k == j + 1:
            out = inner
        elif k < j:
            out = degeneracy(S, j - 1, face(S, k, inner))
        else:
            out = degeneracy(S, j, face(S, k - 1, inner))
    else:
        out = S.face_table[ref.gen][k]
    memo[key] = out
    return out


def degeneracy(S, k, ref):
    """s_k of a simplex, in normal form."""
    if not 0 <= k <= ref.dim:
        raise DimensionError(f"degeneracy index {k} out of range for dimension {ref.dim}")
    return word_apply((k,), ref)


def simplices(S, n):
    """All n-simplices in normal form, degenerate ones included.

    Valid words over a dimension-m generator at total dimension n are
    exactly the strictly decreasing (n-m)-subsets of {0..n-1}, giving
    C(n, m) degenerate occurrences per generator.  Works for any
    n >= 0, also above the bound (where everything returned is
    degenerate).
    """
    if n < 0:
        return ()
    memo = S._simplices_memo
    hit = memo.get(n)
    if hit is not None:
        return hit
    out = []
    for m in range(min(n, S.bound) + 1):
        p = n - m
        for comb in itertools.combinations(range(n - 1, -1, -1), p):
            for g in S.gens[m]:
                out.append(SimplexRef(comb, g, n))
    out.sort(key=ref_key)
    out = tuple(out)
    memo[n] = out
    return out


def face_index(S, n, skip=None, positions=None):
    """Lookup table from partial face tuples to the n-simplices having them.

    A simplex z is filed under (d_k z for k in positions), ascending.
    By default the positions are 0..n without `skip`, so with `skip`
    None the key is its full face tuple, and with skip = i the key is
    the tuple a map out of the (n, i) horn gives on its facets.  A
    vertex has no faces, so at n = 0 every vertex is filed under ().
    Each list keeps the order of simplices(S, n).  Memoised per
    (n, positions) on S.
    """
    if positions is None:
        positions = tuple(k for k in range(n + 1) if n and k != skip)
    memo = S._index_memo
    key = (n, positions)
    hit = memo.get(key)
    if hit is not None:
        return hit
    table = {}
    for z in simplices(S, n):
        table.setdefault(tuple(face(S, k, z) for k in positions), []).append(z)
    memo[key] = table
    return table


def _vertex(S, z, q):
    """Vertex q of the simplex z."""
    for p in range(z.dim, q, -1):
        z = face(S, p, z)
    for _ in range(q):
        z = face(S, 0, z)
    return z


def facet_tuples(S, n, skip=None, pin=None):
    """The maps out of the (n, skip) horn, or out of the n-sphere when skip is None.

    Such a map is its tuple of facet values (x_k for k in 0..n,
    k != skip), (n-1)-simplices with d_a x_b = d_{b-1} x_a for a < b
    (Goerss-Jardine, I.3).  The tuples are streamed depth first, one
    slot at a time, and each x_b is looked up in face_index(S, n - 1)
    by its faces that the slots already filled fix, so the search has
    depth n and every prefix extends.  `pin` = (p, v) keeps the maps
    sending vertex p to the vertex v: the first facet containing p is
    filled first, from the simplices with v at that vertex, and the
    others follow in ascending k.  Within a slot, candidates keep the
    order of simplices(S, n - 1).  The stream order is not
    enumerate_maps order; facet_map and map_key rebuild that.
    """
    m = n - 1
    slots = [k for k in range(n + 1) if k != skip]
    if pin is not None:
        p, v = pin
        first = next(k for k in slots if k != p)
        slots.remove(first)
        slots.insert(0, first)
    # x_b shares one face with each x_a filled before it: d_a x_b = d_{b-1} x_a
    # for a < b, d_{a-1} x_b = d_b x_a for a > b; ties holds (face of x_b,
    # place of x_a, face of x_a), sorted by face of x_b like the index key
    plans = []
    for j, b in enumerate(slots):
        ties = sorted(
            (a, t, b - 1) if a < b else (a - 1, t, b) for t, a in enumerate(slots[:j])
        ) if m else []
        index = face_index(S, m, positions=tuple(f for f, _, _ in ties))
        plans.append((index, [(t, g) for _, t, g in ties]))
    if pin is not None:
        q = p if p < slots[0] else p - 1
        index, ties = plans[0]
        plans[0] = ({(): [z for z in index.get((), ()) if _vertex(S, z, q) == v]}, ties)
    out = [slots.index(k) for k in sorted(slots)]

    def candidates(xs):
        index, ties = plans[len(xs)]
        return iter(index.get(tuple(face(S, g, xs[t]) for t, g in ties), ()))

    xs = []
    stack = [candidates(xs)]
    while stack:
        x = next(stack[-1], None)
        del xs[len(stack) - 1:]
        if x is None:
            stack.pop()
            continue
        xs.append(x)
        if len(xs) == len(slots):
            yield tuple(xs[t] for t in out)
        else:
            stack.append(candidates(xs))


def validate(S):
    """Check structural validity and the simplicial identities.

    Returns a list of human-readable violation strings; empty means
    valid.  Reference errors (unknown generators, bad arity, malformed
    words) are reported first, and identity checks are only run on
    generators whose face entries are all well-formed.
    """
    report = []
    seen = {}
    for n, level in enumerate(S.gens):
        for g in level:
            if g in seen and seen[g] != n:
                report.append(f"generator name '{g}' used in dimensions {seen[g]} and {n}")
            elif g in seen:
                report.append(f"generator name '{g}' repeated in dimension {n}")
            seen[g] = n

    def ref_ok(ref, want_dim, owner, k):
        if ref.gen not in S.gen_dim:
            report.append(f"face d_{k} of '{owner}' refers to unknown generator '{ref.gen}'")
            return False
        m = S.gen_dim[ref.gen]
        if len(ref.word) + m != want_dim or ref.dim != want_dim:
            report.append(f"face d_{k} of '{owner}' has dimension {len(ref.word) + m}, expected {want_dim}")
            return False
        if any(ref.word[t] <= ref.word[t + 1] for t in range(len(ref.word) - 1)):
            report.append(f"face d_{k} of '{owner}' has a non-decreasing degeneracy word {list(ref.word)}")
            return False
        if ref.word and (ref.word[0] > want_dim - 1 or ref.word[-1] < 0):
            report.append(f"face d_{k} of '{owner}' has degeneracy index out of range")
            return False
        return True

    checkable = []
    for n in range(1, S.bound + 1):
        for g in S.gens[n]:
            refs = S.face_table.get(g)
            if refs is None:
                report.append(f"generator '{g}' of dimension {n} has no face entries")
                continue
            if len(refs) != n + 1:
                report.append(f"generator '{g}' has {len(refs)} face entries, expected {n + 1}")
                continue
            if all(ref_ok(r, n - 1, g, k) for k, r in enumerate(refs)):
                checkable.append((n, g))
    for g in S.face_table:
        if g not in S.gen_dim:
            report.append(f"face entries given for unknown generator '{g}'")
        elif S.gen_dim[g] == 0:
            report.append(f"face entries given for vertex '{g}'")

    for n, g in checkable:
        if n < 2:
            continue
        refs = S.face_table[g]
        try:
            for j in range(1, n + 1):
                for i in range(j):
                    left = face(S, i, refs[j])
                    right = face(S, j - 1, refs[i])
                    if left != right:
                        report.append(
                            f"d_{i} d_{j} != d_{j-1} d_{i} at generator '{g}': {left} vs {right}"
                        )
        except (KeyError, IndexError, DimensionError):
            report.append(f"identity check on '{g}' blocked by malformed faces lower down")
    return report


# ---------------------------------------------------------------------------
# The standard family: simplices, boundaries, horns.


def _subset_complex(n, tops):
    """Subcomplex of the standard n-simplex spanned by a set of vertex subsets.

    `tops` is an iterable of tuples of vertices; the complex contains
    all their non-empty subsets.  Generators are named by concatenating
    vertex digits ("02" is the edge from 0 to 2).
    """
    keep = set()
    for top in tops:
        for r in range(1, len(top) + 1):
            keep.update(itertools.combinations(top, r))
    if not keep:
        return EMPTY
    by_dim = {}
    for sub in keep:
        by_dim.setdefault(len(sub) - 1, []).append(sub)
    bound = max(by_dim)
    gens_by_dim = []
    faces = {}
    name = lambda sub: "".join(str(v) for v in sub)
    for m in range(bound + 1):
        level = sorted(by_dim.get(m, []))
        gens_by_dim.append([name(sub) for sub in level])
        if m == 0:
            continue
        for sub in level:
            faces[name(sub)] = tuple(
                SimplexRef((), name(sub[:k] + sub[k + 1:]), m - 1) for k in range(m + 1)
            )
    return SimplicialSet(gens_by_dim, faces)


@lru_cache(maxsize=None)
def standard_simplex(n):
    """The standard n-simplex; one generator per non-empty vertex subset."""
    if not 0 <= n <= MAX_DIM:
        raise DimensionError(f"standard simplex dimension {n} outside 0..{MAX_DIM}")
    return _subset_complex(n, [tuple(range(n + 1))])


@lru_cache(maxsize=None)
def simplex_boundary(n):
    """Boundary of the standard n-simplex and its inclusion into it."""
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"boundary dimension {n} outside 1..{MAX_DIM}")
    verts = tuple(range(n + 1))
    tops = [verts[:k] + verts[k + 1:] for k in range(n + 1)]
    B = _subset_complex(n, tops)
    return B, _sub_inclusion(B, standard_simplex(n))


@lru_cache(maxsize=None)
def horn(n, i):
    """The horn with the i-th face removed, plus its inclusion into the simplex.

    The union of the facets d_k for k != i.  In the lowest case the
    horn degenerates to a single vertex: horn(1, 0) is the vertex "0"
    (a map out of it picks the source of a sought edge) and horn(1, 1)
    is the vertex "1".
    """
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"horn dimension {n} outside 1..{MAX_DIM}")
    if not 0 <= i <= n:
        raise DimensionError(f"horn index {i} out of range for dimension {n}")
    verts = tuple(range(n + 1))
    tops = [verts[:k] + verts[k + 1:] for k in range(n + 1) if k != i]
    H = _subset_complex(n, tops)
    return H, _sub_inclusion(H, standard_simplex(n))


def _sub_inclusion(A, B):
    """Inclusion of a subcomplex whose generator names match B's."""
    assign = {g: B.generator(g) for level in A.gens for g in level}
    return SimplicialMap(A, B, assign)


def discrete_simplicial_set(names, bound=0):
    """Disjoint vertices, padded with empty levels up to `bound`."""
    names = list(names)
    levels = [names] + [[] for _ in range(bound)]
    return SimplicialSet(levels, {})


def truncate(S, d):
    """Drop all generators above dimension d.

    The result is flagged truncated when generators were actually
    dropped (or the input already was a window).
    """
    if d < -1:
        raise DimensionError("truncation level below -1")
    if d >= S.bound:
        return S
    dropped = any(S.gens[n] for n in range(d + 1, S.bound + 1))
    keep = {g for level in S.gens[: d + 1] for g in level}
    faces = {g: refs for g, refs in S.face_table.items() if g in keep}
    return SimplicialSet(S.gens[: d + 1], faces, truncated=S.truncated or dropped)


def rename_generators(S, mapping):
    """Copy of S with generators renamed by a total injective mapping."""
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        raise ValueError("renaming is not injective")
    gens = [[mapping[g] for g in level] for level in S.gens]
    faces = {
        mapping[g]: tuple(SimplexRef(r.word, mapping[r.gen], r.dim) for r in refs)
        for g, refs in S.face_table.items()
    }
    return SimplicialSet(gens, faces, truncated=S.truncated)


# ---------------------------------------------------------------------------
# Simplicial maps.


class SimplicialMap:
    """A simplicial map, stored by its values on generators.

    `assign` sends each generator of the source to a simplex of the
    target of the same dimension; the unique extension to degenerate
    simplices is `apply`.
    """

    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        self.assign = dict(assign)
        self._key = None

    def apply(self, ref):
        return word_apply(ref.word, self.assign[ref.gen])

    def validate(self):
        """Violations of totality, dimension, target validity and naturality."""
        report = []
        A, B = self.source, self.target
        for level in A.gens:
            for g in level:
                if g not in self.assign:
                    report.append(f"no value assigned to generator '{g}'")
        for g, r in self.assign.items():
            if g not in A.gen_dim:
                report.append(f"value assigned to unknown generator '{g}'")
                continue
            if r.gen not in B.gen_dim:
                report.append(f"value of '{g}' refers to unknown target generator '{r.gen}'")
                continue
            if r.dim != A.gen_dim[g] or len(r.word) + B.gen_dim[r.gen] != r.dim:
                report.append(f"value of '{g}' has wrong dimension")
        if report:
            return report
        for n in range(1, A.bound + 1):
            for g in A.gens[n]:
                img = self.assign[g]
                for k in range(n + 1):
                    want = self.apply(A.face_table[g][k])
                    got = face(B, k, img)
                    if want != got:
                        report.append(
                            f"face d_{k} not preserved at generator '{g}': {want} vs {got}"
                        )
        return report

    def _canonical_key(self):
        if self._key is None:
            self._key = (
                self.source._canonical_key(),
                self.target._canonical_key(),
                tuple(sorted(self.assign.items())),
            )
        return self._key

    def __eq__(self, other):
        if not isinstance(other, SimplicialMap):
            return NotImplemented
        return self._canonical_key() == other._canonical_key()

    def __hash__(self):
        return hash(self._canonical_key())

    def __repr__(self):
        return f"SimplicialMap({self.source!r} -> {self.target!r}, {len(self.assign)} gens)"


def identity_map(S):
    assign = {g: S.generator(g) for level in S.gens for g in level}
    return SimplicialMap(S, S, assign)


def constant_map(S, T, vertex):
    """The map collapsing S onto a single vertex of T."""
    if vertex not in T.gen_dim or T.gen_dim[vertex] != 0:
        raise ValueError(f"'{vertex}' is not a vertex of the target")
    assign = {}
    for n, level in enumerate(S.gens):
        word = tuple(range(n - 1, -1, -1))
        for g in level:
            assign[g] = SimplexRef(word, vertex, n)
    return SimplicialMap(S, T, assign)


def compose(f, g):
    """The composite f after g; g's target must equal f's source."""
    if g.target != f.source:
        raise ValueError("compose: target of inner map differs from source of outer map")
    assign = {x: f.apply(r) for x, r in g.assign.items()}
    return SimplicialMap(g.source, f.target, assign)


def simplex_map_from_vertices(n, m, images):
    """Map of standard simplices induced by an order-preserving vertex map.

    `images` lists the image of each vertex 0..n in the target m-simplex
    and must be weakly increasing.
    """
    images = tuple(images)
    if len(images) != n + 1:
        raise DimensionError("vertex map has wrong arity")
    if any(images[t] > images[t + 1] for t in range(n)):
        raise ValueError("vertex map must be order-preserving")
    if images and not 0 <= images[0] <= images[-1] <= m:
        raise DimensionError("vertex image out of range")
    src = standard_simplex(n)
    tgt = standard_simplex(m)
    assign = {}
    for level in src.gens:
        for g in level:
            vts = tuple(images[int(c)] for c in g)
            assign[g] = _ref_from_vertex_tuple(tgt, vts)
    return SimplicialMap(src, tgt, assign)


def _ref_from_vertex_tuple(T, vts):
    """Normal form of the simplex of a standard-type target with these vertices.

    `vts` is weakly increasing; repeats at position p contribute p to
    the degeneracy word.
    """
    word = tuple(p for p in range(len(vts) - 2, -1, -1) if vts[p] == vts[p + 1])
    core = []
    for v in vts:
        if not core or core[-1] != v:
            core.append(v)
    gen = "".join(str(v) for v in core)
    return SimplexRef(word, gen, len(vts) - 1)


def coface_map(n, k):
    """The face inclusion that skips vertex k: standard (n-1)-simplex into the n-simplex."""
    return simplex_map_from_vertices(n - 1, n, [j if j < k else j + 1 for j in range(n)])


def codegeneracy_map(n, k):
    """The collapse that repeats vertex k: standard n-simplex onto the (n-1)-simplex."""
    return simplex_map_from_vertices(n, n - 1, [j if j <= k else j - 1 for j in range(n + 1)])


# ---------------------------------------------------------------------------
# Map enumeration (the brute-force lifting engine's core).


def _search_order(A):
    """Static assignment order interleaving generators with their face closures.

    Repeatedly picks a generator whose faces are all placed, preferring
    one that completes the prerequisites of a not-yet-placed higher
    generator (so consistency checks fire as early as possible), then
    lower dimension, then declaration order.
    """
    gens = [(n, idx, g) for n in range(A.bound + 1) for idx, g in enumerate(A.gens[n])]
    deps = {}
    for n, _, g in gens:
        if n == 0:
            deps[g] = frozenset()
        else:
            deps[g] = frozenset(r.gen for r in A.face_table[g])
    users = {g: [] for _, _, g in gens}
    for _, _, g in gens:
        for d in deps[g]:
            users[d].append(g)
    placed = set()
    remaining = {g: set(deps[g]) for _, _, g in gens}
    missing = {g: len(deps[g]) for _, _, g in gens}
    meta = {g: (n, idx) for n, idx, g in gens}
    order = []
    pool = {g for _, _, g in gens}
    while pool:
        best = None
        for g in pool:
            if remaining[g] - placed:
                continue
            completes = any(u in pool and missing[u] == 1 for u in users[g] if g in remaining[u])
            n, idx = meta[g]
            score = (0 if completes else 1, n, idx)
            if best is None or score < best[0]:
                best = (score, g)
        g = best[1]
        order.append(g)
        pool.discard(g)
        placed.add(g)
        for u in users[g]:
            if g in remaining[u]:
                remaining[u].discard(g)
                missing[u] -= 1
    return order, deps, users


def enumerate_maps(A, B, fixed=None, limit=None, constrain=None):
    """All simplicial maps from A to B, optionally pinned on some generators.

    `fixed` maps generator names of A to target simplices; `constrain`
    is an optional predicate (gen_name, candidate_ref) -> bool applied
    to every candidate.  The search assigns generators one at a time,
    always choosing a ready generator with the fewest candidates (ties
    broken by dimension then declaration order), with candidates looked
    up by face tuple.  Output is sorted by the assigned values in
    declaration order, so it is deterministic and independent of search
    internals.

    `limit` truncates the result list (after at least `limit` maps are
    found; the full sort is skipped then, but the search order makes
    the found set itself deterministic).
    """
    fixed = dict(fixed or {})
    order, deps, users = _search_order(A)
    static_pos = {g: p for p, g in enumerate(order)}
    ngens = len(order)
    for g, r in fixed.items():
        if g not in A.gen_dim:
            raise ValueError(f"fixed assignment names unknown generator '{g}'")
        if r.dim != A.gen_dim[g]:
            raise ValueError(f"fixed assignment for '{g}' has wrong dimension")

    results = []
    assign = {}
    # candidates of ready generators, dropped when a dependency changes
    cache = {}

    def candidates(g):
        pool = cache.get(g)
        if pool is not None:
            return pool
        req = tuple(word_apply(r.word, assign[r.gen]) for r in A.face_table.get(g, ()))
        pool = face_index(B, A.gen_dim[g]).get(req, ())
        if g in fixed:
            want = fixed[g]
            pool = [want] if want in pool else []
        if constrain is not None:
            pool = [r for r in pool if constrain(g, r)]
        cache[g] = pool
        return pool

    def ready_gens():
        for g in order:
            if g not in assign and all(d in assign for d in deps[g]):
                yield g

    def next_frame():
        """(generator, candidate iterator) with the fewest candidates; None at a dead end."""
        best = None
        for g in ready_gens():
            cands = candidates(g)
            score = (len(cands), static_pos[g])
            if best is None or score < best[0]:
                best = (score, g, cands)
                if score[0] == 0:
                    return None
        return best[1], iter(best[2])

    # depth-first search; the stack holds each assigned generator with
    # its untried candidates, in assignment order
    stack = []
    while True:
        if len(assign) < ngens:
            frame = next_frame()
            if frame is not None:
                stack.append(frame)
        else:
            results.append(dict(assign))
            if limit is not None and len(results) >= limit:
                break
        while stack:
            g, cands = stack[-1]
            for u in users[g]:
                cache.pop(u, None)
            r = next(cands, None)
            if r is not None:
                assign[g] = r
                break
            assign.pop(g, None)
            stack.pop()
        if not stack:
            break
    maps = [SimplicialMap(A, B, a) for a in results]
    if limit is None:
        maps.sort(key=map_key)
    return maps


def map_key(f):
    """Sort key of enumerate_maps output: the values on the source's generators in declaration order."""
    return tuple(ref_key(f.assign[g]) for level in f.source.gens for g in level)


@lru_cache(maxsize=None)
def _facet_plan(n, skip):
    """The (n, skip) horn, or the n-sphere, and how facet values determine each generator.

    For every generator in declaration order: the position in the
    facet tuple of a facet containing it, and the faces, highest
    first, that cut it out of that facet.
    """
    A = simplex_boundary(n)[0] if skip is None else horn(n, skip)[0]
    slots = [k for k in range(n + 1) if k != skip]
    plan = []
    for level in A.gens:
        for g in level:
            verts = {int(c) for c in g}
            t, k = next((t, k) for t, k in enumerate(slots) if k not in verts)
            facet = [v for v in range(n + 1) if v != k]
            plan.append((g, t, tuple(p for p in reversed(range(n)) if facet[p] not in verts)))
    return A, tuple(plan)


def facet_map(S, n, skip, xs):
    """The map out of the (n, skip) horn, or the n-sphere, with facet tuple xs, as from enumerate_maps."""
    A, plan = _facet_plan(n, skip)
    assign = {}
    for g, t, cuts in plan:
        z = xs[t]
        for p in cuts:
            z = face(S, p, z)
        assign[g] = z
    return SimplicialMap(A, S, assign)


def first_facet_map(S, n, skip, found):
    """The (map, payload) of (facet tuple, payload) pairs that enumerate_maps lists first.

    Streams `found` and keeps the map with the smallest map_key, so a
    scan over facet_tuples reports the witness the generic search would
    reach first.  None when `found` is empty.
    """
    maps = ((facet_map(S, n, skip, xs), payload) for xs, payload in found)
    return min(maps, key=lambda pair: map_key(pair[0]), default=None)


def find_isomorphism(A, B):
    """A dimension-preserving generator bijection commuting with faces, or None.

    Searches level by level with face-tuple lookup; the first
    isomorphism in lexicographic order (by A's declaration order and
    B's sorted candidates) is returned as a SimplicialMap.
    """
    if A.bound != B.bound or A.size_vector() != B.size_vector():
        return None
    flat = [g for level in A.gens for g in level]
    phi = {}
    used = set()

    def candidates(g):
        req = tuple(SimplexRef(r.word, phi[r.gen], r.dim) for r in A.face_table.get(g, ()))
        matches = face_index(B, A.gen_dim[g]).get(req, ())
        return iter([z.gen for z in matches if not z.word and z.gen not in used])

    # depth-first over flat; stack[p] holds the untried candidates for flat[p]
    stack = []
    while len(phi) < len(flat):
        stack.append(candidates(flat[len(phi)]))
        while True:
            g = flat[len(stack) - 1]
            if g in phi:
                used.discard(phi.pop(g))
            h = next(stack[-1], None)
            if h is not None:
                phi[g] = h
                used.add(h)
                break
            stack.pop()
            if not stack:
                return None
    assign = {g: SimplexRef((), phi[g], A.gen_dim[g]) for g in flat}
    return SimplicialMap(A, B, assign)


def from_level_data(levels, face_fn, degeneracy_fn, truncated=True):
    """Build a simplicial set from raw element lists with face/degeneracy callbacks.

    `levels[n]` lists the n-dimensional elements (hashable, order fixed
    by the caller); `face_fn(n, k, e)` and `degeneracy_fn(n, k, e)` give
    d_k : levels[n] -> levels[n-1] and s_k : levels[n] -> levels[n+1].
    Every face of an element must itself be listed.  An element is
    degenerate iff it equals s_k(d_k(e)) for some k < n, and then its
    normal form is s_k applied to that of d_k(e) for the first such k;
    the non-degenerate ones become generators c<n>_<i>, numbered in
    level order, with faces looked up one level down.

    Returns (sset, to_ref) where to_ref maps every (n, element) to its
    normal-form simplex.
    """
    to_ref = {}
    gens_by_dim = []
    faces = {}
    for n, level in enumerate(levels):
        names = []
        for e in level:
            for k in range(n):
                d = face_fn(n, k, e)
                if degeneracy_fn(n - 1, k, d) == e:
                    to_ref[(n, e)] = word_apply((k,), to_ref[(n - 1, d)])
                    break
            else:
                g = f"c{n}_{len(names)}"
                names.append(g)
                if n:
                    faces[g] = tuple(to_ref[(n - 1, face_fn(n, k, e))] for k in range(n + 1))
                to_ref[(n, e)] = SimplexRef((), g, n)
        gens_by_dim.append(names)
    return SimplicialSet(gens_by_dim, faces, truncated=truncated), to_ref
