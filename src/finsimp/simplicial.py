"""Finite, dimension-truncated simplicial sets.

A simplicial set is stored by its non-degenerate simplices (the
"generators") together with their faces: a face table on generators,
or, for a set built level by level such as a nerve or a truncation,
face_ids, the id of every generator face in numbered_level one level
down (the face table is then derived on first read, for face,
validate, == and the text format).  Every simplex is then a pair
(word, generator) where `word` is a strictly decreasing tuple of
degeneracy indices, applied outermost first:

    word (2, 0) over g  means  s_2 s_0 g.

This is the Eilenberg-Zilber normal form; faces and degeneracies of
arbitrary simplices are computed by rewriting with the simplicial
identities until the word is normal again.  A set truncated at
dimension `bound` still has simplices in every dimension above the
bound (all degenerate), which is what the face/degeneracy calculus and
the map enumerator work with.

Each level has one representation, numbered_level: its n-simplices
listed block by block, one block per degeneracy word in word order
with the generators by name (ref_key order; simplices(S, n) is that
list), and every face and degeneracy operator as an array of ids; a
level makes its simplices (`refs`) only when one is asked for, and
turns a simplex into its id by its block (id_of), the one way from
simplices to ids.  Scans that read a whole level run on these numbers,
and so do every map search (MapSearch), pinned, constrained or
neither, and the isomorphism search: pins, values and keys are ids,
and the engine's one face-table format is ids under int tuples, the
tables of all n-simplices (face_id_index) and of generators
(_generator_index, read by face_lookup), so lookups index lists
instead of rewriting words; face rewrites single simplices and keeps
no memo.  Searches hand maps back as id rows (map_rows), and only
maps_of_rows makes simplices of those: its maps keep their rows and
make their `assign` dicts, and the target levels' simplices, on first
read.  Otherwise simplices are made only at the boundary: pins taken
in, the candidates a search's `constrain` is asked about, and
face_index, a table turned into simplices for callers outside.

The `truncated` flag marks sets that are honest windows onto a larger
object (e.g. a nerve cut below its longest chain).  Constructions that
quantify over all simplices up to a dimension refuse to look past the
bound of such a set; on a complete set any dimension is fine because
everything above the bound is degenerate.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from functools import cached_property, lru_cache, partial
from operator import getitem
from typing import NamedTuple

MAX_DIM = 9

Word = tuple


class DimensionError(ValueError):
    """Raised when a construction would exceed MAX_DIM or an index is out of range."""


class TruncationError(ValueError):
    """Raised when a check would need simplices beyond a truncated set's bound."""


class SimplexRef(NamedTuple):
    """A simplex in normal form: degeneracy word over a non-degenerate generator.

    `word` is strictly decreasing, outermost operator first, so
    SimplexRef((1, 0), "v", 2) is s_1 s_0 v.  `dim` is len(word) plus
    the generator's dimension.  A named tuple, so hashing and equality
    run in C; refs are only ever compared with refs.
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
    face_ids : sequence, optional
        Instead of face_table: face_ids[n], for n >= 1, holds n+1 lists,
        the k-th the ids of d_k g in numbered_level(S, n - 1) for the
        dimension-n generators g by name.  These ids depend only on the
        generators of dimension below n.  numbered_level reads them as
        they are, and `face_table` is derived from them on first read.

    Instances are immutable by convention; all internal caches are
    derived data.  Equality and hashing use a canonical structural key,
    which holds the face table.
    """

    def __init__(self, gens_by_dim, face_table=None, truncated=False, *, face_ids=None):
        self.gens = tuple(tuple(level) for level in gens_by_dim)
        self.bound = len(self.gens) - 1
        self._face_table = None if face_ids is not None else {g: tuple(refs) for g, refs in (face_table or {}).items()}
        self._face_ids = face_ids
        self.truncated = bool(truncated)
        self.gen_dim = {}
        for n, level in enumerate(self.gens):
            for g in level:
                self.gen_dim[g] = n
        self._names = {}
        self._key = None
        self._hash = None
        self._level_memo = {}
        self._index_memo = {}
        self._gen_index_memo = {}

    @property
    def face_table(self):
        """Generator -> its faces d_0..d_n as simplices; derived from face_ids on first use when given those."""
        if self._face_table is None:
            table = {}
            for n in range(1, self.bound + 1):
                below = numbered_level(self, n - 1).refs
                faces = dict(zip(_gen_names(self, n), zip(*[map(below.__getitem__, col) for col in self._face_ids[n]])))
                table.update((g, faces[g]) for g in self.gens[n])
            self._face_table = table
        return self._face_table

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
        if self._hash is None:
            self._hash = hash(self._canonical_key())
        return self._hash

    def __repr__(self):
        sizes = ",".join(str(s) for s in self.size_vector())
        flag = ", truncated" if self.truncated else ""
        return f"SimplicialSet(bound={self.bound}, gens=[{sizes}]{flag})"


EMPTY = SimplicialSet([], {})


def face(S, k, ref):
    """d_k of a simplex, in normal form.

    Degenerate case by the identities d_k s_j = id (k in {j, j+1}),
    d_k s_j = s_{j-1} d_k (k < j), d_k s_j = s_j d_{k-1} (k > j+1);
    non-degenerate case by the face table.  Nothing is memoised: scans
    that read the faces of a whole level use numbered_level's arrays.
    """
    if ref.dim < 1 or not 0 <= k <= ref.dim:
        raise DimensionError(f"face index {k} out of range for dimension {ref.dim}")
    if not ref.word:
        return S.face_table[ref.gen][k]
    j = ref.word[0]
    inner = SimplexRef(ref.word[1:], ref.gen, ref.dim - 1)
    if k == j or k == j + 1:
        return inner
    if k < j:
        return degeneracy(S, j - 1, face(S, k, inner))
    return degeneracy(S, j, face(S, k - 1, inner))


def degeneracy(S, k, ref):
    """s_k of a simplex, in normal form."""
    if not 0 <= k <= ref.dim:
        raise DimensionError(f"degeneracy index {k} out of range for dimension {ref.dim}")
    return word_apply((k,), ref)


def _in_normal_form(S, ref):
    """Whether ref names a simplex of S in normal form.

    Its generator is one of S, its degeneracy word is strictly
    decreasing with entries in 0..dim-1, and the two add up to its dim.
    """
    w = ref.word
    return (
        ref.gen in S.gen_dim
        and S.gen_dim[ref.gen] + len(w) == ref.dim
        and all(a > b for a, b in zip(w, w[1:]))
        and all(0 <= k < ref.dim for k in w)
    )


def simplices(S, n):
    """All n-simplices in normal form, degenerate ones included: numbered_level(S, n).refs.

    Valid words over a dimension-m generator at total dimension n are
    exactly the strictly decreasing (n-m)-subsets of {0..n-1}, giving
    C(n, m) degenerate occurrences per generator.  Works for any
    n >= 0, also above the bound (where everything returned is
    degenerate); empty for n < 0.
    """
    return numbered_level(S, n).refs if n >= 0 else ()


class NumberedLevel:
    """Level n of a simplicial set with its simplices numbered, for full-table scans.

    The simplices with one degeneracy word w form one block of ids, the
    generators of dimension n - len(w) by name: `blocks` maps each word
    to its range of ids, blocks in word order, and `names` to those
    generators; `size` counts the ids.  This is ref_key order, and
    `refs`, the simplices by id, is simplices(S, n); it is made on
    first read, so a scan that only reads ids makes no simplex.  ref
    and id_of turn one id into a simplex and back without it; id_of is
    the level's one lookup from simplices to ids.
    faces[k] holds the id of d_k z one level down for every id z, and
    degens[j] the id of s_j y for every id y one level down.  Nothing
    here refers to S.
    """

    __slots__ = ("n", "blocks", "names", "size", "faces", "degens", "_refs")

    def __init__(self, n, blocks, names, faces, degens):
        self.n, self.blocks, self.names, self.faces, self.degens = n, blocks, names, faces, degens
        self.size = sum(map(len, blocks.values()))
        self._refs = None

    @property
    def refs(self):
        """The simplices by id, made on first read."""
        if self._refs is None:
            n = self.n
            self._refs = tuple(itertools.chain.from_iterable(
                map(SimplexRef, itertools.repeat(w), gens, itertools.repeat(n)) for w, gens in self.names.items()
            ))
        return self._refs

    def ref(self, z):
        """The simplex with id z; IndexError for an id outside range(size)."""
        if self._refs is not None and 0 <= z < self.size:
            return self._refs[z]
        for w, run in self.blocks.items():
            if z in run:
                return SimplexRef(w, self.names[w][z - run.start], self.n)
        raise IndexError(f"no simplex {z} at level {self.n}")

    def id_of(self, r):
        """The id of the simplex r, or None when r is not one of the level's simplices."""
        names = self.names.get(r.word)
        if names is None or r.dim != self.n:
            return None
        p = bisect_left(names, r.gen)
        return self.blocks[r.word].start + p if p < len(names) and names[p] == r.gen else None


def _gen_names(S, m):
    """The dimension-m generators of S by name; memoised on S."""
    names = S._names.get(m)
    if names is None:
        names = S._names[m] = sorted(S.gens[m])
    return names


def level_blocks(sizes, n):
    """The blocks of level n of a set with sizes[m] generators in dimension m: word -> range of ids, in word order."""
    blocks, size = {}, 0
    words = (w for m in range(min(n, len(sizes) - 1) + 1) if sizes[m]
             for w in itertools.combinations(range(n - 1, -1, -1), n - m))
    for word in sorted(words):
        blocks[word] = range(size, size + sizes[n - len(word)])
        size += sizes[n - len(word)]
    return blocks


def numbered_level(S, n):
    """Level n of S numbered (NumberedLevel), with the levels below it; memoised on S.

    The simplices are listed block by block, the degeneracy words of
    length n - m in order for every m with generators, each block the
    dimension-m generators by name (level_blocks).  s_j maps the block
    of word w onto the block of word s_j w, keeping positions.  d_k of
    a generator is read off S's face_ids when it has them, else the id
    of its face-table entry one level down (id_of; KeyError when that
    entry is not a simplex there); of s_j y it is y for k in {j, j+1},
    else s_(j-1) d_k y (k < j) or s_j d_(k-1) y (k > j+1), read from
    the arrays one and two levels down (Gabriel-Zisman).  No face of a
    single simplex is computed, and no level below is listed.  There is
    no level below 0.
    """
    if n < 0:
        raise DimensionError(f"level {n} out of range: levels start at 0")
    memo = S._level_memo
    hit = memo.get(n)
    if hit is not None:
        return hit
    blocks = level_blocks(S.size_vector(), n)
    names = {w: _gen_names(S, n - len(w)) for w in blocks}
    faces, degens = [], []
    if n:
        low = numbered_level(S, n - 1)
        for j in range(n):
            degens.append(list(itertools.chain.from_iterable(
                blocks[insert_degeneracy(w, j)] for w in low.blocks)))
        if () not in blocks:
            gen_faces = ()
        elif S._face_ids is not None:
            gen_faces = S._face_ids[n]
        else:
            rows = [S.face_table[g] for g in names[()]]
            gen_faces = [list(map(low.id_of, [f[k] for f in rows])) for k in range(n + 1)]
            for k, col in enumerate(gen_faces):
                if None in col:
                    raise KeyError(f"face d_{k} of '{names[()][col.index(None)]}' is not a simplex of level {n - 1}")
        for k in range(n + 1):
            col = []
            for word in blocks:
                if not word:
                    col += gen_faces[k]
                    continue
                j, inner = word[0], low.blocks[word[1:]]
                if k == j or k == j + 1:
                    col += inner
                else:
                    s, d = (low.degens[j - 1], low.faces[k]) if k < j else (low.degens[j], low.faces[k - 1])
                    col += map(s.__getitem__, d[inner.start:inner.stop])
            faces.append(col)
    out = memo[n] = NumberedLevel(n, blocks, names, faces, degens)
    return out


def _column(S, n, word, degens=(), ids=None):
    """The id of s_degens d_word z for every id z of level n, or for each z in `ids`: arrays composed."""
    col = ids
    for k in word:
        a = numbered_level(S, n).faces[k]
        col = a if col is None else list(map(a.__getitem__, col))
        n -= 1
    for k in reversed(degens):
        n += 1
        a = numbered_level(S, n).degens[k]
        col = a if col is None else list(map(a.__getitem__, col))
    return range(numbered_level(S, n).size) if col is None else col


def _filed(cols, zs):
    """The ids `zs` by their entries in the columns `cols` (aligned with zs): key tuple -> ids, in order."""
    table = {}
    for z, part in zip(zs, zip(*cols) if cols else itertools.repeat(())):
        hit = table.get(part)
        if hit is None:
            table[part] = [z]  # a list of one: setdefault's [] grows room for four
        else:
            hit.append(z)
    return table


def face_id_index(S, n, positions):
    """The ids of the n-simplices by their faces' ids at the face words `positions`.

    The one face-table builder: a dict from int tuples (the id of d_w z
    for each position w, see face_index) to the ids z in ascending
    order, memoised per (n, positions) on S.  A deeper position reads a
    composed column of face arrays of numbered_level.
    """
    memo = S._index_memo
    key = (n, positions)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = _filed([_column(S, n, w) for w in positions], range(numbered_level(S, n).size))
    return hit


def face_index(S, n, positions=None):
    """Lookup table from partial face tuples to the n-simplices having them, in simplices.

    A position is a face word: the strictly decreasing tuple of the
    vertices an iterated face operator deletes, so (k,) is d_k, (3, 1)
    is d_1 d_3 and () the simplex itself.  A simplex z is filed under
    (d_w z for w in positions); by default every d_k, so a vertex is
    filed under ().  Each list keeps the order of simplices(S, n).  This
    is face_id_index's table with its ids turned into simplices, same
    keys, lists and order: the view for callers outside the engine,
    which reads only the id tables.  It is built anew on every call.
    """
    if positions is None:
        positions = tuple((k,) for k in range(n + 1) if n)
    refs = simplices(S, n)
    parts = [simplices(S, n - len(w)) for w in positions]
    return {
        tuple(map(getitem, parts, part)): list(map(refs.__getitem__, zs))
        for part, zs in face_id_index(S, n, positions).items()
    }


def face_lookup(S, n, positions, key):
    """The ids z of the n-simplices with d_w z = key part for each position w, ascending.

    The key parts are ids too.  Equal to face_id_index(S, n,
    positions).get(key, []), but derived from the generators
    (Eilenberg-Zilber: every simplex is s_I y for one generator y and
    one degeneracy word I), so no table of all n-simplices is built;
    for keys asked once, such as a pin's.  Each position w pulls back
    to d_w s_I = s_I' d_w' (_lookup_plan): s_I y has key part x there
    exactly when x = s_I' u, i.e. I' lies in x's word, with u = d_I' x
    equal to d_w' y.  The y are looked up by the ids of their faces
    d_w' in _generator_index(S, m, w' tuple); s_I y is the id of y's
    place in the block of I.
    """
    levels = [n - len(w) for w in positions]
    words = [set(numbered_level(S, d).ref(x).word) for d, x in zip(levels, key)]
    out = []
    for word, m, parts, outer, slots in _lookup_plan(n, positions):
        if m > S.bound or not S.gens[m]:
            continue
        faces = [None] * len(outer)
        for (inner, _), s, d, x, x_word in zip(parts, slots, levels, key, words):
            if not x_word.issuperset(inner):
                break
            u = _column(S, d, inner, ids=(x,))[0]
            if faces[s] is None:
                faces[s] = u
            elif faces[s] != u:
                break
        else:
            start = numbered_level(S, n).blocks[word].start
            out += [start + p for p in _generator_index(S, m, outer).get(tuple(faces), ())]
    return out


@lru_cache(maxsize=1024)
def _lookup_plan(n, positions):
    """Per degeneracy word I on [n], ascending: (I, m, parts, outer, slots) for face_lookup.

    m = n - len(I).  parts[t] is (I', w') with d_w s_I = s_I' d_w' for
    the t-th position w: the epi-mono factorisation of the vertex map
    of s_I after the face inclusion missing w.  `outer` lists the
    distinct w' and slots[t] is the place of the t-th w' in it.
    """
    plan = []
    for m in range(n + 1):
        for word in itertools.combinations(range(n - 1, -1, -1), n - m):
            collapse = [p - sum(1 for i in word if i < p) for p in range(n + 1)]
            parts = []
            for w in positions:
                vmap = [collapse[p] for p in range(n + 1) if p not in w]
                inner = tuple(q for q in range(len(vmap) - 2, -1, -1) if vmap[q] == vmap[q + 1])
                parts.append((inner, tuple(v for v in range(m, -1, -1) if v not in vmap)))
            outer = tuple(dict.fromkeys(w for _, w in parts))
            plan.append((word, m, tuple(parts), outer, tuple(outer.index(w) for _, w in parts)))
    plan.sort()
    return tuple(plan)


def _generator_index(S, m, outer):
    """The dimension-m generators of S by the ids of their faces d_w, w in `outer`; memoised on S.

    A generator is given by its place in level m's block of the empty
    word, which comes first, so the place is its id.  The one index of
    generators, per (m, outer): face_lookup's and find_isomorphism's.
    """
    memo = S._gen_index_memo
    hit = memo.get((m, outer))
    if hit is None:
        gens = numbered_level(S, m).blocks[()]
        hit = memo[(m, outer)] = _filed([_column(S, m, w, ids=gens) for w in outer], gens)
    return hit


def _face_word(S, word, z):
    """d_word z: the faces d_k for k in the strictly decreasing `word`, first to last."""
    for k in word:
        z = face(S, k, z)
    return z


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


@lru_cache(maxsize=None)
def standard_simplex(n):
    """The standard n-simplex; one generator per non-empty vertex subset.

    Generators are named by concatenating vertex digits ("02" is the
    edge from 0 to 2) and listed by name in every dimension.
    """
    if not 0 <= n <= MAX_DIM:
        raise DimensionError(f"standard simplex dimension {n} outside 0..{MAX_DIM}")
    levels = [["".join(map(str, sub)) for sub in itertools.combinations(range(n + 1), m + 1)] for m in range(n + 1)]
    faces = {
        g: tuple(SimplexRef((), g[:k] + g[k + 1:], m - 1) for k in range(m + 1))
        for m, level in enumerate(levels) if m for g in level
    }
    return SimplicialSet(levels, faces)


def _simplex_without(n, dropped):
    """The standard n-simplex without its top generator and the facets d_k, k in `dropped`.

    Its face tuples are the simplex's own.
    """
    D = standard_simplex(n)
    top = n - 1
    gone = {D.face_table[D.gens[n][0]][k].gen for k in dropped}
    gens = [*D.gens[:top], [g for g in D.gens[top] if g not in gone]]
    faces = {g: D.face_table[g] for level in gens[1:] for g in level}
    return SimplicialSet(gens, faces)


@lru_cache(maxsize=None)
def simplex_boundary(n):
    """Boundary of the standard n-simplex and its inclusion into it."""
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"boundary dimension {n} outside 1..{MAX_DIM}")
    B = _simplex_without(n, ())
    return B, _sub_inclusion(B, standard_simplex(n))


@lru_cache(maxsize=None)
def horn(n, i):
    """The horn with the i-th face removed, plus its inclusion into the simplex.

    The union of the facets d_k for k != i: the standard n-simplex
    without its top generator and its facet d_i.  In the lowest case
    the horn degenerates to a single vertex: horn(1, 0) is the vertex
    "0" (a map out of it picks the source of a sought edge) and
    horn(1, 1) is the vertex "1".
    """
    if not 1 <= n <= MAX_DIM:
        raise DimensionError(f"horn dimension {n} outside 1..{MAX_DIM}")
    if not 0 <= i <= n:
        raise DimensionError(f"horn index {i} out of range for dimension {n}")
    H = _simplex_without(n, (i,))
    return H, _sub_inclusion(H, standard_simplex(n))


def _sub_inclusion(A, B):
    """Inclusion of a subcomplex whose generator names match B's; its `assign` is made on first read."""
    return _lazy_map(A, B, _generators_of, None)


def _generators_of(A, B, _):
    """Each generator of A sent to B's generator of the same name."""
    return {g: B.generator(g) for level in A.gens for g in level}


def discrete_simplicial_set(names, bound=0):
    """Disjoint vertices, padded with empty levels up to `bound`."""
    names = list(names)
    levels = [names] + [[] for _ in range(bound)]
    return SimplicialSet(levels, {})


def truncate(S, d):
    """Drop all generators above dimension d.

    The result keeps the face ids of the generators it keeps: a level's
    generators, by name, lead its numbering, so they are the first ids
    of every face array of numbered_level(S, n), and ids one level down
    do not depend on the levels above.  Its face table is derived from
    them on first read.  The result is flagged truncated when generators
    were actually dropped (or the input already was a window).
    """
    if d < -1:
        raise DimensionError("truncation level below -1")
    if d >= S.bound:
        return S
    dropped = any(S.gens[n] for n in range(d + 1, S.bound + 1))
    face_ids = [(), *([col[:len(S.gens[n])] for col in numbered_level(S, n).faces] for n in range(1, d + 1))]
    return SimplicialSet(S.gens[: d + 1], face_ids=face_ids, truncated=S.truncated or dropped)


def rename_generators(S, mapping):
    """Copy of S with generators renamed by a total injective mapping."""
    vals = list(mapping.values())
    if len(set(vals)) != len(vals):
        raise ValueError("renaming is not injective")
    unmapped = next((g for level in S.gens for g in level if g not in mapping), None)
    if unmapped is not None:
        raise ValueError(f"renaming has no image for generator '{unmapped}'")
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
    simplices is `apply`.  A map made by _lazy_map (maps_of_rows, the
    horn and boundary inclusions) keeps a maker and its row instead,
    and makes `assign` when it is first read.
    """

    def __init__(self, source, target, assign):
        self.source = source
        self.target = target
        self.assign = dict(assign)
        self._key = None

    @cached_property
    def assign(self):
        # only maps of _lazy_map get here: __init__'s dict shadows this
        assign = self._make(self.source, self.target, self._row)
        del self._make, self._row
        return assign

    def apply(self, ref):
        return word_apply(ref.word, self.assign[ref.gen])

    def validate(self):
        """Violations of totality, dimension, normal form, target validity and naturality."""
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
            elif not _in_normal_form(B, r):
                report.append(f"value of '{g}' is not a normal-form simplex")
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
        # the sets themselves, so that hashing a map reuses their cached hashes
        if self._key is None:
            self._key = (self.source, self.target, tuple(sorted(self.assign.items())))
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


@lru_cache(maxsize=None)
def coface_map(n, k):
    """The face inclusion that skips vertex k: standard (n-1)-simplex into the n-simplex."""
    return simplex_map_from_vertices(n - 1, n, [j if j < k else j + 1 for j in range(n)])


@lru_cache(maxsize=None)
def codegeneracy_map(n, k):
    """The collapse that repeats vertex k: standard n-simplex onto the (n-1)-simplex."""
    return simplex_map_from_vertices(n, n - 1, [j if j <= k else j - 1 for j in range(n + 1)])


# ---------------------------------------------------------------------------
# Map enumeration (the brute-force lifting engine's core).


def _closed_pins(A, B, fixed):
    """`fixed` extended to every face of a pinned generator; None when no map agrees with it."""
    pins = dict(fixed)
    for g in (g for level in reversed(A.gens) for g in level if g in pins):  # pins grows downwards
        r = pins[g]
        if not _in_normal_form(B, r):
            return None
        for k, z in enumerate(A.face_table.get(g, ())):
            v = face(B, k, r)
            y = _face_word(B, z.word, v)
            if word_apply(z.word, y) != v or pins.setdefault(z.gen, y) != y:
                return None
    return pins


def _top_cells(A):
    """A's top cells, the generators that are no face of another, with their vertices.

    A map out of A is fixed by its values on them (Goerss-Jardine, I.1).
    """
    faced = {r.gen for refs in A.face_table.values() for r in refs}
    cells = []
    for n, level in enumerate(A.gens):
        for g in level:
            if g not in faced:
                ends = (tuple(k for k in range(n, -1, -1) if k != q) for q in range(n + 1))
                verts = (_face_word(A, w, A.generator(g)).gen for w in ends)
                cells.append((g, n, list(dict.fromkeys(verts))))
    return cells


def _search_plan(A, pinned):
    """How the values of A's top cells and of the `pinned` generators fix a map.

    Cells holding a pinned generator (so, pins being closed under
    faces, a pinned vertex) come first, in declaration order, then the
    rest breadth first along shared vertices.  Any other generator is
    read off the first cell it lies on, as d_w cell for the first face
    word w giving it.  The slots of a search hold the
    pins, then the cells in search order.  Per cell, the step (dim,
    positions, ties, checks, new) holds: for each face d_w cell = s_I g
    with g pinned or read off an earlier cell, the position w and the
    tie (slot, word there, I), maximal faces only, since a face inside
    a tied face is implied by it; checks (w, w0, I) for the faces
    d_w cell = s_I d_w0 cell within the cell (loops, degenerate faces);
    and the generators (g, w) read off it.  With the steps come each
    top cell's slot and every generator's home, in declaration order:
    (r, w) when its value is d_w of the r-th of [pins, top cells in
    declaration order], where r is its own pin for a pinned generator,
    else the first cell in search order that it lies on.
    """
    key = frozenset(pinned)
    cells = _top_cells(A)
    pins = [g for level in A.gens for g in level if g in key]
    users = {}
    for c, (_, _, verts) in enumerate(cells):
        for v in verts:
            users.setdefault(v, []).append(c)
    order = [c for c, (_, _, verts) in enumerate(cells) if any(v in key for v in verts)]
    queued, spread, j = set(order), set(), 0
    for seed in range(len(cells)):
        while j < len(order):
            for v in cells[order[j]][2]:
                if v not in spread:
                    spread.add(v)
                    fresh = [u for u in users[v] if u not in queued]
                    order += fresh
                    queued.update(fresh)
            j += 1
        if seed not in queued:
            order.append(seed)
            queued.add(seed)

    base = len(pins)
    read = {g: (s, ()) for s, g in enumerate(pins)}
    home = dict(read)
    steps, slots = [], [0] * len(cells)
    for j, c in enumerate(order):
        g, n, _ = cells[c]
        # faces fewest deleted vertices first, not below a known face: all inside it are known
        faces = [(0, (), A.generator(g))]
        for mask, word, z in faces:  # the list grows as it is read
            if z.gen not in read and len(word) < n:
                for k in range(word[-1] if word else n + 1):
                    faces.append((mask | 1 << k, word + (k,), face(A, k, z)))
        new = {}
        for _, w, z in faces:
            if z.gen not in read and not z.word:
                new.setdefault(z.gen, w)
        ties, checks, cover = [], [], []
        for mask, w, z in faces:
            if z.gen in read:
                if not any(mask & m == m for m in cover):
                    cover.append(mask)
                    ties.append((w, *read[z.gen], z.word))
            elif new[z.gen] != w:
                checks.append((w, new[z.gen], z.word))
        ties.sort()
        for g, w in new.items():
            read[g], home[g] = (base + j, w), (base + c, w)
        slots[c] = base + j
        steps.append((n, tuple(t[0] for t in ties), tuple(t[1:] for t in ties), checks, list(new.items())))
    return pins, steps, slots, [home[g] for level in A.gens for g in level]


class MapSearch:
    """The maps from A to B that agree with `fixed` and pass `constrain`, found by top cells.

    Iterating yields each such map once, as its values on A's top
    cells in declaration order (for a horn or a sphere: its facets,
    vertex lists descending); `join` gives the same as one list per
    cell.  The search is a join over the cells in _search_plan order,
    one step (cell) at a time for all rows at once.  A cell's value is
    looked up by its faces that the pins and earlier cells fix: in the
    full face table of B's n-simplices at those positions when no face
    is a pin's, else among the face_lookup matches of its pinned faces,
    filed once per search by the rest.  The faces it shares with itself
    are checked after, and so is `constrain` on the generators read off
    it.  The pins are first extended to the faces of pinned generators:
    when they disagree, or one fails `constrain`, there are no maps.

    Every search runs on the ids of numbered_level: pins and values are
    ints, ties and checks read faces from id arrays (_column), and the
    tables are face_id_index's and face_lookup's.  Only `constrain`
    sees simplices, those of the candidates.  `rows` gives the maps'
    value rows in ids, each generator's value read off its home in the
    plan by face arrays; rows sort like map_key, and maps_of_rows
    makes maps of them.  A scan that hands back no map makes no
    simplex of B.  `_plans`, internal, gives the search plan
    for the frozenset of pinned names, for scans that build one plan
    per shape (default: _search_plan of A).
    """

    def __init__(self, A, B, fixed=None, constrain=None, *, _plans=None):
        fixed = dict(fixed or {})
        for g, r in fixed.items():
            if g not in A.gen_dim:
                raise ValueError(f"fixed assignment names unknown generator '{g}'")
            if r.dim != A.gen_dim[g]:
                raise ValueError(f"fixed assignment for '{g}' has wrong dimension")
        self.source, self.target, self.constrain = A, B, constrain
        pins = _closed_pins(A, B, fixed)
        if pins is not None and constrain is not None and not all(constrain(g, r) for g, r in pins.items()):
            pins = None
        self.live = pins is not None
        plan = (_plans or partial(_search_plan, A))(frozenset(pins or ()))
        names, self.steps, self.slots, self.homes = plan
        self.pins = [numbered_level(B, A.gen_dim[g]).id_of(pins[g]) for g in names]
        # the level of each slot's value: the pins', then the cells' in search order
        self._dims = [A.gen_dim[g] for g in names] + [step[0] for step in self.steps]

    def _lookups(self):
        """Per step its table, its ties as (slot, reader), and the filter of its candidates or None.

        A reader takes the slot's value to the tie's key part by a
        composed column of face arrays (_column).  Ties to pins have one
        key per search, so those candidates are looked up once
        (face_lookup) and filed by the rest; a step without them uses
        face_id_index.
        """
        B, constrain, base = self.target, self.constrain, len(self.pins)
        lookups = []
        for n, positions, ties, checks, new in self.steps:
            cols = [(_column(B, n, w), _column(B, n, w0, word)) for w, w0, word in checks]
            new = [(g, _column(B, n, w), simplices(B, n - len(w))) for g, w in new] if constrain is not None else ()
            fits = partial(_fits, cols, constrain, new) if cols or new else None
            readers = [(s, _column(B, self._dims[s], w, word).__getitem__) for s, w, word in ties if s >= base]
            pinned = [t for t, tie in enumerate(ties) if tie[0] < base]
            if not pinned:
                lookups.append((face_id_index(B, n, positions), readers, fits))
                continue
            key = tuple([
                _column(B, self._dims[s], w, word, ids=(self.pins[s],))[0] for s, w, word in (ties[t] for t in pinned)
            ])
            xs = face_lookup(B, n, tuple(positions[t] for t in pinned), key)
            rest = [positions[t] for t, tie in enumerate(ties) if tie[0] >= base]
            lookups.append((_filed([_column(B, n, w, ids=xs) for w in rest], xs), readers, fits))
        return lookups

    def join(self):
        """(count, tops): how many maps there are, and their values on A's top cells, one list per cell.

        The cells are in declaration order, as iterating yields them.
        The filled steps keep one column each.  A step reads its key
        columns off the columns of the tied slots, looks up the pools of
        all rows at once, filters them, and expands every earlier
        column by the parent of each new row.  New rows come in parent
        order, then pool order: depth-first order over the steps.
        """
        if not self.live:
            return 0, [[] for _ in self.slots]
        base, count, cols = len(self.pins), 1, []
        for table, readers, fits in self._lookups():
            keys = zip(*[map(f, cols[s - base]) for s, f in readers]) if readers else [()] * count
            pools = list(map(table.get, keys, itertools.repeat(())))
            if fits is not None:
                pools = [list(filter(fits, pool)) for pool in pools]
            sizes = list(map(len, pools))
            col = list(itertools.chain.from_iterable(pools))
            del pools
            if len(col) != count or 0 in sizes:
                parents = list(itertools.chain.from_iterable(map(itertools.repeat, range(count), sizes)))
                cols = [list(map(c.__getitem__, parents)) for c in cols]
            cols.append(col)
            count = len(col)
        return count, [cols[s - base] for s in self.slots]

    def __iter__(self):
        return _transposed(*self.join())

    def rows(self, count, tops):
        """The value rows of the `count` maps with top-cell values `tops`, one list per cell as from join.

        A row holds the ids of a map's values on A's generators in
        declaration order, column by column: a generator with home (r,
        w) takes d_w of column r of [pins, tops], read through the face
        arrays of numbered_level(B, ·) one face at a time, and each
        (r, prefix of w) is composed once for all the homes sharing it.
        Rows sort like map_key: position p holds values of one
        dimension, and ids follow simplices(B, n), sorted by ref_key.
        """
        dims = self._dims[:len(self.pins)] + [self._dims[s] for s in self.slots]
        cols = {(r, ()): col for r, col in enumerate([*([x] * count for x in self.pins), *tops])}
        for r, w in self.homes:
            for t in range(len(w)):
                if (r, w[:t + 1]) not in cols:
                    a = numbered_level(self.target, dims[r] - t).faces[w[t]]
                    cols[(r, w[:t + 1])] = list(map(a.__getitem__, cols[(r, w[:t])]))
        return _transposed(count, [cols[home] for home in self.homes])

    def first(self, tops, found):
        """The (map, payload) of the (row number, payload) pairs in `found` whose map is listed first.

        Row numbers index the columns `tops` of join; first means first
        in enumerate_maps order.  None if `found` is empty.
        """
        if not found:
            return None
        picked = [i for i, _ in found]
        rows = list(self.rows(len(found), [list(map(c.__getitem__, picked)) for c in tops]))
        best = min(range(len(rows)), key=rows.__getitem__)
        return maps_of_rows(self.source, self.target, rows[best:best + 1])[0], found[best][1]


def _transposed(count, cols):
    """The rows of `count` rows stored as columns; `count` empty rows when there are no columns."""
    return zip(*cols) if cols else iter([()] * count)


def _fits(checks, constrain, new, x):
    """Whether candidate x agrees with itself at the `checks` and its generators `new` pass constrain."""
    return all(left[x] == right[x] for left, right in checks) and all(
        constrain(g, refs[col[x]]) for g, col, refs in new
    )


def map_rows(A, B, fixed=None, limit=None, constrain=None):
    """The maps of enumerate_maps as value rows: the ids of their values on A's generators in declaration order.

    A value on a dimension-n generator is an id of numbered_level(B, n).
    Rows sort like map_key, so the list is enumerate_maps' order.
    """
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be at least 0, not {limit}")
    search = MapSearch(A, B, fixed, constrain)
    return sorted(search.rows(*search.join()))[:limit]


def enumerate_maps(A, B, fixed=None, limit=None, constrain=None):
    """All simplicial maps from A to B, optionally pinned on some generators.

    `fixed` maps generator names of A to target simplices; `constrain`
    is an optional predicate (gen_name, ref) -> bool that every value
    of a map must pass.  MapSearch finds the maps by A's top cells,
    each looked up by the faces it shares with the pins and the cells
    before it.  Output is sorted by map_key, independent of the search;
    `limit` keeps the first `limit` maps, the smallest.
    """
    return maps_of_rows(A, B, map_rows(A, B, fixed, limit, constrain))


def maps_of_rows(A, B, rows):
    """The SimplicialMaps from A to B with these id rows (map_rows), in order; the one place rows become maps.

    Each map keeps its row, and a maker shared by all the maps of one
    call, until its `assign` is read.  The maker makes the target levels
    of A's generators (simplices(B, n)) at the first read of any of the
    maps, so maps whose values are never read make no simplex.
    """
    flat = [g for level in A.gens for g in level]
    levels = []

    def values(A, B, row):
        if len(levels) < len(flat):
            levels[:] = [simplices(B, A.gen_dim[g]) for g in flat]
        return dict(zip(flat, map(getitem, levels, row)))

    return [_lazy_map(A, B, values, row) for row in rows]


def _lazy_map(A, B, make, row):
    """The map from A to B whose `assign` is make(A, B, row), made on its first read."""
    f = SimplicialMap.__new__(SimplicialMap)
    f.source, f.target, f._key = A, B, None
    f._make, f._row = make, row
    return f


def map_key(f):
    """Sort key of enumerate_maps output: the values on the source's generators in declaration order."""
    return tuple(ref_key(f.assign[g]) for level in f.source.gens for g in level)


def find_isomorphism(A, B):
    """A dimension-preserving generator bijection commuting with faces, or None.

    Searches generator by generator in A's declaration order; the
    candidates for an n-generator g are B's n-generators, by their
    places in level n's block of the empty word (so by name), whose
    faces have the ids of the images of g's faces (_generator_index).
    The first isomorphism in lexicographic order (by A's declaration
    order and B's names) is returned as a SimplicialMap.
    """
    if A.bound != B.bound or A.size_vector() != B.size_vector():
        return None
    flat = [g for level in A.gens for g in level]
    facets = [tuple((k,) for k in range(n + 1) if n) for n in range(A.bound + 1)]
    phi = {}  # generator of A -> place of its image among B's generators of its dimension
    used = [set() for _ in facets]

    def candidates(g):
        n = A.gen_dim[g]
        key = tuple(numbered_level(B, r.dim).blocks[r.word].start + phi[r.gen] for r in A.face_table.get(g, ()))
        taken = used[n]
        # lazy: `taken` at every next() is what it was when the iterator was pushed
        return (p for p in _generator_index(B, n, facets[n]).get(key, ()) if p not in taken)

    # depth-first over flat; stack[p] holds the untried candidates for flat[p]
    stack = []
    while len(phi) < len(flat):
        stack.append(candidates(flat[len(phi)]))
        while True:
            g = flat[len(stack) - 1]
            taken = used[A.gen_dim[g]]
            if g in phi:
                taken.discard(phi.pop(g))
            p = next(stack[-1], None)
            if p is not None:
                phi[g] = p
                taken.add(p)
                break
            stack.pop()
            if not stack:
                return None
    assign = {g: numbered_level(B, A.gen_dim[g]).ref(phi[g]) for g in flat}
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
