"""Searches that the engine used before, kept as oracles.

reference_maps is the per-generator search that came before the
top-cell search.  It assigns one generator at a time, always a ready
one (all its faces assigned) with the fewest candidates, looked up by
face tuple: same maps, same order as enumerate_maps.  With `limit` it
stops after the first `limit` maps in search order, unsorted.

dfs_tops is the depth-first loop over a MapSearch's top cells that
came before its columnar join: same tuples, same order as iterating
the search, and it counts the search nodes per depth.

reference_isomorphism is the search find_isomorphism ran before it
went on ids: generator by generator, candidates looked up by face
tuple in face_index.  Same isomorphism, or None.

scanned_horns is lifting.horn_scan before it decided a horn by
counting: every (n, i) scanned by _unfilled against its filler table.
Same CheckResult, witness and count included.
"""

from finsimp.lifting import CheckResult, HornMap, _horn_shapes, _unfilled
from finsimp.simplicial import (
    SimplexRef,
    SimplicialMap,
    _column,
    _face_word,
    face_id_index,
    face_index,
    map_key,
    simplices,
    word_apply,
)


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


def reference_maps(A, B, fixed=None, limit=None, constrain=None):
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
    views = {}  # face_index(B, n), built once per dimension

    def view(n):
        if n not in views:
            views[n] = face_index(B, n)
        return views[n]

    def candidates(g):
        pool = cache.get(g)
        if pool is not None:
            return pool
        req = tuple(word_apply(r.word, assign[r.gen]) for r in A.face_table.get(g, ()))
        pool = view(A.gen_dim[g]).get(req, ())
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


def _id_readers(search, xs):
    """Per step its face_id_index table, ties as (slot, _column), checks and constrained generators; the readers.

    A pin is a slot like a cell's, of its own dimension, so a step tied
    to a pin reads the full table too and the loop checks face_lookup.
    `constrain` gets the candidate's faces as simplices, by face.
    """
    B, constrain = search.target, search.constrain
    lookups = []
    for n, positions, ties, checks, new in search.steps:
        # d_p cell = s_word d_w (slot value), so the slot's level is n - len(p) + len(w) - len(word)
        readers = [(s, _column(B, n - len(p) + len(w) - len(word), w, word)) for p, (s, w, word) in zip(positions, ties)]
        lookups.append((
            face_id_index(B, n, positions),
            readers,
            [(_column(B, n, w), _column(B, n, w0, word)) for w, w0, word in checks],
            [(g, w, simplices(B, n)) for g, w in new] if constrain is not None else (),
        ))

    def key(ties):
        return tuple([col[xs[s]] for s, col in ties])

    def fits(x, checks, new):
        return all(left[x] == right[x] for left, right in checks) and all(
            constrain(g, _face_word(B, w, refs[x])) for g, w, refs in new
        )

    return key, fits, lookups


def dfs_tops(search, nodes=None):
    """The top-cell values of a MapSearch's maps, found depth first over its steps.

    The loop MapSearch ran before its columnar join: same plan, same
    tables, one candidate at a time.  Yields the same tuples in the
    same order.  With `nodes`, a list with one zero per step, it counts
    the search nodes (candidates tried) at each depth.
    """
    if not search.live:
        return
    steps, slots = search.steps, search.slots
    if not steps:
        yield ()
        return
    xs = list(search.pins)
    base = len(xs)
    key, fits, lookups = _id_readers(search, xs)

    def candidates():
        table, ties, checks, new = lookups[len(xs) - base]
        pool = table.get(key(ties), ())
        if checks or new:
            pool = [x for x in pool if fits(x, checks, new)]
        return iter(pool)

    stack = [candidates()]  # stack[j]: the untried candidates of step j; a for loop resumes them
    while stack:
        for x in stack[-1]:
            del xs[base + len(stack) - 1:]
            xs.append(x)
            if nodes is not None:
                nodes[len(stack) - 1] += 1
            if len(stack) < len(steps):
                stack.append(candidates())
                break
            yield tuple([xs[s] for s in slots])
        else:
            stack.pop()


def reference_isomorphism(A, B):
    """A dimension-preserving generator bijection commuting with faces, or None.

    Searches level by level with face-tuple lookup; the first
    isomorphism in lexicographic order (by A's declaration order and
    B's sorted candidates) is returned as a SimplicialMap.
    """
    if A.bound != B.bound or A.size_vector() != B.size_vector():
        return None
    flat = [g for level in A.gens for g in level]
    views = [face_index(B, n) for n in range(A.bound + 1)]
    phi = {}
    used = set()

    def candidates(g):
        req = tuple(SimplexRef(r.word, phi[r.gen], r.dim) for r in A.face_table.get(g, ()))
        matches = views[A.gen_dim[g]].get(req, ())
        # lazy: `used` at every next() is what it was when the iterator was pushed
        return (z.gen for z in matches if not z.word and z.gen not in used)

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


def scanned_horns(K, N, inner, unique):
    """Whether every horn map into K up to dimension N has a filler, or exactly one for `unique`, by scanning.

    The horns are all of them, or the inner ones for `inner`, n
    ascending, then i ascending.  Each (n, i) is scanned for the first
    map, in horn_maps order, whose fillers are none (or not one); the
    result is lifting.horn_scan's.
    """
    ok = (lambda zs: len(zs) == 1) if unique else bool
    for n, i in _horn_shapes(N, inner):
        found = _unfilled(K, n, i, lambda _, zs: None if ok(zs) else len(zs))
        if found is not None:
            return CheckResult(False, HornMap(n, i, found[0]), N, found[1])
    return CheckResult(True, None, N)
