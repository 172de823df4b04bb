"""Two map searches that enumerate_maps used before, kept as oracles.

reference_maps is the per-generator search that came before the
top-cell search.  It assigns one generator at a time, always a ready
one (all its faces assigned) with the fewest candidates, looked up by
face tuple: same maps, same order as enumerate_maps.  With `limit` it
stops after the first `limit` maps in search order, unsorted.

dfs_tops is the depth-first loop over a MapSearch's top cells that
came before its columnar join: same tuples, same order as iterating
the search, and it counts the search nodes per depth.
"""

from finsimp.simplicial import (
    SimplicialMap,
    _column,
    _face_word,
    face,
    face_id_index,
    face_index,
    face_lookup,
    map_key,
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


def _id_readers(search, xs):
    """Per step its face_id_index table, ties as (slot, _column) and checks; the key and check readers."""
    B, steps = search.target, search.steps
    lookups = [
        (
            face_id_index(B, n, positions),
            [(s, _column(B, steps[s][0], w, word)) for s, w, word in ties],
            [(_column(B, n, w), _column(B, n, w0, word)) for w, w0, word in checks],
            (),
        )
        for n, positions, ties, checks, _ in steps
    ]

    def key(ties):
        return tuple([col[xs[s]] for s, col in ties])

    def fits(x, checks, _):
        return all(left[x] == right[x] for left, right in checks)

    return key, fits, lookups


def _ref_readers(search, xs):
    """Per step its table, ties, checks and constrained generators; the key and check readers.

    Ties to pins have one key per search, so those candidates are
    looked up once and filed by the rest; a step without them uses
    face_index.
    """
    B, constrain, base = search.target, search.constrain, len(xs)

    def key(ties):
        out = []
        for s, w, word in ties:
            z = xs[s]
            for k in w:
                z = face(B, k, z)
            out.append(word_apply(word, z) if word else z)
        return tuple(out)

    def fits(x, checks, new):
        return all(
            _face_word(B, w, x) == word_apply(word, _face_word(B, w0, x)) for w, w0, word in checks
        ) and all(constrain(g, _face_word(B, w, x)) for g, w in new)

    lookups = []
    for n, positions, ties, checks, new in search.steps:
        new = new if constrain is not None else ()
        pinned = [t for t, tie in enumerate(ties) if tie[0] < base]
        if not pinned:
            lookups.append((face_index(B, n, positions=positions), ties, checks, new))
            continue
        pool = face_lookup(B, n, tuple(positions[t] for t in pinned), key([ties[t] for t in pinned]))
        rest = [t for t, tie in enumerate(ties) if tie[0] >= base]
        table = {}
        for x in pool:
            table.setdefault(tuple([_face_word(B, positions[t], x) for t in rest]), []).append(x)
        lookups.append((table, [ties[t] for t in rest], checks, new))
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
    key, fits, lookups = (_id_readers if search.by_id else _ref_readers)(search, xs)

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
