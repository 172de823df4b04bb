"""The per-generator map search that enumerate_maps used before the top-cell search.

It assigns one generator at a time, always a ready one (all its faces
assigned) with the fewest candidates, looked up by face tuple.  Kept
as the oracle of the top-cell search: same maps, same order.  With
`limit` it stops after the first `limit` maps in search order, unsorted.
"""

from finsimp.simplicial import SimplicialMap, face_index, map_key, word_apply


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
