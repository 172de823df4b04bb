"""The nerve as it was built before its faces became id arrays, kept as an oracle.

reference_nerve makes every face of every chain as a SimplexRef, looked
up among the chains of the two levels below, and gives the set its
face table directly.  Same generators in the same order, same faces,
same truncation flag as categories.nerve.
"""

from finsimp.simplicial import MAX_DIM, DimensionError, SimplexRef, SimplicialSet, TruncationError


def reference_nerve(C, depth=4):
    if depth < 0:
        raise TruncationError("nerve depth must be >= 0")
    if depth > MAX_DIM:
        raise DimensionError(f"nerve depth {depth} exceeds the supported maximum {MAX_DIM}")
    nonid = C.non_identities()
    out = {}
    for m in nonid:
        out.setdefault(C.src[m], []).append(m)
    gens_by_dim = [list(C.objects)]
    chains = {1: [(m,) for m in nonid]}
    for n in range(2, depth + 1):
        chains[n] = [c + (m,) for c in chains[n - 1] for m in out.get(C.tgt[c[-1]], ())]
    # the chains of the last two levels by their refs: every face is one of them, or a
    # degeneracy s_(k-1) of a chain two levels down where d_k composes to an identity
    ids = C._ids
    below = {}
    prev = {(o,): SimplexRef((), o, 0) for o in C.objects}
    faces = {}
    for n in range(1, depth + 1):
        level = []
        refs_n = {}
        for c in chains.get(n, []):
            name = ".".join(c)
            level.append(name)
            refs_n[c] = SimplexRef((), name, n)
            if n == 1:
                faces[name] = (prev[(C.tgt[c[0]],)], prev[(C.src[c[0]],)])
                continue
            refs = [prev[c[1:]]]
            for k in range(1, n):
                m = C.comp[(c[k], c[k - 1])]
                if m not in ids:
                    refs.append(prev[c[: k - 1] + (m,) + c[k + 1:]])
                else:
                    core = c[: k - 1] + c[k + 1:]
                    gen = below[core].gen if core else C.src[c[0]]
                    refs.append(SimplexRef((k - 1,), gen, n - 1))
            refs.append(prev[c[:-1]])
            faces[name] = tuple(refs)
        below, prev = prev, refs_n
        gens_by_dim.append(level)

    frontier = set(C.objects)
    for _ in range(depth + 1):
        if not frontier:
            break
        frontier = {C.tgt[m] for m in nonid if C.src[m] in frontier}
    return SimplicialSet(gens_by_dim, faces, truncated=bool(frontier))
