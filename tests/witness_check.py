"""An independent re-check of the witness of a failed check.

It shares no code with the checks' search: a witness map is checked
with SimplicialMap.validate, and its fillers or diagonals are found by
a linear scan of simplices(S, n) with the face calculus.  No face
index, no map search.
"""

from finsimp.simplicial import face, horn, simplex_boundary, simplices


def facet_name(n, k):
    """The generator of the horn or sphere of dimension n that is the facet d_k."""
    return "".join(str(v) for v in range(n + 1) if v != k)


def scan_fillers(S, assign, n, skip):
    """The n-simplices z of S with d_k z the value of `assign` on facet k, for k != skip."""
    facets = {k: assign[facet_name(n, k)] for k in range(n + 1) if k != skip}
    return [z for z in simplices(S, n) if all(face(S, k, z) == x for k, x in facets.items())]


def check_horn_witness(K, res, unique=False):
    """The witness of a failed horn check is a horn map into K with no filler.

    For a unique-filler check it may instead have two or more.
    """
    hm = res.witness
    f = hm.assignment
    assert not res.holds
    assert f.validate() == []
    assert f.source == horn(hm.n, hm.i)[0] and f.target == K
    fillers = scan_fillers(K, f.assign, hm.n, hm.i)
    assert len(fillers) == res.count
    assert len(fillers) != 1 if unique else not fillers


def check_sphere_witness(C, v, res, pinned):
    """The witness of a failed finality check is a sphere through v, at vertex `pinned`, with no filler."""
    f = res.witness
    n = f.source.bound + 1
    assert not res.holds
    assert f.validate() == []
    assert f.source == simplex_boundary(n)[0] and f.target == C
    assert f.assign[str(pinned(n))] == C.generator(v)
    assert scan_fillers(C, f.assign, n, None) == []


def check_square_witness(p, res):
    """The witness of a failed fibration check is a commuting square over p with no diagonal.

    A diagonal is an n-simplex of p's source with the top map's facet
    values and lying over the bottom map's top simplex.
    """
    square = res.witness
    assert not res.holds
    assert square.validate() == []
    assert square.right is p
    top, bottom = square.top.assign, square.bottom
    n = bottom.source.bound
    missing = [k for k in range(n + 1) if facet_name(n, k) not in top]
    assert len(missing) <= 1
    assert square.left == (horn(n, missing[0]) if missing else simplex_boundary(n))[1]
    below = bottom.assign[facet_name(n, n + 1)]
    diagonals = [
        z for z in scan_fillers(p.source, top, n, missing[0] if missing else None)
        if p.apply(z) == below
    ]
    assert diagonals == []
