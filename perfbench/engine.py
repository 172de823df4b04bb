"""Worker for the engine workloads of the benchmark: horn-scan and slice-limit.

run.py starts this file in a fresh interpreter once per pass:

    python3 perfbench/engine.py WORKLOAD SEED SIZE MODE RUN_ID

SIZE is "full" or "smoke".  MODE is "run", "trace" (the same, plus
spans) or "setup" (stop once the inputs are ready, to time set-up).

It imports finsimp, checks that the engine's module-level caches are
cold, and runs the workload's operations one after another.  Every
operation is one call into a public function of one finsimp module.
Its inputs are built fresh before its timer starts, and its result is
checked against an answer that does not come from the timed call.

The only line on stdout is a JSON object: the monotonic times at
which the inputs were ready and at which the last verdict was in, one
record per operation and, in trace mode, one span per operation under
a span for the whole pass.  The spans are opened and closed around the
calls and stay in memory until the pass ends.

The seed only renames objects, group elements and generators, and
reorders the divisor pairs.  Verdicts, counts and work do not depend
on names.
"""

from __future__ import annotations

import importlib
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import finsimp
from finsimp import (
    FiniteGroup,
    SimplexRef,
    SimplicialMap,
    chain_category,
    colimit,
    coslice_under,
    discrete_simplicial_set,
    enumerate_maps,
    has_unique_inner_fillers,
    horn,
    is_final,
    is_kan,
    is_kan_fibration,
    is_quasicategory,
    limit,
    mapping_space,
    nerve,
    nerve_detect,
    one_object_groupoid,
    poset_category,
    product,
    rename_generators,
    slice_over,
    standard_simplex,
)
from finsimp.simplicial import face_index
from inputs import Namer, compose_perm

# Operation sizes.  "full" is what the benchmark measures; "smoke" is the
# smallest instance of every operation, for the benchmark's own tests.
SIZES = {
    "full": {
        "degree": 3,  # the group is S3
        "nerve_depth": 4,
        "horn_dims": (2, 3, 4),
        "index_dims": (1, 2, 3, 4),
        "qcat_chain": 4,
        "qcat_depth": 5,
        "check_depth": 3,
        "fail_chain": 3,
        "point_depth": 7,
        "divisor_base": 60,
        "limit_depth": 2,
        "slice_depth": 2,
        "final_chain": 4,
        "final_depth": 4,
        "product": (3, 4),
    },
    "smoke": {
        "degree": 2,
        "nerve_depth": 3,
        "horn_dims": (2, 3),
        "index_dims": (1, 2, 3),
        "qcat_chain": 2,
        "qcat_depth": 3,
        "check_depth": 2,
        "fail_chain": 2,
        "point_depth": 4,
        "divisor_base": 12,
        "limit_depth": 2,
        "slice_depth": 1,
        "final_chain": 2,
        "final_depth": 2,
        "product": (1, 2),
    },
}

# The module-level caches of the engine.  Each must be empty when a
# worker starts, so every pass pays for filling them, as a CLI call does.
CACHED = [
    ("simplicial", "standard_simplex"),
    ("simplicial", "horn"),
    ("simplicial", "simplex_boundary"),
    ("constructions", "join_parts"),
    ("constructions", "product_parts"),
]


class Mismatch(Exception):
    """A result differs from its known answer."""


def expect(cond, message):
    if not cond:
        raise Mismatch(message)


@dataclass
class Op:
    """One timed call.

    `build` makes fresh inputs (untimed), `call` is the timed call, and
    `check(result, *inputs)` compares the result with the known answer,
    raising Mismatch, and returns the counts the operation reports, by
    name (or None).
    `metric` names the per-layer metric the call adds to; the times and
    counts of the calls of one metric are summed.
    """

    name: str
    layer: str
    metric: str | None
    build: Callable
    call: Callable
    check: Callable


def renamed(namer, S, prefix):
    """Copy of a simplicial set with seeded generator names, and the map of names."""
    mapping = {g: namer(prefix) for level in S.gens for g in level}
    return rename_generators(S, mapping), mapping


class NamedSymmetricGroup:
    """The symmetric group on `degree` letters with seeded element names.

    The benchmark keeps its own table, so the checks on nerves of this
    group do not depend on finsimp's group code.
    """

    def __init__(self, degree, namer):
        perms = list(itertools.permutations(range(degree)))
        self.name = {p: namer("g") for p in perms}
        self.unit = self.name[tuple(range(degree))]
        self.elements = [self.name[p] for p in perms]
        self.mul = {
            (self.name[g], self.name[f]): self.name[compose_perm(g, f)]
            for g in perms
            for f in perms
        }
        self.obj = namer("o")

    @property
    def order(self):
        return len(self.elements)

    def nerve(self, depth):
        G = FiniteGroup(self.elements, self.unit, self.mul)
        return nerve(one_object_groupoid(G, self.obj), depth)


def _to_point(S, P):
    """The map collapsing S onto the single vertex of P."""
    v = P.gens[0][0]
    assign = {
        g: SimplexRef(tuple(range(n - 1, -1, -1)), v, n)
        for n, level in enumerate(S.gens)
        for g in level
    }
    return SimplicialMap(S, P, assign)


def horn_scan_ops(size, namer):
    G = NamedSymmetricGroup(size["degree"], namer)
    Z2 = NamedSymmetricGroup(2, namer)
    depth = size["nerve_depth"]
    top = max(size["horn_dims"])
    ops = []

    for n in size["horn_dims"]:
        for i in range(n + 1):

            def check_horns(maps, *_, n=n):
                expect(len(maps) == G.order**n, f"{len(maps)} horn maps, want {G.order}^{n}")
                return {"maps": len(maps)}

            ops.append(Op(
                f"horns_n{n}_i{i}", "simplicial",
                "simplicial.horns_bs3_d4" if n == top else None,
                lambda n=n, i=i: (horn(n, i)[0], G.nerve(depth)),
                enumerate_maps,
                check_horns,
            ))

    for n in size["index_dims"]:

        def check_index(table, *_, n=n):
            keys = 1 if n == 1 else G.order**n
            expect(len(table) == keys, f"{len(table)} face-index keys, want {keys}")
            filed = sum(len(v) for v in table.values())
            expect(filed == G.order**n, f"{filed} simplices indexed, want {G.order}^{n}")
            return {"keys": len(table)}

        ops.append(Op(
            f"index_n{n}", "simplicial",
            "simplicial.index_bs3_d4" if n == max(size["index_dims"]) else None,
            lambda n=n: (G.nerve(depth), n),
            face_index,
            check_index,
        ))

    def holds(res, *_):
        expect(res.holds, "check failed on an input where it must hold")

    cd = size["check_depth"]
    ops.append(Op(
        "kan_bs3_d4", "lifting", "lifting.kan_bs3_d4",
        lambda: (G.nerve(depth), depth), is_kan, holds,
    ))
    ops.append(Op(
        "qcat_chain4_d5", "lifting", "lifting.qcat_chain4_d5",
        lambda: (renamed(namer, nerve(chain_category(size["qcat_chain"]), size["qcat_depth"]), "v")[0],
                 size["qcat_depth"]),
        is_quasicategory, holds,
    ))
    ops.append(Op(
        "unique_bs3_d3", "lifting", "lifting.unique_bs3_d3",
        lambda: (G.nerve(cd), cd), has_unique_inner_fillers, holds,
    ))

    def check_detect(res, *_):
        C = res.category
        expect(C is not None, f"nerve not recognised: {res.reason}")
        expect(C.objects == (G.obj,), f"objects {C.objects}")
        arrows = set(C.non_identities())
        expect(arrows == set(G.elements) - {G.unit}, "morphisms differ from the group")
        ident = C.identities[G.obj]
        for g in arrows:
            for f in arrows:
                want = G.mul[(g, f)]
                want = ident if want == G.unit else want
                expect(C.comp[(g, f)] == want, f"composite of ({g}, {f})")

    ops.append(Op(
        "detect_bs3_d3", "categories", "categories.detect_bs3_d3",
        lambda: (G.nerve(cd), cd), nerve_detect, check_detect,
    ))

    def fibration_inputs():
        S = Z2.nerve(cd)
        return _to_point(S, renamed(namer, standard_simplex(0), "v")[0]), cd

    ops.append(Op(
        "fibration_bz2_d3", "lifting", "lifting.fibration_bz2_d3",
        fibration_inputs, is_kan_fibration, holds,
    ))

    def check_fail(res, *_):
        expect(not res.holds, "non-groupoid nerve passed the Kan check")
        w = res.witness
        expect(w is not None and w.n == 2 and w.i in (0, 2), f"witness {w}")

    ops.append(Op(
        "kan_fail_chain3", "lifting", "lifting.kan_fail_chain3",
        lambda: (renamed(namer, nerve(chain_category(size["fail_chain"]), cd), "v")[0], cd),
        is_kan, check_fail,
    ))
    ops.append(Op(
        "kan_point_d7", "lifting", "lifting.kan_point_d7",
        lambda: (renamed(namer, standard_simplex(0), "v")[0], size["point_depth"]),
        is_kan, holds,
    ))
    return ops


def slice_limit_ops(size, namer):
    base = size["divisor_base"]
    divisors = [d for d in range(1, base + 1) if base % d == 0]
    name = {d: namer("d") for d in divisors}
    number = {v: d for d, v in name.items()}
    lattice = poset_category(
        [name[d] for d in divisors], lambda a, b: number[b] % number[a] == 0
    )
    pairs = list(itertools.combinations(divisors, 2))
    namer.rng.shuffle(pairs)

    def divisor_count(n):
        return sum(1 for d in range(1, n + 1) if n % d == 0)

    ops = []
    for a, b in pairs:

        def diagram(a=a, b=b):
            N = nerve(lattice, 4)
            two = discrete_simplicial_set([namer("u"), namer("u")])
            u, v = two.gens[0]
            return SimplicialMap(two, N, {u: N.generator(name[a]), v: N.generator(name[b])}), size["limit_depth"]

        # limit and colimit scan every vertex of the slice (coslice) they
        # build; the vertices are counted untimed on level 0 of the same
        # construction.  A poset has at most one arrow between two objects,
        # so those vertices are the common lower bounds (the divisors of the
        # gcd), or the common upper bounds (the multiples of the lcm that
        # divide the base).
        def check_cone(res, p, apex, cone, cone_vertices):
            expect(res.apex == name[apex], f"apex {res.apex}, want {name[apex]}")
            expect(len(res.passers) == 1, f"{len(res.passers)} passers, want 1")
            vertices = len(cone(p, 0).gens[0])
            expect(vertices == cone_vertices, f"{vertices} cone vertices, want {cone_vertices}")
            return {"passers": len(res.passers), "vertices": vertices}

        g, l = math.gcd(a, b), math.lcm(a, b)
        ops.append(Op(
            f"limit_{a}_{b}", "limits", "limits.limit_div60", diagram, limit,
            lambda res, p, _, g=g: check_cone(res, p, g, slice_over, divisor_count(g)),
        ))
        ops.append(Op(
            f"colimit_{a}_{b}", "limits", "limits.colimit_div60", diagram, colimit,
            lambda res, p, _, l=l: check_cone(res, p, l, coslice_under, divisor_count(base // l)),
        ))

    G = NamedSymmetricGroup(size["degree"], namer)
    sd = size["slice_depth"]

    def point_of_nerve():
        N = G.nerve(sd + 1)
        P, _ = renamed(namer, standard_simplex(0), "v")
        return SimplicialMap(P, N, {P.gens[0][0]: N.generator(G.obj)})

    def check_slice(S, *_):
        # the slice of BG over its point has |G| (|G| - 1)^n non-degenerate n-simplices
        want = tuple(G.order * (G.order - 1) ** n for n in range(sd + 1))
        expect(S.size_vector() == want, f"slice sizes {S.size_vector()}, want {want}")
        return {"simplices": sum(want)}

    ops.append(Op(
        "slice_bs3_d2", "constructions", "constructions.slice_bs3_d2",
        lambda: (point_of_nerve(), sd), slice_over, check_slice,
    ))

    def check_mapping(M, *_):
        # loops at the point of BG form the discrete set G
        want = (G.order,) + (0,) * sd
        expect(M.size_vector() == want, f"mapping space sizes {M.size_vector()}, want {want}")

    ops.append(Op(
        "mapping_bs3_d2", "limits", "limits.mapping_bs3_d2",
        lambda: (G.nerve(sd + 1), G.obj, G.obj, sd), mapping_space, check_mapping,
    ))

    def final_inputs():
        k = size["final_chain"]
        S, names = renamed(namer, nerve(chain_category(k), size["final_depth"]), "v")
        return S, names[str(k)], size["final_depth"]

    def holds(res, *_):
        expect(res.holds, "top of a chain is not final")

    ops.append(Op(
        "final_chain4_d4", "limits", "limits.final_chain4_d4", final_inputs, is_final, holds,
    ))

    p, q = size["product"]

    def check_product(P, *_):
        top = len(P.gens[p + q]) if P.bound >= p + q else 0
        expect(top == math.comb(p + q, p), f"{top} top cells, want C({p + q}, {p})")
        expect(len(P.gens[0]) == (p + 1) * (q + 1), "vertex count")

    ops.append(Op(
        "product_d3_d4", "constructions", "constructions.product_d3_d4",
        lambda: (renamed(namer, standard_simplex(p), "v")[0], renamed(namer, standard_simplex(q), "w")[0]),
        product, check_product,
    ))
    return ops


WORKLOADS = {"horn-scan": horn_scan_ops, "slice-limit": slice_limit_ops}


def check_cold_caches():
    for module, fn in CACHED:
        size = getattr(importlib.import_module(f"finsimp.{module}"), fn).cache_info().currsize
        if size != 0:
            raise RuntimeError(f"cache of finsimp.{module}.{fn} holds {size} entries at start")


def run_ops(ops, trace, run_id, ready):
    """Run the operations; in trace mode, open and close a span around each call.

    The spans are made inside the timed pass, so a traced pass pays for
    them in its wall time; they stay in memory until the pass ends.
    """
    records, spans = [], []
    pass_span = {"span_id": 0, "parent": None, "run_id": run_id, "name": "pass", "start": ready}
    for op in ops:
        rec = {"name": op.name, "layer": op.layer, "metric": op.metric, "counts": None, "error": None}
        args = op.build()
        if trace:
            span = {"span_id": len(spans) + 1, "parent": 0, "run_id": run_id,
                    "name": f"{op.layer}.{op.name}", "start": time.monotonic()}
        start = time.monotonic()
        try:
            result = op.call(*args)
        except Exception as exc:  # an engine failure is a failed operation
            result, rec["error"] = None, f"{type(exc).__name__}: {exc}"
        end = time.monotonic()
        if trace:
            span["end"] = time.monotonic()
            spans.append(span)
        if rec["error"] is None:
            try:
                rec["counts"] = op.check(result, *args)
            except Exception as exc:  # a wrong answer, or a result of the wrong shape
                rec["error"] = f"mismatch: {type(exc).__name__}: {exc}"
        rec["start"], rec["end"] = start, end
        records.append(rec)
    out = {"ready": ready, "done": time.monotonic(), "records": records}
    if trace:
        pass_span["end"] = out["done"]
        out["spans"] = [pass_span] + spans
    return out


def main(argv):
    workload, seed, size, mode, run_id = argv
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(finsimp.__file__).startswith(src + os.sep):
        raise RuntimeError(f"finsimp imported from {finsimp.__file__}, not from {src}")
    check_cold_caches()
    ops = WORKLOADS[workload](SIZES[size], Namer(f"{workload}/{seed}"))
    ready = time.monotonic()
    if mode == "setup":
        print(json.dumps({"ready": ready, "records": []}))
    else:
        print(json.dumps(run_ops(ops, mode == "trace", run_id, ready)))


if __name__ == "__main__":
    main(sys.argv[1:])
