"""The cli-mix workload: `python -m finsimp.cli ... --json` calls, one at a time.

The calls run on the small checked-in documents in docs/ and on one
document of about 200 KB, which `write_nerve_document` writes: the
text of the nerve of S3 up to dimension 4, made here without finsimp.
Each call has a known verdict and a known answer on its report, and
its exit code must match its verdict.
"""

import itertools
import json
import os
import re
from dataclasses import dataclass
from typing import Callable

from inputs import Namer, compose_perm

DOCS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "docs")
MARKER = re.compile(r"\$\{(\w+)\}")


@dataclass
class Call:
    """One CLI call: its metric, layer, arguments, verdict and a check on the report.

    `layer` is the finsimp module that does the call's own work; its
    time adds to that layer's busy time.  In `args`, "{small}", "{tiny}"
    and "{big}" stand for the document paths and ${name} for a seeded
    name.  `check(report, n)` gets the parsed JSON report and the map
    from marker to seeded name.
    """

    metric: str
    layer: str
    args: list
    verdict: str
    check: Callable


def _sizes(want):
    return lambda r, n: r["sizes"] == want


CALLS = [
    Call("cli.validate", "cli", ["validate", "{small}"], "pass",
         lambda r, n: len(r["entities"]) == 13
         and all(not e["problems"] for e in r["entities"].values())),
    Call("cli.nerve", "cli", ["nerve", "{small}", "${Pair}", "--depth", "2"], "pass",
         lambda r, n: r["sizes"] == [2, 2, 2] and r["truncated"]),
    Call("cli.detect-nerve", "cli", ["detect-nerve", "{small}", "${Interval}"], "pass",
         lambda r, n: r["objects"] == [n["a"], n["b"]] and r["morphisms"] == 3),
    Call("cli.check-kan", "cli", ["check-kan", "{small}", "${Pair}", "--depth", "3"], "pass",
         lambda r, n: r["checked_to"] == 3),
    # the nerve of a category that is not a groupoid fails at an outer 2-horn
    Call("cli.check-kan-fail", "cli", ["check-kan", "{small}", "${Vee}", "--depth", "3"], "fail",
         lambda r, n: r["witness"]["n"] == 2 and r["witness"]["i"] in (0, 2)),
    Call("cli.check-qcat", "cli", ["check-qcat", "{small}", "${Chain}", "--depth", "3"], "pass",
         lambda r, n: r["checked_to"] == 3),
    Call("cli.check-fibration", "cli", ["check-fibration", "{small}", "${Proj}", "--depth", "3"], "pass",
         lambda r, n: r["checked_to"] == 3),
    # the edge over a point: the two ends of the boundary cannot be swapped
    Call("cli.check-trivial-fibration", "cli",
         ["check-trivial-fibration", "{small}", "${Collapse}", "--depth", "1"], "fail",
         lambda r, n: r["witness"]["top"] == {"0": f"[] {n['b']}", "1": f"[] {n['a']}"}),
    Call("cli.join", "cli", ["join", "{small}", "${Interval}", "${Interval}"], "pass", _sizes([4, 6, 4, 1])),
    Call("cli.cone-left", "cli", ["cone-left", "{small}", "${Two}"], "pass", _sizes([3, 2])),
    Call("cli.product", "cli", ["product", "{small}", "${Interval}", "${Interval}"], "pass", _sizes([4, 5, 2])),
    Call("cli.slice", "cli", ["slice", "{small}", "${Diag}"], "pass", _sizes([1, 0, 0])),
    Call("cli.mapping-space", "cli", ["mapping-space", "{small}", "${Pair}", "${x}", "${y}", "--depth", "1"],
         "pass", _sizes([1, 0])),
    Call("cli.final", "cli", ["final", "{small}", "${Chain}", "${k2}", "--depth", "2"], "pass",
         lambda r, n: r["checked_to"] == 2),
    Call("cli.limit", "cli", ["limit", "{small}", "${Diag}"], "pass",
         lambda r, n: r["apex"] == n["m"] and r["passers"] == [n["m"]]),
    Call("cli.colimit", "cli", ["colimit", "{small}", "${Diag}"], "fail",
         lambda r, n: r["apex"] is None and r["passers"] == []),
    Call("cli.action-groupoid", "actions", ["action-groupoid", "{small}", "${Swap}"], "pass",
         lambda r, n: len(r["objects"]) == 2 and r["arrows"] == 4),
    Call("cli.restrict", "actions", ["restrict", "{small}", "${Pair}", "${x}"], "pass",
         lambda r, n: r["objects"] == [n["x"]] and r["arrows"] == 1),
    Call("cli.saturated", "actions", ["saturated", "{small}", "${Pair}", "${x}"], "fail",
         lambda r, n: r["witness"] == n["f"]),
    # S3 acting on the three cosets of the subgroup generated by (0 1); the
    # subgroup closure and the cosets are the work of `groups`
    Call("cli.orbit-groupoid", "groups", ["orbit-groupoid", "{small}", "${S3}", "p102"], "pass",
         lambda r, n: r["subgroup_order"] == 2 and len(r["objects"]) == 3 and r["arrows"] == 18),
    # Z2 -> Z2: two homomorphisms; Z2 is abelian, so each has only its two self-transformations
    Call("cli.functor-groupoid", "actions", ["functor-groupoid", "{small}", "${Z2}", "${Z2}"], "pass",
         lambda r, n: len(r["objects"]) == 2 and r["arrows"] == 4),
    Call("cli.iso", "cli", ["iso", "{small}", "${Interval}", "${Segment}"], "pass",
         lambda r, n: r["assign"] == {n["a"]: f"[] {n['c']}", n["b"]: f"[] {n['d']}",
                                      n["e"]: f"[] {n['h']}"}),
    Call("dsl.validate_200k", "dsl", ["validate", "{big}"], "pass",
         lambda r, n: list(r["entities"]) == [n["BS3"]]
         and r["entities"][n["BS3"]] == {"kind": "sset", "problems": []}),
]

SETUP_CALL = Call("setup", "cli", ["validate", "{tiny}"], "pass",
                  lambda r, n: r["entities"] == {n["Dot"]: {"kind": "sset", "problems": []}})


class Names(dict):
    """Marker -> seeded name, made on first use."""

    def __init__(self, seed):
        super().__init__()
        self.namer = Namer(f"cli-mix/{seed}")

    def __missing__(self, marker):
        self[marker] = name = self.namer(marker + "_")
        return name

    def fill(self, text):
        return MARKER.sub(lambda m: self[m.group(1)], text)


def write_nerve_document(path, names, depth):
    """Write the nerve of S3 up to `depth` as one `sset` block; return its size in bytes.

    The n-simplices are the n-chains of group elements.  A chain with an
    identity at position p is the degeneracy s_p of the chain without it;
    inner faces compose neighbours (g after f for the chain f, g).
    """
    perms = list(itertools.permutations(range(3)))
    unit = perms[0]
    letter = {g: names.namer("e", 3) for g in perms[1:]}
    obj = names["BS3"].lower()
    chains = {n: list(itertools.product(perms[1:], repeat=n)) for n in range(1, depth + 1)}

    def ref(chain):
        word = [str(p) for p in range(len(chain) - 1, -1, -1) if chain[p] == unit]
        core = [letter[g] for g in chain if g != unit]
        return f"[{' '.join(word)}] " + ("_".join(core) if core else obj)

    out = [f"sset {names['BS3']} {{", f"  dim {depth};", "  truncated;", f"  gen 0 {obj};"]
    for n in range(1, depth + 1):
        out.append(f"  gen {n} " + " ".join("_".join(letter[g] for g in c) for c in chains[n]) + ";")
    for n in range(1, depth + 1):
        for c in chains[n]:
            name = "_".join(letter[g] for g in c)
            if n == 1:
                faces = [f"[] {obj}", f"[] {obj}"]
            else:
                faces = [ref(c[1:])]
                faces += [ref(c[: k - 1] + (compose_perm(c[k], c[k - 1]),) + c[k + 1:]) for k in range(1, n)]
                faces.append(ref(c[:-1]))
            out.extend(f"  face {name} {k} -> {face};" for k, face in enumerate(faces))
    out.append("}")
    data = ("\n".join(out) + "\n").encode()
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def prepare(workdir, seed, big_depth):
    """Write the seeded documents into `workdir`; return (paths, names, big-document bytes)."""
    names = Names(seed)
    paths = {}
    for doc in ("small", "tiny"):
        with open(os.path.join(DOCS, f"{doc}.fs"), encoding="utf-8") as fh:
            text = names.fill(fh.read())
        paths[doc] = os.path.join(workdir, f"{doc}.fs")
        with open(paths[doc], "w", encoding="utf-8") as fh:
            fh.write(text)
    paths["big"] = os.path.join(workdir, "big.fs")
    big_bytes = write_nerve_document(paths["big"], names, big_depth)
    return paths, names, big_bytes


def argv_of(call, paths, names):
    return [paths[a[1:-1]] if a[:1] == "{" else names.fill(a) for a in call.args] + ["--json"]


def check(call, exit_code, stdout, names):
    """None when the call's output is right, else what is wrong."""
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit {exit_code}, no JSON report"
    if report.get("verdict") != call.verdict:
        return f"verdict {report.get('verdict')}, want {call.verdict}"
    if exit_code != (0 if call.verdict == "pass" else 1):
        return f"exit {exit_code} for verdict {call.verdict}"
    try:
        ok = call.check(report, names)
    except (KeyError, TypeError, IndexError) as exc:
        return f"report lacks {exc!r}"
    return None if ok else "report differs from the known answer"
