"""Command-line interface over documents in the text format.

Every subcommand reads one document (a file path, or `-` for stdin),
resolves the named entities, runs an engine operation, and emits a
deterministic report.  With `--json` the report is a stable JSON
object carrying a `schema` field; without it, check commands print
short verdict lines and construction commands print the result as
document text, so outputs can be concatenated and fed back in.

Exit status: 0 when the verdict is pass, 1 when a check fails, 2 on
usage, parse, or dimension errors, and on inputs that exhaust the
recursion limit or memory.
"""

from __future__ import annotations

import argparse
import json
import sys

from .actions import (
    action_groupoid,
    functor_groupoid,
    groupoid_nerve,
    is_saturated,
    orbit_groupoid,
    restriction,
    validate_action,
)
from .categories import nerve, nerve_detect, validate_category
from .constructions import (
    coslice_under,
    join,
    left_cone,
    product,
    right_cone,
    slice_over,
)
from .dsl import DslParseError, parse_document, print_entity, sanitize_sset
from .groups import one_object_groupoid, subgroup_closure, validate_group
from .lifting import (
    is_kan,
    is_kan_fibration,
    is_quasicategory,
    is_trivial_fibration,
)
from .limits import colimit, is_final, is_initial, limit, mapping_space
from .simplicial import (
    DimensionError,
    TruncationError,
    find_isomorphism,
    validate,
)

SCHEMA = "finsimp-report/1"


class CliError(Exception):
    """Usage-level failure: bad names, bad kinds, unreadable input."""


# ---------------------------------------------------------------------------
# Entity resolution.


def _entity(doc, name):
    if name not in doc.entities:
        raise CliError(f"no entity named '{name}' in the document")
    return doc.entities[name]


def _as_sset(doc, name, depth):
    """The named simplicial set; categories, groupoids and groups are nerved."""
    kind, value = _entity(doc, name)
    if kind == "sset":
        return value
    if kind in ("category", "groupoid"):
        return sanitize_sset(nerve(value, depth))
    if kind == "group":
        return sanitize_sset(nerve(one_object_groupoid(value), depth))
    raise CliError(f"'{name}' is a {kind}, not a simplicial set")


def _as_groupoid(doc, name):
    kind, value = _entity(doc, name)
    if kind == "groupoid":
        return value
    if kind == "group":
        return one_object_groupoid(value)
    if kind == "action":
        return action_groupoid(value)
    raise CliError(f"'{name}' is a {kind}, not a groupoid")


def _as_map(doc, name):
    kind, value = _entity(doc, name)
    if kind != "map":
        raise CliError(f"'{name}' is a {kind}, not a map")
    return value


def _as_action(doc, name):
    kind, value = _entity(doc, name)
    if kind != "action":
        raise CliError(f"'{name}' is a {kind}, not an action")
    return value


def _as_group(doc, name):
    kind, value = _entity(doc, name)
    if kind != "group":
        raise CliError(f"'{name}' is a {kind}, not a group")
    return value


# ---------------------------------------------------------------------------
# Report serialization.


def _ref_text(r):
    return "[" + " ".join(str(k) for k in r.word) + "] " + r.gen


def _assign_json(f):
    return {g: _ref_text(r) for g, r in sorted(f.assign.items())}


def _horn_json(h):
    return {
        "n": h.n,
        "i": h.i,
        "assignment": {k: _ref_text(r) for k, r in sorted(h.assignment.assign.items())},
    }


def _sset_report(name, S):
    return {
        "name": name,
        "sizes": list(S.size_vector()),
        "truncated": S.truncated,
        "dsl": print_entity("sset", name, S),
    }


def _groupoid_report(name, G):
    return {
        "name": name,
        "objects": list(G.objects),
        "arrows": len(G.morphisms),
        "dsl": print_entity("groupoid", name, G),
    }


# ---------------------------------------------------------------------------
# Handlers.  Each returns (report_dict, human_text).


def _cmd_validate(doc, args):
    problems = {}
    for name, (kind, value) in doc.entities.items():
        if args.name is not None and name != args.name:
            continue
        if kind == "sset":
            report = validate(value)
        elif kind in ("category", "groupoid"):
            report = validate_category(value)
        elif kind == "group":
            report = validate_group(value)
        elif kind == "action":
            report = validate_action(value)
        else:
            report = value.validate()
        problems[name] = {"kind": kind, "problems": list(report)}
    if args.name is not None and args.name not in problems:
        raise CliError(f"no entity named '{args.name}' in the document")
    ok = all(not e["problems"] for e in problems.values())
    report = {"verdict": "pass" if ok else "fail", "entities": problems}
    lines = [
        f"{name}: {info['kind']}, " + ("ok" if not info["problems"] else "; ".join(info["problems"]))
        for name, info in problems.items()
    ]
    return report, "\n".join(lines)


def _cmd_nerve(doc, args):
    depth = args.depth if args.depth is not None else 4
    kind, value = _entity(doc, args.name)
    if kind == "sset" or kind == "map" or kind == "action":
        raise CliError(f"'{args.name}' is a {kind}; nerve needs a category, groupoid or group")
    if kind == "group":
        S = sanitize_sset(groupoid_nerve(one_object_groupoid(value), depth))
    elif kind == "groupoid":
        S = sanitize_sset(groupoid_nerve(value, depth))
    else:
        S = sanitize_sset(nerve(value, depth))
    out = args.out or f"{args.name}_nerve"
    info = _sset_report(out, S)
    report = {"verdict": "pass", **info}
    return report, info["dsl"]


def _cmd_detect_nerve(doc, args):
    depth = args.depth if args.depth is not None else 4
    S = _as_sset(doc, args.name, depth)
    res = nerve_detect(S, depth)
    if res.category is None:
        report = {"verdict": "fail", "reason": res.reason}
        return report, f"not a nerve: {res.reason}"
    C = res.category
    dsl = print_entity("category", args.out or f"{args.name}_category", C)
    report = {
        "verdict": "pass",
        "objects": list(C.objects),
        "morphisms": len(C.morphisms),
        "dsl": dsl,
    }
    return report, dsl


def _check_report(res):
    return {
        "verdict": "pass" if res.holds else "fail",
        "checked_to": res.checked_to,
    }


def _cmd_check_kan(doc, args):
    depth = args.depth if args.depth is not None else 3
    S = _as_sset(doc, args.name, max(depth, 1))
    res = is_kan(S, depth)
    report = _check_report(res)
    if res.witness is not None:
        report["witness"] = _horn_json(res.witness)
    text = f"kan up to {depth}: {'pass' if res.holds else 'fail'}"
    if res.witness is not None:
        text += f" (unfillable horn n={res.witness.n}, i={res.witness.i})"
    return report, text


def _cmd_check_qcat(doc, args):
    depth = args.depth if args.depth is not None else 3
    S = _as_sset(doc, args.name, max(depth, 1))
    res = is_quasicategory(S, depth)
    report = _check_report(res)
    if res.witness is not None:
        report["witness"] = _horn_json(res.witness)
    text = f"quasi-category up to {depth}: {'pass' if res.holds else 'fail'}"
    if res.witness is not None:
        text += f" (unfillable inner horn n={res.witness.n}, i={res.witness.i})"
    return report, text


def _lifting_json(problem):
    return {
        "top": _assign_json(problem.top),
        "bottom": _assign_json(problem.bottom),
    }


def _cmd_check_fibration(doc, args):
    depth = args.depth if args.depth is not None else 2
    f = _as_map(doc, args.map)
    res = is_kan_fibration(f, depth)
    report = _check_report(res)
    if res.witness is not None:
        report["witness"] = _lifting_json(res.witness)
    return report, f"kan fibration up to {depth}: {'pass' if res.holds else 'fail'}"


def _cmd_check_trivial_fibration(doc, args):
    depth = args.depth if args.depth is not None else 2
    f = _as_map(doc, args.map)
    res = is_trivial_fibration(f, depth)
    report = _check_report(res)
    if res.witness is not None:
        report["witness"] = _lifting_json(res.witness)
    return report, f"trivial fibration up to {depth}: {'pass' if res.holds else 'fail'}"


def _construction(name, S):
    info = _sset_report(name, S)
    return {"verdict": "pass", **info}, info["dsl"]


def _cmd_join(doc, args):
    depth = args.depth if args.depth is not None else 4
    A = _as_sset(doc, args.left, depth)
    B = _as_sset(doc, args.right, depth)
    return _construction(args.out or "join_result", join(A, B))


def _cmd_product(doc, args):
    depth = args.depth if args.depth is not None else 4
    A = _as_sset(doc, args.left, depth)
    B = _as_sset(doc, args.right, depth)
    return _construction(args.out or "product_result", product(A, B))


def _cmd_cone(doc, args, side):
    depth = args.depth if args.depth is not None else 4
    K = _as_sset(doc, args.name, depth)
    cone = left_cone(K) if side == "left" else right_cone(K)
    name = args.out or f"cone_{side}_result"
    info = _sset_report(name, cone.sset)
    report = {"verdict": "pass", "apex": cone.apex, **info}
    return report, info["dsl"]


def _cmd_slice(doc, args):
    depth = args.depth if args.depth is not None else 2
    p = _as_map(doc, args.map)
    return _construction(args.out or "slice_result", slice_over(p, depth))


def _cmd_coslice(doc, args):
    depth = args.depth if args.depth is not None else 2
    p = _as_map(doc, args.map)
    return _construction(args.out or "coslice_result", coslice_under(p, depth))


def _cmd_mapping_space(doc, args):
    depth = args.depth if args.depth is not None else 2
    S = _as_sset(doc, args.name, depth + 1)
    M = mapping_space(S, args.source, args.target, depth)
    return _construction(args.out or "mapping_space_result", M)


def _cmd_final(doc, args, which):
    depth = args.depth if args.depth is not None else 2
    S = _as_sset(doc, args.name, max(depth, 1))
    res = (is_final if which == "final" else is_initial)(S, args.vertex, depth)
    report = _check_report(res)
    if res.witness is not None:
        report["witness"] = {
            "sphere_dimension": res.witness.source.bound + 1,
            "assignment": _assign_json(res.witness),
        }
    text = f"{which} vertex '{args.vertex}' up to {depth}: {'pass' if res.holds else 'fail'}"
    return report, text


def _cmd_limit(doc, args, which):
    depth = args.depth if args.depth is not None else 2
    p = _as_map(doc, args.map)
    res = (limit if which == "limit" else colimit)(p, depth)
    report = {
        "verdict": "pass" if res.apex is not None else "fail",
        "apex": res.apex,
        "passers": list(res.passers),
        "verified_to": res.verified_to,
    }
    if res.cone is not None:
        report["cone"] = _assign_json(res.cone)
    if res.apex is None:
        return report, f"no {which} found up to depth {depth}"
    return report, f"{which} apex: {res.apex}"


def _cmd_action_groupoid(doc, args):
    A = _as_action(doc, args.name)
    G = action_groupoid(A)
    name = args.out or f"{args.name}_groupoid"
    info = _groupoid_report(name, G)
    return {"verdict": "pass", **info}, info["dsl"]


def _cmd_restrict(doc, args):
    G = _as_groupoid(doc, args.name)
    sub = restriction(G, args.objects)
    name = args.out or f"{args.name}_restricted"
    info = _groupoid_report(name, sub)
    return {"verdict": "pass", **info}, info["dsl"]


def _cmd_saturated(doc, args):
    G = _as_groupoid(doc, args.name)
    res = is_saturated(G, args.objects)
    report = {"verdict": "pass" if res.holds else "fail", "witness": res.witness}
    if res.holds:
        return report, "saturated"
    return report, f"not saturated: arrow '{res.witness}' leaves the subset"


def _cmd_orbit_groupoid(doc, args):
    G = _as_group(doc, args.group)
    H = subgroup_closure(G, args.generators)
    orb = orbit_groupoid(G, H)
    name = args.out or f"{args.group}_orbits"
    info = _groupoid_report(name, orb)
    report = {"verdict": "pass", "subgroup_order": len(H), **info}
    return report, info["dsl"]


def _cmd_functor_groupoid(doc, args):
    H = _as_groupoid(doc, args.source)
    G = _as_groupoid(doc, args.target)
    F = functor_groupoid(H, G)
    name = args.out or "functor_groupoid_result"
    info = _groupoid_report(name, F)
    return {"verdict": "pass", **info}, info["dsl"]


def _cmd_iso(doc, args):
    depth = args.depth if args.depth is not None else 4
    A = _as_sset(doc, args.left, depth)
    B = _as_sset(doc, args.right, depth)
    f = find_isomorphism(A, B)
    if f is None:
        report = {"verdict": "fail", "isomorphic": False}
        return report, "not isomorphic"
    report = {"verdict": "pass", "isomorphic": True, "assign": _assign_json(f)}
    lines = ["isomorphic:"] + [f"  {g} -> {t}" for g, t in sorted(report["assign"].items())]
    return report, "\n".join(lines)


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="finsimp",
        description="checks and constructions on finite simplicial sets and groupoids",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def cmd(name, help_text, *positionals, out=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("doc", help="document path, or - for stdin")
        for arg, h in positionals:
            if arg.endswith("*"):
                p.add_argument(arg[:-1], nargs="*", help=h)
            elif arg.endswith("+"):
                p.add_argument(arg[:-1], nargs="+", help=h)
            else:
                p.add_argument(arg, help=h)
        p.add_argument("--depth", type=int, default=None, help="verification dimension")
        p.add_argument("--json", action="store_true", help="structured report")
        p.add_argument("--seed", type=int, default=None, help="accepted and ignored")
        if out:
            p.add_argument("--out", default=None, help="name of the result entity")
        return p

    p_validate = cmd("validate", "check every entity (or one) for structural problems")
    p_validate.add_argument("name", nargs="?", default=None, help="check just this entity")
    cmd("nerve", "nerve of a category, groupoid or group", ("name", "entity"), out=True)
    cmd("detect-nerve", "recognize a simplicial set as a nerve", ("name", "entity"), out=True)
    cmd("check-kan", "horn filling at all positions", ("name", "entity"))
    cmd("check-qcat", "inner horn filling", ("name", "entity"))
    cmd("check-fibration", "right lifting against horn inclusions", ("map", "map entity"))
    cmd(
        "check-trivial-fibration",
        "right lifting against boundary inclusions",
        ("map", "map entity"),
    )
    cmd("join", "join of two simplicial sets", ("left", "entity"), ("right", "entity"), out=True)
    cmd("cone-left", "cone with a new initial apex", ("name", "entity"), out=True)
    cmd("cone-right", "cone with a new terminal apex", ("name", "entity"), out=True)
    cmd("product", "levelwise product", ("left", "entity"), ("right", "entity"), out=True)
    cmd("slice", "slice of a diagram map", ("map", "map entity"), out=True)
    cmd("coslice", "coslice of a diagram map", ("map", "map entity"), out=True)
    cmd(
        "mapping-space",
        "space of paths between two vertices",
        ("name", "entity"),
        ("source", "start vertex"),
        ("target", "end vertex"),
        out=True,
    )
    cmd("final", "sphere-extension finality of a vertex", ("name", "entity"), ("vertex", "vertex"))
    cmd("initial", "sphere-extension initiality of a vertex", ("name", "entity"), ("vertex", "vertex"))
    cmd("limit", "limit cone of a diagram map", ("map", "map entity"))
    cmd("colimit", "colimit cone of a diagram map", ("map", "map entity"))
    cmd("action-groupoid", "groupoid of an action", ("name", "action entity"), out=True)
    cmd(
        "restrict",
        "full subgroupoid on listed objects",
        ("name", "groupoid entity"),
        ("objects*", "object names"),
        out=True,
    )
    cmd(
        "saturated",
        "no arrows leave the listed objects",
        ("name", "groupoid entity"),
        ("objects*", "object names"),
    )
    cmd(
        "orbit-groupoid",
        "coset translation action groupoid",
        ("group", "group entity"),
        ("generators+", "subgroup generators"),
        out=True,
    )
    cmd(
        "functor-groupoid",
        "functors and natural transformations",
        ("source", "groupoid entity"),
        ("target", "groupoid entity"),
        out=True,
    )
    cmd("iso", "search for an isomorphism", ("left", "entity"), ("right", "entity"))
    return parser


HANDLERS = {
    "validate": _cmd_validate,
    "nerve": _cmd_nerve,
    "detect-nerve": _cmd_detect_nerve,
    "check-kan": _cmd_check_kan,
    "check-qcat": _cmd_check_qcat,
    "check-fibration": _cmd_check_fibration,
    "check-trivial-fibration": _cmd_check_trivial_fibration,
    "join": _cmd_join,
    "cone-left": lambda doc, args: _cmd_cone(doc, args, "left"),
    "cone-right": lambda doc, args: _cmd_cone(doc, args, "right"),
    "product": _cmd_product,
    "slice": _cmd_slice,
    "coslice": _cmd_coslice,
    "mapping-space": _cmd_mapping_space,
    "final": lambda doc, args: _cmd_final(doc, args, "final"),
    "initial": lambda doc, args: _cmd_final(doc, args, "initial"),
    "limit": lambda doc, args: _cmd_limit(doc, args, "limit"),
    "colimit": lambda doc, args: _cmd_limit(doc, args, "colimit"),
    "action-groupoid": _cmd_action_groupoid,
    "restrict": _cmd_restrict,
    "saturated": _cmd_saturated,
    "orbit-groupoid": _cmd_orbit_groupoid,
    "functor-groupoid": _cmd_functor_groupoid,
    "iso": _cmd_iso,
}


def _load_document(path):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise CliError(f"cannot read '{path}': {exc}") from exc
    return parse_document(text)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        doc = _load_document(args.doc)
        report, text = HANDLERS[args.command](doc, args)
    except DslParseError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionError, TruncationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        print(f"error: input exceeds the engine's limits ({exc!r})", file=sys.stderr)
        return 2

    report = {"schema": SCHEMA, "command": args.command, **report}
    if args.json:
        print(json.dumps(report, sort_keys=True, indent=2))
    else:
        print(text)
    return 0 if report["verdict"] == "pass" else 1


def run():
    """Console entry point."""
    raise SystemExit(main())


if __name__ == "__main__":
    run()
