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
from functools import partial
from typing import Callable, NamedTuple

from .actions import (
    action_groupoid,
    functor_groupoid,
    groupoid_nerve,
    is_saturated,
    orbit_groupoid,
    restriction,
)
from .categories import nerve, nerve_detect
from .constructions import (
    coslice_under,
    join,
    left_cone,
    product,
    right_cone,
    slice_over,
)
from .dsl import (
    DslParseError,
    entity_sset,
    parse_document,
    print_entity,
    ref_text,
    sanitize_sset,
)
from .groups import one_object_groupoid, subgroup_closure
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


def _lookup(doc, name, kind):
    """The value of the named entity, which must be of `kind`."""
    found, value = _entity(doc, name)
    if found != kind:
        article = "an" if kind[0] in "aeiou" else "a"
        raise CliError(f"'{name}' is a {found}, not {article} {kind}")
    return value


def _as_sset(doc, name, depth):
    """The named simplicial set; categories, groupoids and groups are nerved."""
    kind, value = _entity(doc, name)
    S = entity_sset(kind, value, depth)
    if S is None:
        raise CliError(f"'{name}' is a {kind}, not a simplicial set")
    return S


def _as_groupoid(doc, name):
    kind, value = _entity(doc, name)
    if kind == "groupoid":
        return value
    if kind == "group":
        return one_object_groupoid(value)
    if kind == "action":
        return action_groupoid(value)
    raise CliError(f"'{name}' is a {kind}, not a groupoid")


# ---------------------------------------------------------------------------
# Report serialization.


def _assign_json(f):
    return {g: ref_text(r) for g, r in sorted(f.assign.items())}


def _horn_json(h):
    return {"n": h.n, "i": h.i, "assignment": _assign_json(h.assignment)}


def _lifting_json(problem):
    return {"top": _assign_json(problem.top), "bottom": _assign_json(problem.bottom)}


def _sphere_json(f):
    return {"sphere_dimension": f.source.bound + 1, "assignment": _assign_json(f)}


def _result_name(args):
    """--out, or the command's default name for its result entity."""
    return args.out or args.out_default.format_map(vars(args))


def _sset_report(args, S, **extra):
    name = _result_name(args)
    dsl = print_entity("sset", name, S)
    report = {
        "verdict": "pass",
        "name": name,
        "sizes": list(S.size_vector()),
        "truncated": S.truncated,
        "dsl": dsl,
        **extra,
    }
    return report, dsl


def _groupoid_report(args, G, **extra):
    name = _result_name(args)
    dsl = print_entity("groupoid", name, G)
    report = {
        "verdict": "pass",
        "name": name,
        "objects": list(G.objects),
        "arrows": len(G.morphisms),
        "dsl": dsl,
        **extra,
    }
    return report, dsl


# ---------------------------------------------------------------------------
# Handlers.  Each takes (doc, args) and returns (report_dict, human_text);
# the leading parameters of a shared handler are bound in the command table.

def _cmd_validate(doc, args):
    # parse_document validated every entity and rejects any document
    # with a problem, so what is left to report is the parse itself
    names = list(doc.entities) if args.name is None else [args.name]
    kinds = {name: _entity(doc, name)[0] for name in names}
    report = {
        "verdict": "pass",
        "entities": {name: {"kind": kind, "problems": []} for name, kind in kinds.items()},
    }
    return report, "\n".join(f"{name}: {kind}, ok" for name, kind in kinds.items())


def _cmd_nerve(doc, args):
    kind, value = _entity(doc, args.name)
    if kind == "category":
        S = nerve(value, args.depth)
    elif kind in ("groupoid", "group"):
        G = one_object_groupoid(value) if kind == "group" else value
        S = groupoid_nerve(G, args.depth)
    else:
        raise CliError(f"'{args.name}' is a {kind}; nerve needs a category, groupoid or group")
    return _sset_report(args, sanitize_sset(S))


def _cmd_detect_nerve(doc, args):
    S = _as_sset(doc, args.name, args.depth)
    res = nerve_detect(S, args.depth)
    if res.category is None:
        report = {"verdict": "fail", "reason": res.reason}
        return report, f"not a nerve: {res.reason}"
    C = res.category
    dsl = print_entity("category", _result_name(args), C)
    report = {
        "verdict": "pass",
        "objects": list(C.objects),
        "morphisms": len(C.morphisms),
        "dsl": dsl,
    }
    return report, dsl


def _check_subject(doc, args):
    """The arguments a check takes before its depth, from the positionals."""
    if "map" in args:
        return (_lookup(doc, args.map, "map"),)
    S = _as_sset(doc, args.name, max(args.depth, 1))
    return (S, args.vertex) if "vertex" in args else (S,)


def _check_report(check, witness_json, line, witness_line, doc, args):
    """Run a check; `line` and `witness_line` are format templates of the verdict."""
    res = check(*_check_subject(doc, args), args.depth)
    verdict = "pass" if res.holds else "fail"
    report = {"verdict": verdict, "checked_to": res.checked_to}
    text = line.format(args=args, verdict=verdict)
    if res.witness is not None:
        report["witness"] = witness_json(res.witness)
        text += witness_line.format(w=res.witness)
    return report, text


def _cmd_pair(construct, doc, args):
    A = _as_sset(doc, args.left, args.depth)
    B = _as_sset(doc, args.right, args.depth)
    return _sset_report(args, construct(A, B))


def _cmd_cone(construct, doc, args):
    cone = construct(_as_sset(doc, args.name, args.depth))
    return _sset_report(args, cone.sset, apex=cone.apex)


def _cmd_slice(construct, doc, args):
    return _sset_report(args, construct(_lookup(doc, args.map, "map"), args.depth))


def _cmd_mapping_space(doc, args):
    S = _as_sset(doc, args.name, args.depth + 1)
    return _sset_report(args, mapping_space(S, args.source, args.target, args.depth))


def _cmd_limit(search, doc, args):
    res = search(_lookup(doc, args.map, "map"), args.depth)
    report = {
        "verdict": "pass" if res.apex is not None else "fail",
        "apex": res.apex,
        "passers": list(res.passers),
        "verified_to": res.verified_to,
    }
    if res.cone is not None:
        report["cone"] = _assign_json(res.cone)
    if res.apex is None:
        return report, f"no {args.command} found up to depth {args.depth}"
    return report, f"{args.command} apex: {res.apex}"


def _cmd_action_groupoid(doc, args):
    return _groupoid_report(args, action_groupoid(_lookup(doc, args.name, "action")))


def _cmd_restrict(doc, args):
    return _groupoid_report(args, restriction(_as_groupoid(doc, args.name), args.objects))


def _cmd_saturated(doc, args):
    res = is_saturated(_as_groupoid(doc, args.name), args.objects)
    report = {"verdict": "pass" if res.holds else "fail", "witness": res.witness}
    if res.holds:
        return report, "saturated"
    return report, f"not saturated: arrow '{res.witness}' leaves the subset"


def _cmd_orbit_groupoid(doc, args):
    G = _lookup(doc, args.group, "group")
    H = subgroup_closure(G, args.generators)
    return _groupoid_report(args, orbit_groupoid(G, H), subgroup_order=len(H))


def _cmd_functor_groupoid(doc, args):
    H = _as_groupoid(doc, args.source)
    G = _as_groupoid(doc, args.target)
    return _groupoid_report(args, functor_groupoid(H, G))


def _cmd_iso(doc, args):
    A = _as_sset(doc, args.left, args.depth)
    B = _as_sset(doc, args.right, args.depth)
    f = find_isomorphism(A, B)
    if f is None:
        report = {"verdict": "fail", "isomorphic": False}
        return report, "not isomorphic"
    report = {"verdict": "pass", "isomorphic": True, "assign": _assign_json(f)}
    lines = ["isomorphic:"] + [f"  {g} -> {t}" for g, t in sorted(report["assign"].items())]
    return report, "\n".join(lines)


# ---------------------------------------------------------------------------
# The command table: every subcommand is declared once, here.


class Command(NamedTuple):
    """A subcommand.

    `positionals` are (name, help) pairs after the document; a trailing
    `?`, `*` or `+` on the name is its nargs.  `run` is the handler.
    `out` is the default name of the result entity, formatted with the
    parsed arguments; a command without one takes no `--out`.  `depth`
    is the default of `--depth`.
    """

    name: str
    help: str
    positionals: tuple
    run: Callable
    out: str | None = None
    depth: int | None = None


ENTITY = (("name", "entity"),)
MAP = (("map", "map entity"),)
PAIR = (("left", "entity"), ("right", "entity"))
AT_VERTEX = (("name", "entity"), ("vertex", "vertex"))
ON_OBJECTS = (("name", "groupoid entity"), ("objects*", "object names"))
VERTEX_LINE = "{args.command} vertex '{args.vertex}' up to {args.depth}: {verdict}"

COMMANDS = (
    Command("validate", "check every entity (or one) for structural problems",
            (("name?", "check just this entity"),), _cmd_validate),
    Command("nerve", "nerve of a category, groupoid or group", ENTITY, _cmd_nerve,
            out="{name}_nerve", depth=4),
    Command("detect-nerve", "recognize a simplicial set as a nerve", ENTITY, _cmd_detect_nerve,
            out="{name}_category", depth=4),
    Command("check-kan", "horn filling at all positions", ENTITY,
            partial(_check_report, is_kan, _horn_json, "kan up to {args.depth}: {verdict}",
                    " (unfillable horn n={w.n}, i={w.i})"), depth=3),
    Command("check-qcat", "inner horn filling", ENTITY,
            partial(_check_report, is_quasicategory, _horn_json,
                    "quasi-category up to {args.depth}: {verdict}",
                    " (unfillable inner horn n={w.n}, i={w.i})"), depth=3),
    Command("check-fibration", "right lifting against horn inclusions", MAP,
            partial(_check_report, is_kan_fibration, _lifting_json,
                    "kan fibration up to {args.depth}: {verdict}", ""), depth=2),
    Command("check-trivial-fibration", "right lifting against boundary inclusions", MAP,
            partial(_check_report, is_trivial_fibration, _lifting_json,
                    "trivial fibration up to {args.depth}: {verdict}", ""), depth=2),
    Command("join", "join of two simplicial sets", PAIR, partial(_cmd_pair, join),
            out="join_result", depth=4),
    Command("cone-left", "cone with a new initial apex", ENTITY, partial(_cmd_cone, left_cone),
            out="cone_left_result", depth=4),
    Command("cone-right", "cone with a new terminal apex", ENTITY, partial(_cmd_cone, right_cone),
            out="cone_right_result", depth=4),
    Command("product", "levelwise product", PAIR, partial(_cmd_pair, product),
            out="product_result", depth=4),
    Command("slice", "slice of a diagram map", MAP, partial(_cmd_slice, slice_over),
            out="slice_result", depth=2),
    Command("coslice", "coslice of a diagram map", MAP, partial(_cmd_slice, coslice_under),
            out="coslice_result", depth=2),
    Command("mapping-space", "space of paths between two vertices",
            (("name", "entity"), ("source", "start vertex"), ("target", "end vertex")),
            _cmd_mapping_space, out="mapping_space_result", depth=2),
    Command("final", "sphere-extension finality of a vertex", AT_VERTEX,
            partial(_check_report, is_final, _sphere_json, VERTEX_LINE, ""), depth=2),
    Command("initial", "sphere-extension initiality of a vertex", AT_VERTEX,
            partial(_check_report, is_initial, _sphere_json, VERTEX_LINE, ""), depth=2),
    Command("limit", "limit cone of a diagram map", MAP, partial(_cmd_limit, limit), depth=2),
    Command("colimit", "colimit cone of a diagram map", MAP, partial(_cmd_limit, colimit), depth=2),
    Command("action-groupoid", "groupoid of an action", (("name", "action entity"),),
            _cmd_action_groupoid, out="{name}_groupoid"),
    Command("restrict", "full subgroupoid on listed objects", ON_OBJECTS, _cmd_restrict,
            out="{name}_restricted"),
    Command("saturated", "no arrows leave the listed objects", ON_OBJECTS, _cmd_saturated),
    Command("orbit-groupoid", "coset translation action groupoid",
            (("group", "group entity"), ("generators+", "subgroup generators")),
            _cmd_orbit_groupoid, out="{group}_orbits"),
    Command("functor-groupoid", "functors and natural transformations",
            (("source", "groupoid entity"), ("target", "groupoid entity")),
            _cmd_functor_groupoid, out="functor_groupoid_result"),
    Command("iso", "search for an isomorphism", PAIR, _cmd_iso, depth=4),
)

# main reads this at call time, so a handler can be replaced in place
HANDLERS = {c.name: c.run for c in COMMANDS}


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser(commands=COMMANDS):
    """The parser with subparsers for `commands`; the full table gives the full help."""
    parser = argparse.ArgumentParser(
        prog="finsimp",
        description="checks and constructions on finite simplicial sets and groupoids",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for c in commands:
        p = sub.add_parser(c.name, help=c.help)
        p.add_argument("doc", help="document path, or - for stdin")
        for arg, h in c.positionals:
            if arg[-1] in "?*+":
                p.add_argument(arg[:-1], nargs=arg[-1], help=h)
            else:
                p.add_argument(arg, help=h)
        p.add_argument("--depth", type=int, default=c.depth, help="verification dimension")
        p.add_argument("--json", action="store_true", help="structured report")
        p.add_argument("--seed", type=int, default=None, help="accepted and ignored")
        if c.out is not None:
            p.add_argument("--out", default=None, help="name of the result entity")
            p.set_defaults(out_default=c.out)
    return parser


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
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named command's subparser: building all of them is most of a call's parsing
    # time, and help, usage and unknown-command errors still see the full table
    parser = _build_parser([c for c in COMMANDS if argv[:1] == [c.name]] or COMMANDS)
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
