"""Every subcommand on drawn arguments ends in a verdict or a diagnostic.

Each call runs on one of the CLI golden documents `sample`, `extra`
and `vee`, or on the `window` document below, with arguments drawn
from its entity and vertex names plus one name that none of the
documents has (for slice, coslice, limit and colimit: from its maps),
and `--depth` from -1 to 3.  Whatever the draw,
`finsimp` exits 0, 1 or 2 and prints no traceback.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from finsimp.cli import COMMANDS, main
from finsimp.dsl import parse_document

DOCUMENTS = {
    key: text
    for key, text in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())[
        "documents"
    ].items()
    if key in ("sample", "extra", "vee")
}
# a truncated window and a map into it: slices, coslices, limits and colimits of Pick past
# depth 0 need simplices above the window's bound
DOCUMENTS["window"] = """
sset Window {
  dim 1;
  truncated;
  gen 0 a b;
  gen 1 e;
  face e 0 -> [] b;
  face e 1 -> [] a;
}

sset Point {
  dim 0;
  gen 0 p;
}

map Pick: Point -> Window {
  p -> [] a;
}
"""


def document_names(text):
    """The entity names of a document and the vertex names of its sets and categories."""
    names = set()
    for name, (kind, value) in parse_document(text).entities.items():
        names.add(name)
        names.update(getattr(value, "objects", ()))
        if kind == "sset":
            names.update(value.gens[0])
    return names


NAMES = {key: sorted(document_names(text) | {"nowhere"}) for key, text in DOCUMENTS.items()}
# a diagram command draws its map from the document's maps: uniform names rarely name one,
# and then slices, coslices, limits and colimits of the window's Pick would never run
MAPS = {
    key: sorted(name for name, (kind, _) in parse_document(text).entities.items() if kind == "map")
    for key, text in DOCUMENTS.items()
}
DIAGRAM_COMMANDS = ("slice", "coslice", "limit", "colimit")
# how many names each positional takes, by its nargs suffix
ARITY = {"?": (0, 1), "*": (0, 2), "+": (1, 2)}


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_docs")
    for key, text in DOCUMENTS.items():
        (d / f"{key}.fs").write_text(text)
    return {key: str(d / f"{key}.fs") for key in DOCUMENTS}


@st.composite
def calls(draw):
    """(command name, document key, the arguments after the document) of one call."""
    command = draw(st.sampled_from(COMMANDS))
    key = draw(st.sampled_from(sorted(DOCUMENTS)))
    names = MAPS[key] if command.name in DIAGRAM_COMMANDS else NAMES[key]
    args = []
    for arg, _ in command.positionals:
        low, high = ARITY.get(arg[-1], (1, 1))
        args += draw(st.lists(st.sampled_from(names), min_size=low, max_size=high))
    args += ["--depth", str(draw(st.integers(-1, 3)))]
    if draw(st.booleans()):
        args.append("--json")
    return command.name, key, args


@settings(max_examples=200)
@given(calls())
# the window refusals, which the derandomized draws need not reach
@example(("slice", "window", ["Pick", "--depth", "1"]))
@example(("coslice", "window", ["Pick", "--depth", "2", "--json"]))
@example(("limit", "window", ["Pick", "--depth", "3"]))
@example(("colimit", "window", ["Pick", "--depth", "2"]))
def test_every_command_ends_in_a_verdict_or_a_diagnostic(doc_paths, call):
    command, key, args = call
    argv = [command, doc_paths[key], *args]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("command", ["slice", "coslice", "limit", "colimit"])
def test_slices_past_the_window_end_in_a_diagnostic(doc_paths, command, depth):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, doc_paths["window"], "Pick", "--depth", str(depth)])
    what = "coslice" if command.startswith("co") else "slice"
    assert (code, out.getvalue()) == (2, "")
    assert err.getvalue() == f"error: {what} to depth {depth} needs simplices past the window bound 1\n"
