"""Every subcommand on drawn arguments ends in a verdict or a diagnostic.

Each call runs on one of the CLI golden documents `sample`, `extra`
and `vee`, with arguments drawn from its entity and vertex names plus
one name that none of the documents has, and `--depth` from -1 to 3.  Whatever the draw, `finsimp` exits
0, 1 or 2 and prints no traceback.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from finsimp.cli import COMMANDS, main
from finsimp.dsl import parse_document

DOCUMENTS = {
    key: text
    for key, text in json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())[
        "documents"
    ].items()
    if key in ("sample", "extra", "vee")
}


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
# how many names each positional takes, by its nargs suffix
ARITY = {"?": (0, 1), "*": (0, 2), "+": (1, 2)}


@pytest.fixture(scope="module")
def doc_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz_docs")
    for key, text in DOCUMENTS.items():
        (d / f"{key}.fs").write_text(text)
    return {key: str(d / f"{key}.fs") for key in DOCUMENTS}


@settings(max_examples=200)
@given(st.data())
def test_every_command_ends_in_a_verdict_or_a_diagnostic(doc_paths, data):
    command = data.draw(st.sampled_from(COMMANDS))
    key = data.draw(st.sampled_from(sorted(DOCUMENTS)))
    argv = [command.name, doc_paths[key]]
    for arg, _ in command.positionals:
        low, high = ARITY.get(arg[-1], (1, 1))
        argv += data.draw(st.lists(st.sampled_from(NAMES[key]), min_size=low, max_size=high))
    argv += ["--depth", str(data.draw(st.integers(-1, 3)))]
    if data.draw(st.booleans()):
        argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
