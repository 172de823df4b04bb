"""The text format on arbitrary and on mutated documents.

Whatever the input, `parse_document` returns a Document or raises
DslParseError and nothing else; a parsed document prints to text that
reads back and prints the same; `finsimp validate` exits 0, 1 or 2
without raising.  Mutations start from the documents of the parser's
golden file and delete, insert, replace or swap up to three tokens.
"""

import contextlib
import io
import json
import re
from pathlib import Path

from hypothesis import given, settings, strategies as st

from finsimp.cli import main
from finsimp.dsl import DslParseError, parse_document, print_document

GOLDEN = json.loads((Path(__file__).parent / "data" / "dsl_diagnostics.json").read_text())
# one token per entry, newlines kept so that diagnostics still carry lines
SEEDS = [re.findall(r"->|[A-Za-z0-9_@]+|\n|\S", case["text"]) for case in GOLDEN["cases"]]
VOCABULARY = sorted({tok for seed in SEEDS for tok in seed} | {"10", "99", "(", ")", ",", "perm", "gens"})
DSL_CHARACTERS = "sgetmapcoublfin_0129 \n{}[]();:.,=->#$"


@st.composite
def mutated_documents(draw):
    tokens = list(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(tokens)))
        op = draw(st.sampled_from(("delete", "insert", "replace", "swap")))
        if op == "insert" or not tokens:
            tokens.insert(i, draw(st.sampled_from(VOCABULARY)))
        elif op == "delete":
            del tokens[min(i, len(tokens) - 1)]
        elif op == "replace":
            tokens[min(i, len(tokens) - 1)] = draw(st.sampled_from(VOCABULARY))
        else:
            j = draw(st.integers(0, len(tokens) - 1))
            i = min(i, len(tokens) - 1)
            tokens[i], tokens[j] = tokens[j], tokens[i]
    return " ".join(tokens)


def parse_or_none(text):
    try:
        return parse_document(text)
    except DslParseError as exc:
        assert exc.diagnostics
        return None


@settings(max_examples=50)
@given(st.one_of(st.text(max_size=40), st.text(DSL_CHARACTERS, max_size=80)))
def test_arbitrary_text_parses_or_raises_a_parse_error(text):
    parse_or_none(text)


@settings(max_examples=200)
@given(mutated_documents())
def test_mutated_documents_parse_or_raise_and_print_stably(text):
    doc = parse_or_none(text)
    if doc is not None:
        once = print_document(doc)
        assert print_document(parse_document(once)) == once


@settings(max_examples=40)
@given(mutated_documents())
def test_cli_validate_ends_in_a_verdict_or_a_diagnostic(tmp_path_factory, text):
    path = tmp_path_factory.getbasetemp() / "fuzz.fs"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
