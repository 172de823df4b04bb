"""Golden diagnostics and printed text of the document parser.

`data/dsl_diagnostics.json` holds documents that together reach every
place the parser reports a problem (at least one document each), the
documents used by test_dsl.py and test_cli.py, and the documents of the
CLI golden file.  For each it stores either the exact text of the
DslParseError, every `line N: message` in order, or the output of
`print_document` when the document parses.  The file was recorded once
from the parser and is not regenerated, so any change to a message, its
line, its order, or to what a later block sees of an earlier broken one
fails here.
"""

import json
from pathlib import Path

import pytest

from finsimp.dsl import DslParseError, parse_document, print_document

CASES = json.loads((Path(__file__).parent / "data" / "dsl_diagnostics.json").read_text())["cases"]


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_parser_matches_golden(case):
    if "error" in case:
        with pytest.raises(DslParseError) as exc:
            parse_document(case["text"])
        assert str(exc.value) == case["error"]
    else:
        assert print_document(parse_document(case["text"])) == case["printed"]
