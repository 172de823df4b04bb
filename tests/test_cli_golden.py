"""Byte-for-byte golden outputs of the command-line interface.

`data/cli_golden.json` holds, for every subcommand, runs on the small
documents it carries (the SAMPLE and VEE documents of test_cli.py plus
a horn, a doubled 2-simplex and a malformed block): stdout, stderr and
the exit code, in text and `--json` modes, together with the
unknown-entity, wrong-kind, usage and parse errors and the `--help`
text of the top level and of every subcommand.  The file was recorded
once from the CLI and is not regenerated, so any change to a report,
a message, an exit code or the help text fails here.

Temporary document paths are written as `<tmp>` in the recorded text.
argparse lays out usage and help text differently across Python minor
versions, so those cases run only on the recorded version.
"""

import json
import sys
from pathlib import Path

import pytest

from finsimp.cli import main

GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    for key, text in GOLDEN["documents"].items():
        (d / f"{key}.fs").write_text(text)
    return d


def _argv(case, doc_dir):
    # "{sample}" names documents/sample.fs; "{missing}" a file never written
    return [
        str(doc_dir / f"{a[1:-1]}.fs") if a.startswith("{") and a.endswith("}") else a
        for a in case["argv"]
    ]


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=[" ".join(c["argv"]) or "(no arguments)" for c in GOLDEN["cases"]]
)
def test_cli_matches_golden(case, doc_dir, capsys, monkeypatch):
    argparse_text = case["stdout"].startswith("usage:") or case["stderr"].startswith("usage:")
    if argparse_text and tuple(GOLDEN["python"]) != sys.version_info[:2]:
        pytest.skip(f"help text recorded under Python {GOLDEN['python']}")
    monkeypatch.setenv("COLUMNS", str(GOLDEN["columns"]))
    code = main(_argv(case, doc_dir))
    cap = capsys.readouterr()
    tmp = str(doc_dir)
    assert cap.out.replace(tmp, "<tmp>") == case["stdout"]
    assert cap.err.replace(tmp, "<tmp>") == case["stderr"]
    assert code == case["exit"]
