"""Recorded stdout of the six demos.

Each demo in `demos/` runs in a fresh interpreter and must print
exactly the text in `data/demos/<demo>.txt`, exit 0 and write nothing
to stderr.  The recordings were taken once and are not regenerated, so
a change to any printed verdict, size, witness or report fails here.
Demo 06 writes its document to a temporary file whose name it prints;
the test points TMPDIR at a fresh directory and writes that name as
`<tmp>`.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import finsimp

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))
RECORDED = Path(__file__).parent / "data" / "demos"


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_prints_recorded_output(demo, tmp_path):
    # the child imports the same finsimp as this process, installed or not
    src = os.path.dirname(os.path.dirname(finsimp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path, "TMPDIR": str(tmp_path)},
    )
    out = re.sub(re.escape(str(tmp_path)) + r"/\w+\.fs", "<tmp>", proc.stdout)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert out == (RECORDED / f"{demo.stem}.txt").read_text()
