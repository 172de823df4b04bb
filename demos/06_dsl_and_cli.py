"""The text format and the command-line interface, used from Python.

Documents hold named entities: simplicial sets, categories, groupoids,
groups, actions and maps.  Parsing validates everything and reports
positioned diagnostics; printing is canonical, so construction output
can be piped straight back in.
"""

import contextlib
import io
import os
import tempfile

from finsimp import parse_document, print_document, DslParseError
from finsimp.cli import main

TEXT = """
# a one-object groupoid, its defining group, and an action of it
group Z2 {
  elements e t;
  unit e;
  mul t.t = e;
}

action Swap {
  group Z2;
  on left right;
  act t left = right;
  act t right = left;
}

sset Edge {
  dim 1;
  gen 0 a b;
  gen 1 f;
  face f 0 -> [] b;
  face f 1 -> [] a;
}
"""

doc = parse_document(TEXT)
print("entities:", [(name, kind) for name, (kind, _) in doc.entities.items()])

# Printing is stable: parse(print(doc)) gives the same text back.
canonical = print_document(doc)
assert print_document(parse_document(canonical)) == canonical
print("round-trip is stable,", len(canonical.splitlines()), "canonical lines")

# Diagnostics carry line numbers and name the offending construct.
try:
    parse_document("category C {\n  obj a;\n  mor f: a -> nowhere;\n}\n")
except DslParseError as err:
    print("diagnostic:", err.diagnostics[0])

# The CLI runs on files (or stdin); exit codes are verdicts.
with tempfile.NamedTemporaryFile("w", suffix=".fs", delete=False) as fh:
    fh.write(TEXT)
    path = fh.name

print("\n$ finsimp check-kan", path, "Z2 --depth 2")
code = main(["check-kan", path, "Z2", "--depth", "2"])
print("exit", code)

print("\n$ finsimp action-groupoid", path, "Swap")
main(["action-groupoid", path, "Swap"])

print("$ finsimp saturated", path, "Swap left@pt")
code = main(["saturated", path, "Swap", "left@pt"])
print("exit", code)

print("\n$ finsimp join", path, "Edge Edge --json   (first lines)")
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    main(["join", path, "Edge", "Edge", "--json"])
print("\n".join(buf.getvalue().splitlines()[:6]))

os.remove(path)
