"""End-to-end tests of the command-line interface.

Most tests call main() in-process and capture stdout; one subprocess
test exercises the installed module entry point.
"""

import json
import os
import subprocess
import sys

import pytest

import finsimp
from finsimp import cli, dsl
from finsimp.cli import main
from finsimp.dsl import parse_document

SAMPLE = """
sset Interval {
  dim 1;
  gen 0 a b;
  gen 1 e;
  face e 0 -> [] b;
  face e 1 -> [] a;
}

groupoid Pair {
  obj x y;
  mor f: x -> y;
  mor fi: y -> x;
  comp fi.f = id_x;
  comp f.fi = id_y;
}

group Z2 {
  elements e t;
  unit e;
  mul t.t = e;
}

action Swap {
  group Z2;
  on p q;
  act t p = q;
  act t q = p;
}

map Incl: Interval -> Pair {
  a -> [] x;
  b -> [] y;
  e -> [] f;
}
"""

VEE = """
category Vee {
  obj m a b;
  mor ma: m -> a;
  mor mb: m -> b;
}

sset Two {
  dim 0;
  gen 0 u v;
}

map Diag: Two -> Vee {
  u -> [] a;
  v -> [] b;
}
"""


@pytest.fixture
def sample(tmp_path):
    p = tmp_path / "sample.fs"
    p.write_text(SAMPLE)
    return str(p)


@pytest.fixture
def vee(tmp_path):
    p = tmp_path / "vee.fs"
    p.write_text(VEE)
    return str(p)


def run(capsys, *args):
    code = main(list(args))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_validate_all(sample, capsys):
    code, out, _ = run(capsys, "validate", sample)
    assert code == 0
    assert "Interval: sset, ok" in out
    assert "Swap: action, ok" in out
    assert "Incl: map, ok" in out


def test_validate_single_and_unknown(sample, capsys):
    code, out, _ = run(capsys, "validate", sample, "Pair")
    assert code == 0
    assert out.strip() == "Pair: groupoid, ok"
    code, _, err = run(capsys, "validate", sample, "Ghost")
    assert code == 2
    assert "Ghost" in err


def test_validate_reports_the_parse_without_validating_again(tmp_path, capsys, monkeypatch):
    # parsing never validates a perm group: its associativity check is |G|^3
    doc = tmp_path / "s3.fs"
    doc.write_text("group S3 perm 3 gens (0 1), (0 1 2);\n")

    def refuse(G):
        raise AssertionError("validate ran a validator")

    monkeypatch.setitem(dsl.VALIDATORS, "group", refuse)
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0
    assert out.strip() == "S3: group, ok"


def test_nerve_output_reparses(sample, capsys):
    code, out, _ = run(capsys, "nerve", sample, "Pair", "--depth", "2")
    assert code == 0
    doc = parse_document(out)
    kind, S = doc.entities["Pair_nerve"]
    assert kind == "sset"
    assert S.size_vector() == (2, 2, 2)
    assert S.truncated


def test_nerve_rejects_sset(sample, capsys):
    code, _, err = run(capsys, "nerve", sample, "Interval")
    assert code == 2
    assert "nerve needs a category" in err


def test_check_kan_verdicts(sample, capsys):
    code, out, _ = run(capsys, "check-kan", sample, "Pair", "--depth", "3")
    assert code == 0
    assert "pass" in out
    # vertex horns fill with degenerate edges, so the edge first fails at 2
    code, out, _ = run(capsys, "check-kan", sample, "Interval", "--depth", "2", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["verdict"] == "fail"
    assert report["schema"] == "finsimp-report/1"
    assert report["witness"]["n"] == 2


def test_check_qcat_and_fibration(sample, capsys):
    code, _, _ = run(capsys, "check-qcat", sample, "Pair", "--depth", "3")
    assert code == 0
    # the edge inclusion into the contractible groupoid is not a fibration
    code, out, _ = run(capsys, "check-fibration", sample, "Incl", "--depth", "1", "--json")
    assert code == 1
    assert json.loads(out)["witness"]["top"]
    code, _, _ = run(capsys, "check-trivial-fibration", sample, "Incl", "--depth", "1")
    assert code == 1


def test_json_reports_are_byte_identical(sample, vee, capsys):
    cases = [
        ("join", sample, "Interval", "Interval"),
        ("check-kan", sample, "Pair", "--depth", "2"),
        ("limit", vee, "Diag"),
        ("functor-groupoid", sample, "Z2", "Z2"),
        ("mapping-space", sample, "Pair", "x", "y", "--depth", "1"),
    ]
    for case in cases:
        first = run(capsys, *case, "--json")
        second = run(capsys, *case, "--json")
        assert first == second
        json.loads(first[1])


def test_join_sizes(sample, capsys):
    code, out, _ = run(capsys, "join", sample, "Interval", "Interval", "--json")
    assert code == 0
    assert json.loads(out)["sizes"] == [4, 6, 4, 1]


def test_product_sizes(sample, capsys):
    code, out, _ = run(capsys, "product", sample, "Interval", "Interval", "--json")
    assert code == 0
    assert json.loads(out)["sizes"] == [4, 5, 2]


def test_cone_apex_named(vee, capsys):
    code, out, _ = run(capsys, "cone-left", vee, "Two", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["apex"] == "l.0"
    assert report["sizes"] == [3, 2]


def test_limit_and_colimit(vee, capsys):
    code, out, _ = run(capsys, "limit", vee, "Diag", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["apex"] == "m"
    assert report["passers"] == ["m"]
    assert report["cone"]["r.u"] == "[] a"
    # no object receives arrows from both a and b
    code, out, _ = run(capsys, "colimit", vee, "Diag")
    assert code == 1
    assert "no colimit" in out


def test_slice_and_coslice(vee, capsys):
    code, out, _ = run(capsys, "slice", vee, "Diag", "--depth", "1", "--json")
    assert code == 0
    assert json.loads(out)["sizes"] == [1, 0]
    code, out, _ = run(capsys, "coslice", vee, "Diag", "--depth", "1", "--json")
    assert code == 0
    assert json.loads(out)["sizes"] == [0, 0]


def test_mapping_space_sizes(sample, capsys):
    code, out, _ = run(capsys, "mapping-space", sample, "Pair", "x", "y", "--depth", "1", "--json")
    assert code == 0
    assert json.loads(out)["sizes"] == [1, 0]


def test_final_and_initial(sample, vee, capsys):
    code, _, _ = run(capsys, "final", sample, "Pair", "y")
    assert code == 0
    code, _, _ = run(capsys, "initial", sample, "Pair", "x")
    assert code == 0
    # nothing maps into a from b
    code, out, _ = run(capsys, "final", vee, "Vee", "a", "--json")
    assert code == 1
    report = json.loads(out)
    assert report["witness"]["sphere_dimension"] == 1


def test_detect_nerve_round_trip(sample, tmp_path, capsys):
    code, out, _ = run(capsys, "nerve", sample, "Pair", "--depth", "3")
    assert code == 0
    nerved = tmp_path / "nerved.fs"
    nerved.write_text(out)
    code, out, _ = run(capsys, "detect-nerve", str(nerved), "Pair_nerve", "--depth", "3")
    assert code == 0
    doc = parse_document(out)
    kind, C = doc.entities["Pair_nerve_category"]
    assert kind == "category"
    assert sorted(C.objects) == ["x", "y"]


def test_detect_nerve_failure(sample, capsys):
    code, out, _ = run(capsys, "detect-nerve", sample, "Interval", "--depth", "1", "--json")
    # an edge with free endpoints is the nerve of the walking arrow
    assert code == 0
    assert json.loads(out)["objects"] == ["a", "b"]


def test_action_groupoid_pipes_into_checks(sample, tmp_path, capsys):
    code, out, _ = run(capsys, "action-groupoid", sample, "Swap")
    assert code == 0
    piped = tmp_path / "piped.fs"
    piped.write_text(out)
    code, _, _ = run(capsys, "check-kan", str(piped), "Swap_groupoid", "--depth", "2")
    assert code == 0
    code, out, _ = run(capsys, "action-groupoid", sample, "Swap", "--json")
    assert json.loads(out)["objects"] == ["p@pt", "q@pt"]


def test_restrict_and_saturated(sample, capsys):
    code, out, _ = run(capsys, "restrict", sample, "Pair", "x", "--json")
    assert code == 0
    assert json.loads(out)["objects"] == ["x"]
    code, out, _ = run(capsys, "saturated", sample, "Swap", "p@pt")
    assert code == 1
    assert "leaves the subset" in out
    code, _, _ = run(capsys, "saturated", sample, "Swap", "p@pt", "q@pt")
    assert code == 0


def test_orbit_groupoid(sample, capsys):
    code, out, _ = run(capsys, "orbit-groupoid", sample, "Z2", "t", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["subgroup_order"] == 2
    assert report["objects"] == ["e@pt"]
    assert report["arrows"] == 2  # the identity and the loop from t


def test_functor_groupoid(sample, capsys):
    code, out, _ = run(capsys, "functor-groupoid", sample, "Z2", "Z2", "--json")
    assert code == 0
    report = json.loads(out)
    assert report["objects"] == ["F0", "F1"]
    assert report["arrows"] == 4


def test_iso_verdicts(sample, vee, capsys):
    code, out, _ = run(capsys, "iso", sample, "Interval", "Interval", "--json")
    assert code == 0
    assert json.loads(out)["isomorphic"] is True
    code, out, _ = run(capsys, "iso", sample, "Interval", "Pair", "--json")
    assert code == 1
    assert json.loads(out)["isomorphic"] is False


def test_parse_error_exit(tmp_path, capsys):
    bad = tmp_path / "bad.fs"
    bad.write_text("sset Broken {\n")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 2
    assert "unterminated" in err


def test_truncation_overflow_exit(tmp_path, capsys):
    doc = tmp_path / "trunc.fs"
    doc.write_text("sset W {\n  dim 1;\n  truncated;\n  gen 0 v;\n}\n")
    code, _, err = run(capsys, "check-kan", str(doc), "W", "--depth", "3")
    assert code == 2
    assert "window" in err


@pytest.mark.parametrize("exc", [RecursionError, MemoryError])
def test_resource_exhaustion_exits_2_without_traceback(sample, capsys, monkeypatch, exc):
    def exhausted(doc, args):
        raise exc()

    monkeypatch.setitem(cli.HANDLERS, "check-kan", exhausted)
    code, out, err = run(capsys, "check-kan", sample, "Pair")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert exc.__name__ in err


def test_seed_flag_accepted(sample, capsys):
    code, _, _ = run(capsys, "check-kan", sample, "Pair", "--depth", "2", "--seed", "17")
    assert code == 0


def test_stdin_document(sample, capsys, monkeypatch):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(SAMPLE))
    code, out, _ = run(capsys, "validate", "-")
    assert code == 0
    assert "Pair: groupoid, ok" in out


def test_module_entry_point(sample):
    # the child imports the same finsimp as this process, installed or not
    src = os.path.dirname(os.path.dirname(finsimp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "finsimp.cli", "check-kan", sample, "Pair", "--depth", "2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "pass" in proc.stdout


def test_cli_import_leaves_out_dataclasses_and_inspect():
    # both cost every command start-up; the child sees this process's finsimp
    src = os.path.dirname(os.path.dirname(finsimp.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys; before = set(sys.modules); import finsimp.cli; "
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


def test_main_builds_only_the_named_subparser(sample, capsys, monkeypatch):
    built = []
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda commands: built.append(commands) or real(commands))
    assert run(capsys, "validate", sample, "Pair")[0] == 0
    assert [c.name for c in built[-1]] == ["validate"]
    code, _, err = run(capsys, "no-such-command", sample)
    assert code == 2 and "invalid choice" in err and "'check-kan'" in err
    assert built[-1] == cli.COMMANDS
    code, out, _ = run(capsys, "--help")
    assert code == 0 and all(c.name in out for c in cli.COMMANDS)
