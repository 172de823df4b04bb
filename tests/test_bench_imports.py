"""The benchmark's workers import only names that finsimp has.

perfbench/ is the benchmark and is not edited with the engine, so a
change that deletes or renames a name it imports would fail every pass
of a workload at import time, and only a benchmark run would show it.
These tests read the workers' source with ast and look the names up.
"""

import ast
import importlib
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(BENCH.rglob("*.py"))


def finsimp_imports(path):
    """(module, name, line) for every `from finsimp[.mod] import name` in the file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and not node.level and node.module.split(".")[0] == "finsimp":
            for alias in node.names:
                yield node.module, alias.name, node.lineno


def test_the_benchmark_workers_are_found():
    assert any(p.name == "engine.py" for p in SOURCES)
    assert any(module == "finsimp.simplicial" for p in SOURCES for module, *_ in finsimp_imports(p))


@pytest.mark.parametrize("path", SOURCES, ids=[str(p.relative_to(BENCH)) for p in SOURCES])
def test_every_finsimp_name_the_benchmark_imports_exists(path):
    for module, name, line in finsimp_imports(path):
        assert hasattr(importlib.import_module(module), name), f"{path.name}:{line}: {module} has no {name}"


def test_every_cache_the_benchmark_checks_is_an_lru_cache():
    # engine.py checks that these caches are cold at start, by cache_info()
    tree = ast.parse((BENCH / "engine.py").read_text())
    (cached,) = [
        ast.literal_eval(node.value) for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "CACHED" for t in node.targets)
    ]
    assert cached
    for module, fn in cached:
        assert hasattr(getattr(importlib.import_module(f"finsimp.{module}"), fn), "cache_info"), (module, fn)
