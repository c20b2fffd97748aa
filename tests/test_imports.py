"""No module imports a name it never uses.

A stdlib `ast` scan of every Python file under src/, tests/, tools/ and
scripts/, and of the benchmark's own modules in perfbench/, since no linter
is a dependency.  A package's `__init__.py`
imports names to re-export them, and `from __future__ import annotations`
changes how its module compiles, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "tools", "scripts")
                 for path in (ROOT / top).rglob("*.py")
                 if path.name != "__init__.py") \
    + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names `source` imports and never reads, by line."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = \
                    node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items()
            if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nimport sys as system\n"
                          "from a.b import c, d\nprint(d, os)\n") == \
        ["line 2: system", "line 3: c"]
    assert unused_imports("import a.b\na.b.f()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", SOURCES,
                         ids=[str(p.relative_to(ROOT)) for p in SOURCES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
