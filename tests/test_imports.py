"""Every module-level import in the package and the scripts is used.

The unused-import rule of a linter, with the standard library only: an
imported name counts as used when the module's code loads it anywhere.
The package's ``__init__.py`` is left out, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for path in [*(ROOT / "src" / "mgk").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py")]
                 if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the module's top-level imports that nothing loads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name)}
    return [name for name in bound if name not in loaded]


def test_unused_imports_finds_a_name_nothing_loads():
    source = ("from __future__ import annotations\nimport os.path\n"
              "import sys\nfrom .a import b as c, d\nsys.exit(d)\n")
    assert unused_imports(source) == ["os", "c"]


@pytest.mark.parametrize("path", SOURCES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_module_level_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
