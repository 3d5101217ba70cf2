"""Every module-level import in the package and the scripts is used, and
the package exports exactly what its ``__init__.py`` binds, and nothing
that only its own unit tests use.

The unused-import rule of a linter, with the standard library only: an
imported name counts as used when the module's code loads it anywhere.
The package's ``__init__.py`` is left out, since it imports to re-export;
its ``__all__`` must list each public name it binds once, and no other,
and each of those names must be loaded by the package, a script or the
acceptance spec, so that no export lives only for its own unit tests.
The same holds for each public top-level function, class and constant
of ``src/mgk`` and ``scripts/``, and for each public method or property
of a public class, which ``perfbench/``'s harness may load too. Each
private top-level function, class and constant of ``src/mgk`` must be
loaded by the package itself, so no helper outlives its callers. The
bench times the trainer's own epoch, ``pipeline.train_epoch``, so it may
neither import nor load the steps an epoch is made of.
"""

import ast
from pathlib import Path

import pytest

import mgk

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for path in [*(ROOT / "src" / "mgk").glob("*.py"),
                                   *(ROOT / "scripts").glob("*.py")]
                 if path.name != "__init__.py")
SPEC = ROOT / "tests" / "test_acceptance.py"
HARNESS = sorted((ROOT / "perfbench").glob("*.py"))
BENCH = ROOT / "src" / "mgk" / "bench.py"
EPOCH_STEPS = ("partition_epoch", "induce_subgraph", "loss_and_grads",
               "adam_step")


def loaded_names(source: str) -> set:
    """Names the module's code loads, bare (``f``) or as an attribute
    (``m.f``)."""
    loaded = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(getattr(node, "ctx", None), ast.Load):
            if isinstance(node, ast.Name):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute):
                loaded.add(node.attr)
    return loaded


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


def public_bindings(source: str) -> list:
    """Names without a leading underscore that the module's top-level
    imports and assignments bind."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return [name for name in bound if not name.startswith("_")]


def test_public_bindings_skips_private_names():
    source = ("from __future__ import annotations\nfrom .a import b, _c\n"
              "import os.path\n__all__ = ['b']\nX = 1\n")
    assert public_bindings(source) == ["b", "os", "X"]


def test_all_lists_each_public_name_of_the_package_once():
    init = ROOT / "src" / "mgk" / "__init__.py"
    assert len(set(mgk.__all__)) == len(mgk.__all__)
    assert sorted(mgk.__all__) == sorted(
        public_bindings(init.read_text(encoding="utf-8")))


def test_loaded_names_counts_bare_and_attribute_loads():
    source = "import m\nx = 1\nm.f(y)\nm.g = x\n"
    assert loaded_names(source) == {"m", "f", "y", "x"}


def test_every_export_is_used_outside_init_and_unit_tests():
    used = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                         for path in [*SOURCES, SPEC]))
    assert sorted(set(mgk.__all__) - used) == []


def definitions(source: str) -> list:
    """Names that the module's top-level ``def``, ``class`` and assignment
    statements bind."""
    bound = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, ast.Assign):
            bound += [t.id for t in node.targets if isinstance(t, ast.Name)]
    return bound


def public_definitions(source: str) -> list:
    """``definitions`` without a leading underscore."""
    return [name for name in definitions(source) if not name.startswith("_")]


def test_public_definitions_skips_imports_and_private_names():
    source = ("import os\nfrom .a import b\nX = 1\n_Y = 2\n"
              "def f():\n    w = 4\ndef _g(): pass\n"
              "class C:\n    v = 5\nclass _D: pass\n")
    assert public_definitions(source) == ["X", "f", "C"]


def test_every_public_definition_is_used_outside_unit_tests():
    used = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                         for path in [*SOURCES, *HARNESS, SPEC]))
    unused = [f"{path.name}:{name}" for path in SOURCES
              for name in public_definitions(path.read_text(encoding="utf-8"))
              if name not in used]
    assert unused == []


def test_definitions_keeps_private_names():
    source = "import os\n_Y = 2\ndef _g(): pass\nclass _D: pass\nX = 1\n"
    assert definitions(source) == ["_Y", "_g", "_D", "X"]


def test_every_private_definition_is_used_by_the_package():
    package = [path for path in SOURCES if path.parent.name == "mgk"]
    used = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                         for path in package))
    unused = [f"{path.name}:{name}" for path in package
              for name in definitions(path.read_text(encoding="utf-8"))
              if name.startswith("_") and name not in used]
    assert unused == []


def public_methods(source: str) -> list:
    """``Class.name`` of each method or property, without a leading
    underscore, of each top-level class without one."""
    return [f"{node.name}.{item.name}"
            for node in ast.parse(source).body
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
            for item in node.body
            if isinstance(item, ast.FunctionDef)
            and not item.name.startswith("_")]


def test_public_methods_skips_private_classes_and_methods():
    source = ("class A:\n    x = 1\n    def f(self): pass\n"
              "    @property\n    def g(self): pass\n"
              "    def _h(self): pass\n"
              "class _B:\n    def f(self): pass\n"
              "def k():\n    pass\n")
    assert public_methods(source) == ["A.f", "A.g"]


def test_every_public_method_is_used_outside_unit_tests():
    # a private class is exempt: argparse and item assignment call its hooks
    used = set().union(*(loaded_names(path.read_text(encoding="utf-8"))
                         for path in [*SOURCES, *HARNESS, SPEC]))
    unused = [name for path in SOURCES
              for name in public_methods(path.read_text(encoding="utf-8"))
              if name.split(".")[1] not in used]
    assert unused == []


def imported_names(source: str) -> set:
    """Names that the module's imports, at any depth, take from a module:
    each part of ``import a.b`` and each name of ``from m import c``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {part for a in node.names for part in a.name.split(".")}
        elif isinstance(node, ast.ImportFrom):
            names |= {a.name for a in node.names}
    return names


def test_imported_names_covers_nested_and_aliased_imports():
    source = "import a.b\ndef f():\n    from .c import d as e, g\n"
    assert imported_names(source) == {"a", "b", "d", "g"}


def test_bench_takes_no_step_of_the_training_epoch():
    # a second copy of the training step in the bench would need these
    source = BENCH.read_text(encoding="utf-8")
    used = imported_names(source) | loaded_names(source)
    assert sorted(set(EPOCH_STEPS) & used) == []
