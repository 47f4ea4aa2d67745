"""Package modules do not import each other's private names, and list
every public top-level function and class in ``__all__``."""

import ast
from pathlib import Path

import raftcensus

PACKAGE = Path(raftcensus.__file__).parent


def private_imports(source: str) -> list[tuple[str, str]]:
    """(module, name) for every underscore name that ``source`` imports
    from another raftcensus module; dunder names are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "raftcensus":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not name.startswith("__"):
                found.append(("." * node.level + module, name))
    return found


def test_no_module_imports_a_private_name_from_another():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    offenders = {p.name: private_imports(p.read_text()) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_private_import_forms_are_caught():
    source = (
        "from .mlp import _score, forward\n"
        "from raftcensus.bandstack import _BLOCK_PIXELS as block\n"
        "def f():\n"
        "    from . import _internal\n"
        "from __future__ import annotations\n"
        "from numpy import _private\n"
        "from .mlp import __all__\n"
    )
    assert private_imports(source) == [
        (".mlp", "_score"), ("raftcensus.bandstack", "_BLOCK_PIXELS"), (".", "_internal"),
    ]


def unlisted_public_names(source: str) -> list[str]:
    """Public top-level functions and classes of ``source`` that its
    ``__all__`` (empty when absent) does not list."""
    tree = ast.parse(source)
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed = set(ast.literal_eval(node.value))
    return [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and node.name not in listed
    ]


def test_every_public_name_is_in_all():
    modules = sorted(PACKAGE.glob("*.py"))
    offenders = {p.name: unlisted_public_names(p.read_text()) for p in modules}
    assert {k: v for k, v in offenders.items() if v} == {}


def test_unlisted_public_names_are_caught():
    source = (
        "__all__ = ['listed']\n"
        "def listed(): pass\n"
        "def unlisted(): pass\n"
        "class Unlisted: pass\n"
        "def _private(): pass\n"
        "if True:\n"
        "    def nested(): pass\n"
    )
    assert unlisted_public_names(source) == ["unlisted", "Unlisted"]
    assert unlisted_public_names("def f(): pass\n") == ["f"]
