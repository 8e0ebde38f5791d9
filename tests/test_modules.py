"""Module boundaries inside the package: a module uses another module's
public names only, so a private helper can change without a second caller
noticing."""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "topocert"


def private_imports(source: str) -> list:
    """The single-underscore names that ``source`` imports from a topocert
    module, relative or absolute; dunder names such as ``__version__`` are
    public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        if node.level == 0 and module.split(".")[0] != "topocert":
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                found.append(name)
    return found


def test_no_module_imports_another_modules_private_names():
    offenders = {path.name: private_imports(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
    assert len(offenders) > 10
    assert {name: names for name, names in offenders.items() if names} == {}


def test_the_check_reads_relative_and_absolute_imports_only():
    source = ("from .digraphs import DiGraph, _search_connected\n"
              "from topocert.hasse import _helper as helper\n"
              "from . import __version__ as _version\n"
              "from functools import _lru_cache_wrapper\n"
              "def lazy():\n"
              "    from .arrangements import _line_covers\n")
    assert private_imports(source) == ["_search_connected", "_helper", "_line_covers"]
