"""Module boundaries inside the package: a module uses another module's
public names only, so a private helper can change without a second caller
noticing; and a call loads only the modules its command runs and its input
needs, while the package keeps every public name."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import topocert
from conftest import FIXTURES

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


# -- what a call loads ----------------------------------------------------------

# modules that each load with the first input, or the first name, of their kind
FAMILIES = ("arrangements", "spaces", "snf")


def imports(source: str) -> list:
    """(innermost enclosing function or None, module) for each import
    statement in ``source``; a topocert module, relative or absolute, is
    named without its package, and ``from . import x`` or ``from topocert
    import x`` imports ``x``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Import):
                found.extend((function, a.name) for a in child.names)
            elif isinstance(child, ast.ImportFrom):
                if child.module in (None, "topocert"):
                    found.extend((function, a.name) for a in child.names)
                else:
                    found.append((function, child.module))
            visit(child, function)

    visit(ast.parse(source), None)
    return [(f, m.removeprefix("topocert.")) for f, m in found]


def load_breaches(name: str, source: str) -> list:
    """The imports in module ``name`` that would load a family module, or
    ``fractions``, on a call that does not need it: only ``arrangements``
    imports ``fractions`` when it loads, only ``graphalgebra.k_theory``
    imports ``snf``, and no other module imports ``arrangements`` or
    ``spaces`` when it loads."""
    found = []
    for function, module in imports(source):
        if module == "snf":
            ok = (name, function) == ("graphalgebra", "k_theory")
        elif module == "fractions":
            ok = function is not None or name == "arrangements"
        elif module in ("arrangements", "spaces"):
            ok = function is not None or name in FAMILIES
        else:
            ok = True
        if not ok:
            found.append(f"{name}: {module}" + ("" if function is None else f" in {function}"))
    return found


def test_no_module_loads_a_family_its_caller_may_not_need():
    modules = sorted(SRC.glob("*.py"))
    assert len(modules) > 10
    assert [b for path in modules for b in load_breaches(path.stem, path.read_text())] == []


def test_the_load_check_reads_module_level_and_function_imports():
    source = ("import fractions\n"
              "from .spaces import Cover\n"
              "from topocert.snf import diagonal\n"
              "from topocert import arrangements\n"
              "if True:\n"
              "    from .arrangements import Segment\n"
              "class Side:\n"
              "    from fractions import Fraction\n"
              "    def fingerprints(self):\n"
              "        from .arrangements import hclasses_of_spec\n"
              "        from .snf import smith_normal_form\n"
              "def k_theory():\n"
              "    from .snf import smith_normal_form\n")
    assert load_breaches("jsonio", source) == [
        "jsonio: fractions", "jsonio: spaces", "jsonio: snf", "jsonio: arrangements",
        "jsonio: arrangements", "jsonio: fractions", "jsonio: snf in fingerprints",
        "jsonio: snf in k_theory"]
    assert load_breaches("graphalgebra", source)[-1] == "graphalgebra: snf in fingerprints"
    assert load_breaches("arrangements", source) == [
        "arrangements: snf", "arrangements: snf in fingerprints", "arrangements: snf in k_theory"]


# the layers a fingerprinting call loads besides its input's families
GENERIC = "certificates cli digraphs errors fingerprints graphalgebra hasse jsonio"

# a command line; its exit code; exactly the topocert modules it loads, but
# the package itself; whether it loads fractions
LOADS = [
    (["--version"], 0, "cli errors", False),
    (["--help"], 0, "cli errors", False),
    (["pg", "--n", "x"], 1, "cli errors jsonio", False),
    (["pg", "--input", "chain_4.json", "--n", "2"], 0, f"{GENERIC} spaces", False),
    (["validate", "--input", "chain_4.json"], 0, "cli errors jsonio spaces", False),
    (["enumerate", "--input", "chain_4.json", "--n", "2"], 0, "cli errors jsonio spaces",
     False),
    (["pg", "--input", "line_domain.json", "--n", "2"], 0, f"{GENERIC} arrangements", True),
    (["enumerate", "--input", "line_domain.json", "--n", "2"], 0,
     "arrangements cli digraphs errors hasse jsonio", True),
    (["hclasses", "--input", "plane_cover.json"], 0,
     "arrangements cli digraphs errors hasse jsonio", True),
    (["hclasses", "--input", "chain_3_cover.json"], 0,
     "cli digraphs errors hasse jsonio spaces", False),
    (["graph", "--input", "downward_dag.json"], 0, "cli digraphs errors jsonio", False),
    (["cstar", "--input", "downward_dag.json"], 0,
     "cli digraphs errors graphalgebra jsonio", False),
    (["pg", "--input", "line_witness_covers.json"], 0, f"{GENERIC} arrangements", True),
    (["certify", "--input", "line_witness_covers.json", "--input-b",
      "three_point_model.json"], 2, f"{GENERIC} arrangements spaces", True),
    (["compare", "--input", "line_witness_covers.json", "--input-b",
      "three_point_model.json", "--n", "2"], 2, f"{GENERIC} arrangements spaces", True),
    (["ktheory", "--input", "antichain_3.json"], 0,
     "cli digraphs errors graphalgebra jsonio snf", False),
]

# runs one command line in this fresh interpreter and prints what it loaded
LOAD_PROBE = """
import contextlib, io, json, sys
from topocert import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = cli.run(json.loads(sys.argv[1]))
    except SystemExit as exc:
        code = exc.code
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "topocert"),
                  "fractions" in sys.modules]))
"""


@pytest.mark.parametrize("argv, code, modules, fractions", LOADS,
                         ids=[" ".join(row[0]) for row in LOADS])
def test_a_call_loads_only_its_inputs_families(argv, code, modules, fractions):
    argv = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    out = subprocess.run([sys.executable, "-c", LOAD_PROBE, json.dumps(argv)],
                         capture_output=True, text=True, timeout=60, check=True).stdout
    assert json.loads(out) == [code, sorted({"topocert"} | {f"topocert.{m}" for m in
                                                            modules.split()}), fractions]


def eager_imports(source: str) -> set:
    """The topocert modules, and ``__version__``, that ``source`` imports
    when it loads, outside any function."""
    known = {path.stem for path in SRC.glob("*.py")} | {"__version__"}
    return {m for function, m in imports(source) if function is None and m in known}


def test_cli_imports_only_errors_and_the_version_when_it_loads():
    assert eager_imports((SRC / "cli.py").read_text()) == {"errors", "__version__"}
    source = ("from . import __version__\n"
              "import argparse\n"
              "from .errors import ParseError\n"
              "if True:\n"
              "    from .jsonio import dumps\n"
              "import topocert.hasse\n"
              "def _pg(args):\n"
              "    from .fingerprints import sets_match\n")
    assert eager_imports(source) == {"__version__", "errors", "jsonio", "hasse"}


def test_importing_the_cli_loads_errors_only_and_still_reads_fingerprint_of():
    probe = ("import sys, topocert.cli as cli\n"
             "loaded = sorted(m for m in sys.modules if 'topocert' in m)\n"
             "import topocert.fingerprints as fps\n"
             "print(loaded, cli.fingerprint_of is fps.fingerprint_of)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out == "['topocert', 'topocert.cli', 'topocert.errors'] True\n"


# -- the package namespace ------------------------------------------------------

# every name the package exported when it imported each module eagerly
EXPORTED = {
    "arrangements": "AxisAlignedSpec Circle Constraint FullLine Interval IntervalSpec "
                    "Segment enumerate_interval_cover_types hclasses_axis2d "
                    "hclasses_of_intervals hclasses_of_spec",
    "certificates": "Certificate DomainSide SpaceSide WitnessSide nonhomeo_certificate "
                    "verify_certificate",
    "digraphs": "DiGraph canonical_cert is_isomorphic relabel to_dot topological_order",
    "errors": "CapExceeded DuplicatePoint EmptyMember InvalidArrangement LevelMismatch "
              "MissingEmpty MissingWhole NotACover NotAcyclic NotClosedUnderIntersection "
              "NotClosedUnderUnion NotExhaustible ParseError TopocertError TopologyError "
              "UnknownPoint",
    "fingerprints": "Fingerprint FingerprintSet empty_space_fingerprints fingerprint_of "
                    "fingerprint_set fingerprints_of_domain fingerprints_of_space sets_match",
    "graphalgebra": "KPair PrimPoset block_decomposition k_theory maximal_tails prim_space",
    "hasse": "HPartition canonical_key hasse_digraph hpartition_of_cover",
    "snf": "smith_normal_form",
    "spaces": "Cover FiniteSpace enumerate_covers generate_topology make_cover "
              "validate_topology",
}
EXPORTED_NAMES = [(m, n) for m, names in EXPORTED.items() for n in names.split()]


def test_every_public_name_resolves_to_its_modules_object():
    listed = set(dir(topocert)) & set(topocert.__all__)
    wrong = [name for module, name in EXPORTED_NAMES
             if getattr(topocert, name)
             is not getattr(importlib.import_module(f"topocert.{module}"), name)
             or name not in listed]
    assert len(EXPORTED_NAMES) == 64 and wrong == []


def test_a_star_import_binds_the_public_names_only():
    namespace = {}
    exec("from topocert import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(topocert.__all__) == sorted(n for _, n in EXPORTED_NAMES)
    assert all(namespace[n] is getattr(topocert, n) for n in namespace)


def test_an_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        topocert.no_such_name  # noqa: B018


def test_importing_the_package_loads_no_module():
    probe = "import sys, topocert; print(sorted(m for m in sys.modules if 'topocert' in m))"
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         timeout=60, check=True).stdout
    assert out == "['topocert']\n"
