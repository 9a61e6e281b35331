"""The modules of the package import one another only downward:
hosts -> graphs -> {bounds, constructions, counting, reduction, search} ->
formats -> cli, with the package itself and its __main__ on top."""

import ast
import re
from pathlib import Path

import pytest

import cyclecreate
from cyclecreate import cli, constructions, counting, formats, search

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cyclecreate"
LAYERS = {
    "hosts": 0,
    "graphs": 1,
    "bounds": 2,
    "constructions": 2,
    "counting": 2,
    "reduction": 2,
    "search": 2,
    "formats": 3,
    "cli": 4,
    "__init__": 5,
    "__main__": 5,
}


def imported_modules(tree: ast.Module):
    """(module, names) for every import of the package or one of its modules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "cyclecreate":
                    yield alias.name.partition(".")[2] or "__init__", ()
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                name = node.module
            elif node.module.split(".")[0] == "cyclecreate":
                name = node.module.partition(".")[2]
            else:
                continue
            names = tuple(alias.name for alias in node.names)
            if name:
                yield name, names
            else:  # from the package: its submodules, or names it defines
                for sub in names:
                    yield (sub, ()) if sub in LAYERS else ("__init__", (sub,))


def test_intra_package_imports_follow_the_layers():
    sources = sorted(PACKAGE.glob("*.py"))
    assert {path.stem for path in sources} == set(LAYERS)
    for path in sources:
        importer = path.stem
        for imported, names in imported_modules(ast.parse(path.read_text())):
            if (importer, imported, names) == ("cli", "__init__", ("__version__",)):
                continue
            assert LAYERS[imported] < LAYERS[importer], f"{importer} imports {imported} {names}"
    # the package imports these names on first use, by module name; cli takes
    # its formats names from formats and every other name through the package
    for name, module in cyclecreate._HOME.items():
        assert LAYERS[module] < LAYERS["__init__"], f"__init__ imports {module} {name}"
        assert name in defined_names(module), f"{module} does not define {name}"
    assert cli._FORMATS <= defined_names("formats")


def defined_names(module: str) -> set[str]:
    """The names a module's own top level defines."""
    names = set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return names


def test_private_names_are_imported_only_from_hosts_and_graphs():
    # the kernels that several modules share live in graphs, and the value
    # bases and edge check that every value type builds on in hosts
    private = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for imported, names in imported_modules(ast.parse(path.read_text())):
            if (path.stem, imported, names) == ("cli", "__init__", ("__version__",)):
                continue
            private.update((path.stem, imported, name) for name in names if name.startswith("_"))
    assert private >= {
        ("search", "graphs", "_orbit_tree"),
        ("search", "graphs", "_pair_test"),
        ("reduction", "graphs", "_has_cycle_through"),
        ("graphs", "hosts", "_Graph"),
        ("counting", "hosts", "_Value"),
    }
    # graphs alone picks a family's relation and its kernel: search takes
    # the pair test from _pair_test and binds neither kernel itself
    tree = ast.parse((PACKAGE / "search.py").read_text())
    taken = {name for _, names in imported_modules(tree) for name in names}
    assert not taken & {"_creates", "is_reversing"}, taken
    assert {imported for _, imported, _ in private} == {"hosts", "graphs"}, private


def test_layer_check_sees_relative_and_absolute_imports():
    source = (
        "from .counting import x\n"
        "from . import search, __version__\n"
        "import cyclecreate.graphs\n"
        "from cyclecreate.formats import y\n"
        "import os\n"
        "from typing import Sequence\n"
    )
    assert list(imported_modules(ast.parse(source))) == [
        ("counting", ("x",)),
        ("search", ()),
        ("__init__", ("__version__",)),
        ("graphs", ()),
        ("formats", ("y",)),
    ]


def unused_imports(tree: ast.Module) -> list[str]:
    """Names the module imports but never reads."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    return sorted(bound - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)})


# module -> the names it imports only so that they still resolve where they
# were defined before they moved home: perm_to_matching moved to graphs
MOVED = {"search": ["perm_to_matching"]}


def test_modules_use_every_name_they_import():
    # a public name has one home: only the package itself re-exports, and a
    # moved name stays readable, as that same object, where it was
    sample = "from __future__ import annotations\nimport os.path\nfrom .graphs import a, b as c\nx: a\n"
    assert unused_imports(ast.parse(sample)) == ["c", "os"]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            assert unused_imports(ast.parse(path.read_text())) == MOVED.get(path.stem, []), path.stem
    for module, names in MOVED.items():
        for name in names:
            home = cyclecreate._HOME[name]
            assert home != module and getattr(getattr(cyclecreate, module), name) is getattr(cyclecreate, name)


def traced_names(tree: ast.Module) -> list[str]:
    """The keys of the module-level TRACED dict literal."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED" for target in node.targets
        ):
            return [key.value for key in node.value.keys]
    raise AssertionError("no TRACED dict")


def test_benchmark_traced_functions_exist():
    # the benchmark's tracer skips a name that is missing from every module it
    # wraps, which would drop that layer's metric without an error; cli resolves
    # any public name on demand, so there only the names its handlers call count
    names = traced_names(ast.parse((ROOT / "perfbench" / "replay.py").read_text()))
    cli_source = (PACKAGE / "cli.py").read_text()
    assert len(names) > 20
    for name in names:
        assert re.search(rf"\b_cli\.{name}\b", cli_source) or any(
            hasattr(module, name) for module in (search, constructions, counting)
        ), name


LIBRARY = ("hosts", "graphs", "bounds", "constructions", "counting", "reduction", "search")


def library_public_names() -> set[tuple[str, str]]:
    return {
        (module, node.name)
        for module in LIBRARY
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def test_package_reexports_exactly_the_library_modules_public_names():
    # formats and cli are reached through their modules, never the package
    public = library_public_names()
    exported = {(module, name) for name, module in cyclecreate._HOME.items()}
    assert exported == public
    for module, name in exported:
        assert getattr(cyclecreate, name) is getattr(getattr(cyclecreate, module), name)


def test_star_import_and_dir_list_the_public_surface():
    public = {name for _, name in library_public_names()}
    namespace: dict = {}
    exec("from cyclecreate import *", namespace)
    assert set(namespace) - {"__builtins__"} == public
    assert public <= set(dir(cyclecreate))
    assert "__version__" in dir(cyclecreate)


@pytest.mark.parametrize("module", [cyclecreate, cli])
def test_unknown_lazy_attribute_raises_attribute_error_naming_it(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        module.no_such_name
    assert not hasattr(module, "FormatError")  # defined in formats, but resolved by neither


def test_cli_resolves_the_formats_names_and_the_package_names_only():
    for name in cli._FORMATS:
        assert getattr(cli, name) is getattr(formats, name)
    for name in cyclecreate.__all__:
        assert getattr(cli, name) is getattr(cyclecreate, name)
    # no table of its own, and no __all__, so `from cyclecreate.cli import *` is unchanged
    for name in ("_HOME", "__all__", "FormatError"):
        with pytest.raises(AttributeError, match=name):
            getattr(cli, name)
