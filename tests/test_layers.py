"""The modules of the package import one another only downward:
graphs -> {bounds, constructions, counting, reduction, search} -> formats -> cli,
with the package itself and its __main__ on top."""

import ast
from pathlib import Path

import cyclecreate
from cyclecreate import cli, constructions, counting, search

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "cyclecreate"
LAYERS = {
    "graphs": 0,
    "bounds": 1,
    "constructions": 1,
    "counting": 1,
    "reduction": 1,
    "search": 1,
    "formats": 2,
    "cli": 3,
    "__init__": 4,
    "__main__": 4,
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


def test_private_names_are_imported_only_from_graphs():
    # the kernels that several modules share live in graphs, and nowhere else
    private = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for imported, names in imported_modules(ast.parse(path.read_text())):
            if (path.stem, imported, names) == ("cli", "__init__", ("__version__",)):
                continue
            private.update((path.stem, imported, name) for name in names if name.startswith("_"))
    assert private >= {
        ("search", "graphs", "_creates"),
        ("search", "graphs", "_family_adjacencies"),
        ("reduction", "graphs", "_has_cycle_through"),
    }
    assert {imported for _, imported, _ in private} == {"graphs"}, private


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


def test_modules_use_every_name_they_import():
    # a public name has one home: only the package itself re-exports
    sample = "from __future__ import annotations\nimport os.path\nfrom .graphs import a, b as c\nx: a\n"
    assert unused_imports(ast.parse(sample)) == ["c", "os"]
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem != "__init__":
            assert unused_imports(ast.parse(path.read_text())) == [], path.stem


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
    # wraps, which would drop that layer's metric without an error
    names = traced_names(ast.parse((ROOT / "perfbench" / "replay.py").read_text()))
    assert len(names) > 20
    for name in names:
        assert any(hasattr(module, name) for module in (cli, search, constructions, counting)), name


LIBRARY = ("graphs", "bounds", "constructions", "counting", "reduction", "search")


def test_package_reexports_exactly_the_library_modules_public_names():
    # formats and cli are reached through their modules, never the package
    public = {
        (module, node.name)
        for module in LIBRARY
        for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    exported = {
        (node.module, alias.name)
        for node in ast.parse((PACKAGE / "__init__.py").read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert exported == public
    for module, name in exported:
        assert getattr(cyclecreate, name) is getattr(getattr(cyclecreate, module), name)
