"""Each CLI command imports only the library modules it runs and names itself
in its manifest, and every library function the handlers call is looked up on
the cli module (as _cli.<name>) at call time, so that a replaced cli.<name> is
the one that runs.  The process entry, and it alone, freezes the start-up
objects out of the collector's walks, and a command run through it answers
as cli.main does in process."""

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cyclecreate import __main__ as entry
from cyclecreate import cli, hosts

INPUTS = {
    "paths.txt": "paths 12 2\n1 2 3 4 5 6 7 8 9 10 11 12\n7 8 3 4 5 6 1 2 9 10 11 12\n",
    "matchings.txt": "matchings 4 2\n1-2 3-4\n1-3 2-4\n",
    "matrix.txt": "matrix 2\n1 1\n1 1\n",
    "graph.txt": "graph 6 6\n1 2\n1 6\n2 3\n3 4\n4 5\n5 6\n",  # a 6-cycle
}

# the modules that only path, matching and permutation families need
FAMILIES = {"graphs", "search", "reduction"}
SEARCH = {"hosts", "graphs", "search"}
FILES = {"formats", "hosts"}
# command -> (argv, the cyclecreate modules beyond cli it loads)
COMMANDS = {
    "bounds": ("bounds --k 2", {"bounds"}),
    "search H": ("search H --n 4 --k 4", SEARCH),
    "search M": ("search M --n 4 --k 4", SEARCH),
    "search RP": ("search RP --n 3", SEARCH),
    "check claim7": ("check claim7 --m 3", SEARCH),
    "verify creating": ("verify creating --k 2 --kind paths --in paths.txt", FILES | {"graphs"}),
    "verify c2kfree": ("verify c2kfree --k 2 --in graph.txt", FILES | {"constructions"}),
    "construct lower-bound": (
        "construct lower-bound --n 7 --k 3 --out out.txt",
        FILES | {"constructions", "graphs"},
    ),
    "construct plane": ("construct plane --target-n 14 --out out.txt", FILES | {"constructions"}),
    "count matchings": ("count matchings --in graph.txt", FILES | {"counting"}),
    "count permanent": ("count permanent --in matrix.txt", FILES | {"counting"}),
    "check lemma6": ("check lemma6 --in graph.txt", FILES | {"counting"}),
    "reduce paths-to-matchings": (
        "reduce paths-to-matchings --k 2 --in paths.txt --out out.txt",
        FILES | {"graphs", "reduction"},
    ),
    "reduce shrink": ("reduce shrink --in matchings.txt --out out.txt", FILES | {"graphs", "reduction"}),
    "check claim4": ("check claim4 --k 2 --in paths.txt", FILES | {"graphs", "reduction"}),
}

# name a handler reads as _cli.<name> -> a command whose handler calls it
USED_BY = {
    "exponent_table": "bounds",
    "exact_h": "search H",
    "exact_m": "search M",
    "exact_rp": "search RP",
    "enumerate_permutations": "check claim7",
    "build_compatibility_graph": "check claim7",
    "perm_to_matching": "check claim7",
    "parse_paths": "verify creating",
    "verify_pairwise_creating": "verify creating",
    "parse_graph": "verify c2kfree",
    "validate_c2kfree_bipartite_regular": "verify c2kfree",
    "lower_bound_family": "construct lower-bound",
    "format_paths": "construct lower-bound",
    "choose_plane_order": "construct plane",
    "projective_plane_incidence": "construct plane",
    "format_graph": "construct plane",
    "count_perfect_matchings": "count matchings",
    "parse_matrix": "count permanent",
    "permanent_ryser": "count permanent",
    "check_regular_matching_bound": "check lemma6",
    "pigeonhole_largest_class": "reduce paths-to-matchings",
    "strip_to_matchings": "reduce paths-to-matchings",
    "parse_matchings": "reduce shrink",
    "ground_set_reduce": "reduce shrink",
    "format_matchings": "reduce shrink",
    "associated_triple": "check claim4",
    "verify_fixed_edges_unused": "check claim4",
}

# runs `python -m cyclecreate ARGV...`, then prints the modules loaded by then,
# listed before json is imported to print them; it is started with -S, so no
# site hook (a .pth file) loads modules of its own
PROBE = """
import runpy, sys
sys.argv = ["cyclecreate", *sys.argv[1:]]
try:
    runpy.run_module("cyclecreate", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
modules = sorted(sys.modules)
import json
print(json.dumps({"code": code, "modules": modules}))
"""

# argparse with the gettext and locale it loads, json, and hashlib with the
# OpenSSL binding it loads: none of them is needed to read a well-formed argv,
# write the manifest or digest a file
FALLBACK_ONLY = {"argparse", "gettext", "locale", "json", "hashlib", "_hashlib"}


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def probe(argv: str) -> tuple[subprocess.CompletedProcess, int, set[str]]:
    """The finished probe of `python -m cyclecreate ARGV`, with the exit code
    and the modules loaded; the probe's own line is taken off its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-S", "-c", PROBE, *argv.split()], capture_output=True, text=True, env=env
    )
    *lines, last = done.stdout.splitlines(keepends=True)
    result = json.loads(last)
    done.stdout = "".join(lines)
    return done, result["code"], set(result["modules"])


@pytest.mark.parametrize("command", COMMANDS)
def test_each_command_imports_only_the_modules_it_runs(command, workdir):
    argv, expected = COMMANDS[command]
    done, code, modules = probe(argv)
    assert code == 0, done.stderr
    manifest = json.loads(done.stderr.splitlines()[-1])
    # search's target is one of its parameters, not part of the command
    assert manifest["command"] == ("search" if command.startswith("search ") else command)
    loaded = {name.partition(".")[2] for name in modules if name.startswith("cyclecreate.")}
    assert loaded - {"__main__"} == {"cli"} | expected
    # files are written as they are read, through open(), and the value types
    # and records are built without dataclasses: pathlib, and dataclasses with
    # the inspect chain it pulls in, cost milliseconds of import on a cold start
    assert not {"pathlib", "dataclasses", "inspect"} & modules
    assert not FALLBACK_ONLY & modules
    # a Fraction is made only for the exponents and lemma 6's bound; no
    # command loads typing, and re and enum come only with fractions
    assert ("fractions" in modules) == (command in {"bounds", "check lemma6"})
    assert "typing" not in modules
    if "fractions" not in modules:
        assert not {"re", "enum"} & modules
    if command == "count permanent":
        assert not {"graphs", "fractions"} & (loaded | modules)
    # host graphs are screened and counted without the path families' modules
    if command in {"construct plane", "verify c2kfree", "count matchings", "check lemma6"}:
        assert not FAMILIES & loaded


@pytest.mark.parametrize("argv", ["--help", "bounds --kmax 3", "bounds --k=2 --dec"])
def test_help_usage_errors_and_argparse_forms_go_through_argparse(argv, workdir, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its help to the terminal's width
    done, code, modules = probe(argv)
    assert "argparse" in modules and not {"json", "hashlib"} & modules
    # stdout, and stderr before the manifest, are argparse's own
    try:
        namespace = cli._build_parser().parse_args(argv.split())
    except SystemExit as exc:
        expected = exc.code
    else:
        expected = namespace.handler(namespace, {}, {})
    out, err = capsys.readouterr()
    assert (code, done.stdout, "".join(done.stderr.splitlines(keepends=True)[:-1])) == (expected, out, err)
    manifest = json.loads(done.stderr.splitlines()[-1])
    assert manifest["exit_code"] == code
    assert manifest["command"] == (None if code or argv == "--help" else "bounds")


def names_read_through_cli() -> set[str]:
    """The attributes that cli.py reads as _cli.<name>."""
    tree = ast.parse(Path(cli.__file__).read_text())
    return {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "_cli"
    }


def test_every_lazy_cli_name_is_exercised():
    assert set(USED_BY) == names_read_through_cli()
    assert set(USED_BY.values()) <= set(COMMANDS)


@pytest.mark.parametrize("name", sorted(USED_BY))
def test_handlers_call_the_name_bound_on_the_cli_module(name, workdir, monkeypatch):
    real, calls = getattr(cli, name), []

    def spy(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)
    assert cli.main(COMMANDS[USED_BY[name]][0].split()) == 0
    assert calls


@pytest.mark.parametrize("command", ["verify c2kfree", "count matchings", "check lemma6"])
def test_each_host_command_colours_its_graph_once(command, workdir, monkeypatch):
    # validate and girth, or the matching bound and biadjacency, share one bipartition
    real, calls = hosts._color_classes, []
    monkeypatch.setattr(hosts, "_color_classes", lambda g: calls.append(g) or real(g))
    assert cli.main(COMMANDS[command][0].split()) == 0
    assert len(calls) == 1


def test_in_process_main_never_freezes(workdir, monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    for argv, _ in COMMANDS.values():
        assert cli.main(argv.split()) == 0
    assert calls == []


def test_the_process_entry_freezes_once_before_main_runs(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 3)
    assert entry.run() == 3
    assert calls == ["freeze", "main"]


def test_the_installed_script_is_the_process_entry():
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    section = re.search(r"^\[project\.scripts\]\n(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    assert re.findall(r"^(\S+) = \"(.*)\"$", section, re.M) == [("cyclecreate", "cyclecreate.__main__:run")]


def without_wall_time(stderr: str) -> tuple[list[str], dict]:
    """The lines before the manifest, and the manifest less its wall time."""
    *lines, last = stderr.splitlines()
    manifest = json.loads(last)
    assert manifest.pop("wall_time_s") >= 0
    return lines, manifest


@pytest.mark.parametrize(
    "argv, code",
    [
        ("construct plane --q 5 --out out.txt", 0),
        ("verify c2kfree --k 2 --in graph.txt", 0),
        ("verify c2kfree --k 3 --in graph.txt", 1),
        ("count permanent --in graph.txt", 2),  # a graph file is no matrix
        ("bounds --kmax 3", 2),  # --k is missing: a usage error
        ("bounds --k 2 --kmax 1000", 0),  # 76 KB of stdout, more than a pipe buffers
    ],
)
def test_python_m_answers_as_main_does_in_process(argv, code, workdir, capsys):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "cyclecreate", *argv.split()], capture_output=True, text=True, env=env
    )
    written = {path.name: path.read_bytes() for path in workdir.iterdir()}
    assert done.returncode == code, done.stderr
    assert cli.main(argv.split()) == code
    captured = capsys.readouterr()
    assert done.stdout == captured.out
    assert without_wall_time(done.stderr) == without_wall_time(captured.err)
    assert written == {path.name: path.read_bytes() for path in workdir.iterdir()}
