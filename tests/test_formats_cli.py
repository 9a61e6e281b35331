import hashlib
import json
import os
import subprocess
import sys

import pytest

from cyclecreate.cli import main
from cyclecreate.constructions import lower_bound_family
from cyclecreate.counting import BiadjacencyMatrix
from cyclecreate.formats import (
    FormatError,
    format_graph,
    format_matchings,
    format_matrix,
    format_paths,
    parse_graph,
    parse_matchings,
    parse_matrix,
    parse_paths,
)
from cyclecreate.graphs import HamPath, LabeledGraph, PerfectMatching, is_creating


IDENTITY_12 = HamPath(tuple(range(1, 13)))
SWAPPED_MIDDLE_12 = HamPath((1, 2, 9, 10, 5, 6, 7, 8, 3, 4, 11, 12))

K4_MATCHINGS = [
    PerfectMatching(((1, 2), (3, 4))),
    PerfectMatching(((1, 3), (2, 4))),
    PerfectMatching(((1, 4), (2, 3))),
]


# ------------------------------------------------------------
# file formats
# ------------------------------------------------------------

def test_graph_format_is_canonical():
    g = LabeledGraph(3, [(2, 3), (1, 2)])
    text = format_graph(g)
    assert text == "graph 3 2\n1 2\n2 3\n"
    back = parse_graph(text)
    assert back.n == g.n and back.edges == g.edges


def test_paths_format_uses_canonical_orientation():
    text = format_paths([HamPath((3, 2, 1))])
    assert text == "paths 3 1\n1 2 3\n"
    assert parse_paths(text) == [HamPath((1, 2, 3))]


def test_matchings_format_sorts_pairs():
    text = format_matchings([PerfectMatching(((3, 4), (2, 1)))])
    assert text == "matchings 4 1\n1-2 3-4\n"
    assert parse_matchings(text) == [PerfectMatching(((1, 2), (3, 4)))]


def test_matrix_round_trip():
    text = format_matrix(BiadjacencyMatrix([(1, 2), (3, 4)]))
    assert text == "matrix 2\n1 2\n3 4\n"
    assert parse_matrix(text).rows == ((1, 2), (3, 4))


def test_matrix_format_rejects_fractions():
    from fractions import Fraction

    with pytest.raises(ValueError, match="integer matrices"):
        format_matrix(BiadjacencyMatrix([(Fraction(1, 2),)]))


def test_writers_reject_empty_and_mixed_families():
    with pytest.raises(ValueError, match="empty"):
        format_paths([])
    with pytest.raises(ValueError, match="empty"):
        format_matchings([])
    with pytest.raises(ValueError, match="mixes"):
        format_paths([HamPath((1, 2, 3)), HamPath((1, 2, 3, 4))])


def test_parse_errors_name_the_first_bad_line():
    cases = [
        (parse_graph, "", "line 1"),
        (parse_graph, "paths 3 1\n1 2 3\n", "line 1"),
        (parse_graph, "graph 3 2\n1 2\n", "line 3"),
        (parse_graph, "graph 3 1\n1 2\n2 3\n", "line 3"),
        (parse_graph, "graph 3 1\nx 2\n", "line 2"),
        (parse_graph, "graph 3 1\n2 1\n", "line 2"),
        (parse_graph, "graph 3 1\n1 4\n", "line 2"),
        (parse_graph, "graph 3 2\n1 2\n1 2\n", "line 3"),
        (parse_paths, "paths 3 1\n1 2\n", "line 2"),
        (parse_paths, "paths 3 1\n1 2 2\n", "line 2"),
        (parse_matchings, "matchings 5 1\n1-2 3-4\n", "line 1"),
        (parse_matchings, "matchings 4 1\n1-2\n", "line 2"),
        (parse_matchings, "matchings 4 1\n1-2 34\n", "line 2"),
        (parse_matchings, "matchings 4 1\n1-2 1-3\n", "line 2"),
        (parse_matrix, "matrix 2\n1 2\n", "line 3"),
        (parse_matrix, "matrix 2\n1 2\n3\n", "line 3"),
        (parse_graph, "graph -1 0\n", "line 1"),
        (parse_paths, "paths -3 0\n", "line 1"),
        (parse_matchings, "matchings -2 0\n", "line 1"),
        (parse_matrix, "matrix -1\n", "line 1"),
    ]
    for parser, text, fragment in cases:
        with pytest.raises(FormatError) as excinfo:
            parser(text)
        assert fragment in str(excinfo.value), (parser.__name__, text)


def test_parsers_tolerate_extra_whitespace():
    assert parse_graph("graph 3 1\n  1   2 \n").edges == frozenset({(1, 2)})


# ------------------------------------------------------------
# in-process command line runs
# ------------------------------------------------------------

def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def manifest_of(err):
    return json.loads(err.strip().splitlines()[-1])


def test_cli_construct_and_verify_round_trip(capsys, tmp_path):
    out = tmp_path / "family.paths"
    code, stdout, stderr = run_cli(
        capsys, ["construct", "lower-bound", "--n", "5", "--k", "2", "--out", str(out)]
    )
    assert code == 0
    assert stdout == "wrote 2 paths on 5 vertices\n"
    assert parse_paths(out.read_text()) == lower_bound_family(5, 2)
    manifest = manifest_of(stderr)
    assert manifest["command"] == "construct lower-bound"
    assert manifest["exit_code"] == 0
    assert manifest["outputs"][str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()

    code, stdout, stderr = run_cli(
        capsys,
        ["verify", "creating", "--k", "2", "--kind", "paths", "--in", str(out)],
    )
    assert code == 0
    assert stdout == "ok 2 members, 1 pairs create length 4\n"
    manifest = manifest_of(stderr)
    assert manifest["inputs"][str(out)] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_cli_verify_creating_reports_first_violation(capsys, tmp_path):
    path = HamPath((1, 2, 3, 4, 5))
    bad = tmp_path / "bad.paths"
    bad.write_text(format_paths([path, path]))
    code, stdout, _ = run_cli(
        capsys, ["verify", "creating", "--k", "2", "--kind", "paths", "--in", str(bad)]
    )
    assert code == 1
    assert stdout == "violation: members 1 and 2 do not create a cycle of length 4\n"


def test_cli_verify_creating_matchings_kind(capsys, tmp_path):
    good = tmp_path / "good.matchings"
    good.write_text(format_matchings(K4_MATCHINGS))
    code, stdout, _ = run_cli(
        capsys, ["verify", "creating", "--k", "2", "--kind", "matchings", "--in", str(good)]
    )
    assert code == 0
    assert stdout == "ok 3 members, 3 pairs create length 4\n"


def test_cli_construct_is_deterministic(capsys, tmp_path):
    first = tmp_path / "a.paths"
    second = tmp_path / "b.paths"
    run_cli(capsys, ["construct", "lower-bound", "--n", "9", "--k", "2", "--out", str(first)])
    run_cli(capsys, ["construct", "lower-bound", "--n", "9", "--k", "2", "--out", str(second)])
    assert first.read_bytes() == second.read_bytes()


def test_cli_plane_and_c2kfree(capsys, tmp_path):
    out = tmp_path / "plane.graph"
    code, stdout, _ = run_cli(capsys, ["construct", "plane", "--q", "2", "--out", str(out)])
    assert code == 0
    assert stdout == "wrote incidence graph of order 2 on 14 vertices\n"
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "2", "--in", str(out)])
    assert code == 0
    assert stdout == "ok bipartite 3-regular girth 6\n"
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "3", "--in", str(out)])
    assert code == 1
    assert "girth 6 is not greater than 6" in stdout


def test_cli_plane_target_mode(capsys, tmp_path):
    out = tmp_path / "plane.graph"
    code, stdout, _ = run_cli(
        capsys, ["construct", "plane", "--target-n", "20", "--out", str(out)]
    )
    assert code == 0
    assert stdout.splitlines()[0] == "chose order 2 with 14 vertices"


def test_cli_reduce_paths_to_matchings(capsys, tmp_path):
    infile = tmp_path / "pair.paths"
    outfile = tmp_path / "pair.matchings"
    infile.write_text(format_paths([IDENTITY_12, SWAPPED_MIDDLE_12]))
    code, stdout, _ = run_cli(
        capsys,
        ["reduce", "paths-to-matchings", "--k", "2", "--in", str(infile), "--out", str(outfile)],
    )
    assert code == 0
    assert stdout == "kept 2 of 2 members on 10 vertices\n"
    matchings = parse_matchings(outfile.read_text())
    assert len(matchings) == 2 and matchings[0].n == 10
    assert is_creating(matchings[0], matchings[1], 4)


def test_cli_reduce_shrink(capsys, tmp_path):
    infile = tmp_path / "k4.matchings"
    outfile = tmp_path / "small.matchings"
    infile.write_text(format_matchings(K4_MATCHINGS))
    code, stdout, _ = run_cli(
        capsys, ["reduce", "shrink", "--in", str(infile), "--out", str(outfile)]
    )
    assert code == 0
    assert stdout == "kept 1 of 3 members, deleted pair 1-2\n"
    assert parse_matchings(outfile.read_text()) == [PerfectMatching(((1, 2),))]


def test_cli_search(capsys):
    assert run_cli(capsys, ["search", "H", "--n", "4", "--k", "3"])[:2] == (0, "3\n")
    assert run_cli(capsys, ["search", "M", "--n", "4", "--k", "4"])[:2] == (0, "3\n")
    assert run_cli(capsys, ["search", "RP", "--n", "3"])[:2] == (0, "2\n")


def test_cli_search_flag_validation(capsys):
    code, _, stderr = run_cli(capsys, ["search", "RP", "--n", "3", "--k", "2"])
    assert code == 2
    assert "error: search RP takes no --k" in stderr
    code, _, stderr = run_cli(capsys, ["search", "H", "--n", "4"])
    assert code == 2
    assert "error: search H needs --k" in stderr


def test_cli_count_commands(capsys, tmp_path):
    plane = tmp_path / "plane.graph"
    run_cli(capsys, ["construct", "plane", "--q", "2", "--out", str(plane)])
    assert run_cli(capsys, ["count", "matchings", "--in", str(plane)])[:2] == (0, "24\n")
    matrix = tmp_path / "m.matrix"
    matrix.write_text(format_matrix(BiadjacencyMatrix([(1, 2), (3, 4)])))
    assert run_cli(capsys, ["count", "permanent", "--in", str(matrix)])[:2] == (0, "10\n")


def test_cli_check_lemma6(capsys, tmp_path):
    k33 = LabeledGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    infile = tmp_path / "k33.graph"
    infile.write_text(format_graph(k33))
    code, stdout, _ = run_cli(capsys, ["check", "lemma6", "--in", str(infile)])
    assert code == 0
    assert stdout == "ok 6 matchings >= bound 6/1\n"


def test_cli_check_claim4(capsys, tmp_path):
    infile = tmp_path / "pair.paths"
    infile.write_text(format_paths([IDENTITY_12, SWAPPED_MIDDLE_12]))
    code, stdout, _ = run_cli(capsys, ["check", "claim4", "--k", "2", "--in", str(infile)])
    assert code == 0
    assert stdout == "ok 1 sharing pairs checked\n"


def test_cli_check_claim7(capsys):
    code, stdout, _ = run_cli(capsys, ["check", "claim7", "--m", "3"])
    assert code == 0
    assert stdout == "ok 36 ordered pairs checked\n"
    code, _, stderr = run_cli(capsys, ["check", "claim7", "--m", "7"])
    assert code == 2
    assert "error: --m must be at most 6" in stderr


def test_cli_bounds(capsys):
    code, stdout, _ = run_cli(capsys, ["bounds", "--k", "2", "--kmax", "3"])
    assert code == 0
    assert stdout == (
        "k=2 cycle=4 lower=1/2 matching_upper=1/4 path_upper=3/4\n"
        "k=3 cycle=6 lower=1/3 matching_upper=1/3 path_upper=8/9\n"
    )
    code, stdout, _ = run_cli(capsys, ["bounds", "--k", "2", "--decimal"])
    assert code == 0
    assert "path_upper=0.750000" in stdout


def test_cli_errors_exit_2_with_manifest(capsys, tmp_path):
    code, _, stderr = run_cli(
        capsys,
        ["verify", "creating", "--k", "2", "--kind", "paths", "--in", str(tmp_path / "missing")],
    )
    assert code == 2
    assert stderr.splitlines()[0].startswith("error: ")
    manifest = manifest_of(stderr)
    assert manifest["exit_code"] == 2
    assert manifest["inputs"] == {}

    bad = tmp_path / "bad.paths"
    bad.write_text("paths 3 1\n1 2\n")
    code, _, stderr = run_cli(
        capsys, ["verify", "creating", "--k", "2", "--kind", "paths", "--in", str(bad)]
    )
    assert code == 2
    assert "error: line 2" in stderr


def test_cli_manifest_shape(capsys, tmp_path):
    out = tmp_path / "family.paths"
    _, _, stderr = run_cli(
        capsys, ["construct", "lower-bound", "--n", "5", "--k", "2", "--out", str(out)]
    )
    manifest = manifest_of(stderr)
    assert set(manifest) == {
        "command", "parameters", "inputs", "outputs",
        "exit_code", "wall_time_s", "version",
    }
    assert manifest["parameters"]["n"] == 5
    assert "kmax" not in manifest["parameters"]
    assert manifest["wall_time_s"] >= 0


def test_module_entry_point_smoke():
    # the child must import the same package as this process, however pytest found it
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "cyclecreate", "bounds", "--k", "2"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert done.returncode == 0
    assert done.stdout.startswith("k=2 ")
    usage = subprocess.run(
        [sys.executable, "-m", "cyclecreate"], capture_output=True, text=True, env=env
    )
    assert usage.returncode == 2
    assert "usage" in usage.stderr
