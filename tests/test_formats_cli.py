import hashlib
import importlib.util
import json
import os
import random
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclecreate import cli, formats, graphs
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
from cyclecreate.graphs import HamPath, PerfectMatching, Permutation, is_creating
from cyclecreate.hosts import LabeledGraph
from cyclecreate.search import enumerate_permutations, perm_to_matching
from oracles import reversing_oracle, symplectic_quadrangle_3_oracle, symplectic_quadrangle_oracle


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
    with pytest.raises(ValueError, match="^path family mixes ground set sizes$"):
        format_paths([HamPath((1, 2, 3)), HamPath((1, 2, 3, 4))])
    with pytest.raises(ValueError, match="^matching family mixes ground set sizes$"):
        format_matchings([PerfectMatching([(1, 2)]), PerfectMatching([(1, 2), (3, 4)])])


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
        # integers are ASCII decimal, with at most a leading '-'
        (parse_paths, "paths 3 1\n1 2 +3\n", "line 2: expected an integer, got '+3'"),
        (parse_paths, "paths 0_3 1\n1 2 3\n", "line 1: expected an integer, got '0_3'"),
        (parse_paths, "paths 3 1\n1 2 \u0663\n", "line 2: expected an integer, got '\u0663'"),
    ]
    for parser, text, fragment in cases:
        with pytest.raises(FormatError) as excinfo:
            parser(text)
        assert fragment in str(excinfo.value), (parser.__name__, text)


# every parser message in full, each with the checks that must come before it
PARSE_MESSAGES = [
    # the header: presence, tag and field count, integers, signs, the vertex cap, parity
    (parse_graph, "", "line 1: empty input, expected a 'graph' header"),
    (parse_paths, "", "line 1: empty input, expected a 'paths' header"),
    (parse_matchings, "", "line 1: empty input, expected a 'matchings' header"),
    (parse_matrix, "", "line 1: empty input, expected a 'matrix' header"),
    (parse_graph, "paths 3 0\n", "line 1: expected 'graph' header with 2 fields, got 'paths 3 0'"),
    (parse_matrix, "matrices 1\n1\n", "line 1: expected 'matrix' header with 1 fields, got 'matrices 1'"),
    (parse_paths, "paths 3\n", "line 1: expected 'paths' header with 2 fields, got 'paths 3'"),
    (parse_matrix, "matrix 2 2\n", "line 1: expected 'matrix' header with 1 fields, got 'matrix 2 2'"),
    (parse_graph, "graph x 0\n", "line 1: expected an integer, got 'x'"),
    (parse_graph, "graph -1 x\n", "line 1: expected an integer, got 'x'"),
    (parse_graph, "graph 3 -1\n", "line 1: header fields must be nonnegative, got 'graph 3 -1'"),
    (parse_matrix, "matrix -2\n", "line 1: header fields must be nonnegative, got 'matrix -2'"),
    (parse_matchings, "matchings -3 0\n", "line 1: header fields must be nonnegative, got 'matchings -3 0'"),
    (parse_graph, "graph 4097 0\n", "line 1: the vertex count is limited to n <= 4096, got 4097"),
    (parse_paths, "paths 4097 0\n", "line 1: the vertex count is limited to n <= 4096, got 4097"),
    (parse_matchings, "matchings 4097 0\n", "line 1: the vertex count is limited to n <= 4096, got 4097"),
    (parse_matchings, "matchings 5 3\n1-2 3-4\n", "line 1: matchings need an even vertex count, got 5"),
    # the body's line count, before any body line is read
    (parse_graph, "graph 3 2\n1 2\n", "line 3: expected 2 edge lines after the header, got 1"),
    (parse_graph, "graph 3 1\n1 2\n2 3\n", "line 3: expected 1 edge lines after the header, got 2"),
    (parse_paths, "paths 3 2\n1 2 3\n", "line 3: expected 2 path lines after the header, got 1"),
    (parse_paths, "paths 3 0\n1 2 3\n", "line 2: expected 0 path lines after the header, got 1"),
    (parse_paths, "paths 3 2\n1 2\n", "line 3: expected 2 path lines after the header, got 1"),
    (parse_matchings, "matchings 4 2\n1-2 3-4\n", "line 3: expected 2 matching lines after the header, got 1"),
    (parse_matrix, "matrix 1\n", "line 2: expected 1 row lines after the header, got 0"),
    (parse_matrix, "matrix 1\n1\n1\n", "line 3: expected 1 row lines after the header, got 2"),
    # body tokens
    (parse_graph, "graph 3 1\n1 b\n", "line 2: expected an integer, got 'b'"),
    (parse_paths, "paths 3 1\n1 2 3.0\n", "line 2: expected an integer, got '3.0'"),
    (parse_matchings, "matchings 4 1\n1-2 3-x\n", "line 2: expected an integer, got 'x'"),
    (parse_matrix, "matrix 2\n1 2\n3 4e0\n", "line 3: expected an integer, got '4e0'"),
    # paths
    (parse_paths, "paths 3 1\n1 2\n", "line 2: expected 3 labels, got 2"),
    (parse_paths, "paths 3 1\n1 2 3 4\n", "line 2: expected 3 labels, got 4"),
    (parse_paths, "paths 3 1\n1 2 2\n", "line 2: order must be a permutation of 1..3"),
    (parse_paths, "paths 3 1\n1 2 4\n", "line 2: order must be a permutation of 1..3"),
    (parse_paths, "paths 1 1\n1\n", "line 2: a path needs at least two vertices, got 1"),
    # matchings
    (parse_matchings, "matchings 4 1\n1-2 34\n", "line 2: expected 'a-b' pairs, got '34'"),
    (parse_matchings, "matchings 4 1\n1-2 3-\n", "line 2: expected 'a-b' pairs, got '3-'"),
    (parse_matchings, "matchings 4 1\n1-2\n", "line 2: expected 2 pairs, got 1"),
    (parse_matchings, "matchings 4 1\n1-2 3-5\n",
     "line 2: pairs must cover a ground set 1..2m with every vertex in exactly one pair"),
    (parse_matchings, "matchings 4 1\n1-2 2-1\n", "line 2: pairs cover 1..2, expected 1..4"),
    # graphs
    (parse_graph, "graph 3 1\n1 2 3\n", "line 2: expected 'u v', got '1 2 3'"),
    (parse_graph, "graph 3 1\n2 1\n", "line 2: edges must satisfy u < v, got 2 1"),
    (parse_graph, "graph 3 1\n2 2\n", "line 2: edges must satisfy u < v, got 2 2"),
    (parse_graph, "graph 3 1\n0 2\n", "line 2: edge (0, 2) is outside 1..3"),
    (parse_graph, "graph 3 1\n1 4\n", "line 2: edge (1, 4) is outside 1..3"),
    (parse_graph, "graph 3 2\n1 2\n1 2\n", "line 3: duplicate edge 1 2"),
    # matrices
    (parse_matrix, "matrix 2\n1 2\n3\n", "line 3: expected 2 entries, got 1"),
    (parse_matrix, "matrix 2\n1 2\n3 4 5\n", "line 3: expected 2 entries, got 3"),
]


def test_parse_error_messages_in_full():
    for parser, text, message in PARSE_MESSAGES:
        # a CRLF or CR-only file gets the same message
        for newline in ("\n", "\r\n", "\r"):
            with pytest.raises(FormatError) as excinfo:
                parser(text.replace("\n", newline))
            assert str(excinfo.value) == message, (parser.__name__, text, newline)


def test_vertex_cap_refuses_the_header_before_any_member_is_built(monkeypatch):
    def refuse(*args):
        raise AssertionError("a member was built past the vertex cap")

    # parse_paths and parse_matchings import their member types from graphs when called
    for module, name in ((formats, "LabeledGraph"), (graphs, "HamPath"), (graphs, "PerfectMatching")):
        monkeypatch.setattr(module, name, refuse)
    n = formats.MAX_VERTICES + 2  # even, so the matchings header passes its own check
    path = " ".join(map(str, range(1, n + 1)))
    matching = " ".join(f"{v}-{v + 1}" for v in range(1, n, 2))
    # valid bodies, and bodies whose first line would fail to parse
    for parser, tag, body in (
        (parse_graph, "graph", "1 2"),
        (parse_paths, "paths", path),
        (parse_matchings, "matchings", matching),
        (parse_graph, "graph", "x y"),
        (parse_paths, "paths", "1 1"),
        (parse_matchings, "matchings", "1-1"),
    ):
        with pytest.raises(FormatError) as excinfo:
            parser(f"{tag} {n} 1\n{body}\n")
        assert str(excinfo.value) == f"line 1: the vertex count is limited to n <= 4096, got {n}", tag
    monkeypatch.undo()
    # the cap itself is accepted
    assert parse_graph("graph 4096 1\n4095 4096\n").n == 4096
    assert parse_paths("paths 4096 0\n") == parse_matchings("matchings 4096 0\n") == []


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


# 1, 2, ..., 1201 and the odd vertices up, then the even ones down
SQUARE_OF_A_PATH = [HamPath(range(1, 1202)), HamPath([*range(1, 1202, 2), *range(1200, 0, -2)])]


@pytest.mark.parametrize(
    "n, k, stdout",
    [
        ("15", "2", "ok 5040 members, 12698280 pairs create length 4\n"),
        # a cycle on 1,200 vertices, deeper than Python's recursion limit
        ("1201", "600", "ok 2 members, 1 pairs create length 1200\n"),
    ],
)
def test_cli_verifies_large_lower_bound_families(capsys, tmp_path, n, k, stdout):
    out = str(tmp_path / "family.paths")
    assert run_cli(capsys, ["construct", "lower-bound", "--n", n, "--k", k, "--out", out])[0] == 0
    code, printed, stderr = run_cli(capsys, ["verify", "creating", "--kind", "paths", "--k", k, "--in", out])
    assert (code, printed) == (0, stdout)
    assert manifest_of(stderr)["exit_code"] == 0


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


def test_cli_reads_the_quadrangle_as_a_host_for_k_3(capsys, tmp_path):
    host = tmp_path / "w2.graph"
    host.write_text(format_graph(symplectic_quadrangle_oracle()))
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "3", "--in", str(host)])
    assert (code, stdout) == (0, "ok bipartite 3-regular girth 8\n")
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "4", "--in", str(host)])
    assert (code, stdout) == (1, "violation: girth 8 is not greater than 8\n")
    code, stdout, _ = run_cli(capsys, ["check", "lemma6", "--in", str(host)])
    assert (code, stdout) == (0, "ok 288 matchings >= bound 10461394944/244140625\n")


def test_cli_passes_the_order_3_quadrangle_and_refuses_its_permanent(capsys, tmp_path):
    host = tmp_path / "w3.graph"
    host.write_text(format_graph(symplectic_quadrangle_3_oracle()))
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "3", "--in", str(host)])
    assert (code, stdout) == (0, "ok bipartite 4-regular girth 8\n")
    for argv in (["check", "lemma6", "--in", str(host)], ["count", "matchings", "--in", str(host)]):
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (2, ""), argv
        errors, manifest = only_manifest(stderr, 2)
        assert errors == ["error: the permanent is limited to m <= 26, got 40"], argv
        assert manifest["command"] == " ".join(argv[:2]) and list(manifest["inputs"]) == [str(host)]


def test_cli_c2kfree_on_the_empty_graph(capsys, tmp_path):
    empty = tmp_path / "empty.graph"
    empty.write_text("graph 0 0\n")
    code, stdout, _ = run_cli(capsys, ["verify", "c2kfree", "--k", "2", "--in", str(empty)])
    assert code == 0
    assert stdout == "ok bipartite 0-regular girth inf\n"


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


def test_cli_reduce_paths_to_matchings_k3(capsys, tmp_path):
    # both paths have the identity's triple for k = 3 (two classes swap blocks),
    # so stripping leaves matchings on the 2 * 27/3 - 2 = 16 block ends
    infile = tmp_path / "pair.paths"
    outfile = tmp_path / "pair.matchings"
    swapped = (1, 2, 3, 4, 5, 6, 16, 17, 18, 10, 11, 12, 22, 23, 24, 7, 8, 9,
               19, 20, 21, 13, 14, 15, 25, 26, 27)
    infile.write_text(format_paths([HamPath(range(1, 28)), HamPath(swapped)]))
    code, stdout, _ = run_cli(
        capsys,
        ["reduce", "paths-to-matchings", "--k", "3", "--in", str(infile), "--out", str(outfile)],
    )
    assert code == 0
    assert stdout == "kept 2 of 2 members on 16 vertices\n"
    code, stdout, _ = run_cli(
        capsys, ["verify", "creating", "--k", "3", "--kind", "matchings", "--in", str(outfile)]
    )
    assert code == 0
    assert stdout == "ok 2 members, 1 pairs create length 6\n"


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


def only_manifest(stderr, code):
    # the whole of stderr past any error line is one manifest with this exit code
    rows = stderr.splitlines()
    assert sum(row.startswith("{") for row in rows) == 1 and rows[-1].startswith("{")
    manifest = manifest_of(stderr)
    assert manifest["exit_code"] == code
    return rows[:-1], manifest


def test_cli_refuses_k_below_two_and_kmax_below_k(capsys, tmp_path, monkeypatch):
    family = str(tmp_path / "family.paths")
    out = tmp_path / "out.matchings"
    for argv in (
        ["verify", "creating", "--kind", "paths", "--k", "1", "--in", family],
        ["reduce", "paths-to-matchings", "--k", "1", "--in", family, "--out", str(out)],
        ["check", "claim4", "--k", "1", "--in", family],
    ):
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (2, ""), argv
        errors, manifest = only_manifest(stderr, 2)
        assert errors == ["error: --k must be at least 2, got 1"], argv
        assert manifest["inputs"] == manifest["outputs"] == {}
    assert not out.exists()
    code, stdout, stderr = run_cli(capsys, ["bounds", "--k", "3", "--kmax", "2"])
    assert (code, stdout) == (2, "")
    assert only_manifest(stderr, 2)[0] == ["error: --kmax must be at least --k, got 2 < 3"]
    # a table of more than MAX_BOUNDS_ROWS rows is refused before any row is built
    code, stdout, stderr = run_cli(capsys, ["bounds", "--k", "2", "--kmax", "100000000"])
    assert (code, stdout) == (2, "")
    assert only_manifest(stderr, 2)[0] == ["error: the table is limited to 10000 rows, got 99999999"]
    monkeypatch.setattr(cli, "MAX_BOUNDS_ROWS", 3)
    assert run_cli(capsys, ["bounds", "--k", "2", "--kmax", "4"])[0] == 0
    code, stdout, stderr = run_cli(capsys, ["bounds", "--k", "2", "--kmax", "5"])
    assert (code, stdout) == (2, "")
    assert only_manifest(stderr, 2)[0] == ["error: the table is limited to 3 rows, got 4"]


def test_cli_c2kfree_names_the_first_failed_property(capsys, tmp_path):
    triangle = tmp_path / "triangle.graph"
    triangle.write_text(format_graph(LabeledGraph(3, [(1, 2), (2, 3), (1, 3)])))
    path = tmp_path / "path.graph"
    path.write_text(format_graph(LabeledGraph(4, [(1, 2), (2, 3), (3, 4)])))
    for infile, line in (
        (triangle, "violation: graph is not bipartite\n"),
        (path, "violation: graph is not regular\n"),
    ):
        code, stdout, stderr = run_cli(capsys, ["verify", "c2kfree", "--k", "2", "--in", str(infile)])
        assert (code, stdout) == (1, line)
        errors, manifest = only_manifest(stderr, 1)
        assert errors == [] and list(manifest["inputs"]) == [str(infile)]


def test_cli_lemma6_and_claim4_report_a_violation(capsys, tmp_path, monkeypatch):
    # neither can fail on real input, so the library calls are replaced on the cli module
    from fractions import Fraction

    from cyclecreate.counting import MatchingBoundReport

    k33 = tmp_path / "k33.graph"
    k33.write_text(format_graph(LabeledGraph(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])))
    report = MatchingBoundReport(3, 3, 5, Fraction(6), True, False)
    monkeypatch.setattr(cli, "check_regular_matching_bound", lambda g: report)
    code, stdout, stderr = run_cli(capsys, ["check", "lemma6", "--in", str(k33)])
    assert (code, stdout) == (1, "violation: 5 matchings < bound 6/1\n")
    assert only_manifest(stderr, 1)[0] == []

    pair = tmp_path / "pair.paths"
    pair.write_text(format_paths([IDENTITY_12, SWAPPED_MIDDLE_12]))
    monkeypatch.setattr(cli, "verify_fixed_edges_unused", lambda a, b, k: False)
    code, stdout, stderr = run_cli(capsys, ["check", "claim4", "--k", "2", "--in", str(pair)])
    assert code == 1
    assert stdout == "violation: members 1 and 2 use a shared block edge in a cycle of length 4\n"
    assert only_manifest(stderr, 1)[0] == []


def test_cli_check_claim7(capsys):
    code, stdout, _ = run_cli(capsys, ["check", "claim7", "--m", "3"])
    assert code == 0
    assert stdout == "ok 36 ordered pairs checked\n"
    code, _, stderr = run_cli(capsys, ["check", "claim7", "--m", "7"])
    assert code == 2
    assert "error: --m must be at most 6" in stderr


def test_cli_check_claim7_reports_the_first_violating_ordered_pair(capsys, monkeypatch):
    # a wrong encoding for the permutations that start with 2, so the claim fails
    def encode(p):
        return perm_to_matching(Permutation(p.images[::-1]) if p(1) == 2 else p)

    perms = enumerate_permutations(4)
    expected = next(
        f"violation: permutations {p.images} and {q.images}\n"
        for p in perms
        for q in perms
        if reversing_oracle(p, q) != is_creating(encode(p), encode(q), 4)
    )
    monkeypatch.setattr(cli, "perm_to_matching", encode)
    code, stdout, _ = run_cli(capsys, ["check", "claim7", "--m", "4"])
    assert code == 1
    assert stdout == expected


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

    # a cycle search deeper than Python's recursion limit is refused like an
    # enumeration cap: the union of these two paths is the square of a path,
    # so the search branches at every vertex of its first descent
    big = tmp_path / "big.paths"
    big.write_text(format_paths(SQUARE_OF_A_PATH))
    code, stdout, stderr = run_cli(
        capsys, ["verify", "creating", "--kind", "paths", "--k", "600", "--in", str(big)]
    )
    assert code == 2 and stdout == ""
    assert stderr.startswith("error: maximum recursion depth exceeded")
    assert manifest_of(stderr)["exit_code"] == 2
    assert sum(row.startswith("{") for row in stderr.splitlines()) == 1

    # argparse usage errors: an unknown option, no command, a missing required option
    for argv, error in (
        (["--threads", "2", "bounds", "--k", "2"], "unrecognized arguments: --threads"),
        ([], "the following arguments are required: command"),
        (["bounds"], "the following arguments are required: --k"),
    ):
        code, stdout, stderr = run_cli(capsys, argv)
        assert code == 2, argv
        assert stdout == ""
        assert "usage: cyclecreate" in stderr
        assert f"error: {error}\n" in stderr
        manifest = manifest_of(stderr)
        assert manifest["exit_code"] == 2
        assert manifest["command"] is None and manifest["parameters"] == {}
        assert sum(row.startswith("{") for row in stderr.splitlines()) == 1

    code, stdout, stderr = run_cli(capsys, ["--help"])
    assert code == 0 and stdout.startswith("usage: cyclecreate")
    manifest = json.loads(stderr)  # the manifest is all of stderr
    assert manifest["command"] is None and manifest["exit_code"] == 0


SUBCOMMANDS = {
    "construct": ("lower-bound", "plane"),
    "verify": ("creating", "c2kfree"),
    "reduce": ("paths-to-matchings", "shrink"),
    "search": (),
    "count": ("matchings", "permanent"),
    "check": ("lemma6", "claim4", "claim7"),
    "bounds": (),
}


def test_help_and_usage_errors_read_as_the_whole_parser_gives_them(capsys, monkeypatch):
    assert cli._COMMANDS == tuple(SUBCOMMANDS)
    cases = [["--help"], ["-h"], [], ["nosuch"], ["--k", "2"], ["search", "--help", "--nosuch"]]
    for command, subcommands in SUBCOMMANDS.items():
        cases += [[command, "--help"], [command], [command, "--nosuch"], [command, "nosuch"]]
        cases += [[command, sub, flag] for sub in subcommands for flag in ("--help", "--nosuch")]
    cases += [
        ["search", "Q", "--n", "4"],
        ["search", "H", "--n", "4", "--k", "4", "extra"],
        ["bounds", "--k", "two"],
        ["bounds", "--k", "2", "--k"],
        ["construct", "plane", "--q", "2", "--target-n", "14", "--out", "x"],
        ["verify", "creating", "--k", "2", "--kind", "graphs", "--in", "x"],
    ]

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, out, re.sub(r'"wall_time_s": [0-9.e-]+', "", err)

    real, built = cli._build_parser, []
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(real(command)) or built[-1])
    alone = [run(argv) for argv in cases]
    # a command given first gets its subtree alone
    commands = [argv[0] if argv and argv[0] in SUBCOMMANDS else None for argv in cases]
    assert [len(parser._subparsers._group_actions[0].choices) for parser in built] == [
        1 if command else len(SUBCOMMANDS) for command in commands
    ]
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: real())
    for argv, got in zip(cases, alone):
        assert got == run(argv), argv
        assert got[0] in (0, 2) and (got[0] == 0) == ("--help" in argv or "-h" in argv), argv


# ------------------------------------------------------------
# the plain-argv matcher, the manifest encoder and the digest
# ------------------------------------------------------------

# (command path, arguments) for every command in the table
LEAVES = [
    ([command, *([sub] if sub else [])], arguments)
    for command, (_, subs) in cli._TABLE.items()
    for sub, (_, _, arguments) in subs.items()
]
# a required group is a list of arguments, any other argument a (flag, keywords) pair
MEMBERS = [member for _, arguments in LEAVES for a in arguments for member in (a if isinstance(a, list) else [a])]
# every token the table names, and tokens that only argparse reads, or refuses
TOKENS = sorted(
    {token for path, _ in LEAVES for token in path}
    | {flag for flag, _ in MEMBERS}
    | {choice for _, keywords in MEMBERS for choice in keywords.get("choices", ())}
    | {"-h", "--help", "--", "-", "", "-3", "٣", "３", "²", "1_0", "0x1", "Q", "graphs", "extra"}
)
hypothesis_settings = settings(derandomize=True, database=None, deadline=None, max_examples=400)


def value_of(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"])
    if keywords.get("type") is int:
        return st.integers(0, 10**30).map(str)
    return st.text(max_size=8).filter(lambda text: not text.startswith("-"))


@st.composite
def plain_argvs(draw):
    """An argv of the plain form: the command path, its positional, then each
    required option, one of a required group and any others, in any order."""
    path, arguments = draw(st.sampled_from(LEAVES))
    positionals, options = [], []
    for argument in arguments:
        flag, keywords = draw(st.sampled_from(argument)) if isinstance(argument, list) else argument
        if not flag.startswith("-"):
            positionals.append(draw(value_of(keywords)))
        elif keywords.get("required") or isinstance(argument, list) or draw(st.booleans()):
            switch = keywords.get("action") == "store_true"
            options.append([flag] if switch else [flag, draw(value_of(keywords))])
    return path + positionals + [token for option in draw(st.permutations(options)) for token in option]


@st.composite
def mutated_argvs(draw):
    """A plain argv after up to three edits: a token dropped, repeated, moved,
    inserted, abbreviated, joined to the next with "=", or negated."""
    argv = draw(plain_argvs())
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("drop", "repeat", "move", "insert", "abbreviate", "join", "negate")))
        at = draw(st.integers(0, len(argv)))
        if edit == "insert":
            argv.insert(at, draw(st.sampled_from(TOKENS) | st.text(max_size=4)))
        elif at < len(argv):
            token = argv[at]
            if edit == "drop":
                del argv[at]
            elif edit == "repeat":
                argv.insert(at, token)
            elif edit == "move":
                argv.insert(draw(st.integers(0, len(argv))), argv.pop(at))
            elif edit == "abbreviate":
                argv[at] = token[: draw(st.integers(0, len(token)))]
            elif edit == "join" and at + 1 < len(argv):
                argv[at: at + 2] = [f"{token}={argv[at + 1]}"]
            elif edit == "negate":
                argv[at] = "-" + token
    return argv


def by_handler_name(namespace):
    values = vars(namespace)
    return {**values, "handler": values["handler"].__name__}


@pytest.mark.usefixtures("hypothesis_home")
def test_plain_argv_reads_as_argparse_or_is_declined():
    parser = cli._build_parser()

    @hypothesis_settings
    @given(plain_argvs())
    def accepted(argv):
        plain = cli._plain(argv)
        assert plain is not None, argv
        assert by_handler_name(plain) == by_handler_name(parser.parse_args(argv))

    @hypothesis_settings
    @given(mutated_argvs())
    def accepted_or_declined(argv):
        plain = cli._plain(argv)
        if plain is not None:
            # an argv that argparse refuses would end here in SystemExit
            assert by_handler_name(plain) == by_handler_name(parser.parse_args(argv)), argv

    accepted()
    accepted_or_declined()


def test_plain_argv_declines_what_only_argparse_reads():
    for argv in (
        ["-h"], ["bounds", "-h"], ["bounds", "--k=2"], ["bounds", "--k", "2", "--dec"],
        ["bounds", "--k", "2", "--k", "3"], ["bounds", "--k", "-3"], ["bounds", "--k", "٣"],
        ["bounds", "--k", "1_0"], ["bounds", "--k", "2", "extra"], ["bounds", "--k", "2", "--kmax"],
        ["bounds", "--k", "1" * 5000],  # more digits than int() converts
        ["search", "--n", "4", "H"], ["search", "Q", "--n", "4"], ["search", "H", "H", "--n", "4"],
        ["construct", "plane", "--out", "x"], ["construct", "plane", "--q", "3", "--target-n", "14", "--out", "x"],
        ["verify", "creating", "--k", "2", "--kind", "graphs", "--in", "x"], ["verify", "--k", "2"],
        ["construct", "plane", "--q", "3", "--out", "-"], [], ["nosuch"], ["--k", "2"],
    ):
        assert cli._plain(argv) is None, argv


def load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_workload_and_readme_argv_is_plain(tmp_path, monkeypatch):
    bench = README.parent / "perfbench"
    # the workloads import the benchmark's own oracles, not those of the tests
    monkeypatch.setitem(sys.modules, "oracles", load(bench / "oracles.py"))
    workloads = load(bench / "workloads.py")
    argvs = [workloads.SETUP_JOB["argv"]] + [
        job["argv"]
        for name, build in workloads.WORKLOADS.items()
        for job in build(random.Random(f"{name}/1"), tmp_path)
    ]
    argvs = [argv[2:] for argv in argvs if argv[:2] == workloads.CLI]
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## File formats")]
    block = re.search(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    argvs += [shlex.split(line)[1:] for line in block.splitlines()]
    assert len(argvs) > 40
    parser = cli._build_parser()
    for argv in argvs:
        plain = cli._plain(argv)
        assert plain is not None, argv
        assert by_handler_name(plain) == by_handler_name(parser.parse_args(argv))


# text with quotes, backslashes, control and non-BMP characters, and the lone
# surrogates that surrogateescape makes of argv bytes that are not UTF-8
ANY_TEXT = st.text(
    st.characters(exclude_categories=()) | st.sampled_from('"\\\x00\x1f\x7f\u2028\U000100ff\U0001f600\ud800\udcff'),
    max_size=12,
)


@pytest.mark.usefixtures("hypothesis_home")
def test_manifest_line_is_json_dumps_with_sorted_keys():
    digests = st.dictionaries(ANY_TEXT, st.text("0123456789abcdef", min_size=64, max_size=64), max_size=3)

    @settings(hypothesis_settings, max_examples=150)
    @given(st.fixed_dictionaries({
        "command": st.none() | ANY_TEXT,
        "parameters": st.dictionaries(ANY_TEXT, st.booleans() | st.integers() | ANY_TEXT, max_size=4),
        "inputs": digests,
        "outputs": digests,
        "exit_code": st.none() | st.integers(-3, 3),
        "wall_time_s": st.floats(min_value=0, allow_infinity=False).map(lambda t: round(t, 6)),
        "version": ANY_TEXT,
    }))
    def check(manifest):
        assert cli._encode(manifest) == json.dumps(manifest, sort_keys=True)

    check()


@pytest.mark.usefixtures("hypothesis_home")
def test_digest_is_sha256_on_the_builtin_and_the_hashlib_route(monkeypatch):
    @hypothesis_settings
    @given(st.binary(max_size=300))
    def check(data):
        assert cli._sha256(data) == hashlib.sha256(data).hexdigest()

    check()
    # without CPython's builtin modules (a FIPS build, say) the digest comes from hashlib
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    real, calls = hashlib.sha256, []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or real(data))
    check()
    assert calls


def test_cli_refuses_sizes_past_the_caps(capsys, tmp_path):
    # the permanent of a 27 x 27 matrix, and the q = 5 plane (m = 31) through both graph commands
    matrix = tmp_path / "ones.matrix"
    matrix.write_text(format_matrix(BiadjacencyMatrix([[1] * 27] * 27)))
    # I + P: every line has two nonzero entries, but the cap applies to the input size
    sparse = tmp_path / "sparse.matrix"
    sparse.write_text(
        format_matrix(BiadjacencyMatrix([[int((j - i) % 27 < 2) for j in range(27)] for i in range(27)]))
    )
    plane = tmp_path / "plane.graph"
    assert run_cli(capsys, ["construct", "plane", "--q", "5", "--out", str(plane)])[0] == 0
    for argv, m in (
        (["count", "permanent", "--in", str(matrix)], 27),
        (["count", "permanent", "--in", str(sparse)], 27),
        (["count", "matchings", "--in", str(plane)], 31),
        (["check", "lemma6", "--in", str(plane)], 31),
    ):
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (2, ""), argv
        assert stderr.splitlines()[0] == f"error: the permanent is limited to m <= 26, got {m}"
        manifest = manifest_of(stderr)
        assert manifest["exit_code"] == 2 and list(manifest["inputs"]) == [argv[-1]]

    out = tmp_path / "family.paths"
    code, stdout, stderr = run_cli(
        capsys, ["construct", "lower-bound", "--n", "21", "--k", "2", "--out", str(out)]
    )
    assert (code, stdout) == (2, "")
    assert stderr.splitlines()[0] == "error: the family is limited to (n-1)/k <= 9, got 10"
    assert manifest_of(stderr)["exit_code"] == 2 and manifest_of(stderr)["outputs"] == {}
    assert not out.exists()
    # nine blocks of 455 labels (9! paths of 4,096 labels), and n past the file cap
    for n, k, error in (
        ("4096", "455", "((n-1)/k)! * n <= 6894720 labels, got 1486356480"),
        ("60001", "7500", "n <= 4096, got 60001"),
    ):
        argv = ["construct", "lower-bound", "--n", n, "--k", k, "--out", str(out)]
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (2, "")
        errors, manifest = only_manifest(stderr, 2)
        assert errors == [f"error: the family is limited to {error}"] and manifest["outputs"] == {}
        assert not out.exists()

    # a plane order past the cap, prime or not, before any work
    for q in ("37", "1000003"):
        big = tmp_path / "big.graph"
        code, stdout, stderr = run_cli(capsys, ["construct", "plane", "--q", q, "--out", str(big)])
        assert (code, stdout) == (2, "")
        assert stderr.splitlines()[0] == f"error: the plane order is limited to q <= 31, got {q}"
        assert manifest_of(stderr)["exit_code"] == 2 and manifest_of(stderr)["outputs"] == {}
        assert not big.exists()

    # a 40,000-vertex perfect matching as a graph, and paths and matchings past the vertex cap
    n = 40000
    graph = tmp_path / "matching.graph"
    graph.write_text(f"graph {n} {n // 2}\n" + "".join(f"{v} {v + 1}\n" for v in range(1, n, 2)))
    paths = tmp_path / "big.paths"
    paths.write_text(f"paths 4097 1\n{' '.join(map(str, range(1, 4098)))}\n")
    matchings = tmp_path / "big.matchings"
    matchings.write_text("matchings 4098 1\n" + " ".join(f"{v}-{v + 1}" for v in range(1, 4098, 2)) + "\n")
    for argv, got in (
        (["verify", "c2kfree", "--k", "2", "--in", str(graph)], n),
        (["count", "matchings", "--in", str(graph)], n),
        (["verify", "creating", "--kind", "paths", "--k", "2", "--in", str(paths)], 4097),
        (["verify", "creating", "--kind", "matchings", "--k", "2", "--in", str(matchings)], 4098),
    ):
        code, stdout, stderr = run_cli(capsys, argv)
        assert (code, stdout) == (2, ""), argv
        assert stderr.splitlines()[0] == f"error: line 1: the vertex count is limited to n <= 4096, got {got}"
        manifest = manifest_of(stderr)
        assert manifest["exit_code"] == 2 and list(manifest["inputs"]) == [argv[-1]]


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


def test_manifest_digests_the_bytes_read_from_a_pipe(capsys):
    # a pipe can be read only once: its digest is of the bytes that went in
    family = format_paths(lower_bound_family(5, 2)).encode()
    read_end, write_end = os.pipe()
    os.write(write_end, family)
    os.close(write_end)
    try:
        piped = f"/dev/fd/{read_end}"
        code, stdout, stderr = run_cli(
            capsys, ["verify", "creating", "--kind", "paths", "--k", "2", "--in", piped]
        )
    finally:
        os.close(read_end)
    assert (code, stdout) == (0, "ok 2 members, 1 pairs create length 4\n")
    assert manifest_of(stderr)["inputs"] == {piped: hashlib.sha256(family).hexdigest()}


def test_manifest_records_a_file_rewritten_in_place_as_read_and_as_written(capsys, tmp_path):
    same = tmp_path / "same.matchings"
    original = format_matchings(K4_MATCHINGS).encode()
    same.write_bytes(original)
    code, _, stderr = run_cli(capsys, ["reduce", "shrink", "--in", str(same), "--out", str(same)])
    assert code == 0 and same.read_bytes() != original
    manifest = manifest_of(stderr)
    assert manifest["inputs"] == {str(same): hashlib.sha256(original).hexdigest()}
    assert manifest["outputs"] == {str(same): hashlib.sha256(same.read_bytes()).hexdigest()}


def test_a_file_that_does_not_decode_is_refused_and_not_recorded(capsys, tmp_path):
    latin = tmp_path / "latin.paths"
    latin.write_bytes(b"paths 3 1\n1 2 3 \xe9\n")
    code, _, stderr = run_cli(capsys, ["verify", "creating", "--kind", "paths", "--k", "2", "--in", str(latin)])
    assert code == 2 and stderr.startswith("error: 'utf-8' codec can't decode byte 0xe9")
    assert manifest_of(stderr)["inputs"] == {}


def test_an_input_past_the_byte_cap_is_refused_and_not_recorded(capsys, tmp_path, monkeypatch):
    # a file of exactly the cap is read, one byte more is refused
    family = tmp_path / "family.paths"
    family.write_text(format_paths(lower_bound_family(5, 2)))
    size = family.stat().st_size
    argv = ["verify", "creating", "--kind", "paths", "--k", "2", "--in", str(family)]
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size)
    assert run_cli(capsys, argv)[:2] == (0, "ok 2 members, 1 pairs create length 4\n")
    monkeypatch.setattr(cli, "MAX_INPUT_BYTES", size - 1)
    code, _, stderr = run_cli(capsys, argv)
    assert code == 2 and manifest_of(stderr)["inputs"] == {}
    assert stderr.startswith(f"error: the input is limited to {size - 1} bytes, got more in {family}\n")


def test_unbounded_requests_exit_2_under_an_address_space_limit(tmp_path):
    # each would allocate gigabytes without the caps; 400 MB is ample for the refusal
    import resource

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (400 * 10**6, 400 * 10**6))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for argv, error in (
        (["construct", "lower-bound", "--n", "4096", "--k", "455", "--out", "family.paths"],
         "the family is limited to ((n-1)/k)! * n <= 6894720 labels, got 1486356480"),
        (["verify", "creating", "--kind", "paths", "--k", "2", "--in", "/dev/zero"],
         "the input is limited to 67108864 bytes, got more in /dev/zero"),
        (["bounds", "--k", "2", "--kmax", "100000000"], "the table is limited to 10000 rows, got 99999999"),
    ):
        done = subprocess.run(
            [sys.executable, "-m", "cyclecreate", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, preexec_fn=limit, timeout=60,
        )
        assert (done.returncode, done.stdout) == (2, ""), done.stderr
        errors, manifest = only_manifest(done.stderr, 2)
        assert errors == [f"error: {error}"]
        assert manifest["inputs"] == manifest["outputs"] == {}
    assert not (tmp_path / "family.paths").exists()


def test_output_to_stdout_is_written_once_and_digested():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run(
        [sys.executable, "-m", "cyclecreate", "construct", "lower-bound", "--n", "7", "--k", "2",
         "--out", "/dev/stdout"],
        capture_output=True, env=env, timeout=30,
    )
    assert done.returncode == 0
    family = format_paths(lower_bound_family(7, 2)).encode()
    assert done.stdout == family + b"wrote 6 paths on 7 vertices\n"
    assert manifest_of(done.stderr.decode())["outputs"] == {"/dev/stdout": hashlib.sha256(family).hexdigest()}


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


README = Path(__file__).resolve().parent.parent / "README.md"

# golden corpus: the README block's exact stdout and the sha256 of every file
# it writes, line by line; a change that keeps behaviour keeps these bytes
README_DIGESTS = {
    "family.paths": "3f4cfa5403e7ad499b81705585627d158803493f633ff8e96ecf34e005218068",
    "plane.graph": "d8af4f129748cf8d5abb11badbf34cf5a6144d78c9a4e40d64268a49b4253401",
    "pair.matchings": "bf65634c15e7667e02e22b5ea7a48de38732ee3511157404769288bd539d8e9a",
    "smaller.matchings": "6f8c57f7dc696e078e9f8f4b2c705949031170cb022707a6972d8f33597379d7",
}
README_GOLDEN = [
    ("cyclecreate construct lower-bound --n 9 --k 2 --out family.paths",
     "wrote 24 paths on 9 vertices\n", ("family.paths",)),
    ("cyclecreate construct plane --q 3 --out plane.graph",
     "wrote incidence graph of order 3 on 26 vertices\n", ("plane.graph",)),
    ("cyclecreate construct plane --target-n 50 --out plane.graph",
     ("chose order 3 with 26 vertices\n"
      "wrote incidence graph of order 3 on 26 vertices\n"),
     ("plane.graph",)),
    ("cyclecreate verify creating --kind paths --k 2 --in family.paths",
     "ok 24 members, 276 pairs create length 4\n", ()),
    ("cyclecreate verify c2kfree --k 2 --in plane.graph", "ok bipartite 4-regular girth 6\n", ()),
    ("cyclecreate reduce paths-to-matchings --k 2 --in pair.paths --out pair.matchings",
     "kept 2 of 2 members on 10 vertices\n", ("pair.matchings",)),
    ("cyclecreate reduce shrink --in pair.matchings --out smaller.matchings",
     "kept 1 of 2 members, deleted pair 1-2\n", ("smaller.matchings",)),
    ("cyclecreate search H --n 5 --k 3", "10\n", ()),
    ("cyclecreate search H --n 6 --k 5", "10\n", ()),
    ("cyclecreate search M --n 6 --k 4", "3\n", ()),
    ("cyclecreate search RP --n 3", "2\n", ()),
    ("cyclecreate count matchings --in plane.graph", "3852\n", ()),
    ("cyclecreate count permanent --in square.matrix", "2\n", ()),
    ("cyclecreate check lemma6 --in plane.graph",
     "ok 3852 matchings >= bound 32145253230182400/23298085122481\n", ()),
    ("cyclecreate check claim4 --k 2 --in pair.paths", "ok 1 sharing pairs checked\n", ()),
    ("cyclecreate check claim7 --m 4", "ok 576 ordered pairs checked\n", ()),
    ("cyclecreate bounds --k 2 --kmax 10",
     ("k=2 cycle=4 lower=1/2 matching_upper=1/4 path_upper=3/4\n"
      "k=3 cycle=6 lower=1/3 matching_upper=1/3 path_upper=8/9\n"
      "k=4 cycle=8 lower=1/4 matching_upper=2/5 path_upper=19/20\n"
      "k=5 cycle=10 lower=1/5 matching_upper=2/5 path_upper=24/25\n"
      "k=6 cycle=12 lower=1/6 matching_upper=7/16 path_upper=47/48\n"
      "k=7 cycle=14 lower=1/7 matching_upper=4/9 path_upper=62/63\n"
      "k=8 cycle=16 lower=1/8 matching_upper=5/11 path_upper=87/88\n"
      "k=9 cycle=18 lower=1/9 matching_upper=11/24 path_upper=107/108\n"
      "k=10 cycle=20 lower=1/10 matching_upper=13/28 path_upper=139/140\n"),
     ()),
    ("cyclecreate bounds --k 2 --decimal",
     "k=2 cycle=4 lower=0.500000 matching_upper=0.250000 path_upper=0.750000\n", ()),
]


def test_readme_command_line_block_runs_as_written(tmp_path):
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## File formats")]
    block = re.search(r"^```\n(.*?)^```", section, re.MULTILINE | re.DOTALL).group(1)
    commands = block.splitlines()
    hand_written = dict(re.findall(r"^Write `([^`]+)`:\n\n```\n(.*?)^```", text, re.MULTILINE | re.DOTALL))
    assert commands and set(hand_written) == {"pair.paths", "square.matrix"}
    for name, body in hand_written.items():
        (tmp_path / name).write_text(body)
    assert commands == [line for line, _, _ in README_GOLDEN]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    for line, stdout, written in README_GOLDEN:
        program, *argv = shlex.split(line)
        assert program == "cyclecreate"
        done = subprocess.run(
            [sys.executable, "-m", "cyclecreate", *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path,
        )
        assert done.returncode == 0, (line, done.stderr)
        assert done.stdout == stdout, line
        (manifest,) = done.stderr.splitlines()
        manifest = json.loads(manifest)
        assert manifest["exit_code"] == 0, line
        assert manifest["outputs"] == {name: README_DIGESTS[name] for name in written}, line
