import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from cyclecreate import counting
from cyclecreate.counting import (
    MAX_PERMANENT_SIZE,
    BiadjacencyMatrix,
    biadjacency,
    check_regular_matching_bound,
    count_perfect_matchings,
    permanent_naive,
    permanent_ryser,
    van_der_waerden_bound,
)
from cyclecreate.constructions import build_noncreating_family, projective_plane_incidence
from cyclecreate.graphs import LabeledGraph, enumerate_perfect_matchings_of, is_creating


def cycle_graph(n):
    return LabeledGraph(n, [(i, i + 1) for i in range(1, n)] + [(1, n)])


def complete_bipartite(a, b):
    return LabeledGraph(
        a + b, [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)]
    )


# ------------------------------------------------------------
# matrix type
# ------------------------------------------------------------

def test_matrix_must_be_square():
    with pytest.raises(ValueError, match="square"):
        BiadjacencyMatrix([(1, 2), (3,)])


def test_matrix_rejects_floats():
    with pytest.raises(TypeError, match="int or Fraction"):
        BiadjacencyMatrix([(1.0,)])
    ok = BiadjacencyMatrix([(1, Fraction(1, 2)), (0, 3)])
    assert ok.m == 2


# ------------------------------------------------------------
# permanents, two routes
# ------------------------------------------------------------

def test_permanent_tiny_and_empty():
    assert permanent_ryser(BiadjacencyMatrix([])) == 1
    assert permanent_naive(BiadjacencyMatrix([])) == 1
    assert permanent_ryser(BiadjacencyMatrix([(7,)])) == 7
    assert permanent_ryser(BiadjacencyMatrix([(1, 2), (3, 4)])) == 1 * 4 + 2 * 3


def test_permanent_two_by_two_closed_form():
    rng = random.Random(51001)
    for _ in range(100):
        a, b, c, d = (rng.randint(-5, 5) for _ in range(4))
        matrix = BiadjacencyMatrix([(a, b), (c, d)])
        assert permanent_ryser(matrix) == a * d + b * c
        assert permanent_naive(matrix) == a * d + b * c


def test_permanent_routes_agree_all_binary_three_by_three():
    for bits in range(1 << 9):
        rows = [
            tuple(bits >> (3 * i + j) & 1 for j in range(3))
            for i in range(3)
        ]
        matrix = BiadjacencyMatrix(rows)
        assert permanent_ryser(matrix) == permanent_naive(matrix), rows


def test_permanent_routes_agree_random_integer_matrices():
    rng = random.Random(51002)
    for m in range(1, 9):
        for trial in range(40 if m <= 6 else 8):
            rows = [
                [rng.randint(-3, 3) for _ in range(m)] for _ in range(m)
            ]
            if trial % 4 == 0:
                rows[rng.randrange(m)] = [0] * m
            matrix = BiadjacencyMatrix(rows)
            result = permanent_ryser(matrix)
            assert type(result) is int
            assert result == permanent_naive(matrix), rows


def test_permanent_routes_agree_random_fraction_matrices():
    rng = random.Random(51003)
    for m in range(1, 9):
        for _ in range(10 if m <= 6 else 3):
            rows = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(m)]
                for _ in range(m)
            ]
            matrix = BiadjacencyMatrix(rows)
            assert permanent_ryser(matrix) == permanent_naive(matrix), rows


# OEIS A000166 (derangements) and A000179 (menage numbers), m = 10, 11, 12, 16, 17, 18
DERANGEMENTS = {
    10: 1334961, 11: 14684570, 12: 176214841,
    16: 7697064251745, 17: 130850092279664, 18: 2355301661033953,
}
MENAGE = {
    10: 439792, 11: 4890741, 12: 59216642,
    16: 2649391469058, 17: 45226435601207, 18: 817056406224416,
}


def zero_diagonals(m, offsets):
    """J with zeros where (column - row) mod m is in offsets."""
    return BiadjacencyMatrix(
        [[0 if (j - i) % m in offsets else 1 for j in range(m)] for i in range(m)]
    )


def test_permanent_closed_forms_above_the_naive_limit():
    # 16, 17 and 18 are the sizes of the benchmark's dense permanents
    for m in (10, 11, 12, 16, 17, 18):
        ones = permanent_ryser(zero_diagonals(m, ()))
        assert type(ones) is int and ones == factorial(m)
        assert permanent_ryser(zero_diagonals(m, (0,))) == DERANGEMENTS[m]
        assert permanent_ryser(zero_diagonals(m, (0, 1))) == MENAGE[m]


def test_glynn_matches_the_definition_on_dense_matrices():
    # called directly, so no sparse line is removed first; m = 1 walks no
    # row and lists none, m = 2 lists none, and every split up to 9 occurs
    rng = random.Random(51005)
    for m in range(10):
        for _ in range(3 if m <= 7 else 1):
            rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(m)] for _ in range(m)]
            result = counting._glynn(rows)
            assert type(result) is int
            assert result == permanent_naive(BiadjacencyMatrix(rows)), rows
            # per(A) = per(60 A) / 60^m: the definition runs on integers,
            # which is much faster than on fractions at m = 9
            rows = [
                [Fraction(rng.choice((-4, -3, -1, 1, 2, 5)), rng.randint(1, 6)) for _ in range(m)]
                for _ in range(m)
            ]
            scaled = BiadjacencyMatrix([[int(60 * entry) for entry in row] for row in rows])
            assert counting._glynn(rows) == Fraction(permanent_naive(scaled), 60 ** m), rows


def ones_on_diagonals(m, offsets, rng):
    """0/1 matrix with ones where (column - row) mod m is in offsets, rows
    and columns shuffled."""
    row_order, col_order = list(range(m)), list(range(m))
    rng.shuffle(row_order)
    rng.shuffle(col_order)
    return BiadjacencyMatrix(
        [[1 if (j - i) % m in offsets else 0 for j in col_order] for i in row_order]
    )


def test_sparse_lines_go_before_glynn(monkeypatch):
    sizes = []
    glynn = counting._glynn

    def spy(rows):
        sizes.append(len(rows))
        return glynn(rows)

    monkeypatch.setattr(counting, "_glynn", spy)
    rng = random.Random(51004)
    # I + P, two ones in every line: removed line by line, Glynn never runs on more than one row
    for m in (16, 17, 18, 26):
        sizes.clear()
        assert permanent_ryser(ones_on_diagonals(m, (0, 1), rng)) == 2
        assert all(size <= 1 for size in sizes), (m, sizes)
    sizes.clear()
    assert count_perfect_matchings(cycle_graph(52)) == 2
    assert all(size <= 1 for size in sizes), sizes
    # J, J - I, J - I - P: no sparse line, so Glynn runs once on the whole matrix
    m = 16
    for offsets, expected in (
        (range(m), factorial(m)),
        (range(1, m), DERANGEMENTS[m]),
        (range(2, m), MENAGE[m]),
    ):
        sizes.clear()
        assert permanent_ryser(ones_on_diagonals(m, offsets, rng)) == expected
        assert sizes == [m]


def test_permanent_of_uniform_doubly_stochastic():
    for m in range(1, 6):
        flat = BiadjacencyMatrix([[Fraction(1, m)] * m for _ in range(m)])
        expected = van_der_waerden_bound(m)
        assert permanent_ryser(flat) == expected == Fraction(factorial(m), m ** m)


def test_naive_permanent_size_guard():
    with pytest.raises(ValueError, match="m <= 9"):
        permanent_naive(BiadjacencyMatrix([[1] * 10] * 10))


def test_permanent_size_guard():
    # 2^26 Glynn steps on the all-ones matrix would take minutes: the guard comes first
    assert MAX_PERMANENT_SIZE == 26
    with pytest.raises(ValueError, match=r"^the permanent is limited to m <= 26, got 27$"):
        permanent_ryser(BiadjacencyMatrix([[1] * 27] * 27))
    # the cap bounds the input, before any sparse line is removed: I + P would go at once
    with pytest.raises(ValueError, match=r"^the permanent is limited to m <= 26, got 27$"):
        permanent_ryser(ones_on_diagonals(27, (0, 1), random.Random(51006)))
    with pytest.raises(ValueError, match=r"m <= 26, got 27$"):
        count_perfect_matchings(complete_bipartite(27, 27))
    with pytest.raises(ValueError, match=r"m <= 26, got 31$"):
        check_regular_matching_bound(projective_plane_incidence(5).graph)


def test_permanent_cap_comes_before_the_matrix(monkeypatch):
    # the m x m matrix grows with m^2 (3,000 edges would build 9 million
    # entries), so a graph past the cap must be refused before it exists
    built = []
    real = counting.BiadjacencyMatrix

    def spy(rows):
        matrix = real(rows)
        built.append(matrix.m)
        return matrix

    monkeypatch.setattr(counting, "BiadjacencyMatrix", spy)
    matching = LabeledGraph(200, [(2 * i - 1, 2 * i) for i in range(1, 101)])
    for solve in (biadjacency, count_perfect_matchings, check_regular_matching_bound):
        with pytest.raises(ValueError, match=r"^the permanent is limited to m <= 26, got 100$"):
            solve(matching)
    # where a graph fails several checks, the first of bipartite, equal
    # classes, (lemma6 only) regular and positive degree, and size answers
    path = LabeledGraph(60, [(v, v + 1) for v in range(1, 60)])
    star = LabeledGraph(61, [(1, v) for v in range(2, 62)])
    cases = (
        (cycle_graph(61), "graph is not bipartite", "graph is not bipartite"),
        (star, "bipartition classes differ in size", "bipartition classes differ in size"),
        (path, "the permanent is limited to m <= 26, got 30", "graph is not regular"),
    )
    for g, counted, checked in cases:
        for solve, message in ((count_perfect_matchings, counted), (check_regular_matching_bound, checked)):
            with pytest.raises(ValueError) as raised:
                solve(g)
            assert str(raised.value).startswith(message), (solve, message)
    assert built == []
    assert count_perfect_matchings(cycle_graph(52)) == 2 and built == [26]


# ------------------------------------------------------------
# bipartite graphs and matching counts
# ------------------------------------------------------------

def test_biadjacency_complete_bipartite():
    matrix, left, right = biadjacency(complete_bipartite(3, 3))
    assert left == (1, 2, 3)
    assert right == (4, 5, 6)
    assert matrix.rows == ((1, 1, 1),) * 3


def test_biadjacency_validation():
    triangle = LabeledGraph(3, [(1, 2), (2, 3), (1, 3)])
    with pytest.raises(ValueError, match="not bipartite"):
        biadjacency(triangle)
    with pytest.raises(ValueError, match="differ in size"):
        biadjacency(LabeledGraph(3, [(1, 2), (1, 3)]))


def test_count_perfect_matchings_known_graphs():
    assert count_perfect_matchings(complete_bipartite(3, 3)) == 6
    assert count_perfect_matchings(cycle_graph(6)) == 2
    assert count_perfect_matchings(cycle_graph(8)) == 2
    path4 = LabeledGraph(4, [(1, 2), (2, 3), (3, 4)])
    assert count_perfect_matchings(path4) == 1
    assert count_perfect_matchings(projective_plane_incidence(2).graph) == 24


def test_count_matches_backtracking_enumeration():
    graphs = [
        complete_bipartite(3, 3),
        cycle_graph(6),
        cycle_graph(8),
        projective_plane_incidence(2).graph,
    ]
    for g in graphs:
        assert count_perfect_matchings(g) == len(enumerate_perfect_matchings_of(g))


def test_enumerate_matchings_of_cycle():
    matchings = enumerate_perfect_matchings_of(cycle_graph(6))
    assert [tuple(sorted(m.edges)) for m in matchings] == [
        ((1, 2), (3, 4), (5, 6)),
        ((1, 6), (2, 3), (4, 5)),
    ]
    assert enumerate_perfect_matchings_of(LabeledGraph(3, [(1, 2), (2, 3)])) == []
    assert len(enumerate_perfect_matchings_of(LabeledGraph(0))) == 1


# ------------------------------------------------------------
# the doubly stochastic bound
# ------------------------------------------------------------

def test_van_der_waerden_bound_values():
    assert van_der_waerden_bound(1) == 1
    assert van_der_waerden_bound(3) == Fraction(2, 9)
    with pytest.raises(ValueError):
        van_der_waerden_bound(0)


def test_matching_bound_complete_bipartite_meets_equality():
    report = check_regular_matching_bound(complete_bipartite(3, 3))
    assert report.half_size == 3 and report.degree == 3
    assert report.count == 6
    assert report.bound == 6  # 3^3 * 3!/3^3, the equality case
    assert report.doubly_stochastic and report.passed


def test_matching_bound_long_cycle():
    report = check_regular_matching_bound(cycle_graph(8))
    assert report.degree == 2 and report.half_size == 4
    assert report.count == 2
    assert report.bound == Fraction(2 ** 4 * factorial(4), 4 ** 4)
    assert report.passed


def test_matching_bound_fails_without_its_hypothesis(monkeypatch):
    # the minimum r^m * m!/m^m holds only for doubly stochastic A/r: with rows
    # and columns summing to 4 on a 2-regular graph, the count alone passes
    ones = BiadjacencyMatrix([[1] * 4] * 4)
    monkeypatch.setattr(counting, "biadjacency", lambda g: (ones, (1, 3, 5, 7), (2, 4, 6, 8)))
    report = check_regular_matching_bound(cycle_graph(8))
    assert report.count == 24 and report.count >= report.bound
    assert not report.doubly_stochastic and not report.passed


def test_matching_bound_validation():
    with pytest.raises(ValueError, match="not regular"):
        check_regular_matching_bound(LabeledGraph(4, [(1, 2), (2, 3), (3, 4)]))
    with pytest.raises(ValueError, match="positive degree"):
        check_regular_matching_bound(LabeledGraph(0))


# ------------------------------------------------------------
# non-creating families from validated hosts
# ------------------------------------------------------------

def test_noncreating_family_from_long_cycle():
    family = build_noncreating_family(cycle_graph(6), 2)
    assert len(family) == 2
    assert not is_creating(family[0], family[1], 4)


def test_noncreating_family_from_plane():
    family = build_noncreating_family(projective_plane_incidence(2).graph, 2)
    assert len(family) == 24
    for m1, m2 in itertools.combinations(family, 2):
        assert not is_creating(m1, m2, 4)


def test_noncreating_family_rejects_short_cycles():
    with pytest.raises(ValueError, match="screen"):
        build_noncreating_family(complete_bipartite(3, 3), 2)
