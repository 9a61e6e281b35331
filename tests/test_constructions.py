import itertools
from fractions import Fraction
from math import factorial, inf

import pytest

from cyclecreate.constructions import (
    MAX_LOWER_BOUND_BLOCKS,
    MAX_LOWER_BOUND_LABELS,
    MAX_PLANE_ORDER,
    ValidationReport,
    build_noncreating_family,
    choose_plane_order,
    lower_bound_family,
    projective_plane_incidence,
    validate_c2kfree_bipartite_regular,
)
from cyclecreate.counting import check_regular_matching_bound, count_perfect_matchings
from cyclecreate.graphs import verify_pairwise_creating
from cyclecreate.hosts import LabeledGraph, bipartition, girth
from cyclecreate.search import build_compatibility_graph
from oracles import (
    bipartite_matching_count_oracle,
    cycle_lengths_oracle,
    matching_union_components_oracle,
    plane_incidence_oracle,
    symplectic_quadrangle_3_oracle,
    symplectic_quadrangle_oracle,
)


# ------------------------------------------------------------
# slot-permuted families
# ------------------------------------------------------------

def test_lower_bound_family_smallest_cases():
    assert [p.order for p in lower_bound_family(5, 2)] == [
        (1, 2, 3, 4, 5),
        (1, 4, 3, 2, 5),
    ]
    assert [p.order for p in lower_bound_family(7, 3)] == [
        (1, 2, 3, 4, 5, 6, 7),
        (1, 5, 6, 4, 2, 3, 7),
    ]


def test_lower_bound_family_size_and_shape():
    family = lower_bound_family(7, 2)
    assert len(family) == 6  # ((7-1)/2)!
    assert family[0].order == (1, 2, 3, 4, 5, 6, 7)
    for path in family:
        assert path.order[0] == 1 and path.order[-1] == 7
        # pinned vertices sit at their own positions
        for t in range(4):
            assert path.order[2 * t] == 2 * t + 1
    assert len(set(family)) == len(family)


def test_lower_bound_family_is_pairwise_creating():
    for n, k in ((5, 2), (7, 2), (7, 3), (9, 4)):
        family = lower_bound_family(n, k)
        report = verify_pairwise_creating(family, 2 * k)
        assert report.passed, (n, k, report)


def test_lower_bound_family_validation():
    with pytest.raises(ValueError, match="mod k"):
        lower_bound_family(8, 3)
    with pytest.raises(ValueError, match="at least 2"):
        lower_bound_family(5, 1)
    with pytest.raises(ValueError, match="two blocks"):
        lower_bound_family(3, 2)


def test_lower_bound_family_size_guard():
    # 10! paths would take tens of seconds and gigabytes: the guard comes first
    assert MAX_LOWER_BOUND_BLOCKS == 9
    with pytest.raises(ValueError, match=r"^the family is limited to \(n-1\)/k <= 9, got 10$"):
        lower_bound_family(21, 2)
    with pytest.raises(ValueError, match=r"<= 9, got 12$"):
        lower_bound_family(37, 3)


def test_lower_bound_family_vertex_and_label_caps():
    # the block cap alone admits any n: 9! paths of 4,096 labels would hold about 12 GB
    assert MAX_LOWER_BOUND_LABELS == factorial(9) * 19  # n = 19, k = 2: 6,894,720 labels
    with pytest.raises(ValueError, match=r"^the family is limited to n <= 4096, got 60001$"):
        lower_bound_family(60001, 7500)
    with pytest.raises(ValueError, match=r"^the family is limited to n <= 4096, got 4097$"):
        lower_bound_family(4097, 2048)
    labels = r"^the family is limited to \(\(n-1\)/k\)! \* n <= 6894720 labels, got {}$"
    with pytest.raises(ValueError, match=labels.format(1486356480)):
        lower_bound_family(4096, 455)
    with pytest.raises(ValueError, match=labels.format(5040 * 1373)):
        lower_bound_family(1373, 196)
    # the existing checks answer first
    with pytest.raises(ValueError, match=r"<= 9, got 10$"):
        lower_bound_family(40961, 4096)
    with pytest.raises(ValueError, match="mod k"):
        lower_bound_family(60002, 7500)
    assert [path.n for path in lower_bound_family(4095, 2047)] == [4095, 4095]


def test_lower_bound_family_deterministic():
    assert lower_bound_family(9, 2) == lower_bound_family(9, 2)


# ------------------------------------------------------------
# projective plane incidence graphs
# ------------------------------------------------------------

def test_plane_smallest_case():
    plane = projective_plane_incidence(2)
    g = plane.graph
    assert g.n == 14
    assert len(g.edges) == 21
    assert g.degrees() == (3,) * 14
    assert plane.points == tuple(range(1, 8))
    assert plane.lines == tuple(range(8, 15))
    assert girth(g) == 6
    left, right = bipartition(g)
    assert left == plane.points and right == plane.lines


def test_plane_order_three():
    g = projective_plane_incidence(3).graph
    assert g.n == 26
    assert g.degrees() == (4,) * 26
    assert girth(g) == 6


def test_plane_rejects_nonprime_orders():
    for q in (0, 1, 4, 6, 9):
        with pytest.raises(ValueError, match="prime"):
            projective_plane_incidence(q)


def test_plane_order_cap():
    # the cap is checked first, so a huge prime is refused without a primality scan
    for q in (MAX_PLANE_ORDER + 1, 37, 1000003, 10**30):
        with pytest.raises(ValueError, match=rf"^the plane order is limited to q <= 31, got {q}$"):
            projective_plane_incidence(q)
    assert MAX_PLANE_ORDER == 31


def test_plane_edges_equal_the_all_pairs_scan():
    for q in (2, 3, 5, 7, 11, 13):
        assert projective_plane_incidence(q).graph.edges == plane_incidence_oracle(q), q


def test_plane_every_point_pair_shares_one_line():
    plane = projective_plane_incidence(3)
    adj = plane.graph.adjacency
    for i, u in enumerate(plane.points):
        for v in plane.points[i + 1:]:
            common = adj[u] & adj[v]
            assert common.bit_count() == 1, (u, v)


def test_choose_plane_order_examples():
    assert choose_plane_order(14) == (2, 14)
    assert choose_plane_order(100) == (5, 62)
    assert choose_plane_order(120) == (7, 114)
    with pytest.raises(ValueError, match="at least 14"):
        choose_plane_order(13)
    # past the cap, the largest plane allowed
    assert choose_plane_order(1986) == choose_plane_order(10**6) == choose_plane_order(10**30) == (31, 1986)
    assert choose_plane_order(1985) == (29, 1742)


def test_choose_plane_order_fits_and_is_maximal():
    previous = 0
    for n_target in range(14, 160):
        q, vertex_count = choose_plane_order(n_target)
        assert vertex_count == 2 * (q * q + q + 1) <= n_target
        assert q >= previous  # larger budgets never pick smaller planes
        previous = q


# ------------------------------------------------------------
# bipartite / regular / girth screen
# ------------------------------------------------------------

def test_validator_passes_long_even_cycle():
    c6 = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    report = validate_c2kfree_bipartite_regular(c6, 2)
    assert report.passed
    assert report.degree == 2
    assert report.girth == 6
    # girth 6 does not clear the 2k = 6 bar
    assert not validate_c2kfree_bipartite_regular(c6, 3).passed


def test_validator_rejects_each_failure_mode():
    triangle = LabeledGraph(3, [(1, 2), (2, 3), (1, 3)])
    report = validate_c2kfree_bipartite_regular(triangle, 2)
    assert not report.is_bipartite and not report.passed

    star = LabeledGraph(4, [(1, 2), (1, 3), (1, 4)])
    report = validate_c2kfree_bipartite_regular(star, 2)
    assert report.is_bipartite and not report.is_regular and not report.passed
    assert report.degree is None

    square = LabeledGraph(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
    report = validate_c2kfree_bipartite_regular(square, 2)
    assert report.is_bipartite and report.is_regular and report.girth == 4
    assert not report.passed

    with pytest.raises(ValueError):
        validate_c2kfree_bipartite_regular(square, 1)


def test_validator_passes_plane_for_short_cycles():
    g = projective_plane_incidence(3).graph
    assert validate_c2kfree_bipartite_regular(g, 2).passed
    assert not validate_c2kfree_bipartite_regular(g, 3).passed


def test_validator_forest_girth_is_infinite():
    matching_graph = LabeledGraph(4, [(1, 2), (3, 4)])
    report = validate_c2kfree_bipartite_regular(matching_graph, 2)
    assert report.girth == inf
    assert report.passed
    # no vertices: regular of degree 0, not of an undefined degree
    report = validate_c2kfree_bipartite_regular(LabeledGraph(0), 2)
    assert report == ValidationReport(2, True, True, 0, inf, True)


# ------------------------------------------------------------
# a host for k = 3: the symplectic quadrangle W(2), the Tutte 8-cage
# ------------------------------------------------------------

def test_quadrangle_is_a_cubic_bipartite_host_of_girth_8():
    g = symplectic_quadrangle_oracle()
    assert g.n == 30 and len(g.edges) == 45 and set(g.degrees()) == {3}
    assert bipartition(g) == (tuple(range(1, 16)), tuple(range(16, 31)))
    # no cycle shorter than 8, by every simple walk of up to 8 vertices
    assert cycle_lengths_oracle(g, 8) == {8}
    assert girth(g) == 8
    assert validate_c2kfree_bipartite_regular(g, 3) == ValidationReport(3, True, True, 3, 8, True)
    assert validate_c2kfree_bipartite_regular(g, 4) == ValidationReport(4, True, True, 3, 8, False)


def test_quadrangle_matchings_meet_the_regular_bound():
    g = symplectic_quadrangle_oracle()
    assert count_perfect_matchings(g) == bipartite_matching_count_oracle(g, range(1, 16)) == 288
    report = check_regular_matching_bound(g)
    assert (report.half_size, report.degree, report.count) == (15, 3, 288)
    assert report.bound == Fraction(10461394944, 244140625)  # 3^15 15!/15^15
    assert report.doubly_stochastic and report.passed


def test_quadrangle_matchings_pairwise_create_no_6_cycle():
    # the k = 3 analogue of acceptance criterion 7: two matchings of a host
    # of girth 8 never create a 6-cycle
    family = build_noncreating_family(symplectic_quadrangle_oracle(), 3)
    assert len(family) == 288 and len(set(family)) == 288
    assert build_compatibility_graph(family, 6).edge_count == 0
    pairs = 0
    for m1, m2 in itertools.combinations(family, 2):
        # a union of two perfect matchings has degree at most 2, so a 6-cycle is a whole component
        assert all(len(walk) != 6 for _, walk in matching_union_components_oracle(m1, m2))
        pairs += 1
    assert pairs == 41328


# ------------------------------------------------------------
# a host for k = 3 above the permanent's cap: the symplectic quadrangle W(3)
# ------------------------------------------------------------

def test_quadrangle_of_order_3_is_a_quartic_bipartite_host_of_girth_8():
    g = symplectic_quadrangle_3_oracle()
    assert g.n == 80 and len(g.edges) == 160 and set(g.degrees()) == {4}
    assert bipartition(g) == (tuple(range(1, 41)), tuple(range(41, 81)))
    assert cycle_lengths_oracle(g, 8) == {8}
    assert girth(g) == 8
    assert validate_c2kfree_bipartite_regular(g, 3) == ValidationReport(3, True, True, 4, 8, True)
    assert validate_c2kfree_bipartite_regular(g, 4) == ValidationReport(4, True, True, 4, 8, False)
    # each side has m = 40 vertices: the host passes the screen, but its
    # matchings are not counted above the permanent's cap
    for check in (check_regular_matching_bound, count_perfect_matchings):
        with pytest.raises(ValueError, match=r"^the permanent is limited to m <= 26, got 40$"):
            check(g)
