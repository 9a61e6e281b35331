import itertools
import random

import pytest

from cyclecreate.graphs import (
    HamPath,
    LabeledGraph,
    PerfectMatching,
    Permutation,
    enumerate_perfect_matchings_of,
    verify_pairwise_creating,
)
from cyclecreate.search import (
    _full_orbit,
    _lex_least_clique,
    build_compatibility_graph,
    enumerate_ham_paths,
    enumerate_perfect_matchings,
    enumerate_permutations,
    exact_h,
    exact_m,
    exact_rp,
    is_reversing,
    max_clique,
    max_independent_set,
    max_triangle_creating_paths,
    perm_to_matching,
)
from oracles import max_clique_oracle, perfect_matchings_oracle, reversing_oracle


def complete_graph(n):
    return LabeledGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


def complement(adjacency):
    full = (1 << len(adjacency)) - 1
    return tuple(full & ~mask & ~(1 << v) for v, mask in enumerate(adjacency))


ENUMERATE = {"H": enumerate_ham_paths, "M": enumerate_perfect_matchings, "RP": enumerate_permutations}


# ------------------------------------------------------------
# enumeration
# ------------------------------------------------------------

def test_enumerate_ham_paths_smallest():
    paths = enumerate_ham_paths(4)
    assert len(paths) == 12
    assert paths[0].order == (1, 2, 3, 4)
    assert paths[1].order == (1, 2, 4, 3)
    assert len(set(paths)) == 12
    assert all(p.order[0] < p.order[-1] for p in paths)
    assert enumerate_ham_paths(2) == [HamPath((1, 2))]


def test_enumerate_ham_paths_covers_both_orientations_once():
    paths = set(enumerate_ham_paths(5))
    for perm in itertools.permutations(range(1, 6)):
        assert HamPath(perm) in paths
    assert len(paths) == 60


def test_enumerate_perfect_matchings_smallest():
    matchings = enumerate_perfect_matchings(4)
    assert [m.sorted_pairs for m in matchings] == [
        ((1, 2), (3, 4)),
        ((1, 3), (2, 4)),
        ((1, 4), (2, 3)),
    ]
    assert len(enumerate_perfect_matchings(6)) == 15
    assert len(enumerate_perfect_matchings(8)) == 105
    assert len(enumerate_perfect_matchings(2)) == 1


def test_enumerate_perfect_matchings_against_count_and_edge_subset_oracle():
    double_factorial = 1
    for n in range(2, 11, 2):
        double_factorial *= n - 1
        listed = [m.sorted_pairs for m in enumerate_perfect_matchings(n)]
        assert len(listed) == len(set(listed)) == double_factorial, n
        assert listed == sorted(listed), n
    assert {m.sorted_pairs for m in enumerate_perfect_matchings(6)} == (
        perfect_matchings_oracle(complete_graph(6))
    )
    c6 = LabeledGraph(6, [(i, i + 1) for i in range(1, 6)] + [(1, 6)])
    assert {m.sorted_pairs for m in enumerate_perfect_matchings_of(c6)} == perfect_matchings_oracle(c6)


def test_enumeration_size_guards():
    with pytest.raises(ValueError):
        enumerate_ham_paths(9)
    with pytest.raises(ValueError):
        enumerate_ham_paths(1)
    with pytest.raises(ValueError):
        enumerate_perfect_matchings(5)
    with pytest.raises(ValueError):
        enumerate_perfect_matchings(14)
    with pytest.raises(ValueError):
        enumerate_permutations(0)
    with pytest.raises(ValueError):
        enumerate_permutations(9)


def test_enumeration_env_limit(monkeypatch):
    monkeypatch.setenv("CYCLECREATE_MAX_ENUM", "10")
    with pytest.raises(ValueError, match="CYCLECREATE_MAX_ENUM"):
        enumerate_ham_paths(5)
    assert len(enumerate_ham_paths(3)) == 3
    monkeypatch.setenv("CYCLECREATE_MAX_ENUM", "not-a-number")
    with pytest.raises(ValueError, match="integer"):
        enumerate_ham_paths(3)
    monkeypatch.setenv("CYCLECREATE_MAX_ENUM", "0")
    with pytest.raises(ValueError, match="positive"):
        enumerate_ham_paths(3)


# ------------------------------------------------------------
# reversing permutations and their matchings
# ------------------------------------------------------------

def test_is_reversing_matches_definition_exhaustively():
    for m in (3, 4):
        perms = enumerate_permutations(m)
        for p1, p2 in itertools.product(perms, repeat=2):
            assert is_reversing(p1, p2) == reversing_oracle(p1, p2), (p1.images, p2.images)


def test_is_reversing_random_larger():
    rng = random.Random(41001)
    for _ in range(300):
        images1 = list(range(1, 8))
        images2 = list(range(1, 8))
        rng.shuffle(images1)
        rng.shuffle(images2)
        p1, p2 = Permutation(images1), Permutation(images2)
        assert is_reversing(p1, p2) == reversing_oracle(p1, p2)
    with pytest.raises(ValueError):
        is_reversing(Permutation((1, 2)), Permutation((1, 2, 3)))


def test_perm_to_matching_layout():
    identity = Permutation((1, 2, 3))
    assert perm_to_matching(identity).sorted_pairs == ((1, 4), (2, 5), (3, 6))
    swap = Permutation((2, 1))
    assert perm_to_matching(swap).sorted_pairs == ((1, 4), (2, 3))


# ------------------------------------------------------------
# compatibility graphs
# ------------------------------------------------------------

def test_build_compatibility_graph_shape():
    matchings = enumerate_perfect_matchings(4)
    cg = build_compatibility_graph(matchings, 4)
    assert cg.size == 3
    assert cg.edge_count == 3  # any two distinct matchings of K4 form a 4-cycle
    assert cg.relation == 4


def test_build_compatibility_graph_kind_errors():
    with pytest.raises(TypeError):
        build_compatibility_graph(
            [HamPath((1, 2, 3, 4)), PerfectMatching([(1, 2), (3, 4)])], 4
        )
    with pytest.raises(ValueError, match="reversing"):
        build_compatibility_graph(enumerate_permutations(3), 4)
    with pytest.raises(ValueError, match="cycle length"):
        build_compatibility_graph(enumerate_perfect_matchings(4), "reversing")
    k4 = PerfectMatching([(1, 2), (3, 4)])
    k6 = PerfectMatching([(1, 2), (3, 4), (5, 6)])
    with pytest.raises(ValueError, match=r"mismatched ground sets \(n=4 vs n=6\)"):
        build_compatibility_graph([k4, k4, k6], 4)


# ------------------------------------------------------------
# clique search against the subset oracle
# ------------------------------------------------------------

def test_max_clique_small_compatibility_graphs():
    cases = [
        build_compatibility_graph(enumerate_ham_paths(4), 3),
        build_compatibility_graph(enumerate_ham_paths(4), 4),
        build_compatibility_graph(enumerate_perfect_matchings(6), 4),
        build_compatibility_graph(enumerate_perfect_matchings(6), 6),
        build_compatibility_graph(enumerate_permutations(3), "reversing"),
    ]
    for cg in cases:
        expected = max_clique_oracle(cg.adjacency, cg.size)
        assert max_clique(cg) == expected, cg.relation


def test_max_clique_random_subfamilies():
    rng = random.Random(41002)
    pool = enumerate_perfect_matchings(8)
    for _ in range(10):
        sample = rng.sample(pool, 14)
        cg = build_compatibility_graph(sample, 4)
        assert max_clique(cg) == max_clique_oracle(cg.adjacency, cg.size)


def test_lex_least_clique_on_random_and_extreme_graphs():
    def masks(n, related):
        return tuple(
            sum(1 << w for w in range(n) if w != v and related(min(v, w), max(v, w)))
            for v in range(n)
        )

    rng = random.Random(41003)
    cases = [masks(0, None), masks(10, lambda v, w: False), masks(12, lambda v, w: True)]
    # four disjoint triangles {0, 4, 8}, {1, 5, 9}, ...: every triangle is a maximum clique
    cases.append(masks(12, lambda v, w: v % 4 == w % 4))
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        for n in range(1, 15):
            edges = {(v, w) for v in range(n) for w in range(v + 1, n) if rng.random() < p}
            cases.append(masks(n, lambda v, w: (v, w) in edges))
    for adjacency in cases:
        witness = _lex_least_clique(adjacency, len(adjacency))
        assert (len(witness), witness) == max_clique_oracle(adjacency, len(adjacency)), adjacency


def test_max_independent_set_against_oracle():
    cg = build_compatibility_graph(enumerate_perfect_matchings(6), 4)
    expected = max_clique_oracle(complement(cg.adjacency), cg.size)
    assert max_independent_set(cg) == expected


# ------------------------------------------------------------
# the rooted route on full enumerations
# ------------------------------------------------------------

FULL_ORBITS = (
    [("H", n, length) for n in (4, 5) for length in (3, 4, 5)]
    + [("M", n, length) for n in (4, 6, 8) for length in (4, 6, 8)]
    + [("RP", m, "reversing") for m in (3, 4, 5)]
)


def test_rooted_route_equals_unrooted_search_on_full_orbits():
    rng = random.Random(41004)
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        orders = [objects] + [rng.sample(objects, len(objects)) for _ in range(3)]
        for order in orders:
            cg = build_compatibility_graph(order, relation)
            assert _full_orbit(cg.objects), (target, n, relation)
            clique = _lex_least_clique(cg.adjacency, cg.size)
            independent = _lex_least_clique(complement(cg.adjacency), cg.size)
            assert max_clique(cg) == (len(clique), clique), (target, n, relation)
            assert max_independent_set(cg) == (len(independent), independent), (target, n, relation)


def test_rooted_route_on_circulant_graphs():
    # i ~ j iff j - i or i - j lies in the connection set mod n: a Cayley graph
    # of Z_n, so it and its complement are vertex-transitive
    rng = random.Random(41005)
    for n in range(1, 15):
        for _ in range(3):
            steps = {s for s in range(1, n // 2 + 1) if rng.random() < 0.5}
            adjacency = tuple(
                sum(1 << w for w in {(v + sign * s) % n for s in steps for sign in (1, -1)})
                for v in range(n)
            )
            for graph in (adjacency, complement(adjacency)):
                witness = _lex_least_clique(graph, n, rooted=True)
                assert (len(witness), witness) == max_clique_oracle(graph, n), (n, steps)


def test_families_that_are_not_full_orbits_take_the_general_route():
    paths = enumerate_ham_paths(4)
    missing = paths[:7] + paths[8:]
    duplicated = paths[:7] + [paths[0]] + paths[8:]
    # as many graphs on 1..3 as there are permutations of 1..3
    triangle = [(1, 2), (1, 3), (2, 3)]
    graphs = [LabeledGraph(3, edges) for r in (1, 2) for edges in itertools.combinations(triangle, r)]
    families = [
        (missing, 4),
        (duplicated, 4),
        (enumerate_permutations(3)[:3] + enumerate_permutations(3)[4:], "reversing"),
        (enumerate_perfect_matchings(6)[1:], 6),
        ([p.graph for p in paths], 4),
        (graphs, 3),
        ([], 4),
        ([HamPath((1, 2))], 3),
        ([Permutation((1,))], "reversing"),
    ]
    for objects, relation in families:
        cg = build_compatibility_graph(objects, relation)
        assert not _full_orbit(cg.objects), (objects, relation)
        assert max_clique(cg) == max_clique_oracle(cg.adjacency, cg.size), (objects, relation)
        expected = max_clique_oracle(complement(cg.adjacency), cg.size)
        assert max_independent_set(cg) == expected, (objects, relation)
    # on these the rooted route would miss the optimum, so the guard matters
    for objects in (missing, duplicated):
        cg = build_compatibility_graph(objects, 4)
        assert len(_lex_least_clique(cg.adjacency, cg.size, rooted=True)) == 5 < max_clique(cg)[0] == 6


def test_clique_witness_members_are_pairwise_related():
    cg = build_compatibility_graph(enumerate_ham_paths(5), 3)
    size, witness = max_clique(cg)
    family = [cg.objects[i] for i in witness]
    assert len(family) == size
    assert verify_pairwise_creating(family, 3).passed


def test_empty_compatibility_graph():
    cg = build_compatibility_graph([], 4)
    assert max_clique(cg) == (0, ())
    assert max_independent_set(cg) == (0, ())


# ------------------------------------------------------------
# exact extremal values
# ------------------------------------------------------------

def test_exact_h_matches_closed_form_tiny():
    value, witness = exact_h(4, 3)
    assert value == 3 == max_triangle_creating_paths(4)
    assert verify_pairwise_creating(witness, 3).passed


def test_exact_m_complete_graph_on_four():
    value, witness = exact_m(4, 4)
    assert value == 3
    assert set(witness) == set(enumerate_perfect_matchings(4))
    with pytest.raises(ValueError):
        exact_m(4, 3)
    with pytest.raises(ValueError):
        exact_m(4, 2)


def test_exact_rp_small_values():
    assert exact_rp(1)[0] == 1
    assert exact_rp(2)[0] == 2
    value, witness = exact_rp(3)
    assert value == 2
    assert is_reversing(*witness)
    assert exact_rp(3) == exact_rp(3)


def test_closed_form_triangle_values():
    assert [max_triangle_creating_paths(n) for n in range(3, 8)] == [3, 3, 10, 10, 35]
    with pytest.raises(ValueError):
        max_triangle_creating_paths(2)


# Values from perfbench/METRICS.md, with the lexicographically least witnesses
# the search returned when they were pinned; a changed witness fails here.
# RP6 is not in METRICS.md: it was pinned once the unrooted search (16 s) and
# the search rooted at object 0 returned the same witness.
PINNED_SEARCHES = [
    ("M", 8, 4, max_clique, (0, 1, 2, 15, 16, 17, 30, 31, 32)),
    ("M", 8, 6, max_clique, (0, 4, 8, 10, 12)),
    ("M", 8, 8, max_clique, (0, 19, 38, 55, 74, 76, 93)),
    ("H", 5, 4, max_clique, (0, 2, 4, 6, 8, 10, 12, 14, 16, 46, 56, 58)),
    ("H", 5, 5, max_clique, (0, 7, 12, 20, 29, 32, 35, 41, 49, 58)),
    ("RP", 5, "reversing", max_clique, (0, 1, 26, 27, 60, 61, 86, 87)),
    ("RP", 6, "reversing", max_clique, (0, 1, 26, 123, 133, 427, 451, 534, 573, 614, 693, 719)),
    ("M", 8, 4, max_independent_set, (0, 4, 21, 25, 34, 38, 55, 59, 92, 94)),
    ("RP", 5, "reversing", max_independent_set,
     (0, 3, 8, 30, 42, 45, 64, 73, 81, 93, 96, 100, 108)),
]


def test_pinned_exact_values_and_witnesses():
    for target, n, relation, solve, witness in PINNED_SEARCHES:
        cg = build_compatibility_graph(ENUMERATE[target](n), relation)
        assert solve(cg) == (len(witness), witness), (target, n, relation, solve.__name__)
