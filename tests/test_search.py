import itertools
import random

import pytest

from cyclecreate.counting import enumerate_perfect_matchings_of
from cyclecreate.graphs import (
    HamPath,
    LabeledGraph,
    PerfectMatching,
    Permutation,
    verify_pairwise_creating,
)
from cyclecreate.search import (
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
from oracles import max_clique_oracle, reversing_oracle


def complete_graph(n):
    return LabeledGraph(n, [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)])


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


def test_enumerate_perfect_matchings_agrees_with_graph_enumeration():
    direct = {m.sorted_pairs for m in enumerate_perfect_matchings(6)}
    via_graph = {m.sorted_pairs for m in enumerate_perfect_matchings_of(complete_graph(6))}
    assert direct == via_graph


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


def test_max_independent_set_against_oracle():
    cg = build_compatibility_graph(enumerate_perfect_matchings(6), 4)
    complement = tuple(
        ((1 << cg.size) - 1) & ~cg.adjacency[v] & ~(1 << v) for v in range(cg.size)
    )
    expected = max_clique_oracle(complement, cg.size)
    assert max_independent_set(cg) == expected


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
