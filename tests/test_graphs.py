import itertools
import random
from math import inf

import pytest

from cyclecreate.graphs import (
    FamilyReport,
    HamPath,
    LabeledGraph,
    PerfectMatching,
    Permutation,
    bipartition,
    contains_cycle_of_length,
    cycles_of_length,
    girth,
    is_creating,
    matching_union_components,
    union,
    verify_pairwise_creating,
)
from oracles import all_cycles_oracle, cycle_exists_oracle


def random_graph(rng, n, p):
    edges = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if rng.random() < p
    ]
    return LabeledGraph(n, edges)


def random_matching(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return PerfectMatching((labels[i], labels[i + 1]) for i in range(0, n, 2))


def random_path(rng, n):
    labels = list(range(1, n + 1))
    rng.shuffle(labels)
    return HamPath(labels)


# ------------------------------------------------------------
# constructors
# ------------------------------------------------------------

def test_graph_rejects_loops_and_out_of_range():
    with pytest.raises(ValueError):
        LabeledGraph(3, [(1, 1)])
    with pytest.raises(ValueError):
        LabeledGraph(3, [(1, 4)])
    with pytest.raises(ValueError):
        LabeledGraph(-1)


def test_graph_normalizes_edges():
    g = LabeledGraph(4, [(3, 1), (1, 3), (2, 4)])
    assert g.edges == frozenset({(1, 3), (2, 4)})
    assert g.degrees() == (1, 1, 1, 1)


def test_hampath_canonical_orientation():
    assert HamPath((3, 2, 1)) == HamPath((1, 2, 3))
    assert HamPath((3, 2, 1)).order == (1, 2, 3)
    assert HamPath((2, 1, 3)).order == (2, 1, 3)
    assert HamPath((1, 2, 3, 4)).vertex_at(2) == 2
    with pytest.raises(ValueError):
        HamPath((1, 2, 2))
    with pytest.raises(ValueError):
        HamPath((2, 3, 4))
    with pytest.raises(ValueError):
        HamPath((1,))


def test_matching_cover_validation():
    m = PerfectMatching([(2, 1), (3, 4)])
    assert m.n == 4
    assert m.sorted_pairs == ((1, 2), (3, 4))
    assert m.partner[3] == 4
    with pytest.raises(ValueError):
        PerfectMatching([(1, 2), (2, 3)])
    with pytest.raises(ValueError):
        PerfectMatching([(1, 2), (4, 5)])


def test_permutation_basics():
    p = Permutation((2, 3, 1))
    assert p.m == 3
    assert p(1) == 2
    assert p.inverse == (3, 1, 2)
    with pytest.raises(ValueError):
        Permutation((1, 1, 2))


# ------------------------------------------------------------
# union and cycle detection
# ------------------------------------------------------------

def test_union_requires_same_ground_set():
    with pytest.raises(ValueError):
        union(LabeledGraph(3), LabeledGraph(4))
    merged = union(LabeledGraph(3, [(1, 2)]), LabeledGraph(3, [(2, 3)]))
    assert merged.edges == frozenset({(1, 2), (2, 3)})


def test_cycle_detection_on_known_graphs():
    two_paths = union(HamPath((1, 2, 3, 4)).graph, HamPath((1, 3, 2, 4)).graph)
    assert contains_cycle_of_length(two_paths, 4)  # 1-2-4-3
    assert contains_cycle_of_length(two_paths, 3)  # 1-2-3
    pure_c4 = union(PerfectMatching([(1, 2), (3, 4)]).graph, PerfectMatching([(1, 3), (2, 4)]).graph)
    assert contains_cycle_of_length(pure_c4, 4)
    assert not contains_cycle_of_length(pure_c4, 3)
    c6 = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert contains_cycle_of_length(c6, 6)
    assert not contains_cycle_of_length(c6, 4)
    assert not contains_cycle_of_length(c6, 5)
    k4 = LabeledGraph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert contains_cycle_of_length(k4, 3)
    assert contains_cycle_of_length(k4, 4)
    with pytest.raises(ValueError):
        contains_cycle_of_length(k4, 2)
    assert not contains_cycle_of_length(k4, 5)


def test_cycle_detection_matches_subset_oracle():
    rng = random.Random(20210)
    for trial in range(80):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
        for length in range(3, n + 1):
            assert contains_cycle_of_length(g, length) == cycle_exists_oracle(g, length), (
                g.edges,
                length,
            )


def test_cycle_enumeration_matches_subset_oracle():
    rng = random.Random(20211)
    for trial in range(40):
        n = rng.randint(4, 7)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        for length in range(3, n + 1):
            listed = list(cycles_of_length(g, length))
            assert len(listed) == len(set(listed)), "a cycle was yielded twice"
            as_edge_sets = {
                frozenset(
                    tuple(sorted((c[i], c[(i + 1) % len(c)]))) for i in range(len(c))
                )
                for c in listed
            }
            assert len(as_edge_sets) == len(listed)
            assert as_edge_sets == all_cycles_oracle(g, length)


def test_cycle_enumeration_canonical_form():
    g = LabeledGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
    for cycle in cycles_of_length(g, 4):
        assert cycle[0] == min(cycle)
        assert cycle[1] < cycle[-1]


# ------------------------------------------------------------
# girth and bipartition
# ------------------------------------------------------------

def test_girth_known_values():
    c5 = LabeledGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert girth(c5) == 5
    tree = LabeledGraph(5, [(1, 2), (1, 3), (3, 4), (3, 5)])
    assert girth(tree) == inf
    assert girth(LabeledGraph(0)) == inf
    k4 = LabeledGraph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert girth(k4) == 3


def test_girth_petersen():
    outer = [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(6, 8), (8, 10), (10, 7), (7, 9), (9, 6)]
    petersen = LabeledGraph(10, outer + spokes + inner)
    assert petersen.degrees() == (3,) * 10
    assert girth(petersen) == 5


def test_girth_matches_shortest_cycle_oracle():
    rng = random.Random(20212)
    for trial in range(60):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        lengths = [length for length in range(3, n + 1) if cycle_exists_oracle(g, length)]
        expected = min(lengths) if lengths else inf
        assert girth(g) == expected, g.edges


def test_bipartition_classes():
    c6 = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert bipartition(c6) == ((1, 3, 5), (2, 4, 6))
    c5 = LabeledGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert bipartition(c5) is None
    isolated = LabeledGraph(3, [(2, 3)])
    assert bipartition(isolated) == ((1, 2), (3,))


# ------------------------------------------------------------
# creating pairs
# ------------------------------------------------------------

def test_is_creating_rejects_mixed_kinds_and_sizes():
    with pytest.raises(TypeError):
        is_creating(HamPath((1, 2, 3, 4)), PerfectMatching([(1, 2), (3, 4)]), 4)
    with pytest.raises(ValueError):
        is_creating(HamPath((1, 2, 3)), HamPath((1, 2, 3, 4)), 3)


def test_is_creating_path_examples():
    assert is_creating(HamPath((1, 2, 3, 4)), HamPath((1, 3, 2, 4)), 4)
    assert not is_creating(HamPath((1, 2, 3, 4)), HamPath((1, 2, 3, 4)), 4)
    assert not is_creating(HamPath((1, 2, 3, 4)), HamPath((3, 2, 1, 4)), 3)
    assert is_creating(HamPath((2, 1, 3, 4)), HamPath((1, 2, 3, 4)), 3)


def test_is_creating_matches_union_oracle():
    rng = random.Random(20215)
    for trial in range(80):
        n = rng.randint(3, 7)
        p, q = random_path(rng, n), random_path(rng, n)
        g, h = random_graph(rng, n, 0.4), random_graph(rng, n, 0.4)
        for a, b, merged in ((p, q, union(p.graph, q.graph)), (g, h, union(g, h))):
            for length in range(3, n + 1):
                assert is_creating(a, b, length) == cycle_exists_oracle(merged, length), (a, b, length)


def test_matching_union_component_structure():
    m1 = PerfectMatching([(1, 2), (3, 4), (5, 6)])
    m2 = PerfectMatching([(1, 2), (3, 5), (4, 6)])
    components = matching_union_components(m1, m2)
    assert components[0].kind == "shared"
    assert components[0].vertices == (1, 2)
    assert components[1].kind == "cycle"
    assert components[1].vertices == (3, 4, 6, 5)
    assert sorted(v for c in components for v in c.vertices) == list(range(1, 7))


def test_matching_union_components_agree_with_is_creating():
    rng = random.Random(20213)
    for trial in range(150):
        n = rng.choice([4, 6, 8, 10, 12])
        m1, m2 = random_matching(rng, n), random_matching(rng, n)
        components = matching_union_components(m1, m2)
        assert sorted(v for c in components for v in c.vertices) == list(range(1, n + 1))
        cycle_sizes = {len(c.vertices) for c in components if c.kind == "cycle"}
        assert all(size % 2 == 0 and size >= 4 for size in cycle_sizes)
        for length in range(4, n + 1, 2):
            assert is_creating(m1, m2, length) == (length in cycle_sizes)
        for length in range(3, n + 1, 2):
            assert not is_creating(m1, m2, length)


# ------------------------------------------------------------
# family verification
# ------------------------------------------------------------

def test_verify_pairwise_empty_and_single():
    for family in ([], [PerfectMatching([(1, 2), (3, 4)])]):
        report = verify_pairwise_creating(family, 4)
        assert report == FamilyReport(True, len(family), 4, 0, None)


def test_verify_pairwise_reports_first_violation():
    good1 = HamPath((1, 2, 3, 4))
    good2 = HamPath((1, 3, 2, 4))
    family = [good1, good2, good1]  # the duplicate at index 2 breaks pairs (0,2) and (1,2)
    report = verify_pairwise_creating(family, 4)
    assert not report.passed
    assert report.pair_count == 3
    assert report.first_violation == (0, 2)
    assert verify_pairwise_creating([good1, good2], 4).passed


def test_verify_pairwise_mixed_kind_and_ground_set_errors():
    with pytest.raises(TypeError):
        verify_pairwise_creating([HamPath((1, 2, 3, 4)), PerfectMatching([(1, 2), (3, 4)])], 4)
    with pytest.raises(ValueError):
        verify_pairwise_creating([HamPath((1, 2, 3)), HamPath((1, 2, 3, 4))], 4)
    with pytest.raises(ValueError):
        verify_pairwise_creating([], 2)


def naive_family_report(family, length):
    graphs = [m.graph for m in family]
    first = next(
        (
            (i, j)
            for i, j in itertools.combinations(range(len(family)), 2)
            if not cycle_exists_oracle(union(graphs[i], graphs[j]), length)
        ),
        None,
    )
    size = len(family)
    return FamilyReport(first is None, size, length, size * (size - 1) // 2, first)


def oracle_creating_family(rng, draw, length, attempts):
    """Greedily keep random members that create with every member kept so far."""
    family = []
    for _ in range(attempts):
        candidate = draw()
        if all(
            cycle_exists_oracle(union(candidate.graph, m.graph), length) for m in family
        ):
            family.append(candidate)
    return family


def test_verify_pairwise_matches_naive_scan():
    rng = random.Random(20216)
    for trial in range(40):
        if trial % 2:
            n, length = rng.choice([(6, 4), (7, 4), (7, 6)])
            draw = lambda: random_path(rng, n)
        else:
            n, length = rng.choice([(6, 4), (6, 6), (8, 4)])
            draw = lambda: random_matching(rng, n)
        family = oracle_creating_family(rng, draw, length, 10)
        for _ in range(rng.randint(0, 2)):  # planted duplicates break some pairs
            family.insert(rng.randrange(len(family) + 1), rng.choice(family))
        if trial % 5 == 0:  # so does a random stray
            family.insert(rng.randrange(len(family) + 1), draw())
        assert verify_pairwise_creating(family, length) == naive_family_report(family, length)
