import ast
import inspect
import itertools
import pickle
import random
import sys
from fractions import Fraction
from math import inf

import pytest
from hypothesis import given, settings

from cyclecreate import graphs, hosts
from cyclecreate.graphs import (
    FamilyReport,
    HamPath,
    PerfectMatching,
    Permutation,
    _creates,
    _has_cycle_through,
    contains_cycle_of_length,
    is_creating,
    verify_pairwise_creating,
)
from cyclecreate.hosts import LabeledGraph, bipartition, girth
from cyclecreate.bounds import exponent_row
from cyclecreate.constructions import (
    PlaneIncidence,
    ValidationReport,
    lower_bound_family,
    projective_plane_incidence,
)
from cyclecreate.counting import BiadjacencyMatrix, MatchingBoundReport, count_perfect_matchings
from cyclecreate.reduction import AssociatedTriple, ReducedFamily
from cyclecreate.search import CompatibilityGraph, enumerate_ham_paths, enumerate_perfect_matchings
from oracles import (
    all_cycles_oracle,
    bipartition_oracle,
    cycle_exists_oracle,
    edge_union,
    group_families,
    matching_union_components_oracle,
    naive_family_report,
)


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
    assert HamPath((1, 2, 3, 4)).order[1] == 2
    with pytest.raises(ValueError):
        HamPath((1, 2, 2))
    with pytest.raises(ValueError):
        HamPath((2, 3, 4))
    with pytest.raises(ValueError):
        HamPath((1,))


def test_matching_cover_validation():
    m = PerfectMatching([(2, 1), (3, 4)])
    assert m.n == 4
    assert tuple(sorted(m.edges)) == ((1, 2), (3, 4))
    assert m.adjacency[3] == 1 << 4
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


def test_paths_and_matchings_are_graphs():
    """A path or matching answers every graph question as its LabeledGraph copy does."""
    rng = random.Random(20217)
    for trial in range(60):
        n = rng.randint(2, 9) if trial % 2 else 2 * rng.randint(1, 5)
        draw = (lambda: random_path(rng, n)) if trial % 2 else (lambda: random_matching(rng, n))
        x, y = draw(), draw()
        gx, gy = LabeledGraph(x.n, x.edges), LabeledGraph(y.n, y.edges)
        assert x.adjacency == gx.adjacency and x.degrees() == gx.degrees(), x
        assert girth(x) == girth(gx) == inf and bipartition(x) == bipartition(gx), x
        if n % 2 == 0:
            assert count_perfect_matchings(x) == count_perfect_matchings(gx) == 1, x
        merged = edge_union(x, y)
        for length in range(3, n + 1):
            assert not contains_cycle_of_length(x, length) and not contains_cycle_of_length(gx, length)
            created = is_creating(x, y, length)
            assert created == is_creating(gx, gy, length) == contains_cycle_of_length(merged, length)


def value_types():
    """(make, repr, another value of the type) for each of the six value types."""
    p123, p132 = HamPath((1, 2, 3)), HamPath((1, 3, 2))
    return [
        (lambda: LabeledGraph(3, [(2, 1)]), "LabeledGraph(n=3, edges=frozenset({(1, 2)}))",
         LabeledGraph(3, [(2, 3)])),
        (lambda: HamPath((3, 1, 2)), "HamPath(order=(2, 1, 3))", p123),
        (lambda: PerfectMatching([(2, 1)]), "PerfectMatching(n=2, edges=frozenset({(1, 2)}))",
         PerfectMatching([(1, 2), (3, 4)])),
        (lambda: Permutation((2, 1)), "Permutation(images=(2, 1))", Permutation((1, 2))),
        (lambda: BiadjacencyMatrix([[1, 0], [0, 1]]), "BiadjacencyMatrix(m=2, rows=((1, 0), (0, 1)))",
         BiadjacencyMatrix([[1]])),
        (lambda: CompatibilityGraph([p123, p132], 3),
         "CompatibilityGraph(objects=(HamPath(order=(1, 2, 3)), HamPath(order=(1, 3, 2))), "
         "adjacency=(2, 1), relation=3)",
         CompatibilityGraph([p123, p132], 4)),
    ]


def test_value_types_compare_hash_and_print_by_their_fields():
    for make, text, different in value_types():
        value = make()
        assert repr(value) == text
        assert value == make() and hash(value) == hash(make()) and value != different, text
        name = text.partition("(")[2].partition("=")[0]
        for change in (lambda: setattr(value, name, None), lambda: delattr(value, name)):
            with pytest.raises(AttributeError, match=name):
                change()
        assert value == make(), text
    # equal fields of another type are not equal: a matching is no graph
    assert LabeledGraph(2, [(1, 2)]) != PerfectMatching([(1, 2)])
    assert len({LabeledGraph(2, [(1, 2)]), PerfectMatching([(1, 2)])}) == 2


RECORD_HOMES = {
    "FamilyReport": "cyclecreate.graphs",
    "ExponentRow": "cyclecreate.bounds",
    "PlaneIncidence": "cyclecreate.constructions",
    "ValidationReport": "cyclecreate.constructions",
    "MatchingBoundReport": "cyclecreate.counting",
    "AssociatedTriple": "cyclecreate.reduction",
    "ReducedFamily": "cyclecreate.reduction",
}


def test_records_are_named_tuples():
    # records compare, hash and unpack as the tuples of their fields
    graph = LabeledGraph(2, [(1, 2)])
    records = [
        (FamilyReport(True, 2, 4, 1, None),
         "FamilyReport(passed=True, family_size=2, cycle_length=4, pair_count=1, first_violation=None)"),
        (exponent_row(2),
         "ExponentRow(k=2, cycle_length=4, degree=Fraction(1, 2), lower=Fraction(1, 2), "
         "matching_upper=Fraction(1, 4), path_upper=Fraction(3, 4))"),
        (PlaneIncidence(2, graph, (1,), (2,)),
         "PlaneIncidence(q=2, graph=LabeledGraph(n=2, edges=frozenset({(1, 2)})), points=(1,), lines=(2,))"),
        (ValidationReport(2, True, True, 3, 6, True),
         "ValidationReport(k=2, is_bipartite=True, is_regular=True, degree=3, girth=6, passed=True)"),
        (MatchingBoundReport(2, 2, 2, Fraction(2), True, True),
         "MatchingBoundReport(half_size=2, degree=2, count=2, bound=Fraction(2, 1), "
         "doubly_stochastic=True, passed=True)"),
        (AssociatedTriple(6, 2, (((1, 2),), ((3, 4),), ((5, 6),))),
         "AssociatedTriple(n=6, k=2, classes=(((1, 2),), ((3, 4),), ((5, 6),)))"),
        (ReducedFamily((), (0,), (1, 2), ((3, 1), (4, 2))),
         "ReducedFamily(matchings=(), kept_indices=(0,), removed=(1, 2), label_map=((3, 1), (4, 2)))"),
    ]
    for record, text in records:
        assert repr(record) == text
        fields = tuple(record)
        assert record == fields and hash(record) == hash(fields) and type(record)(*fields) == record
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        assert tuple(record) == fields, text
        # and are named tuples otherwise: no instance dict, _asdict, and
        # _replace and pickling that keep the type, in their own module with
        # their own docstring
        cls = type(record)
        assert not hasattr(record, "__dict__")
        assert tuple(record._asdict()) == record._fields
        replaced = record._replace(**{record._fields[0]: fields[0]})
        assert type(replaced) is cls and replaced == record
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is cls and copy == record
        assert cls.__module__ == RECORD_HOMES[cls.__name__]
        module = sys.modules[cls.__module__]
        [node] = [
            node for node in ast.parse(inspect.getsource(module)).body
            if isinstance(node, ast.ClassDef) and node.name == cls.__name__
        ]
        assert inspect.cleandoc(cls.__doc__) == ast.get_docstring(node)


# ------------------------------------------------------------
# cycle detection
# ------------------------------------------------------------

def test_a_cycle_deeper_than_the_recursion_limit_is_decided():
    # the search recurses only where it branches, and a cycle never branches
    n = 1500
    assert n > sys.getrecursionlimit()
    cycle = LabeledGraph(n, [(v, v % n + 1) for v in range(1, n + 1)])
    assert contains_cycle_of_length(cycle, n)
    assert not contains_cycle_of_length(cycle, n - 1)
    assert not contains_cycle_of_length(cycle, 3)


def test_cycle_detection_on_known_graphs():
    two_paths = edge_union(HamPath((1, 2, 3, 4)), HamPath((1, 3, 2, 4)))
    assert contains_cycle_of_length(two_paths, 4)  # 1-2-4-3
    assert contains_cycle_of_length(two_paths, 3)  # 1-2-3
    pure_c4 = edge_union(PerfectMatching([(1, 2), (3, 4)]), PerfectMatching([(1, 3), (2, 4)]))
    assert contains_cycle_of_length(pure_c4, 4)
    assert not contains_cycle_of_length(pure_c4, 3)
    c6 = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert contains_cycle_of_length(c6, 6)
    assert not contains_cycle_of_length(c6, 4)
    assert not contains_cycle_of_length(c6, 5)
    k4 = LabeledGraph(4, [(u, v) for u in range(1, 5) for v in range(u + 1, 5)])
    assert contains_cycle_of_length(k4, 3)
    assert contains_cycle_of_length(k4, 4)
    with pytest.raises(ValueError, match=r"^cycle length must be at least 3, got 2$"):
        contains_cycle_of_length(k4, 2)
    assert not contains_cycle_of_length(k4, 5)
    # the creating relation's own family check refuses what is not a graph
    with pytest.raises(TypeError, match=r"^expected a graph, path, or matching, got tuple$"):
        contains_cycle_of_length(k4.adjacency, 4)


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


def test_cycle_through_edge_matches_subset_oracle():
    rng = random.Random(20211)
    # a second graph per trial, so that a step reading only one of the two tuples fails
    other = random.Random(20212)
    for trial in range(40):
        n = rng.randint(4, 8)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.8]))
        h = random_graph(other, n, other.choice([0.2, 0.35]))
        for first, second in ((g, g), (g, h)):
            both = edge_union(first, second)
            for length in range(3, n + 1):
                cycles = all_cycles_oracle(both, length)
                for u, v in sorted(both.edges):
                    expected = any((u, v) in cycle for cycle in cycles)
                    for a, b in ((u, v), (v, u)):
                        for x, y in ((first, second), (second, first)):
                            assert _has_cycle_through(x.adjacency, y.adjacency, a, b, length) == expected, (
                                x.edges,
                                y.edges,
                                (a, b),
                                length,
                            )


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


def rewired_plane():
    """The q = 5 plane with two incidences swapped so that points a and c share
    a second line, which closes a 4-cycle; it stays bipartite and regular.

    a and c meet on line x; take a line y through c but not a, a point b != c
    on y and a line z through a but through neither b nor c.
    """
    plane = projective_plane_incidence(5)
    adj = plane.graph.adjacency
    a, c = plane.points[:2]
    y = next(line for line in plane.lines if adj[c] >> line & 1 and not adj[a] >> line & 1)
    b = next(p for p in plane.points if p != c and adj[y] >> p & 1)
    z = next(
        line for line in plane.lines
        if adj[a] >> line & 1 and not adj[b] >> line & 1 and not adj[c] >> line & 1
    )
    edges = (plane.graph.edges - {(a, z), (b, y)}) | {(a, y), (b, z)}
    return plane, LabeledGraph(plane.graph.n, edges)


def test_girth_of_planes_and_a_rewired_plane():
    for q in (2, 3, 5, 7):
        assert girth(projective_plane_incidence(q).graph) == 6, q
    plane, rewired = rewired_plane()
    assert rewired.degrees() == plane.graph.degrees()
    assert bipartition(rewired) == (plane.points, plane.lines)
    assert girth(rewired) == 4


def test_girth_when_the_shortest_cycle_avoids_small_labels():
    c5_c7 = LabeledGraph(
        12,
        [(i, i + 1) for i in range(1, 5)] + [(1, 5)]
        + [(i, i + 1) for i in range(6, 12)] + [(6, 12)],
    )
    assert girth(c5_c7) == 5
    # vertex 1 lies on a 7-cycle only; the 5-cycle 8..12 hangs off vertex 7
    hanging = LabeledGraph(
        12,
        [(i, i + 1) for i in range(1, 7)] + [(1, 7), (7, 8)]
        + [(i, i + 1) for i in range(8, 12)] + [(8, 12)],
    )
    assert girth(hanging) == 5
    # the 5-cycle 1..5 is not the shortest: 6, 7, 8 close a triangle
    assert girth(LabeledGraph(8, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (5, 6), (6, 7), (7, 8), (6, 8)])) == 3


def test_girth_of_forests_is_infinite():
    assert girth(LabeledGraph(0)) == inf
    assert girth(LabeledGraph(6)) == inf
    rng = random.Random(20213)
    for _ in range(40):
        n = rng.randint(1, 30)
        # each vertex joins at most one earlier vertex, so every component is a tree
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1) if rng.random() < 0.8]
        assert girth(LabeledGraph(n, edges)) == inf, edges


def test_girth_matches_shortest_cycle_oracle():
    rng = random.Random(20212)
    for trial in range(300):
        n = rng.randint(4, 11)
        if trial % 2:
            g = random_graph(rng, n, rng.choice([0.15, 0.3, 0.5]))
        else:
            # a cycle on random labels plus up to two random edges, for long girths
            cycle = rng.sample(range(1, n + 1), rng.randint(3, n))
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            edges += [rng.sample(range(1, n + 1), 2) for _ in range(rng.randint(0, 2))]
            g = LabeledGraph(n, edges)
        expected = next(
            (length for length in range(3, n + 1) if cycle_exists_oracle(g, length)), inf
        )
        assert girth(g) == expected, g.edges
    rng = random.Random(20214)
    for trial in range(100):
        n = rng.randint(4, 10)
        labels = rng.sample(range(1, n + 1), n)
        if trial % 2:
            # a random bipartite graph on a random split of the labels
            cut = rng.randint(1, n - 1)
            p = rng.choice([0.2, 0.4, 0.6])
            edges = [(u, v) for u in labels[:cut] for v in labels[cut:] if rng.random() < p]
        else:
            # an even cycle on random labels plus up to two chords that join
            # positions of opposite parity, so the graph stays bipartite
            cycle = labels[: rng.randrange(4, min(n, 8) + 1, 2)]
            edges = list(zip(cycle, cycle[1:] + cycle[:1]))
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(len(cycle))
                edges.append((cycle[i], cycle[(i + rng.randrange(1, len(cycle), 2)) % len(cycle)]))
        g = LabeledGraph(n, edges)
        assert bipartition(g) is not None
        expected = next(
            (length for length in range(4, n + 1, 2) if cycle_exists_oracle(g, length)), inf
        )
        assert girth(g) == expected, g.edges


def disjoint_cycles(*lengths):
    """Cycles on consecutive labels, the first on 1..lengths[0]."""
    edges, start = [], 1
    for length in lengths:
        ring = list(range(start, start + length))
        edges += zip(ring, ring[1:] + ring[:1])
        start += length
    return LabeledGraph(start - 1, edges)


def test_girth_stops_at_even_depths_only_on_bipartite_graphs(monkeypatch):
    stops = []
    walk = hosts._shortest_walk_from

    def spy(adj, src, best, shortest):
        stops.append(shortest)
        return walk(adj, src, best, shortest)

    monkeypatch.setattr(hosts, "_shortest_walk_from", spy)
    forest = LabeledGraph(9, [(1, 2), (1, 3), (2, 4), (2, 5), (6, 7), (7, 8)])
    for g, expected, bipartite in (
        (disjoint_cycles(5, 8), 5, False),
        (disjoint_cycles(7, 6), 6, False),
        (disjoint_cycles(9, 4), 4, False),
        # a longer cycle first, so later sources start with a best to beat
        (disjoint_cycles(8, 4), 4, True),
        (disjoint_cycles(10, 6, 8), 6, True),
        (forest, inf, True),
    ):
        stops.clear()
        assert girth(g) == expected, g.edges
        assert (bipartition(g) is not None) == bipartite
        assert set(stops) == {2 if bipartite else 1}, g.edges


def test_bipartition_classes():
    c6 = LabeledGraph(6, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (1, 6)])
    assert bipartition(c6) == ((1, 3, 5), (2, 4, 6))
    c5 = LabeledGraph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5)])
    assert bipartition(c5) is None
    isolated = LabeledGraph(3, [(2, 3)])
    assert bipartition(isolated) == ((1, 2), (3,))


def test_bipartition_matches_colouring_oracle():
    rng = random.Random(20214)
    graphs = []
    for n in range(15):
        for p in (0.0, 0.1, 0.2, 0.35, 0.6):
            graphs += [random_graph(rng, n, p) for _ in range(4)]
        # random bipartite graphs on a random split, so the classes get compared too
        for _ in range(4):
            side = {v: rng.random() < 0.5 for v in range(1, n + 1)}
            pairs = itertools.combinations(range(1, n + 1), 2)
            edges = [(u, v) for u, v in pairs if side[u] != side[v] and rng.random() < 0.4]
            graphs.append(LabeledGraph(n, edges))
    for length in range(3, 16, 2):
        cycle = [(i, i + 1) for i in range(1, length)] + [(1, length)]
        graphs.append(LabeledGraph(length, cycle))
        # the same odd cycle on labels 5.., behind an isolated vertex and a path
        graphs.append(LabeledGraph(length + 4, [(2, 3), (3, 4)] + [(u + 4, v + 4) for u, v in cycle]))
    graphs += [projective_plane_incidence(q).graph for q in (2, 3)]
    _, rewired = rewired_plane()
    graphs.append(rewired)
    outcomes = {"bipartite": 0, "not": 0, "isolated": 0}
    for g in graphs:
        expected = bipartition_oracle(g)
        assert bipartition(g) == expected, (g.n, sorted(g.edges))
        outcomes["not" if expected is None else "bipartite"] += 1
        outcomes["isolated"] += expected is not None and 0 in g.degrees() and len(g.edges) > 1
    assert min(outcomes.values()) >= 20, outcomes


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
        for a, b, merged in ((p, q, edge_union(p, q)), (g, h, edge_union(g, h))):
            for length in range(3, n + 1):
                assert is_creating(a, b, length) == cycle_exists_oracle(merged, length), (a, b, length)


def test_matching_union_component_structure():
    m1 = PerfectMatching([(1, 2), (3, 4), (5, 6)])
    m2 = PerfectMatching([(1, 2), (3, 5), (4, 6)])
    assert matching_union_components_oracle(m1, m2) == [
        ("shared", (1, 2)),
        ("cycle", (3, 4, 6, 5)),
    ]


def test_matching_union_components_agree_with_is_creating():
    rng = random.Random(20213)
    for trial in range(150):
        n = rng.choice([4, 6, 8, 10, 12])
        m1, m2 = random_matching(rng, n), random_matching(rng, n)
        components = matching_union_components_oracle(m1, m2)
        assert sorted(v for _, vertices in components for v in vertices) == list(range(1, n + 1))
        cycle_sizes = {len(vertices) for kind, vertices in components if kind == "cycle"}
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


def oracle_creating_family(rng, draw, length, attempts):
    """Greedily keep random members that create with every member kept so far."""
    family = []
    for _ in range(attempts):
        candidate = draw()
        if all(
            cycle_exists_oracle(edge_union(candidate, m), length) for m in family
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


def relabelled(rng, family):
    """The family under a random relabelling of 1..n, in a random order."""
    sigma = [0] + rng.sample(range(1, family[0].n + 1), family[0].n)
    out = [HamPath(sigma[v] for v in path.order) for path in family]
    rng.shuffle(out)
    return out


def count_creates(monkeypatch, answer=None):
    """Count the creating kernel's calls; answer yes without running it when asked."""
    calls = []

    def spy(a, b, length):
        calls.append((a, b))
        return _creates(a, b, length) if answer is None else answer

    monkeypatch.setattr(graphs, "_creates", spy)
    return calls


def test_a_family_its_relabellings_move_transitively_is_decided_from_row_0(monkeypatch):
    rng = random.Random(24)
    lower_bound = [relabelled(rng, lower_bound_family(n, k)) for n, k in ((7, 2), (9, 2), (13, 2), (10, 3))]
    for family, k in zip(lower_bound, (2, 2, 2, 3)):
        calls = count_creates(monkeypatch)
        assert verify_pairwise_creating(family, 2 * k).passed
        assert len(calls) == len(family) - 1
        assert all(a is family[0].adjacency for a, _ in calls)
    # full orbits never pass, so a kernel that answers yes shows the route
    orbits = [enumerate_ham_paths(5), enumerate_ham_paths(6), enumerate_perfect_matchings(6),
              enumerate_perfect_matchings(8)]
    for orbit in orbits:
        rng.shuffle(orbit)
        calls = count_creates(monkeypatch, answer=True)
        assert verify_pairwise_creating(orbit, 4).passed
        assert len(calls) == len(orbit) - 1

    # any other family is scanned pair by pair
    spoiled = list(lower_bound[2])
    spoiled[100] = HamPath(spoiled[0].order[5:] + spoiled[0].order[:5])
    duplicated = lower_bound[1] + lower_bound[1][3:4]
    triangle = LabeledGraph(3, [(1, 2), (2, 3), (1, 3)])
    others = [
        (spoiled, 4),
        (duplicated, 4),
        (enumerate_perfect_matchings(6)[1:], 4),
        (relabelled(rng, lower_bound_family(9, 2))[:20], 4),
        ([triangle, triangle, triangle], 3),
    ]
    for family, length in others:
        calls = count_creates(monkeypatch, answer=True)
        assert verify_pairwise_creating(family, length).passed
        assert len(calls) == len(family) * (len(family) - 1) // 2
        calls = count_creates(monkeypatch)
        report = verify_pairwise_creating(family, length)
        assert report == naive_family_report(family, length)
        i, j = report.first_violation or (len(family) - 2, len(family) - 1)
        assert len(calls) == i * (2 * len(family) - i - 1) // 2 + j - i


def test_the_orbit_test_runs_only_once_row_0_has_passed(monkeypatch):
    family = relabelled(random.Random(25), lower_bound_family(13, 2))
    # (family, the row of its first violation): a repeated member 0 and the
    # 105 matchings on 1..8 fail in row 0, and a repeated member 5 in row 5
    cases = [(family, None), (family + family[5:6], 5), (family + family[:1], 0),
             (enumerate_perfect_matchings(8), 0)]
    for members, row in cases:
        calls = count_creates(monkeypatch)
        asked = []
        monkeypatch.setattr(graphs, "_orbit_tree", lambda members: asked.append(len(calls)))
        report = verify_pairwise_creating(members, 4)
        assert (report.first_violation or (None,))[0] == row, report
        # asked once, after the N - 1 calls of row 0, unless row 0 failed
        assert asked == ([] if row == 0 else [len(members) - 1]), report


def test_a_family_closed_under_a_group_but_not_transitive_is_scanned_in_full():
    # two orbits of the involution 2 <-> 5, 3 <-> 4; the one violation joins the second orbit
    family = [HamPath(order) for order in ((2, 3, 5, 1, 4), (3, 1, 2, 4, 5), (2, 4, 1, 5, 3), (4, 2, 1, 3, 5))]
    report = verify_pairwise_creating(family, 5)
    assert report == naive_family_report(family, 5)
    assert report.first_violation == (2, 3)


@pytest.mark.usefixtures("hypothesis_home")
def test_verify_pairwise_on_group_families_matches_naive_scan():
    routes = []

    # orbits and unions of two orbits of paths and matchings on 1..n (n <= 8)
    # under groups of at most 24 relabellings
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(group_families(("paths", "matchings"), 24, 48))
    def check(case):
        family, length = case
        routes.append(graphs._orbit_tree(family) is not None)
        assert verify_pairwise_creating(family, length) == naive_family_report(family, length)

    check()
    # both routes are taken often
    assert min(routes.count(True), routes.count(False)) >= 60, routes.count(True)
