import contextlib
import importlib.util
import itertools
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cyclecreate.graphs import (
    FamilyReport,
    HamPath,
    PerfectMatching,
    Permutation,
    _orbit_tree,
    _root_orbits,
    enumerate_perfect_matchings_of,
    is_creating,
    is_reversing,
    verify_pairwise_creating,
)
from cyclecreate import cli, graphs, search
from cyclecreate.hosts import LabeledGraph
from cyclecreate.formats import format_matchings
from cyclecreate.search import (
    CompatibilityGraph,
    _clique_search,
    _lex_least_clique,
    build_compatibility_graph,
    enumerate_ham_paths,
    enumerate_perfect_matchings,
    enumerate_permutations,
    exact_h,
    exact_m,
    exact_rp,
    max_clique,
    max_independent_set,
    max_triangle_creating_paths,
    perm_to_matching,
)
from oracles import (
    fixed_lead_families,
    group_families,
    matching_union_components_oracle,
    max_clique_oracle,
    naive_family_report,
    perfect_matchings_oracle,
    relabelled_by,
    reversing_oracle,
)


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
    assert [tuple(sorted(m.edges)) for m in matchings] == [
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
        listed = [tuple(sorted(m.edges)) for m in enumerate_perfect_matchings(n)]
        assert len(listed) == len(set(listed)) == double_factorial, n
        assert listed == sorted(listed), n
    assert {tuple(sorted(m.edges)) for m in enumerate_perfect_matchings(6)} == (
        perfect_matchings_oracle(complete_graph(6))
    )
    c6 = LabeledGraph(6, [(i, i + 1) for i in range(1, 6)] + [(1, 6)])
    assert {tuple(sorted(m.edges)) for m in enumerate_perfect_matchings_of(c6)} == perfect_matchings_oracle(c6)


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
    assert tuple(sorted(perm_to_matching(identity).edges)) == ((1, 4), (2, 5), (3, 6))
    swap = Permutation((2, 1))
    assert tuple(sorted(perm_to_matching(swap).edges)) == ((1, 4), (2, 3))


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


def test_family_errors_match_is_creating():
    p3 = HamPath((1, 2, 3))
    p4 = HamPath((1, 2, 3, 4))
    m4 = PerfectMatching([(1, 2), (3, 4)])
    m6 = PerfectMatching([(1, 2), (3, 4), (5, 6)])
    r1, r2, r3 = Permutation((1, 2, 3)), Permutation((2, 1, 3)), Permutation((2, 3, 1))
    need_length = "paths, matchings, and graphs need an integer cycle length, got 'reversing'"
    cases = [
        ([p4, m4], 4, TypeError, "mixed kinds: HamPath vs PerfectMatching"),
        ([m4, p4], 4, TypeError, "mixed kinds: PerfectMatching vs HamPath"),
        ([p4, p4, LabeledGraph(4, p4.edges), m4], 4, TypeError, "mixed kinds: HamPath vs LabeledGraph"),
        ([p3, p4], 3, ValueError, "mismatched ground sets (n=3 vs n=4)"),
        ([m4, m4, m6, LabeledGraph(4, p4.edges)], 4, TypeError, "mixed kinds: PerfectMatching vs LabeledGraph"),
        ([m4, m4, m6], 4, ValueError, "mismatched ground sets (n=4 vs n=6)"),
        ([p4, HamPath((1, 3, 2, 4))], 2, ValueError, "cycle length must be at least 3, got 2"),
        ([m4, m4], 2, ValueError, "cycle length must be at least 3, got 2"),
        # one rule whatever the size: the length is refused after kind and ground set
        ([], 2, ValueError, "cycle length must be at least 3, got 2"),
        ([HamPath((1, 2))], 2, ValueError, "cycle length must be at least 3, got 2"),
        ([m4], 2, ValueError, "cycle length must be at least 3, got 2"),
        ([p4, m4], 2, TypeError, "mixed kinds: HamPath vs PerfectMatching"),
        ([p3, p4], 2, ValueError, "mismatched ground sets (n=3 vs n=4)"),
        # member 0's kind picks the relation, which is checked before the kinds
        ([r1, r2], 4, ValueError, "permutations only support the 'reversing' relation, got 4"),
        ([r1, p4], 4, ValueError, "permutations only support the 'reversing' relation, got 4"),
        ([r1, p4], "reversing", TypeError, "mixed kinds: Permutation vs HamPath"),
        ([Permutation((1, 2)), HamPath((1, 2))], "reversing", TypeError, "mixed kinds: Permutation vs HamPath"),
        ([p4, HamPath((1, 3, 2, 4))], "reversing", ValueError, need_length),
        ([p4, r1], "reversing", ValueError, need_length),
        ([m4, m4, m6], "reversing", ValueError, need_length),
        # no member names a kind, so an empty family takes either relation
        ([], "reversing", None, None),
        ([], 4, None, None),
        ([r1, r2], "reversing", None, None),
        ([r1, r2, r3], "reversing", None, None),
    ]
    for family, relation, error, message in cases:
        calls = [verify_pairwise_creating, build_compatibility_graph]
        if len(family) == 2:
            calls.append(lambda pair, relation: is_creating(*pair, relation))
        for call in calls:
            if error is None:
                call(family, relation)
                continue
            with pytest.raises(error) as raised:
                call(family, relation)
            assert str(raised.value) == message, (call, family, relation)
    # where all of them accept permutations, all of them decide reversing
    assert is_creating(r1, r2, "reversing") and not is_creating(r1, r3, "reversing")
    assert verify_pairwise_creating([r1, r2], "reversing") == FamilyReport(True, 2, "reversing", 1, None)
    assert verify_pairwise_creating([r1, r2, r3], "reversing") == FamilyReport(False, 3, "reversing", 3, (0, 2))
    assert build_compatibility_graph([r1, r2, r3], "reversing").adjacency == (0b010, 0b101, 0b010)


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
        witness = _lex_least_clique(adjacency)
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
            assert _orbit_tree(cg.objects) is not None, (target, n, relation)
            clique = _lex_least_clique(cg.adjacency)
            independent = _lex_least_clique(complement(cg.adjacency))
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
                expected = max_clique_oracle(graph, n)
                # the general route, and the rooted one racing the other side
                for other, orbit in ((None, None), (complement(graph), [])):
                    witness = _lex_least_clique(graph, other, orbit)
                    assert (len(witness), witness) == expected, (n, steps, orbit is None)


# ------------------------------------------------------------
# full-orbit graphs built from row 0
# ------------------------------------------------------------

def pairwise_oracle(objects, relation):
    """The adjacency by the double loop over every pair, straight from the relation."""
    adjacency = [0] * len(objects)
    for i, j in itertools.combinations(range(len(objects)), 2):
        a, b = objects[i], objects[j]
        if reversing_oracle(a, b) if relation == "reversing" else is_creating(a, b, relation):
            adjacency[i] |= 1 << j
            adjacency[j] |= 1 << i
    return tuple(adjacency)


def test_orbit_build_equals_pairwise_oracle():
    rng = random.Random(41009)
    cases = []
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        cases += [(order, relation) for order in [objects] + [rng.sample(objects, len(objects)) for _ in range(2)]]
    for target, n, relations in (("H", 6, (3, 4)), ("M", 8, (4, 6, 8)), ("RP", 5, ("reversing",)),
                                 ("RP", 6, ("reversing",))):
        cases += [(ENUMERATE[target](n), relation) for relation in relations]
    for objects, relation in cases:
        assert _orbit_tree(objects) is not None, (len(objects), relation)
        cg = build_compatibility_graph(objects, relation)
        assert cg.adjacency == pairwise_oracle(objects, relation), (len(objects), relation, objects[0])


@contextlib.contextmanager
def relation_calls(monkeypatch):
    """The relation's calls inside, as (kernel, first argument, second argument)."""
    calls = []
    real_creates, real_reversing = graphs._creates, graphs.is_reversing

    def creates(a, b, length):
        calls.append(("creating", a, b))
        return real_creates(a, b, length)

    def reversing(p1, p2):
        calls.append(("reversing", p1, p2))
        return real_reversing(p1, p2)

    with monkeypatch.context() as patch:
        patch.setattr(graphs, "_creates", creates)
        patch.setattr(graphs, "is_reversing", reversing)
        yield calls


def test_orbit_build_relates_object_0_to_each_other_object_only(monkeypatch, capsys):
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        with relation_calls(monkeypatch) as calls:
            build_compatibility_graph(objects, relation)
        first = objects[0] if target == "RP" else objects[0].adjacency
        assert len(calls) == len(objects) - 1, (target, n, relation)
        assert {call[1] for call in calls} == {first}, (target, n, relation)
    for objects, relation in not_full_orbits():
        with relation_calls(monkeypatch) as calls:
            build_compatibility_graph(objects, relation)
        assert len(calls) == len(objects) * (len(objects) - 1) // 2, (objects, relation)
    # the 24 permutations of 1..4 are an orbit, and so are their 24 matchings
    # on 1..8, under the relabellings of 5..8
    with relation_calls(monkeypatch) as calls:
        assert cli.main(["check", "claim7", "--m", "4"]) == 0
    assert capsys.readouterr().out == "ok 576 ordered pairs checked\n"
    kernels = [kernel for kernel, _, _ in calls]
    assert (kernels.count("reversing"), kernels.count("creating")) == (23, 23)


def test_orbit_build_errors_come_from_row_0_at_the_pairwise_scan_pair(monkeypatch):
    # permutations that mix m = 3 and m = 2, either size first; the
    # relabelling of values that takes member 0 to member 1 cannot map the
    # second family's permutations of 1..3
    mixed = [Permutation(p) for p in ((1, 2, 3), (1, 3, 2), (2, 1), (2, 1, 3), (1, 2), (2, 3, 1))]
    for family in (mixed, [mixed[4], mixed[2], mixed[0], mixed[1], mixed[3], mixed[5]]):
        # the pairwise scan's calls up to the first pair of different sizes
        scan = []
        for a, b in itertools.combinations(family, 2):
            scan.append(("reversing", a, b))
            if a.m != b.m:
                break
        with relation_calls(monkeypatch) as calls:
            with pytest.raises(ValueError) as raised:
                build_compatibility_graph(family, "reversing")
        sizes = (family[0].m, 5 - family[0].m)
        assert str(raised.value) == "permutations act on different sets (m=%d vs m=%d)" % sizes
        assert calls == scan == [("reversing", family[0], family[1]), ("reversing", family[0], family[2])]


def test_orbit_build_asks_for_the_tree_once_row_0_is_done(monkeypatch):
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        asked = []
        with relation_calls(monkeypatch) as calls, monkeypatch.context() as patch:
            patch.setattr(search, "_orbit_tree", lambda objs: asked.append(len(calls)) or _orbit_tree(objs))
            cg = build_compatibility_graph(objects, relation)
            # the searches take the root orbits the graph kept
            max_clique(cg)
            max_independent_set(cg)
        assert asked == [len(objects) - 1], (target, n, relation)


def test_value_and_position_actions_preserve_reversing():
    # relabelling values (pi . p) and positions (p . pi) both preserve the
    # relation, exhaustively on S4; the orbit build uses the value action
    perms = enumerate_permutations(4)
    for pi in perms:
        by_value = {p: Permutation(pi(v) for v in p.images) for p in perms}
        by_position = {p: Permutation(p(pi(i)) for i in range(1, 5)) for p in perms}
        for p, q in itertools.product(perms, repeat=2):
            related = reversing_oracle(p, q)
            assert reversing_oracle(by_value[p], by_value[q]) == related, (pi, p, q)
            assert reversing_oracle(by_position[p], by_position[q]) == related, (pi, p, q)


@contextlib.contextmanager
def never_race(monkeypatch):
    """Fail the test if a search inside races a certificate: only families
    with an orbit tree may."""

    real = search._decide

    def alone(adjacency, cand, target, orbit=None, rival=()):
        if rival:
            raise AssertionError("a graph of a family with no orbit tree raced a certificate")
        return real(adjacency, cand, target, orbit, rival)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_decide", alone)
        yield


def not_full_orbits():
    """Families that are not full orbits and have no orbit tree, each with a relation."""
    paths = enumerate_ham_paths(4)
    missing = paths[:7] + paths[8:]
    duplicated = paths[:7] + [paths[0]] + paths[8:]
    # as many graphs on 1..3 as there are permutations of 1..3
    triangle = [(1, 2), (1, 3), (2, 3)]
    graphs = [LabeledGraph(3, edges) for r in (1, 2) for edges in itertools.combinations(triangle, r)]
    return [
        (missing, 4),
        (duplicated, 4),
        (enumerate_permutations(3)[:3] + enumerate_permutations(3)[4:], "reversing"),
        (enumerate_perfect_matchings(6)[1:], 6),
        ([LabeledGraph(p.n, p.edges) for p in paths], 4),
        (graphs, 3),
        ([], 4),
        ([HamPath((1, 2))], 3),
        ([Permutation((1,))], "reversing"),
    ]


def test_every_full_enumeration_has_a_tree_reaching_every_member():
    rng = random.Random(41012)
    for enumerate_, sizes in ((enumerate_ham_paths, range(3, 8)), (enumerate_perfect_matchings, range(4, 11, 2)),
                              (enumerate_permutations, range(2, 7))):
        for n in sizes:
            objects = enumerate_(n)
            for members in (objects, rng.sample(objects, len(objects))):
                tree = _orbit_tree(members)
                assert sorted(tree) == list(range(1, len(members))), (enumerate_.__name__, n)
                # each member is reached from a member reached before it, by a
                # move that permutes the members
                order = {0: -1} | {i: at for at, i in enumerate(tree)}
                for i, (parent, move) in tree.items():
                    assert move[parent] == i and order[parent] < order[i], (enumerate_.__name__, n, i)
                for move in {id(move): move for _, move in tree.values()}.values():
                    assert sorted(move) == list(range(len(members))), (enumerate_.__name__, n)
    # a single member has none, whatever its kind
    for objects in (enumerate_ham_paths(2), enumerate_perfect_matchings(2), enumerate_permutations(1)):
        assert _orbit_tree(objects) is None


def recorded_routes(monkeypatch):
    """The searches' calls of _lex_least_clique, each by its `orbit` argument:
    None on the general route, and on the rooted one the complement side
    that it races."""
    routes = []

    def recording(adjacency, other=None, orbit=None):
        routes.append(None if orbit is None else other)
        return _lex_least_clique(adjacency, other, orbit)

    monkeypatch.setattr(search, "_lex_least_clique", recording)
    return routes


def test_searches_take_the_rooted_route_exactly_on_full_orbits(monkeypatch):
    rng = random.Random(41010)
    cases = []
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        cases += [(objects, relation, True), (rng.sample(objects, len(objects)), relation, True)]
    cases += [(objects, relation, False) for objects, relation in not_full_orbits()]
    routes = recorded_routes(monkeypatch)
    for objects, relation, orbit in cases:
        cg = build_compatibility_graph(objects, relation)
        assert (_orbit_tree(cg.objects) is not None) == orbit, (objects, relation)
        routes.clear()
        max_clique(cg)
        max_independent_set(cg)
        expected = [complement(cg.adjacency), cg.adjacency] if orbit else [None, None]
        assert routes == expected, (objects, relation)


def test_searches_refuse_a_witness_that_fails_the_relation(monkeypatch):
    # a full orbit of permutations, a full orbit of paths, and a path family that is not an orbit
    paths = enumerate_ham_paths(4)
    for objects, relation in ((enumerate_permutations(4), "reversing"), (paths, 4), (paths[:7] + paths[8:], 4)):
        cg = build_compatibility_graph(objects, relation)
        pairs = list(itertools.combinations(range(cg.size), 2))
        related = next(pair for pair in pairs if cg.adjacency[pair[0]] >> pair[1] & 1)
        unrelated = next(pair for pair in pairs if not cg.adjacency[pair[0]] >> pair[1] & 1)
        for find, wrong, right in ((max_clique, unrelated, related), (max_independent_set, related, unrelated)):
            monkeypatch.setattr(search, "_lex_least_clique", lambda adjacency, other=None, orbit=None: wrong)
            with pytest.raises(RuntimeError) as raised:
                find(cg)
            assert str(raised.value) == "internal error: witness failed re-verification against the relation"
            # the stub is what the search returns when the witness holds
            monkeypatch.setattr(search, "_lex_least_clique", lambda adjacency, other=None, orbit=None: right)
            assert find(cg) == (2, right), (relation, find.__name__)


def test_families_that_are_not_full_orbits_take_the_general_route(monkeypatch):
    paths = enumerate_ham_paths(4)
    missing = paths[:7] + paths[8:]
    duplicated = paths[:7] + [paths[0]] + paths[8:]
    for objects, relation in not_full_orbits():
        cg = build_compatibility_graph(objects, relation)
        assert _orbit_tree(cg.objects) is None, (objects, relation)
        expected = max_clique_oracle(complement(cg.adjacency), cg.size)
        with never_race(monkeypatch):
            assert max_clique(cg) == max_clique_oracle(cg.adjacency, cg.size), (objects, relation)
            assert max_independent_set(cg) == expected, (objects, relation)
    # on these the rooted route would miss the optimum, so the guard matters
    for objects in (missing, duplicated):
        cg = build_compatibility_graph(objects, 4)
        rooted = _lex_least_clique(cg.adjacency, complement(cg.adjacency), orbit=[])
        with never_race(monkeypatch):
            assert len(rooted) == 5 < max_clique(cg)[0] == 6


def test_a_graph_holds_only_the_adjacency_its_relation_gives(monkeypatch):
    paths = enumerate_ham_paths(4)
    shuffled = random.Random(41011).sample(paths, len(paths))
    full = (1 << len(paths)) - 1
    # the L = 4 relation with object 7 isolated: the rooted route would find 5 of 6
    isolated = build_compatibility_graph(paths, 4)
    edited = tuple(0 if v == 7 else mask & ~(1 << 7) for v, mask in enumerate(isolated.adjacency))
    assert len(_lex_least_clique(edited, complement(edited), orbit=[])) == 5
    assert max_clique_oracle(edited, len(paths)) == (6, (1, 2, 4, 6, 8, 9))
    cases = [(isolated, edited)]
    # the L = 3 relation with object 7 joined to all: the rooted route would find 3 of 4
    joined = build_compatibility_graph(paths, 3)
    edited = tuple(full ^ 1 << 7 if v == 7 else mask | 1 << 7 for v, mask in enumerate(joined.adjacency))
    assert len(_lex_least_clique(complement(edited), edited, orbit=[])) == 3
    assert max_clique_oracle(complement(edited), len(paths))[0] == 4
    cases.append((joined, edited))
    routes = recorded_routes(monkeypatch)
    for cg, edited in cases:
        # neither the adjacency nor the objects of a graph can be set
        for name, value in (("adjacency", edited), ("objects", shuffled)):
            with pytest.raises(AttributeError, match=name):
                setattr(cg, name, value)
        assert cg == build_compatibility_graph(paths, cg.relation)
        with pytest.raises(TypeError):
            CompatibilityGraph(cg.objects, edited, cg.relation)
        # new objects bring their own adjacency, and a full orbit stays rooted
        moved = CompatibilityGraph(shuffled, cg.relation)
        assert moved == build_compatibility_graph(shuffled, cg.relation) != cg
        routes.clear()
        assert max_clique(moved) == max_clique_oracle(moved.adjacency, moved.size), cg.relation
        assert max_independent_set(moved) == max_clique_oracle(complement(moved.adjacency), moved.size)
        assert routes == [complement(moved.adjacency), moved.adjacency], cg.relation


def test_shuffled_library_alpha_jobs_take_the_rooted_route(tmp_path, monkeypatch, capsys):
    path = Path(__file__).resolve().parent.parent / "perfbench" / "libjob.py"
    spec = importlib.util.spec_from_file_location("libjob", path)
    libjob = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(libjob)
    routes = recorded_routes(monkeypatch)
    rng = random.Random(41006)
    matchings = enumerate_perfect_matchings(6)
    perms = enumerate_permutations(4)
    rng.shuffle(matchings)
    rng.shuffle(perms)
    (tmp_path / "m6.objects").write_text(format_matchings(matchings))
    (tmp_path / "rp4.objects").write_text(
        "\n".join(["perms 4 24"] + [" ".join(map(str, p.images)) for p in perms]) + "\n"
    )
    for name, objects, relation in (("m6", matchings, "4"), ("rp4", perms, "reversing")):
        assert libjob.main([str(tmp_path / f"{name}.objects"), relation]) == 0
        cg = build_compatibility_graph(objects, libjob.parse_relation(relation))
        witness = _lex_least_clique(complement(cg.adjacency))
        assert capsys.readouterr().out == libjob.result_line(len(witness), witness)
    assert [other is not None for other in routes] == [True, True]


# ------------------------------------------------------------
# property tests: the build and both searches against the oracles
# ------------------------------------------------------------

# Examples are derandomized and no example database is kept, so every run
# draws the same inputs; they are drawn inside each test, once the fixture
# has moved Hypothesis's home directory.  Subsets of the larger enumerations
# take the general route, and shuffled full orbits the rooted one.
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=100)
POOLS = [(enumerate_ham_paths(5), length) for length in (3, 4, 5)]
POOLS += [(enumerate_perfect_matchings(8), length) for length in (4, 6, 8)]
POOLS += [(enumerate_permutations(4), "reversing")]
ORBITS = [(enumerate_ham_paths(4), length) for length in (3, 4)]
ORBITS += [(enumerate_perfect_matchings(6), length) for length in (4, 6)]
ORBITS += [(enumerate_permutations(3), "reversing")]


def subsets():
    """At most 14 objects from one pool, repeats allowed, in drawn order."""

    def drawn(pool):
        objects, relation = pool
        return st.tuples(st.lists(st.sampled_from(objects), max_size=14), st.just(relation))

    return st.sampled_from(POOLS).flatmap(drawn)


def shuffled_orbits():
    return st.sampled_from(ORBITS).flatmap(
        lambda orbit: st.tuples(st.permutations(orbit[0]), st.just(orbit[1]))
    )


def check_against_oracles(objects, relation, routes):
    """The adjacency against the pairwise scan, and both searches (value and
    lex-least witness) against the subset oracle on it and its complement,
    rooted (see recorded_routes) exactly when the objects have an orbit tree.
    Returns whether they have one."""
    cg = build_compatibility_graph(objects, relation)
    assert cg.adjacency == pairwise_oracle(objects, relation)
    routes.clear()
    assert max_clique(cg) == max_clique_oracle(cg.adjacency, cg.size)
    assert max_independent_set(cg) == max_clique_oracle(complement(cg.adjacency), cg.size)
    rooted = _orbit_tree(objects) is not None
    assert routes == ([complement(cg.adjacency), cg.adjacency] if rooted else [None, None])
    return rooted


@pytest.mark.usefixtures("hypothesis_home")
def test_search_on_subsets_matches_the_oracles(monkeypatch):
    routes = recorded_routes(monkeypatch)

    @fixed
    @given(subsets())
    def check(case):
        check_against_oracles(*case, routes)

    check()


@pytest.mark.usefixtures("hypothesis_home")
def test_search_on_shuffled_full_orbits_matches_the_oracles(monkeypatch):
    routes = recorded_routes(monkeypatch)

    @fixed
    @given(shuffled_orbits())
    def check(case):
        assert check_against_oracles(*case, routes)

    check()


@pytest.mark.usefixtures("hypothesis_home")
def test_build_search_and_verify_on_group_families_match_the_oracles(monkeypatch):
    # orbits that are not full enumerations, and unions of two orbits, under
    # groups of at most 12 relabellings: at most 12 members and one planted
    routes, rooted = recorded_routes(monkeypatch), []

    @fixed
    @given(group_families(("paths", "matchings", "permutations"), 12, 12))
    def check(case):
        objects, relation = case
        rooted.append(check_against_oracles(objects, relation, routes))
        assert verify_pairwise_creating(objects, relation) == naive_family_report(objects, relation)

    check()
    # both routes are taken often
    assert min(rooted.count(True), rooted.count(False)) >= 25, rooted.count(True)


# ------------------------------------------------------------
# clique-coclique certificates on full orbits
# ------------------------------------------------------------

def colorings(monkeypatch, call):
    """How many greedy colorings the search runs inside call()."""
    count = 0
    real = search._color_order

    def counting(cand, adjacency):
        nonlocal count
        count += 1
        return real(cand, adjacency)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_color_order", counting)
        call()
    return count


def plain_count_up(monkeypatch):
    """Turn the certificates off: each count-up step runs its own search alone."""

    real = search._decide

    def alone(adjacency, cand, target, orbit=None, rival=()):
        return real(adjacency, cand, target)

    monkeypatch.setattr(search, "_decide", alone)


def test_paused_search_resumes_where_it_stopped(monkeypatch):
    adjacency = build_compatibility_graph(enumerate_ham_paths(5), 4).adjacency

    def paused(target, cand, split):
        """A search paused after split items and then resumed: its items, and
        the colorings run before and after the pause."""
        clique_search = _clique_search(adjacency, cand, target)
        head, rest = [], []
        before = colorings(monkeypatch, lambda: head.extend(itertools.islice(clique_search, split)))
        after = colorings(monkeypatch, lambda: rest.extend(clique_search))
        return head + rest, before, after

    # omega = 12 on a vertex-transitive graph: N(0) holds a clique of 11, not of 12
    for target, answer, total in ((11, True, 11), (12, False, 13043)):
        items = [None] * total + [answer]
        # every split of the short search; of the long one, whose splits are
        # each a full run, a sample
        splits = range(total + 2) if total < 100 else (0, 1, 2, 12, 6000, total, total + 1)
        for split in splits:
            # taking k + 1 items runs exactly k colorings, and resuming runs the rest
            ran = max(split - 1, 0)
            assert paused(target, adjacency[0], split) == (items, ran, total - ran), (target, split)
    # the long search paused after every item, with the short one run in the pauses
    long, short = (_clique_search(adjacency, adjacency[0], target) for target in (12, 11))
    steps = []
    ran = colorings(monkeypatch, lambda: steps.extend((next(long), next(short, None)) for _ in range(13044)))
    assert steps == [(None, None)] * 11 + [(None, True)] + [(None, None)] * 13031 + [(False, None)]
    assert ran == 13043 + 11 and next(long, "done") == "done"
    # a target <= 0 answers yes and too few candidates no, before any coloring
    for target, cand, answer in ((0, adjacency[0], True), (-1, 0, True), (4, 0b111, False), (1, 0, False)):
        assert paused(target, cand, 1) == ([answer], 0, 0)


def test_certificates_change_no_value_or_witness(monkeypatch):
    # the oracle is the plain count-up, on every full orbit where it finishes
    rng = random.Random(41007)
    both = (max_clique, max_independent_set)
    cases = [(enumerate_ham_paths(6), 3, both), (enumerate_permutations(6), "reversing", (max_clique,))]
    for target, n, relation in FULL_ORBITS:
        objects = ENUMERATE[target](n)
        for order in [objects] + [rng.sample(objects, len(objects)) for _ in range(2)]:
            cases.append((order, relation, both))
    graphs = [(build_compatibility_graph(objects, relation), solves) for objects, relation, solves in cases]
    certified = [solve(cg) for cg, solves in graphs for solve in solves]
    plain_count_up(monkeypatch)
    assert [solve(cg) for cg, solves in graphs for solve in solves] == certified


def test_certificate_work_counts(monkeypatch):
    """Exact coloring counts, so a change to the race or the search shows."""
    h5 = build_compatibility_graph(enumerate_ham_paths(5), 4)
    matchings = enumerate_perfect_matchings(8)
    random.Random(41008).shuffle(matchings)
    m8 = build_compatibility_graph(matchings, 4)
    # H5 L4: "alpha >= 5?" answers yes after 4 rival colorings, and alpha *
    # omega <= 60 = N then proves omega <= 12 without the failing "omega >= 13?"
    assert colorings(monkeypatch, lambda: max_clique(h5)) == 141
    # shuffled M8 L4 alpha: alpha * omega = 90 < 105 = N, so no certificate
    # exists; "omega >= 10?" answers no at once and the race costs 1 coloring.
    # The failing step "a coclique of 11 through object 0" drops each refuted
    # top-level branch's orbit under the relabellings that fix matching 0
    # (5 orbits): 1,668 colorings where the plain step takes 13,667
    certified = colorings(monkeypatch, lambda: max_independent_set(m8))
    assert certified == 1753
    # RP6 omega: "alpha >= 56?" never answers first, so the race costs the
    # rival's colorings, 90 over the plain count-up's 8,014
    rp6 = build_compatibility_graph(enumerate_permutations(6), "reversing")
    assert colorings(monkeypatch, lambda: max_clique(rp6)) == 8104
    # the plain count-up is the search as it ran before the certificates and
    # the orbits
    plain_count_up(monkeypatch)
    assert colorings(monkeypatch, lambda: max_clique(h5)) == 13164
    plain = colorings(monkeypatch, lambda: max_independent_set(m8))
    assert plain == 13751 and certified <= 1.01 * plain


def decisions(monkeypatch, call):
    """The _decide calls made inside call(), each as its target, its answer
    and the colorings run inside it in order, "own" or "rival" by the graph
    colored; and the colorings run outside any _decide call."""
    calls, active, outside = [], [], []
    real_decide, real_color = search._decide, search._color_order

    def deciding(adjacency, cand, target, orbit=None, rival=()):
        steps = []
        active.append((adjacency, steps))
        answer = real_decide(adjacency, cand, target, orbit, rival)
        active.pop()
        calls.append((target, answer, steps))
        return answer

    def coloring(cand, adjacency):
        if active:
            own, steps = active[-1]
            steps.append("own" if adjacency is own else "rival")
        else:
            outside.append(adjacency)
        return real_color(cand, adjacency)

    with monkeypatch.context() as patch:
        patch.setattr(search, "_decide", deciding)
        patch.setattr(search, "_color_order", coloring)
        call()
    return calls, len(outside)


def test_every_coloring_runs_inside_one_decision(monkeypatch):
    # H5 L4 omega: a certificate ends the count-up
    h5 = build_compatibility_graph(enumerate_ham_paths(5), 4)
    calls, outside = decisions(monkeypatch, lambda: max_clique(h5))
    assert outside == 0 and sum(len(steps) for *_, steps in calls) == 141
    # the certified step "a clique of 12 in N(0)?": the own search runs its
    # first 12 colorings alone, then the rival one coloring per own coloring
    # until it finds the coclique of 5 that proves omega <= 12
    raced = [call for call in calls if "rival" in call[2]]
    assert raced == [(12, False, ["own"] * 12 + ["own", "rival"] * 4)]
    # shuffled M8 L4 alpha: the orbits prune, and no certificate exists
    matchings = enumerate_perfect_matchings(8)
    random.Random(41008).shuffle(matchings)
    m8 = build_compatibility_graph(matchings, 4)
    calls, outside = decisions(monkeypatch, lambda: max_independent_set(m8))
    assert outside == 0 and sum(len(steps) for *_, steps in calls) == 1753
    assert any("rival" in steps for *_, steps in calls)
    # a family with no orbit tree: the unrooted route races nothing
    objects, relation = not_full_orbits()[0]
    cg = build_compatibility_graph(objects, relation)
    calls, outside = decisions(monkeypatch, lambda: (max_clique(cg), max_independent_set(cg)))
    steps = [step for *_, steps in calls for step in steps]
    assert outside == 0 and steps and set(steps) == {"own"}


# ------------------------------------------------------------
# orbital branching under the relabellings that fix object 0
# ------------------------------------------------------------

def test_root_orbits_are_the_classes_of_independent_oracles():
    rng = random.Random(41012)
    # matchings: two matchings are in one orbit exactly when their unions
    # with matching 0 have the same component sizes
    for n in (4, 6, 8, 10):
        matchings = enumerate_perfect_matchings(n)
        for order in (matchings, rng.sample(matchings, len(matchings))):
            classes = [
                sorted(len(walk) for _, walk in matching_union_components_oracle(order[0], m))
                for m in order
            ]
            expected = [sum(1 << j for j, c in enumerate(classes) if c == mine) for mine in classes]
            assert _root_orbits(order) == expected, n
    # paths: each path and its image under the relabelling that reverses path 0
    for n in (3, 4, 5, 6):
        paths = enumerate_ham_paths(n)
        for order in (paths, rng.sample(paths, len(paths))):
            index = {path: i for i, path in enumerate(order)}
            reverse = dict(zip(order[0].order, reversed(order[0].order)))
            images = [index[HamPath(reverse[v] for v in path.order)] for path in order]
            assert _root_orbits(order) == [1 << i | 1 << j for i, j in enumerate(images)], n
    # no relabelling that fixes a permutation is tried
    assert _root_orbits(enumerate_permutations(4)) == []


@pytest.mark.usefixtures("hypothesis_home")
def test_orbital_count_up_decides_as_the_plain_one_on_group_families():
    pruned = []

    def check(case):
        objects, relation = case
        cg = build_compatibility_graph(objects, relation)
        if _orbit_tree(objects) is None:
            return
        orbit = _root_orbits(objects)
        pruned.append(len(set(orbit)) < len(orbit))
        # every rooted decision of both sides' count-ups, up to the first no
        for side in (cg.adjacency, complement(cg.adjacency)):
            for target in itertools.count():
                *_, plain = _clique_search(side, side[0], target)
                *_, orbital = _clique_search(side, side[0], target, orbit)
                assert orbital == plain, (objects, relation, target)
                if not plain:
                    break

    # the group families rarely hold a relabelling that fixes member 0, and
    # the fixed-lead families always do
    fixed(given(group_families(("paths", "matchings", "permutations"), 12, 12))(check))()
    fixed(given(fixed_lead_families(24))(check))()
    # the orbits merge members often
    assert pruned.count(True) >= 40, (len(pruned), pruned.count(True))


def matching_orbit(moves, first):
    """The orbit of matching `first` (a list of pairs) under the relabellings
    that the image tuples `moves` generate, in the order reached."""
    orbit = [PerfectMatching(first)]
    for m in orbit:  # the loop also visits what it appends
        for image in (relabelled_by(g, m) for g in moves):
            if image not in orbit:
                orbit.append(image)
    return orbit


def test_a_matching_orbit_that_the_sorted_keys_miss_is_still_transitive(monkeypatch):
    # orbits of 5 and 10 matchings on 1..6 under groups of relabellings,
    # where the relabelling that reads the first two members' sorted edge
    # tuples place by place does not map the family onto itself
    orbits = [matching_orbit([(3, 1, 6, 4, 2, 5)], [(1, 3), (2, 6), (4, 5)]),
              matching_orbit([(3, 4, 6, 1, 5, 2), (5, 4, 6, 2, 1, 3)], [(1, 5), (2, 3), (4, 6)])]
    routes = recorded_routes(monkeypatch)
    assert [len(family) for family in orbits] == [5, 10]
    for family in orbits:
        first, second = (sorted(m.edges) for m in family[:2])
        sigma = dict(zip(itertools.chain(*first), itertools.chain(*second)))
        g = tuple(sigma[v] for v in range(1, 7))
        assert {relabelled_by(g, m) for m in family} != set(family), family
        assert _orbit_tree(family) is not None, family
        with monkeypatch.context() as patch:
            calls = []
            patch.setattr(graphs, "_creates", lambda a, b, length: calls.append((a, b)) or True)
            assert verify_pairwise_creating(family, 4).passed
        assert len(calls) == len(family) - 1, family
        for length in (4, 6):
            cg = build_compatibility_graph(family, length)
            assert cg.adjacency == pairwise_oracle(family, length), (family, length)
            routes.clear()
            assert max_clique(cg) == max_clique_oracle(cg.adjacency, cg.size), (family, length)
            assert max_independent_set(cg) == max_clique_oracle(complement(cg.adjacency), cg.size)
            assert routes == [complement(cg.adjacency), cg.adjacency], (family, length)


def test_root_orbits_are_computed_once_per_graph_with_an_orbit_tree(monkeypatch):
    cases = [(ENUMERATE[target](n), relation) for target, n, relation in FULL_ORBITS]
    cases += not_full_orbits()
    asked = []
    monkeypatch.setattr(search, "_root_orbits", lambda objs: asked.append(len(objs)) or _root_orbits(objs))
    for objects, relation in cases:
        asked.clear()
        cg = build_compatibility_graph(objects, relation)
        rooted = _orbit_tree(objects) is not None
        assert asked == ([len(objects)] if rooted else []), (objects, relation)
        # the searches read the orbits the graph kept
        max_clique(cg)
        max_independent_set(cg)
        assert asked == ([len(objects)] if rooted else []), (objects, relation)


def test_h6_independence_numbers_agree_rooted_and_unrooted():
    # the certificates behind the H6 L5 and L6 pins, and H6 L4's, by both routes
    pinned = {relation: witness for target, n, relation, solve, witness in PINNED_SEARCHES
              if (target, n, solve) == ("H", 6, max_independent_set)}
    for length, alpha in ((4, 8), (5, 36), (6, 24)):
        cg = build_compatibility_graph(enumerate_ham_paths(6), length)
        witness = _lex_least_clique(complement(cg.adjacency))
        assert max_independent_set(cg) == (alpha, witness) == (alpha, pinned[length]), length


def test_clique_witness_members_are_pairwise_related():
    cg = build_compatibility_graph(enumerate_ham_paths(5), 3)
    size, witness = max_clique(cg)
    family = [cg.objects[i] for i in witness]
    assert len(family) == size
    assert verify_pairwise_creating(family, 3).passed


def test_empty_compatibility_graph():
    # no object names a kind, so an empty family takes either kind's relation
    for relation in (4, "reversing"):
        cg = build_compatibility_graph([], relation)
        assert cg.adjacency == ()
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


def test_exact_h7_l3_equals_the_closed_form():
    # two independent routes: the clique search over all 2,520 paths, and the
    # count of balanced bipartitions
    value, witness = exact_h(7, 3)
    assert value == 35 == max_triangle_creating_paths(7)
    assert len(set(witness)) == 35 and all(path.n == 7 for path in witness)
    assert all(is_creating(a, b, 3) for a, b in itertools.combinations(witness, 2))


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
    # H6 L5 and L6 are not in METRICS.md.  The proof that no larger family
    # exists is the clique-coclique certificate: the H6 graphs are
    # vertex-transitive on N = 360 paths, so alpha * omega <= 360, and the
    # independent sets pinned below (36 at L5, 24 at L6) give omega <= 10 and
    # omega <= 15.  Neither finished in 60 s with the plain count-up.
    ("H", 6, 5, max_clique, (0, 7, 12, 19, 26, 38, 44, 50, 55, 78)),
    ("H", 6, 6, max_clique, (0, 26, 49, 74, 97, 129, 152, 167, 187, 202, 230, 251, 255, 307, 349)),
    ("H", 6, 4, max_independent_set, (0, 1, 95, 121, 137, 237, 316, 336)),
    ("H", 6, 5, max_independent_set,
     (0, 5, 14, 16, 54, 59, 60, 65, 103, 105, 114, 119, 127, 129, 138, 143, 151, 158,
      191, 195, 234, 239, 246, 247, 252, 261, 277, 287, 289, 299, 317, 322, 343, 345, 354, 359)),
    ("H", 6, 6, max_independent_set, tuple(range(24))),
]


def test_pinned_exact_values_and_witnesses():
    for target, n, relation, solve, witness in PINNED_SEARCHES:
        cg = build_compatibility_graph(ENUMERATE[target](n), relation)
        assert solve(cg) == (len(witness), witness), (target, n, relation, solve.__name__)
