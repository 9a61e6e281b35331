"""End-to-end acceptance checklist.

Each test covers one numbered criterion and prints a single PASS or FAIL
line straight to the terminal (bypassing capture), so a full run reads as
a checklist regardless of pytest flags.  Wall-clock budgets are asserted
where a criterion carries one.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

import pytest

from cyclecreate import (
    BiadjacencyMatrix,
    HamPath,
    associated_triple,
    bipartition,
    build_compatibility_graph,
    build_noncreating_family,
    check_regular_matching_bound,
    count_perfect_matchings,
    enumerate_perfect_matchings,
    enumerate_perfect_matchings_of,
    enumerate_permutations,
    exact_h,
    exact_m,
    exact_rp,
    girth,
    ground_set_reduce,
    is_creating,
    is_reversing,
    lower_bound_family,
    matching_upper_exponent,
    max_clique,
    max_independent_set,
    max_triangle_creating_paths,
    path_upper_exponent,
    perm_to_matching,
    pigeonhole_largest_class,
    projective_plane_incidence,
    permanent_naive,
    permanent_ryser,
    strip_to_matchings,
    triple_count,
    van_der_waerden_bound,
    verify_fixed_edges_unused,
    verify_pairwise_creating,
)


@pytest.fixture
def checklist(capsys):
    @contextmanager
    def criterion(number, label):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            _line(capsys, number, "FAIL", time.monotonic() - start, label)
            raise
        _line(capsys, number, "PASS", time.monotonic() - start, label)

    return criterion


def _line(capsys, number, verdict, elapsed, label):
    with capsys.disabled():
        print(f"acceptance {number:2d} {verdict} ({elapsed:6.1f}s) {label}", flush=True)


def test_criterion_01_triangle_path_maxima(checklist):
    with checklist(1, "exact triangle-creating path maxima for n = 4, 5, 6"):
        for n, expected in ((4, 3), (5, 10), (6, 10)):
            start = time.monotonic()
            value, witness = exact_h(n, 3)
            elapsed = time.monotonic() - start
            assert value == expected == max_triangle_creating_paths(n), n
            assert len(witness) == value
            assert verify_pairwise_creating(witness, 3).passed
            assert elapsed < 300, (n, elapsed)


def test_criterion_02_slot_family_sizes(checklist):
    with checklist(2, "slot-permuted families have size ((n-1)/k)! and all pairs create"):
        start = time.monotonic()
        for k, n in ((2, 5), (2, 7), (2, 9), (3, 7), (3, 10), (4, 9)):
            family = lower_bound_family(n, k)
            assert len(family) == factorial((n - 1) // k), (k, n)
            report = verify_pairwise_creating(family, 2 * k)
            assert report.passed and report.first_violation is None, (k, n)
            assert report.pair_count == len(family) * (len(family) - 1) // 2
        assert time.monotonic() - start < 60


def twelve_vertex_creating_family():
    """Twelve pairwise 4-cycle-creating Hamiltonian paths on 12 vertices.

    The first two share their position-class structure (middle blocks 3,4
    and 9,10 swapped); the other ten pin the odd labels to odd positions
    and permute the even labels through the slots between them, skipping
    assignments that put 6 back into its home slot.
    """
    family = [
        HamPath(range(1, 13)),
        HamPath((1, 2, 9, 10, 5, 6, 7, 8, 3, 4, 11, 12)),
    ]
    slotted = [p for p in itertools.permutations((2, 4, 6, 8, 10)) if p[2] != 6]
    for a, b, c, d, e in slotted[:10]:
        family.append(HamPath((1, a, 3, b, 5, c, 7, d, 9, e, 11, 12)))
    return family


def test_criterion_03_paths_to_matchings_pipeline(checklist):
    with checklist(3, "12-path pipeline yields creating matchings on 10 vertices"):
        start = time.monotonic()
        family = twelve_vertex_creating_family()
        assert len(family) >= 12
        assert verify_pairwise_creating(family, 4).passed

        groups = {}
        for path in family:
            groups.setdefault(associated_triple(path, 2), []).append(path)
        for members in groups.values():
            for p1, p2 in itertools.combinations(members, 2):
                assert verify_fixed_edges_unused(p1, p2, 2)

        subfamily, _ = pigeonhole_largest_class(family, 2)
        stripped = strip_to_matchings(subfamily, 2)
        matchings = stripped.matchings
        assert len(matchings) >= math.ceil(len(family) / triple_count(12, 2))
        assert all(m.n == 10 for m in matchings)
        assert verify_pairwise_creating(matchings, 4).passed
        assert time.monotonic() - start < 60


def test_criterion_04_triple_structure_count(checklist):
    with checklist(4, "720 position-class structures for six vertices"):
        # Independent route: a structure is an unordered pairing of the six
        # vertices, an orientation of each pair, and an assignment of the
        # three directed pairs to the three classes.
        def pairings(vertices):
            if not vertices:
                yield ()
                return
            first = vertices[0]
            for i in range(1, len(vertices)):
                rest = vertices[1:i] + vertices[i + 1 :]
                for tail in pairings(rest):
                    yield ((first, vertices[i]),) + tail

        structures = set()
        for pairing in pairings(tuple(range(1, 7))):
            for bits in range(8):
                oriented = tuple(
                    (v, u) if bits >> i & 1 else (u, v)
                    for i, (u, v) in enumerate(pairing)
                )
                for assignment in itertools.permutations(oriented):
                    structures.add(assignment)
        assert len(structures) == 720 == triple_count(6, 2)


def test_criterion_05_plane_incidence_graphs(checklist):
    with checklist(5, "plane incidence graphs: regular bipartite with girth 6"):
        start = time.monotonic()
        for q in (2, 3, 5, 7):
            plane = projective_plane_incidence(q)
            g = plane.graph
            assert g.n == 2 * (q * q + q + 1), q
            assert set(g.degrees()) == {q + 1}, q
            classes = bipartition(g)
            assert classes is not None
            assert sorted(map(len, classes)) == [q * q + q + 1] * 2
            assert girth(g) == 6, q
        for q in (2, 3, 5):
            plane = projective_plane_incidence(q)
            adjacency = plane.graph.adjacency
            for p1, p2 in itertools.combinations(plane.points, 2):
                assert (adjacency[p1] & adjacency[p2]).bit_count() == 1, (q, p1, p2)
        assert time.monotonic() - start < 60


def test_criterion_06_permanent_routes_and_matching_count(checklist):
    with checklist(6, "permanent routes agree; plane matching count is certified"):
        start = time.monotonic()
        for m in range(1, 5):
            for bits in range(1 << (m * m)):
                rows = [
                    tuple(bits >> (m * i + j) & 1 for j in range(m))
                    for i in range(m)
                ]
                matrix = BiadjacencyMatrix(rows)
                assert permanent_ryser(matrix) == permanent_naive(matrix), rows
        rng = random.Random(61001)
        for m in range(5, 9):
            for _ in range(200):
                rows = [
                    tuple(rng.randint(0, 1) for _ in range(m)) for _ in range(m)
                ]
                matrix = BiadjacencyMatrix(rows)
                assert permanent_ryser(matrix) == permanent_naive(matrix), rows
        for m in range(1, 8):
            uniform = BiadjacencyMatrix([[Fraction(1, m)] * m for _ in range(m)])
            assert (
                permanent_ryser(uniform)
                == van_der_waerden_bound(m)
                == Fraction(factorial(m), m**m)
            )
        plane = projective_plane_incidence(2).graph
        count = count_perfect_matchings(plane)
        assert count == len(enumerate_perfect_matchings_of(plane))
        report = check_regular_matching_bound(plane)
        assert report.passed and report.doubly_stochastic
        assert count >= math.ceil(report.bound) == 14
        assert time.monotonic() - start < 120


def test_criterion_07_noncreating_family_is_independent(checklist):
    with checklist(7, "plane matchings give an independent set of the creating graph"):
        plane = projective_plane_incidence(2).graph
        family = build_noncreating_family(plane, 2)
        assert family
        for m1, m2 in itertools.combinations(family, 2):
            assert not is_creating(m1, m2, 4)
        cg = build_compatibility_graph(family, 4)
        assert cg.edge_count == 0
        alpha, witness = max_independent_set(cg)
        assert alpha == len(family)
        assert {cg.objects[i] for i in witness} == set(family)


def test_criterion_08_independence_clique_product(checklist):
    with checklist(8, "independence number times clique number fits the vertex count"):
        start = time.monotonic()
        for n in (6, 8):
            matchings = enumerate_perfect_matchings(n)
            cg = build_compatibility_graph(matchings, 4)
            omega, clique = max_clique(cg)
            alpha, _ = max_independent_set(cg)
            assert alpha * omega <= cg.size, n
            assert verify_pairwise_creating([cg.objects[i] for i in clique], 4).passed

        value, _ = exact_m(4, 4)
        assert value == 3

        six = enumerate_perfect_matchings(6)
        masks = []
        for i, m1 in enumerate(six):
            mask = 0
            for j, m2 in enumerate(six):
                if i != j and is_creating(m1, m2, 4):
                    mask |= 1 << j
            masks.append(mask)
        best = 0
        for subset in range(1 << len(six)):
            if subset.bit_count() <= best:
                continue
            remaining = subset
            while remaining:
                low = remaining & -remaining
                if subset & ~(masks[low.bit_length() - 1] | low):
                    break
                remaining ^= low
            else:
                best = subset.bit_count()
        assert exact_m(6, 4)[0] == best
        assert time.monotonic() - start < 600


def test_criterion_09_reversing_equivalence(checklist):
    with checklist(9, "reversing pairs coincide with 4-cycle creating matchings"):
        checked = 0
        for m in (3, 4, 5):
            perms = enumerate_permutations(m)
            matchings = [perm_to_matching(p) for p in perms]
            for i, p1 in enumerate(perms):
                for j, p2 in enumerate(perms):
                    assert is_reversing(p1, p2) == is_creating(
                        matchings[i], matchings[j], 4
                    ), (p1.images, p2.images)
                    checked += 1
        assert checked == 15012

        perms = enumerate_permutations(3)
        best = 0
        for size in range(len(perms), 0, -1):
            for subset in itertools.combinations(perms, size):
                if all(is_reversing(a, b) for a, b in itertools.combinations(subset, 2)):
                    best = size
                    break
            if best:
                break
        value, witness = exact_rp(3)
        assert value == best == 2
        assert all(is_reversing(a, b) for a, b in itertools.combinations(witness, 2))


def test_criterion_10_exponent_table(checklist):
    with checklist(10, "path exponents match the closed forms up to k = 100"):
        assert path_upper_exponent(2) == Fraction(3, 4)
        assert path_upper_exponent(3) == Fraction(8, 9)
        assert path_upper_exponent(5) == Fraction(24, 25)
        for k in range(2, 101):
            if k in (2, 3, 5):
                expected = 1 - Fraction(1, k * k)
            elif k % 2 == 0:
                expected = 1 - Fraction(2, 3 * k * k - 2 * k)
            else:
                expected = 1 - Fraction(2, 3 * k * k - 3 * k)
            got = path_upper_exponent(k)
            assert isinstance(got, Fraction) and got == expected, k
        assert matching_upper_exponent(2) == Fraction(1, 4)


def random_creating_family(rng, pool):
    """Greedy pairwise 4-cycle-creating family from a shuffled matching pool."""
    family = []
    for candidate in rng.sample(pool, min(len(pool), 150)):
        if all(is_creating(candidate, member, 4) for member in family):
            family.append(candidate)
            if len(family) == 15:
                break
    return family


def test_criterion_11_vertex_deletion_keeps_property(checklist):
    with checklist(11, "deleting a vertex pair keeps families pairwise creating"):
        rng = random.Random(111001)
        for n in (8, 10):
            pool = enumerate_perfect_matchings(n)
            for _ in range(50):
                family = random_creating_family(rng, pool)
                assert family
                reduced = ground_set_reduce(family)
                assert len(reduced.matchings) >= math.ceil(len(family) / (n - 1))
                assert all(m.n == n - 2 for m in reduced.matchings)
                assert verify_pairwise_creating(reduced.matchings, 4).passed
