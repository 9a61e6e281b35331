"""Deterministic families and graphs: slot-permuted path families, projective
plane incidence graphs, the bipartite/regular/girth screen used before
treating a graph as free of short even cycles, and the pairwise non-creating
matching families of hosts that pass it."""

from __future__ import annotations

import itertools
from collections import namedtuple
from math import factorial, isqrt

from .hosts import MAX_VERTICES, LabeledGraph, bipartition, girth

TYPE_CHECKING = False
if TYPE_CHECKING:  # graphs is loaded only to build a path or matching family
    from .graphs import HamPath, PerfectMatching

MAX_LOWER_BOUND_BLOCKS = 9  # the family has ((n-1)/k)! paths
# ((n-1)/k)! * n labels in all; the most the block cap admits at k = 2 (n = 19)
MAX_LOWER_BOUND_LABELS = factorial(MAX_LOWER_BOUND_BLOCKS) * (2 * MAX_LOWER_BOUND_BLOCKS + 1)
MAX_PLANE_ORDER = 31  # 2(q^2+q+1) = 1,986 vertices at q = 31


def lower_bound_family(n: int, k: int) -> list[HamPath]:
    """All ((n-1)/k)! paths obtained by permuting fixed interior blocks.

    Vertex t*k+1 is pinned at position t*k+1 for t = 0..(n-1)/k, and the m =
    (n-1)/k gaps between consecutive pinned vertices are filled by the m blocks
    (t*k+2, ..., (t+1)*k), one block per gap, increasing inside each block.
    Two assignments that differ in some gap route two internally disjoint
    k-edge segments between the same two pinned vertices, so every pair of
    outputs creates a cycle on exactly 2k vertices.

    Families are listed in lexicographic order of the block assignment, so the
    first member is always the sorted path (1, 2, ..., n).
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n % k != 1:
        raise ValueError(f"n must be congruent to 1 mod k; got n={n}, k={k}")
    if n < 2 * k + 1:
        raise ValueError(f"n must be at least 2k+1 = {2 * k + 1} so two blocks exist, got {n}")
    m = (n - 1) // k
    if m > MAX_LOWER_BOUND_BLOCKS:
        raise ValueError(f"the family is limited to (n-1)/k <= {MAX_LOWER_BOUND_BLOCKS}, got {m}")
    if n > MAX_VERTICES:
        raise ValueError(f"the family is limited to n <= {MAX_VERTICES}, got {n}")
    labels = factorial(m) * n
    if labels > MAX_LOWER_BOUND_LABELS:
        cap = f"((n-1)/k)! * n <= {MAX_LOWER_BOUND_LABELS} labels"
        raise ValueError(f"the family is limited to {cap}, got {labels}")
    from .graphs import HamPath

    blocks = [tuple(range(t * k + 2, (t + 1) * k + 1)) for t in range(m)]
    family = []
    for assignment in itertools.permutations(range(m)):
        order = [1]
        for slot in range(m):
            order.extend(blocks[assignment[slot]])
            order.append((slot + 1) * k + 1)
        family.append(HamPath(order))
    return family


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            return False
    return True


class PlaneIncidence(namedtuple("PlaneIncidence", "q graph points lines")):
    """Point-line incidence graph of the projective plane of prime order q.

    points are the vertex labels 1..q^2+q+1, lines q^2+q+2..2(q^2+q+1).
    """

    __slots__ = ()


def projective_plane_incidence(q: int) -> PlaneIncidence:
    """Incidence graph between the points and lines of the plane of order q.

    Points are the 1-dimensional subspaces of (Z_q)^3 and lines the
    2-dimensional ones, both keyed by a normalized representative (first
    nonzero coordinate equal to 1) and numbered in lexicographic order:
    (0, 0, 1), then (0, 1, c) as 1 + c, then (1, b, c) as 1 + q + qb + c.  A
    point lies on a line when the dot product of their representatives is zero
    mod q.  A point p with its leading 1 at index f and other indices g and h
    is orthogonal to u = e_g - p_g e_f and v = e_h - p_h e_f, which span its
    orthogonal plane, so its q + 1 lines are u and v + t u for t in Z_q, each
    numbered from its normalized multiple, found with a table of inverses mod
    q; no point-line pair is tested.  The result is (q+1)-regular, bipartite,
    and has girth 6.

    Only prime q up to MAX_PLANE_ORDER is supported; prime powers would need a
    field construction.
    """
    if q > MAX_PLANE_ORDER:
        raise ValueError(f"the plane order is limited to q <= {MAX_PLANE_ORDER}, got {q}")
    if not _is_prime(q):
        raise ValueError(f"plane order must be a prime, got {q}")
    reps = (
        [(0, 0, 1)]
        + [(0, 1, a) for a in range(q)]
        + [(1, a, b) for a in range(q) for b in range(q)]
    )
    count = len(reps)  # q^2 + q + 1
    inverse = [0, *(pow(c, -1, q) for c in range(1, q))]

    def label(x: int, y: int, z: int) -> int:
        """The vertex of the line with nonzero representative (x, y, z) mod q."""
        if x:
            s = inverse[x]
            return count + 2 + q + y * s % q * q + z * s % q
        if y:
            return count + 2 + z * inverse[y] % q
        return count + 1

    edges = []
    for i, point in enumerate(reps, start=1):
        f = point.index(1)
        g, h = (c for c in range(3) if c != f)
        u, v = [0, 0, 0], [0, 0, 0]
        u[g], u[f] = 1, -point[g] % q
        v[h], v[f] = 1, -point[h] % q
        for line in [u] + [[(b + t * a) % q for a, b in zip(u, v)] for t in range(q)]:
            edges.append((i, label(*line)))
    graph = LabeledGraph(2 * count, edges)
    return PlaneIncidence(
        q, graph, tuple(range(1, count + 1)), tuple(range(count + 1, 2 * count + 1))
    )


def choose_plane_order(n_target: int) -> tuple[int, int]:
    """Largest prime q <= MAX_PLANE_ORDER whose incidence graph fits in n_target vertices.

    Returns (q, 2 * (q^2 + q + 1)).  The smallest usable plane has order 2 and
    14 vertices, so n_target below 14 is an error.
    """
    if n_target < 14:
        raise ValueError(f"n_target must be at least 14, got {n_target}")
    for q in range(min(isqrt(n_target // 2) + 1, MAX_PLANE_ORDER), 1, -1):
        if _is_prime(q) and 2 * (q * q + q + 1) <= n_target:
            return q, 2 * (q * q + q + 1)
    raise AssertionError("unreachable: q = 2 always fits once n_target >= 14")


class ValidationReport(namedtuple("ValidationReport", "k is_bipartite is_regular degree girth passed")):
    """Outcome of the bipartite + regular + girth screen.

    degree is None when the graph is not regular, and girth is inf on a forest.
    """

    __slots__ = ()


def validate_c2kfree_bipartite_regular(g: LabeledGraph, k: int) -> ValidationReport:
    """Screen a graph for use as a C_{2k}-free bipartite regular host.

    Passes iff g is bipartite, regular, and has girth strictly greater than
    2k, which rules out every cycle of length 3..2k at once.
    """
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    is_bipartite = bipartition(g) is not None
    degs = g.degrees()
    is_regular = len(set(degs)) <= 1
    degree = (degs[0] if degs else 0) if is_regular else None
    g_girth = girth(g)
    passed = is_bipartite and is_regular and g_girth > 2 * k
    return ValidationReport(k, is_bipartite, is_regular, degree, g_girth, passed)


def build_noncreating_family(g: LabeledGraph, k: int) -> list[PerfectMatching]:
    """All perfect matchings of a validated C_{2k}-free bipartite regular graph.

    The union of two matchings of g lives inside g, so if g has no cycle on 2k
    vertices then no pair of the family creates one: the family is pairwise
    non-creating by construction.
    """
    report = validate_c2kfree_bipartite_regular(g, k)
    if not report.passed:
        raise ValueError(
            "graph fails the bipartite/regular/girth screen: "
            f"bipartite={report.is_bipartite} regular={report.is_regular} girth={report.girth}"
        )
    from .graphs import enumerate_perfect_matchings_of

    return enumerate_perfect_matchings_of(g)
