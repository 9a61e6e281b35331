"""Independent brute-force reference implementations, used only by the tests.

Nothing here shares code with the package routines it checks: cycles are found
by trying every vertex subset and every cyclic order, cliques by trying every
vertex subset, perfect matchings by trying every set of n/2 edges, reversals
by the double loop straight from the definition, the union of two matchings
by walking partners, bipartitions by colouring vertex by vertex, and plane
incidences by testing every point-line pair.  On hosts too large for the
subset oracles, short cycles are found by growing every simple walk from
edge lists, and bipartite perfect matchings are counted by the sets of
partners that a prefix of one side can use.  The symplectic quadrangle W(2)
is built from its form on F_2^4, and permutations are classed by the cycle
type of p^-1 . q walked point by point.  Groups of relabellings are closed
by composing their generators until nothing new appears, and families
closed under them are built by relabelling members.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Iterable

from hypothesis import strategies as st

from cyclecreate.graphs import FamilyReport, HamPath, PerfectMatching, Permutation
from cyclecreate.hosts import LabeledGraph


def edge_union(a, b) -> LabeledGraph:
    """The graph on the common vertex set 1..n whose edges are those of a or b."""
    assert a.n == b.n, (a.n, b.n)
    return LabeledGraph(a.n, a.edges | b.edges)


def subset_has_hamiltonian_cycle(g: LabeledGraph, subset: tuple[int, ...]) -> bool:
    adj = g.adjacency
    inside = sum(1 << v for v in subset)
    # on a cycle through the whole subset every member has two neighbours in it
    if any((adj[v] & inside).bit_count() < 2 for v in subset):
        return False
    first = subset[0]
    for perm in itertools.permutations(subset[1:]):
        cycle = (first,) + perm
        if all(
            adj[cycle[i]] >> cycle[(i + 1) % len(cycle)] & 1
            for i in range(len(cycle))
        ):
            return True
    return False


def cycle_exists_oracle(g: LabeledGraph, length: int) -> bool:
    """A cycle on exactly `length` vertices exists: try every subset."""
    return any(
        subset_has_hamiltonian_cycle(g, subset)
        for subset in itertools.combinations(range(1, g.n + 1), length)
    )


def all_cycles_oracle(g: LabeledGraph, length: int) -> set[frozenset]:
    """Every cycle on exactly `length` vertices, as a frozenset of its edges."""
    adj = g.adjacency
    found: set[frozenset] = set()
    for subset in itertools.combinations(range(1, g.n + 1), length):
        first = subset[0]
        for perm in itertools.permutations(subset[1:]):
            cycle = (first,) + perm
            if all(
                adj[cycle[i]] >> cycle[(i + 1) % len(cycle)] & 1
                for i in range(len(cycle))
            ):
                edges = frozenset(
                    tuple(sorted((cycle[i], cycle[(i + 1) % len(cycle)])))
                    for i in range(len(cycle))
                )
                found.add(edges)
    return found


def bipartition_oracle(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two color classes, or None: a breadth-first search colours each
    component from its smallest vertex, which gets colour 0, one vertex at a
    time from neighbour lists built from the edge set."""
    neighbours: dict[int, list[int]] = {v: [] for v in range(1, g.n + 1)}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    color: dict[int, int] = {}
    for src in range(1, g.n + 1):
        if src in color:
            continue
        color[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in neighbours[u]:
                if v not in color:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    left = tuple(v for v in range(1, g.n + 1) if color[v] == 0)
    right = tuple(v for v in range(1, g.n + 1) if color[v] == 1)
    return left, right


def plane_incidence_oracle(q: int) -> frozenset[tuple[int, int]]:
    """Edges of the point-line incidence graph of the plane of prime order q:
    the nonzero vectors of (Z_q)^3 whose first nonzero entry is 1, sorted, are
    both the points 1..c and the lines c+1..2c, and every point-line pair
    with dot product 0 mod q is an edge."""
    reps = sorted(
        vector
        for vector in itertools.product(range(q), repeat=3)
        if any(vector) and next(x for x in vector if x) == 1
    )
    c = len(reps)
    return frozenset(
        (i + 1, c + j + 1)
        for i, point in enumerate(reps)
        for j, line in enumerate(reps)
        if sum(x * y for x, y in zip(point, line)) % q == 0
    )


def symplectic_quadrangle_oracle() -> LabeledGraph:
    """W(2), the Tutte 8-cage: its 15 points, the nonzero vectors of F_2^4 as
    4-bit numbers x1 x2 x3 x4, are vertices 1..15 in increasing order, and
    its 15 totally isotropic lines, the sets {x, y, x + y} on which the form
    x1 y2 + x2 y1 + x3 y4 + x4 y3 vanishes, sorted, are vertices 16..30."""

    def form(x, y):
        return ((x >> 3 & y >> 2) ^ (x >> 2 & y >> 3) ^ (x >> 1 & y) ^ (x & y >> 1)) & 1

    lines = sorted(
        {tuple(sorted((x, y, x ^ y))) for x, y in itertools.permutations(range(1, 16), 2) if not form(x, y)}
    )
    return LabeledGraph(15 + len(lines), [(x, 16 + j) for j, line in enumerate(lines) for x in line])


def neighbours_oracle(g: LabeledGraph) -> dict[int, list[int]]:
    """Each vertex's neighbours in increasing order, read from the edge set."""
    return {v: sorted(b if a == v else a for a, b in g.edges if v in (a, b)) for v in range(1, g.n + 1)}


def cycle_lengths_oracle(g: LabeledGraph, longest: int) -> set[int]:
    """The lengths, at most `longest`, of g's cycles: every simple walk of
    up to `longest` vertices, grown one neighbour at a time from each start,
    whose last vertex is a neighbour of its first."""
    neighbours = neighbours_oracle(g)
    lengths: set[int] = set()
    walks = [(v,) for v in neighbours]
    while walks and len(walks[0]) < longest:
        walks = [walk + (u,) for walk in walks for u in neighbours[walk[-1]] if u not in walk]
        lengths.update(len(walk) for walk in walks if len(walk) >= 3 and walk[0] in neighbours[walk[-1]])
    return lengths


def bipartite_matching_count_oracle(g: LabeledGraph, side: Iterable[int]) -> int:
    """The perfect matchings of a bipartite graph with `side` one of its two
    classes: each of side's vertices in turn takes a neighbour unused so far,
    and the ways are counted per set of neighbours used."""
    neighbours = neighbours_oracle(g)
    ways = {frozenset(): 1}
    for v in side:
        grown: dict[frozenset, int] = {}
        for used, count in ways.items():
            for u in neighbours[v]:
                if u not in used:
                    grown[used | {u}] = grown.get(used | {u}, 0) + count
        ways = grown
    return sum(ways.values())


def cycle_type_oracle(p: Permutation, q: Permutation) -> list[int]:
    """The sorted cycle lengths of p^-1 . q, the map i -> the position of
    q(i) in p's images, each cycle walked from its smallest point."""
    where = {value: i for i, value in enumerate(p.images, start=1)}
    seen: set[int] = set()
    lengths = []
    for start in range(1, len(p.images) + 1):
        i, length = start, 0
        while i not in seen:
            seen.add(i)
            i, length = where[q.images[i - 1]], length + 1
        if length:
            lengths.append(length)
    return sorted(lengths)


def max_clique_oracle(adjacency, size: int) -> tuple[int, tuple[int, ...]]:
    """Maximum clique over all 2^size subsets, with the lexicographically
    least witness among the maximum ones.  Only sensible for size <= 20."""
    best = 0
    best_witness: tuple[int, ...] = ()
    for mask in range(1 << size):
        members = []
        ok = True
        rest = mask
        while rest:
            low = rest & -rest
            v = low.bit_length() - 1
            if (mask ^ low) & ~adjacency[v]:
                ok = False
                break
            members.append(v)
            rest ^= low
        if not ok:
            continue
        witness = tuple(members)
        if len(members) > best or (len(members) == best and witness < best_witness):
            best = len(members)
            best_witness = witness
    return best, best_witness


def perfect_matchings_oracle(g: LabeledGraph) -> set[tuple[tuple[int, int], ...]]:
    """Every perfect matching of g as its sorted pair tuple: each choice of n/2
    edges that covers 1..n.  Only sensible for a few dozen edges."""
    adj = g.adjacency
    edges = [(u, v) for u in range(1, g.n + 1) for v in range(u + 1, g.n + 1) if adj[u] >> v & 1]
    everything = set(range(1, g.n + 1))
    return {
        chosen
        for chosen in itertools.combinations(edges, g.n // 2)
        if {v for edge in chosen for v in edge} == everything
    }


def reversing_oracle(p1: Permutation, p2: Permutation) -> bool:
    """The defining double loop, with no inverse-table shortcut."""
    for i in range(1, p1.m + 1):
        for j in range(i + 1, p1.m + 1):
            if p1(i) == p2(j) and p1(j) == p2(i):
                return True
    return False


def matching_union_components_oracle(
    m1: PerfectMatching, m2: PerfectMatching
) -> list[tuple[str, tuple[int, ...]]]:
    """The components of the union of two perfect matchings on one ground set,
    as (kind, vertices), by increasing smallest vertex.

    A pair present in both matchings is ("shared", (u, v)).  Every other
    component is an alternating cycle, ("cycle", walk), walked from its
    smallest vertex by following m1's and m2's partners in turn.
    """
    assert m1.n == m2.n, (m1.n, m2.n)
    p1, p2 = {}, {}
    for partner, edges in ((p1, m1.edges), (p2, m2.edges)):
        for u, v in edges:
            partner[u], partner[v] = v, u
    seen: set[int] = set()
    components = []
    for start in range(1, m1.n + 1):
        if start in seen:
            continue
        if p1[start] == p2[start]:
            seen.update((start, p1[start]))
            components.append(("shared", (start, p1[start])))
            continue
        walk = [start]
        current, use_first = p1[start], False
        while current != start:
            walk.append(current)
            current = (p1 if use_first else p2)[current]
            use_first = not use_first
        seen.update(walk)
        components.append(("cycle", tuple(walk)))
    return components


def naive_family_report(family, relation) -> FamilyReport:
    """The all-pairs check, every pair decided by an oracle: reversing_oracle
    with "reversing", and otherwise the subset oracle on the pair's union."""

    def related(a, b):
        if relation == "reversing":
            return reversing_oracle(a, b)
        return cycle_exists_oracle(edge_union(a, b), relation)

    first = next(
        (
            (i, j)
            for i, j in itertools.combinations(range(len(family)), 2)
            if not related(family[i], family[j])
        ),
        None,
    )
    size = len(family)
    return FamilyReport(first is None, size, relation, size * (size - 1) // 2, first)


def group_of(moves, cap):
    """The permutations the moves generate (image tuples), or None past cap of them."""
    group = {tuple(range(1, len(moves[0]) + 1))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for move in moves:
            image = tuple(move[v - 1] for v in g)
            if image not in group:
                if len(group) == cap:
                    return None
                group.add(image)
                frontier.append(image)
    return group


def relabelled_by(g, member):
    """A path, matching or permutation with each label v (a permutation's
    values) replaced by g[v - 1]."""
    if isinstance(member, HamPath):
        return HamPath(g[v - 1] for v in member.order)
    if isinstance(member, PerfectMatching):
        return PerfectMatching((g[u - 1], g[v - 1]) for u, v in member.edges)
    return Permutation(g[v - 1] for v in member.images)


# per kind: the sizes n of 1..n, a member from an ordering of 1..n, and the relations for n
KINDS = {
    "paths": (range(4, 9), HamPath, lambda n: range(3, n + 1)),
    "matchings": ((4, 6, 8), lambda labels: PerfectMatching(zip(labels[::2], labels[1::2])),
                  lambda n: range(4, n + 1, 2)),
    "permutations": (range(3, 7), Permutation, lambda n: ("reversing",)),
}


@st.composite
def group_families(draw, kinds, cap, max_size):
    """A family of one of the kinds ("paths", "matchings", "permutations")
    and a relation for it: the orbit of a member, or the union of two orbits
    cut to max_size members, under a random group of relabellings of 1..n
    with at most cap elements, in a random order, with a planted duplicate or
    stray member (a quarter of the time each) or neither."""
    sizes, member, relations = KINDS[draw(st.sampled_from(kinds))]
    n = draw(st.sampled_from(sizes))
    labels = st.permutations(range(1, n + 1)).map(tuple)
    # a permutation that moves only the points of a drawn support
    moves = st.lists(st.integers(1, n), min_size=2, max_size=n, unique=True).flatmap(
        lambda support: st.permutations(support).map(
            lambda images: tuple(dict(zip(support, images)).get(v, v) for v in range(1, n + 1))
        )
    )
    generators = draw(st.lists(moves, min_size=1, max_size=2))
    # one permutation of at most 8 points has order at most 15, so a cap
    # below that needs the trivial group last
    group = group_of(generators, cap) or group_of(generators[:1], cap) or {tuple(range(1, n + 1))}
    seeds = [member(seed) for seed in draw(st.lists(labels, min_size=1, max_size=2))]
    members = dict.fromkeys(relabelled_by(g, seed) for seed in seeds for g in sorted(group))
    family = draw(st.permutations(list(members)[:max_size]))
    plant = draw(st.sampled_from(["neither", "neither", "duplicate", "stray"]))
    if plant != "neither":
        extra = draw(st.sampled_from(family)) if plant == "duplicate" else member(draw(labels))
        family.insert(draw(st.integers(0, len(family))), extra)
    return family, draw(st.sampled_from(relations(n)))


@st.composite
def fixed_lead_families(draw, cap):
    """A path or matching family and a relation for it: the orbit of a drawn
    lead member under the group that a relabelling fixing the lead and a
    random transposition generate, or under the first alone if that group
    has more than cap elements.  The fixing relabelling reverses a path; on
    a matching it permutes the pairs and swaps inside some of them.  The
    lead comes first, the rest in a random order.  cap is at least 8, the
    largest order of the fixing relabelling."""
    kind = draw(st.sampled_from(["paths", "matchings"]))
    sizes, member, relations = KINDS[kind]
    n = draw(st.sampled_from(sizes))
    lead = member(draw(st.permutations(range(1, n + 1)).map(tuple)))
    if kind == "paths":
        image = dict(zip(lead.order, reversed(lead.order)))
    else:
        image = {}
        pairs = sorted(lead.edges)
        targets = draw(st.permutations(pairs))
        for (u, v), (x, y) in zip(pairs, targets):
            image.update({u: y, v: x} if draw(st.booleans()) else {u: x, v: y})
    fixing = tuple(image[v] for v in range(1, n + 1))
    swap = draw(st.lists(st.integers(1, n), min_size=2, max_size=2, unique=True))
    move = tuple(dict(zip(swap, reversed(swap))).get(v, v) for v in range(1, n + 1))
    group = group_of([fixing, move], cap) or group_of([fixing], cap)
    members = list(dict.fromkeys(relabelled_by(g, lead) for g in sorted(group)))
    return [lead, *draw(st.permutations(members[1:]))], draw(st.sampled_from(relations(n)))
