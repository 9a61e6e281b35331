"""Immutable labeled graphs and exact fixed-length cycle detection.

Vertices are 1-based integer labels.  The graphs handled here are tiny
(dozens of vertices), and every question is decided exactly by exhaustive
search with pruning, never by sampling or floating point.  All operations are
pure: the same inputs always give the same answer and the same tie-breaks.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from math import inf
from operator import or_
from typing import Iterable, Iterator, NamedTuple, Sequence

Vertex = int


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


# ============================================================
# object types
# ============================================================


@dataclass(frozen=True, init=False)
class LabeledGraph:
    """Simple undirected graph on vertex set 1..n (no loops, no multi-edges)."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        normalized = frozenset(_normalize_edge(u, v) for u, v in edges)
        for u, v in normalized:
            if u < 1 or v > n:
                raise ValueError(f"edge ({u}, {v}) is outside the vertex range 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normalized)

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmasks indexed by vertex label (entry 0 is unused)."""
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees in label order 1..n."""
        return tuple(mask.bit_count() for mask in self.adjacency[1:])


@dataclass(frozen=True, init=False)
class HamPath:
    """Hamiltonian path on 1..n stored as a vertex order.

    The stored orientation is canonical: the smaller endpoint comes first, so a
    sequence and its reversal construct equal objects.
    """

    order: tuple[int, ...]

    def __init__(self, order: Iterable[int]):
        seq = tuple(order)
        if len(seq) < 2:
            raise ValueError(f"a path needs at least two vertices, got {len(seq)}")
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"order must be a permutation of 1..{len(seq)}")
        if seq[0] > seq[-1]:
            seq = seq[::-1]
        object.__setattr__(self, "order", seq)

    @property
    def n(self) -> int:
        return len(self.order)

    def vertex_at(self, position: int) -> int:
        """Vertex sitting at a 1-based position of the stored orientation."""
        if not 1 <= position <= self.n:
            raise ValueError(f"position must be in 1..{self.n}, got {position}")
        return self.order[position - 1]

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            _normalize_edge(u, v) for u, v in zip(self.order, self.order[1:])
        )

    @cached_property
    def graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.edges)


@dataclass(frozen=True, init=False)
class PerfectMatching:
    """Partition of 1..n (n even) into n/2 disjoint pairs."""

    n: int
    pairs: frozenset[tuple[int, int]]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        normalized = frozenset(_normalize_edge(u, v) for u, v in pairs)
        n = 2 * len(normalized)
        covered = sorted(v for pair in normalized for v in pair)
        if covered != list(range(1, n + 1)):
            raise ValueError("pairs must cover a ground set 1..2m with every vertex in exactly one pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", normalized)

    @cached_property
    def sorted_pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self.pairs))

    @cached_property
    def partner(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for u, v in self.pairs:
            out[u] = v
            out[v] = u
        return out

    @cached_property
    def graph(self) -> LabeledGraph:
        return LabeledGraph(self.n, self.pairs)


@dataclass(frozen=True, init=False)
class Permutation:
    """Bijection on 1..m stored as its image tuple: images[i-1] is the value at i."""

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        seq = tuple(images)
        if sorted(seq) != list(range(1, len(seq) + 1)):
            raise ValueError(f"images must be a permutation of 1..{len(seq)}")
        object.__setattr__(self, "images", seq)

    @property
    def m(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    @cached_property
    def inverse(self) -> tuple[int, ...]:
        """inverse[v-1] is the position holding value v."""
        inv = [0] * self.m
        for pos, value in enumerate(self.images, start=1):
            inv[value - 1] = pos
        return tuple(inv)


def _as_graph(obj: LabeledGraph | HamPath | PerfectMatching) -> LabeledGraph:
    if isinstance(obj, LabeledGraph):
        return obj
    if isinstance(obj, (HamPath, PerfectMatching)):
        return obj.graph
    raise TypeError(f"expected a graph, path, or matching, got {type(obj).__name__}")


# ============================================================
# operations
# ============================================================


def union(a: LabeledGraph, b: LabeledGraph) -> LabeledGraph:
    """Edge union of two graphs on the same vertex set."""
    if a.n != b.n:
        raise ValueError(f"cannot union graphs on different ground sets (n={a.n} vs n={b.n})")
    return LabeledGraph(a.n, a.edges | b.edges)


def _cycle_search(adj: Sequence[int], anchor: int, current: int, allowed: int, remaining: int) -> bool:
    if remaining == 0:
        return bool(adj[current] >> anchor & 1)
    options = adj[current] & allowed
    while options:
        low = options & -options
        options ^= low
        if _cycle_search(adj, anchor, low.bit_length() - 1, allowed ^ low, remaining - 1):
            return True
    return False


def _has_cycle(adj: Sequence[int], length: int) -> bool:
    # the anchor is the smallest vertex of the cycle, so it is at most n - length + 1
    for anchor in range(1, len(adj) - length + 1):
        # only vertices above the anchor may appear inside the cycle
        if _cycle_search(adj, anchor, anchor, -1 << (anchor + 1), length - 1):
            return True
    return False


def _creates(adj_a: Sequence[int], adj_b: Sequence[int], length: int) -> bool:
    """The creating relation on two unchecked adjacency tuples of one size."""
    return _has_cycle(list(map(or_, adj_a, adj_b)), length)


def contains_cycle_of_length(g: LabeledGraph, length: int) -> bool:
    """Decide whether g has a simple cycle on exactly `length` vertices.

    Depth-first search over simple paths, anchored at the smallest vertex of
    the candidate cycle so no cycle is searched from two different anchors.
    """
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    return _has_cycle(g.adjacency, length)


def cycles_of_length(g: LabeledGraph, length: int) -> Iterator[tuple[int, ...]]:
    """Yield every simple cycle on exactly `length` vertices exactly once.

    Cycles start at their smallest vertex and run toward the smaller of that
    vertex's two cycle neighbors, which fixes one orientation per cycle.
    """
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    if length > g.n:
        return
    adj = g.adjacency
    path = [0] * length

    def extend(current: int, allowed: int, depth: int) -> Iterator[tuple[int, ...]]:
        if depth == length:
            if adj[current] >> path[0] & 1 and path[1] < path[-1]:
                yield tuple(path)
            return
        options = adj[current] & allowed
        while options:
            low = options & -options
            options ^= low
            v = low.bit_length() - 1
            path[depth] = v
            yield from extend(v, allowed ^ low, depth + 1)

    for anchor in range(1, g.n + 1):
        path[0] = anchor
        yield from extend(anchor, -1 << (anchor + 1), 1)


def girth(g: LabeledGraph) -> int | float:
    """Length of a shortest cycle in g, or math.inf if g is a forest.

    Breadth-first search from every vertex: a non-tree edge (u, w) seen from
    source s witnesses a closed walk of length dist[u] + dist[w] + 1, every
    such walk contains a cycle no longer than itself, and for a shortest cycle
    the walk found from any of its vertices is the cycle itself.
    """
    adj = g.adjacency
    best: int | float = inf
    for src in range(1, g.n + 1):
        dist = {src: 0}
        parent = {src: 0}
        queue = deque([src])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best:
                continue
            options = adj[u]
            while options:
                low = options & -options
                options ^= low
                v = low.bit_length() - 1
                if v not in dist:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif v != parent[u]:
                    candidate = dist[u] + dist[v] + 1
                    if candidate < best:
                        best = candidate
    return best


def bipartition(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two color classes if g is bipartite, else None.

    Components are colored starting from their smallest vertex, which gets the
    first class; isolated vertices therefore land in the first class.
    """
    color: dict[int, int] = {}
    adj = g.adjacency
    for src in range(1, g.n + 1):
        if src in color:
            continue
        color[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            options = adj[u]
            while options:
                low = options & -options
                options ^= low
                v = low.bit_length() - 1
                if v not in color:
                    color[v] = color[u] ^ 1
                    queue.append(v)
                elif color[v] == color[u]:
                    return None
    left = tuple(v for v in range(1, g.n + 1) if color[v] == 0)
    right = tuple(v for v in range(1, g.n + 1) if color[v] == 1)
    return left, right


def is_creating(
    a: LabeledGraph | HamPath | PerfectMatching,
    b: LabeledGraph | HamPath | PerfectMatching,
    length: int,
) -> bool:
    """True iff the union of a and b contains a cycle on exactly `length` vertices.

    Both arguments must be of the same kind and live on the same ground set.
    """
    if type(a) is not type(b):
        raise TypeError(f"mixed kinds: {type(a).__name__} vs {type(b).__name__}")
    ga, gb = _as_graph(a), _as_graph(b)
    if ga.n != gb.n:
        raise ValueError(f"mismatched ground sets (n={ga.n} vs n={gb.n})")
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    return _creates(ga.adjacency, gb.adjacency, length)


class UnionComponent(NamedTuple):
    """One connected component of the union of two perfect matchings."""

    kind: str                  # "shared" for a pair present in both, "cycle" otherwise
    vertices: tuple[int, ...]  # walk order, starting at the smallest vertex


def matching_union_components(m1: PerfectMatching, m2: PerfectMatching) -> list[UnionComponent]:
    """Decompose the union of two perfect matchings on one ground set.

    Every component is either a pair present in both matchings or an
    alternating cycle of even length at least 4; together the components
    partition 1..n.  Components are listed by increasing smallest vertex, and
    cycle walks leave the smallest vertex along its first matching's pair.
    """
    if m1.n != m2.n:
        raise ValueError(f"mismatched ground sets (n={m1.n} vs n={m2.n})")
    p1, p2 = m1.partner, m2.partner
    seen: set[int] = set()
    components: list[UnionComponent] = []
    for start in range(1, m1.n + 1):
        if start in seen:
            continue
        if p1[start] == p2[start]:
            other = p1[start]
            seen.update((start, other))
            components.append(UnionComponent("shared", (start, other)))
            continue
        walk = [start]
        seen.add(start)
        current, use_first = start, True
        while True:
            current = p1[current] if use_first else p2[current]
            use_first = not use_first
            if current == start:
                break
            walk.append(current)
            seen.add(current)
        components.append(UnionComponent("cycle", tuple(walk)))
    return components


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of an all-pairs creating check over one family."""

    passed: bool
    family_size: int
    cycle_length: int
    pair_count: int                          # family_size * (family_size - 1) / 2
    first_violation: tuple[int, int] | None  # 0-based member indices, scan order


def verify_pairwise_creating(
    family: Iterable[LabeledGraph | HamPath | PerfectMatching],
    length: int,
) -> FamilyReport:
    """Check that every pair of members creates a cycle on exactly `length` vertices.

    The scan order is lexicographic over index pairs (i, j) with i < j, and the
    reported violation is the first pair in that order.  An empty or
    single-member family passes with zero pairs.
    """
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    members = list(family)
    size = len(members)
    pair_count = size * (size - 1) // 2
    if size >= 2 and len({type(m) for m in members}) > 1:
        names = ", ".join(sorted({type(m).__name__ for m in members}))
        raise TypeError(f"family mixes kinds: {names}")
    adjacencies = [_as_graph(m).adjacency for m in members]
    if len({len(adj) for adj in adjacencies}) > 1:
        raise ValueError("family members live on different ground sets")

    for i, adj_i in enumerate(adjacencies):
        for j in range(i + 1, size):
            if not _creates(adj_i, adjacencies[j], length):
                return FamilyReport(False, size, length, pair_count, (i, j))
    return FamilyReport(True, size, length, pair_count, None)
