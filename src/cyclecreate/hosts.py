"""Immutable labeled graphs on 1..n, their girth and bipartition: what a
host graph needs, and what every other value type builds on.

Vertices are 1-based integer labels.  A graph keeps its neighbour bitmasks
and its colour classes once computed, so the screens that a command runs on
one graph share them.  Every question is decided exactly, and the same
inputs always give the same answer.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property
from math import inf
from operator import attrgetter

# The cap on the n of a graph, paths or matchings file, and of a constructed
# family: adjacency masks and the work on them grow with n squared.  The
# q = 31 plane that construct plane writes has 1,986 vertices.
MAX_VERTICES = 4096


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


class _Value:
    """What the value types share, over the fields that a subclass names in
    _fields: equality with its own type only, a hash, the repr
    Name(field=value, ...), and no assignment.  Constructors set the fields
    with object.__setattr__; cached properties live outside them."""

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls._fields) if cls._fields else None

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")


class _Graph(_Value):
    """What graphs, paths and matchings share: a graph on 1..n given by `n` and `edges`."""

    @cached_property
    def adjacency(self) -> tuple[int, ...]:
        """Neighbor bitmasks indexed by vertex label (entry 0 is unused)."""
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        return tuple(adj)

    @cached_property
    def _bipartition(self) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
        return _color_classes(self)

    def degrees(self) -> tuple[int, ...]:
        """Vertex degrees in label order 1..n."""
        return tuple(mask.bit_count() for mask in self.adjacency[1:])


class LabeledGraph(_Graph):
    """Simple undirected graph on vertex set 1..n (no loops, no multi-edges)."""

    _fields = ("n", "edges")
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


def girth(g: LabeledGraph) -> int | float:
    """Length of a shortest cycle in g, or math.inf if g is a forest.

    Breadth-first search from each vertex s over the vertices above s, with
    the visited set and each level as bitmasks.  At depth d an edge inside the
    level closes a walk of length 2d + 1, and a vertex reached from two level
    members one of length 2d + 2.  Each walk uses some edge once, so it holds
    a cycle no longer than itself, and from the smallest vertex of a shortest
    cycle the search finds one that short.  A bipartite graph has no odd
    closed walk, so there a level is searched only while 2d + 2 can still
    beat the best cycle found.
    """
    adj = g.adjacency
    shortest = 2 if bipartition(g) is not None else 1
    best: int | float = inf
    for src in range(1, g.n + 1):
        best = _shortest_walk_from(adj, src, best, shortest)
    return best


def _shortest_walk_from(
    adj: Sequence[int], src: int, best: int | float, shortest: int
) -> int | float:
    unseen = -1 << (src + 1)  # the vertices above src
    level = 1 << src
    depth = 0
    while level and 2 * depth + shortest < best:
        reached = twice = 0
        rest = level
        while rest:
            low = rest & -rest
            rest ^= low
            nbrs = adj[low.bit_length() - 1]
            if nbrs & level:
                return 2 * depth + 1
            fresh = nbrs & unseen
            twice |= reached & fresh
            reached |= fresh
        if twice:
            return 2 * depth + 2
        unseen ^= reached
        level = reached
        depth += 1
    return best


def bipartition(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The two color classes if g is bipartite, else None.

    Breadth-first levels (bitmasks) from each component's smallest vertex
    alternate classes from the first; an edge inside one closes an odd cycle.
    The answer is computed once per graph and kept with it.
    """
    return g._bipartition


def _color_classes(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    adj = g.adjacency
    unseen = (1 << (g.n + 1)) - 2
    classes = [0, 0]
    while unseen:
        level = unseen & -unseen
        side = 0
        while level:
            unseen ^= level
            classes[side] |= level
            side ^= 1
            reached = 0
            rest = level
            while rest:
                low = rest & -rest
                rest ^= low
                reached |= adj[low.bit_length() - 1]
            if reached & level:
                return None
            level = reached & unseen
    return tuple(tuple(v for v in range(1, g.n + 1) if mask >> v & 1) for mask in classes)
