"""Immutable labeled graphs, exact fixed-length cycle detection, and perfect
matching enumeration.

Vertices are 1-based integer labels.  The graphs handled here are tiny
(dozens of vertices), and every question is decided exactly by exhaustive
search with pruning, never by sampling or floating point.  All operations are
pure: the same inputs always give the same answer and the same tie-breaks.

Relabelling the vertices preserves cycles of every length.  So on a family
of paths, matchings or permutations that its own relabellings move
transitively, from member 0 to any member, every pair has the answer of some
pair (0, j).  One test, _orbit_tree, decides that row 0 speaks for the whole
family, for the all-pairs check here (see verify_pairwise_creating) and for
the compatibility graphs and searches of the search module.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from math import inf
from typing import Iterable, Sequence

Vertex = int

# The cap on the n of a graph, paths or matchings file, and of a constructed
# family: adjacency masks and the work on them grow with n squared.  The
# q = 31 plane that construct plane writes has 1,986 vertices.
MAX_VERTICES = 4096


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    if u == v:
        raise ValueError(f"loop at vertex {u} is not allowed")
    return (u, v) if u < v else (v, u)


# ============================================================
# object types
# ============================================================


class _Graph:
    """What graphs, paths and matchings share: a graph on 1..n given by `n` and `edges`."""

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
class LabeledGraph(_Graph):
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


@dataclass(frozen=True, init=False)
class HamPath(_Graph):
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

    @cached_property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset(
            _normalize_edge(u, v) for u, v in zip(self.order, self.order[1:])
        )


@dataclass(frozen=True, init=False)
class PerfectMatching(_Graph):
    """Partition of 1..n (n even) into n/2 disjoint pairs."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        normalized = frozenset(_normalize_edge(u, v) for u, v in pairs)
        n = 2 * len(normalized)
        covered = sorted(v for pair in normalized for v in pair)
        if covered != list(range(1, n + 1)):
            raise ValueError("pairs must cover a ground set 1..2m with every vertex in exactly one pair")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", normalized)


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


# ============================================================
# operations
# ============================================================


def _path_to(
    a: Sequence[int], b: Sequence[int], ends: int, current: int, allowed: int, remaining: int
) -> bool:
    """True iff the union of a and b has a path from `current` through
    `remaining` >= 1 more vertices of `allowed`, the last of them in `ends`.

    Every option but the highest is tried by recursion, and the highest by
    the loop, so the stack grows only at vertices where the walk branches.
    """
    while True:
        options = (a[current] | b[current]) & allowed
        if remaining == 1:
            return bool(options & ends)
        if not options:
            return False
        remaining -= 1
        while options & (options - 1):
            low = options & -options
            options ^= low
            if _path_to(a, b, ends, low.bit_length() - 1, allowed ^ low, remaining):
                return True
        current = options.bit_length() - 1
        allowed ^= options


def _has_cycle_through(a: Sequence[int], b: Sequence[int], u: int, v: int, length: int) -> bool:
    """True iff in the union of a and b a walk from v through length - 2
    vertices other than u and v closes at u: with the edge (u, v), a cycle on
    exactly `length` vertices."""
    return _path_to(a, b, a[u] | b[u], v, ~(1 << u | 1 << v), length - 2)


def _creates(a: Sequence[int], b: Sequence[int], length: int) -> bool:
    """The creating relation on two unchecked adjacency tuples of one size."""
    # the anchor is the smallest vertex of the cycle, so it is at most n - length + 1
    for anchor in range(1, len(a) - length + 1):
        above = -1 << (anchor + 1)  # only vertices above the anchor may join the cycle
        up = (a[anchor] | b[anchor]) & above
        # the walk leaves by the lower neighbour low and closes at one above it
        while up & (up - 1):
            low = up & -up
            up ^= low
            if _path_to(a, b, up, low.bit_length() - 1, above ^ low, length - 2):
                return True
    return False


def contains_cycle_of_length(g: LabeledGraph, length: int) -> bool:
    """Decide whether g has a simple cycle on exactly `length` vertices.

    That is the creating relation of g with itself: depth-first search over
    simple paths, anchored at the smallest vertex of the candidate cycle so no
    cycle is searched from two different anchors.  Each cycle is walked one
    way only: it leaves the anchor by the lower of its two neighbours there
    and must close at a higher one, found with one mask test.
    """
    return is_creating(g, g, length)


def girth(g: LabeledGraph) -> int | float:
    """Length of a shortest cycle in g, or math.inf if g is a forest.

    Breadth-first search from each vertex s over the vertices above s, with
    the visited set and each level as bitmasks.  At depth d an edge inside the
    level closes a walk of length 2d + 1, and a vertex reached from two level
    members one of length 2d + 2.  Each walk uses some edge once, so it holds
    a cycle no longer than itself, and from the smallest vertex of a shortest
    cycle the search finds one that short.
    """
    adj = g.adjacency
    best: int | float = inf
    for src in range(1, g.n + 1):
        best = _shortest_walk_from(adj, src, best)
    return best


def _shortest_walk_from(adj: Sequence[int], src: int, best: int | float) -> int | float:
    unseen = -1 << (src + 1)  # the vertices above src
    level = 1 << src
    depth = 0
    while level and 2 * depth + 1 < best:
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
    """
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


def is_creating(
    a: LabeledGraph | HamPath | PerfectMatching,
    b: LabeledGraph | HamPath | PerfectMatching,
    length: int,
) -> bool:
    """True iff the union of a and b contains a cycle on exactly `length` vertices.

    Both arguments must be of the same kind and live on the same ground set.
    """
    return _creates(*_family_adjacencies((a, b), length), length)


def _family_adjacencies(members: Sequence, length: int | None) -> list[tuple[int, ...]]:
    """The creating relation's checks on a family of any size, and its adjacency masks.

    The members must be of one kind and, unless length is None (permutations),
    graphs, paths or matchings on one ground set with a cycle length of at
    least 3, whatever the family's size.  Errors name member 0's kind or
    ground set and the first one, in member order, that differs from it.
    """
    for m in members:
        if type(m) is not type(members[0]):
            raise TypeError(f"mixed kinds: {type(members[0]).__name__} vs {type(m).__name__}")
    if length is None:
        return []
    if members and not isinstance(members[0], _Graph):
        raise TypeError(f"expected a graph, path, or matching, got {type(members[0]).__name__}")
    adjacencies = [m.adjacency for m in members]
    for adj in adjacencies:
        if len(adj) != len(adjacencies[0]):
            raise ValueError(f"mismatched ground sets (n={len(adjacencies[0]) - 1} vs n={len(adj) - 1})")
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    return adjacencies


def enumerate_perfect_matchings_of(g: LabeledGraph) -> list[PerfectMatching]:
    """Every perfect matching of g, by lexicographic backtracking.

    Deliberately independent of the permanent route; the two are compared in
    tests.  A graph on an odd number of vertices has no perfect matchings.
    """
    if g.n % 2:
        return []
    adj = g.adjacency
    out: list[PerfectMatching] = []
    pairs: list[tuple[int, int]] = []

    def extend(free: int) -> None:
        if not free:
            out.append(PerfectMatching(pairs))
            return
        low = free & -free
        u = low.bit_length() - 1
        options = adj[u] & (free ^ low)
        while options:
            pick = options & -options
            options ^= pick
            v = pick.bit_length() - 1
            pairs.append((u, v))
            extend(free ^ low ^ pick)
            pairs.pop()

    extend((1 << (g.n + 1)) - 2)
    return out


@dataclass(frozen=True)
class FamilyReport:
    """Outcome of an all-pairs creating check over one family."""

    passed: bool
    family_size: int
    cycle_length: int
    pair_count: int                          # family_size * (family_size - 1) / 2
    first_violation: tuple[int, int] | None  # 0-based member indices, scan order


def _path_images(first: tuple, target: tuple, orders: Iterable[tuple]) -> Iterable[tuple]:
    """Path orders under the relabelling of 1..n that takes order `first` to
    order `target` place by place, each put back in canonical orientation."""
    sigma = dict(zip(first, target)).__getitem__
    for order in orders:
        image = tuple(map(sigma, order))
        yield image if image[0] < image[-1] else image[::-1]


def _matching_images(first: tuple, target: tuple, matchings: Iterable[tuple]) -> Iterable[tuple]:
    """Sorted edge tuples under the relabelling that takes sorted edge tuple
    `first` to `target` place by place, mapped edge by edge and sorted again."""
    sigma = dict(zip(itertools.chain(*first), itertools.chain(*target)))
    pairs = itertools.combinations(sorted(sigma.items()), 2)
    edge = {(u, v): (x, y) if x < y else (y, x) for (u, x), (v, y) in pairs}
    return (tuple(sorted(map(edge.__getitem__, edges))) for edges in matchings)


def _permutation_images(first: tuple, target: tuple, perms: Iterable[tuple]) -> Iterable[tuple]:
    """Image tuples relabelled on values: tau = target . first^-1, and p goes to tau . p."""
    tau = dict(zip(first, target)).__getitem__
    return (tuple(map(tau, images)) for images in perms)


# Per kind, for _orbit_tree: a member's raw key, the keys that member 0's key
# may be taken to on the way to a member's, and the images of raw keys.
# Relabelling 1..n preserves creating, and relabelling values reversing.
_ORBIT_KINDS = {
    HamPath: (lambda path: path.order, lambda order: (order, order[::-1]), _path_images),
    PerfectMatching: (lambda m: tuple(sorted(m.edges)), lambda edges: (edges,), _matching_images),
    Permutation: (lambda perm: perm.images, lambda images: (images,), _permutation_images),
}


def _orbit_tree(members: Sequence) -> dict[int, tuple[int, list[int]]] | None:
    """A Schreier tree of member 0's orbit under the relabellings that map
    the family, of one kind on one ground set, onto itself; or None.

    The orbit grows from generators.  For the smallest member j outside it,
    the relabellings that take member 0's raw key to each of j's candidate
    keys (see _ORBIT_KINDS) are tried, and the first that maps every member
    to a member is kept as a move: the index of each member's image.  The
    tree maps each member but 0, in the order reached, to the (parent, move)
    that first reached it, with move[parent] that member.  Each kept move
    enlarges the group, and a chain of subgroups of S_n has fewer than 3n/2
    steps, so the test takes O(N n^2) steps at most.

    The test is sound for all three kinds: a tree proves the family
    transitive.  It is complete only for paths, where a relabelling that
    takes path 0 onto path j reads j's order one way or the other; for a
    matching or a permutation it tries one relabelling of many, so None
    there only means "scan pair by pair".  Every full enumeration of two or
    more members has a tree; fewer than two members, graphs and families
    with a repeated member have none.
    """
    kind = _ORBIT_KINDS.get(type(members[0])) if len(members) > 1 else None
    if kind is None:
        return None
    key, targets, images = kind
    keys = [key(member) for member in members]
    index = {k: i for i, k in enumerate(keys)}
    if len(index) < len(keys):
        return None
    orbit, moves, tree = [0], [], {0: None}
    for j in range(1, len(keys)):
        if j in tree:
            continue
        candidates = (_family_move(index, images(keys[0], t, keys)) for t in targets(keys[j]))
        move = next(filter(None, candidates), None)
        if move is None:
            return None
        moves.append(move)
        # the orbit so far is closed under the earlier moves, so they need
        # only be applied to what the new one adds
        done = len(orbit)
        for at, i in enumerate(orbit):  # the loop also visits what it appends
            for m in moves if at >= done else (move,):
                if m[i] not in tree:
                    orbit.append(m[i])
                    tree[m[i]] = (i, m)
    del tree[0]
    return tree


def _family_move(index: dict, images: Iterable) -> list[int] | None:
    """The members' images as member indices, or None at the first image that is no member."""
    move = []
    for image in images:
        if image not in index:
            return None
        move.append(index[image])
    return move


def verify_pairwise_creating(
    family: Iterable[LabeledGraph | HamPath | PerfectMatching],
    length: int,
) -> FamilyReport:
    """Check that every pair of members creates a cycle on exactly `length` vertices.

    The scan order is lexicographic over index pairs (i, j) with i < j, and the
    reported violation is the first pair in that order.  An empty or
    single-member family passes with zero pairs.

    Relabelling 1..n maps the union of two members onto the union of their
    images, so it preserves the relation.  Row 0, the pairs (0, j), is
    scanned first, and its first failing pair is the first violation.  If
    all of it creates and the relabellings that map the family onto itself
    take member 0 to every member (see _orbit_tree), as on a lower-bound
    family, any pair (i, j) has the answer of some pair (0, j'), so every
    pair creates; otherwise rows 1.. are scanned too.
    """
    members = list(family)
    size = len(members)
    pair_count = size * (size - 1) // 2
    adjacencies = _family_adjacencies(members, length)

    for i, adj_i in enumerate(adjacencies):
        if i == 1 and _orbit_tree(members) is not None:
            break
        for j in range(i + 1, size):
            if not _creates(adj_i, adjacencies[j], length):
                return FamilyReport(False, size, length, pair_count, (i, j))
    return FamilyReport(True, size, length, pair_count, None)
