"""Hamiltonian paths, perfect matchings and permutations, exact
fixed-length cycle detection, the two pair relations, and perfect matching
enumeration.  Graphs themselves, their girth and bipartition live in hosts.

Vertices are 1-based integer labels.  The graphs handled here are tiny
(dozens of vertices), and every question is decided exactly by exhaustive
search with pruning, never by sampling or floating point.  All operations are
pure: the same inputs always give the same answer and the same tie-breaks.

Graphs, paths and matchings relate by creating a cycle of a given length,
permutations by reversing; _pair_test checks a family for its relation and
hands out its pair test, to this module and the search module alike.

Relabelling the vertices preserves cycles of every length.  So on a family
of paths, matchings or permutations (as matchings) that its relabellings move
transitively, from member 0 to any member, every pair has the answer of some
pair (0, j).  One test, _orbit_tree, decides that row 0 speaks for the whole
family, for the all-pairs check here (see verify_pairwise_creating) and for
the compatibility graphs and searches of the search module.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Callable, Iterable, NamedTuple, Sequence

from .hosts import LabeledGraph, _Graph, _normalize_edge, _Value

# ============================================================
# object types
# ============================================================


class HamPath(_Graph):
    """Hamiltonian path on 1..n stored as a vertex order.

    The stored orientation is canonical: the smaller endpoint comes first, so a
    sequence and its reversal construct equal objects.
    """

    _fields = ("order",)
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


class PerfectMatching(_Graph):
    """Partition of 1..n (n even) into n/2 disjoint pairs."""

    _fields = ("n", "edges")
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


class Permutation(_Value):
    """Bijection on 1..m stored as its image tuple: images[i-1] is the value at i."""

    _fields = ("images",)
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


def _encoding(p: Permutation) -> tuple[tuple[int, int], ...]:
    """The pairs (i, m + p(i)) of p's matching, sorted, as i is each pair's smaller end."""
    return tuple(enumerate((p.m + value for value in p.images), start=1))


def perm_to_matching(p: Permutation) -> PerfectMatching:
    """Encode a permutation of 1..m as the matching {(i, p(i) + m)} on 1..2m."""
    return PerfectMatching(_encoding(p))


def is_reversing(p1: Permutation, p2: Permutation) -> bool:
    """True iff positions i < j exist with p1(i) = p2(j) and p1(j) = p2(i)."""
    if p1.m != p2.m:
        raise ValueError(f"permutations act on different sets (m={p1.m} vs m={p2.m})")
    inv2 = p2.inverse
    for i in range(1, p1.m + 1):
        j = inv2[p1(i) - 1]
        if j > i and p1(j) == p2(i):
            return True
    return False


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


def is_creating(
    a: LabeledGraph | HamPath | PerfectMatching | Permutation,
    b: LabeledGraph | HamPath | PerfectMatching | Permutation,
    length: int | str,
) -> bool:
    """True iff the union of a and b contains a cycle on exactly `length`
    vertices, or with "reversing" iff they reverse (see _pair_test)."""
    items, related = _pair_test((a, b), length)
    return related(*items)


def _pair_test(members: Sequence, relation: int | str) -> tuple[Sequence, Callable[..., bool]]:
    """A family's checks for its relation, and the items and pair test that
    decide it: the permutations themselves with is_reversing, or the members'
    adjacency masks with the creating kernel.

    Member 0's kind (or, with no members, the relation) picks "reversing" for
    permutations or a cycle length for the rest.  Then, whatever the family's
    size, the members must be of one kind and, unless permutations, graphs,
    paths or matchings on one ground set with a length of at least 3.  Errors
    name member 0's kind or ground set and the first member that differs.
    """
    reversing = isinstance(members[0], Permutation) if members else relation == "reversing"
    if reversing and relation != "reversing":
        raise ValueError(f"permutations only support the 'reversing' relation, got {relation!r}")
    if not reversing and not isinstance(relation, int):
        raise ValueError(f"paths, matchings, and graphs need an integer cycle length, got {relation!r}")
    for m in members:
        if type(m) is not type(members[0]):
            raise TypeError(f"mixed kinds: {type(members[0]).__name__} vs {type(m).__name__}")
    if reversing:
        return members, is_reversing
    if members and not isinstance(members[0], _Graph):
        raise TypeError(f"expected a graph, path, or matching, got {type(members[0]).__name__}")
    adjacencies = [m.adjacency for m in members]
    for adj in adjacencies:
        if len(adj) != len(adjacencies[0]):
            raise ValueError(f"mismatched ground sets (n={len(adjacencies[0]) - 1} vs n={len(adj) - 1})")
    if relation < 3:
        raise ValueError(f"cycle length must be at least 3, got {relation}")
    return adjacencies, lambda a, b: _creates(a, b, relation)


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


class FamilyReport(NamedTuple):
    """Outcome of an all-pairs creating (or reversing) check over one family."""

    passed: bool
    family_size: int
    cycle_length: int | str                  # the relation: "reversing" on permutations
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


def _matching_fixers(edges: tuple) -> tuple[tuple, ...]:
    """The other raw keys of the matching with sorted edge tuple `edges`: a
    swap inside pair 0, pairs 0 and 1 swapped, the pairs cycled.  As targets,
    they generate all 2^m m! relabellings that fix the matching."""
    (a, b), *rest = edges
    return ((b, a), *rest), (*rest[:1], (a, b), *rest[1:]), (*rest, (a, b))


# Per kind, for _orbit_tree and _root_orbits: a member's raw key, the other
# raw keys of the member whose key is given, and the images of raw keys.
# Relabelling 1..n preserves creating, so reversing too on permutations' matchings (claim 7).
_ORBIT_KINDS = {
    HamPath: (lambda path: path.order, lambda order: (order[::-1],), _path_images),
    PerfectMatching: (lambda m: tuple(sorted(m.edges)), _matching_fixers, _matching_images),
    Permutation: (_encoding, _matching_fixers, _matching_images),
}


def _orbit_tree(members: Sequence) -> dict[int, tuple[int, list[int]]] | None:
    """A Schreier tree of member 0's orbit under the relabellings that map
    the family, of one kind on one ground set, onto itself; or None.

    The orbit grows from generators.  For the smallest member j outside it,
    the relabellings that take member 0's raw key to j's key, and then to
    each of j's other raw keys (see _ORBIT_KINDS), are tried; the first
    that maps every member to a member is kept as a move: the index of each
    member's image.  The tree maps each member but 0, in the order reached,
    to the (parent, move) that first reached it, with move[parent] that
    member.  Each kept move enlarges the group, and a chain of subgroups of
    S_n has fewer than 3n/2 steps, so the test takes O(N n^2) steps at most.

    The test is sound for all three kinds: a tree proves the family
    transitive.  It is also complete for paths, where a relabelling that
    takes path 0 onto path j reads j's order one way or the other, and for
    permutations under value relabellings, tried first and unique from p0 to
    pj.  For a matching it tries 4 of the 2^(n/2) (n/2)! relabellings that
    take matching 0 to j, so None there only means "scan pair by pair".
    Every full enumeration of two or more members has a tree; fewer than two
    members, graphs and families with a repeated member have none.
    """
    kind = _ORBIT_KINDS.get(type(members[0])) if len(members) > 1 else None
    if kind is None:
        return None
    key, others, images = kind
    keys = [key(member) for member in members]
    index = {k: i for i, k in enumerate(keys)}
    if len(index) < len(keys):
        return None
    orbit, moves, tree = [0], [], {0: None}
    for j in range(1, len(keys)):
        if j in tree:
            continue
        candidates = (_family_move(index, images(keys[0], t, keys)) for t in (keys[j], *others(keys[j])))
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


def _root_orbits(members: Sequence) -> list[int]:
    """Per member, the mask of its orbit under the group that the kept
    relabellings fixing member 0 generate, or [] if none is kept.

    The relabellings take member 0's raw key to its other raw keys (see
    _ORBIT_KINDS); one is kept only if it maps the family, of one kind with
    distinct members, onto itself.  Each orbit is one mask, shared by its
    members; on S_m, under p0's stabiliser, they are the cycle types of p0^-1 . q.
    """
    key, others, images = _ORBIT_KINDS[type(members[0])]
    keys = [key(member) for member in members]
    index = {k: i for i, k in enumerate(keys)}
    moves = [m for m in (_family_move(index, images(keys[0], t, keys)) for t in others(keys[0])) if m]
    if not moves:
        return []
    orbit = [0] * len(members)
    for start in range(len(members)):
        if orbit[start]:
            continue
        mask, reached = 1 << start, [start]
        for i in reached:  # the loop also visits what it appends
            for move in moves:
                if not mask >> move[i] & 1:
                    mask |= 1 << move[i]
                    reached.append(move[i])
        for i in reached:
            orbit[i] = mask
    return orbit


def _family_move(index: dict, images: Iterable) -> list[int] | None:
    """The members' images as member indices, or None at the first image that is no member."""
    move = []
    for image in images:
        if image not in index:
            return None
        move.append(index[image])
    return move


def verify_pairwise_creating(
    family: Iterable[LabeledGraph | HamPath | PerfectMatching | Permutation],
    length: int | str,
) -> FamilyReport:
    """Check that every pair of members creates a cycle on exactly `length`
    vertices, or with "reversing" reverses (see _pair_test).

    The scan order is lexicographic over index pairs (i, j) with i < j, and the
    reported violation is the first pair in that order.  An empty or
    single-member family passes with zero pairs.

    Relabelling the ground set preserves the relation (see _ORBIT_KINDS).
    Row 0, the pairs (0, j), is scanned first, and its first failing pair is
    the first violation.  If all of it is related and the relabellings that
    map the family onto itself take member 0 to every member (see
    _orbit_tree), as on a lower-bound family, any pair (i, j) has the answer
    of some pair (0, j'), so every pair is related; otherwise rows 1.. are
    scanned too.
    """
    members = list(family)
    size = len(members)
    pair_count = size * (size - 1) // 2
    items, related = _pair_test(members, length)

    for i, a in enumerate(items):
        if i == 1 and _orbit_tree(members) is not None:
            break
        for j in range(i + 1, size):
            if not related(a, items[j]):
                return FamilyReport(False, size, length, pair_count, (i, j))
    return FamilyReport(True, size, length, pair_count, None)
