"""Exhaustive enumeration of small ground objects and exact maximum clique /
independent set search over pairwise compatibility graphs.

Compatibility graphs index their objects 0-based and store adjacency as
bitmasks.  One decision search, branch and bound with greedy coloring bounds,
answers "is there a clique of size t?".  The clique number is found by raising
t from 1 until the search refuses, and the lexicographically least optimal
witness is then built vertex by vertex with the same search.  Witnesses are
re-verified against the defining relation before being returned.

When the objects are a full enumeration (every Hamiltonian path, perfect
matching or permutation on one ground set, each once), relabelling the ground
set maps the relation to itself and moves any object to any other, so the
graph and its complement are vertex-transitive.  Every vertex, object 0
included, then lies in a maximum clique, and the search starts from object 0
inside its neighbourhood.  The witness is the same lexicographically least
one either way.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from math import comb, factorial, prod
from typing import Sequence

from .graphs import (
    HamPath,
    LabeledGraph,
    PerfectMatching,
    Permutation,
    _as_graph,
    _creates,
    enumerate_perfect_matchings_of,
    is_creating,
)

ENUM_LIMIT_ENV = "CYCLECREATE_MAX_ENUM"
DEFAULT_ENUM_LIMIT = 1_000_000
MAX_PATH_VERTICES = 8
MAX_MATCHING_VERTICES = 12
MAX_PERMUTATION_SIZE = 8


def enumeration_limit() -> int:
    """Cap on how many objects one enumeration call may produce.

    Read from the CYCLECREATE_MAX_ENUM environment variable on every call;
    unset means 1000000.
    """
    raw = os.environ.get(ENUM_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ENUM_LIMIT
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ENUM_LIMIT_ENV} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ENUM_LIMIT_ENV} must be positive, got {value}")
    return value


def _check_enum_size(what: str, count: int) -> None:
    limit = enumeration_limit()
    if count > limit:
        raise ValueError(
            f"{what} would enumerate {count} objects, over the {ENUM_LIMIT_ENV} limit of {limit}"
        )


def _orbit_size(kind: type, n: int) -> int:
    """How many paths (n!/2), matchings ((n-1)!!) or permutations (n!) live on 1..n."""
    if kind is HamPath:
        return factorial(n) // 2
    if kind is PerfectMatching:
        return prod(range(n - 1, 0, -2))
    return factorial(n)


def enumerate_ham_paths(n: int) -> list[HamPath]:
    """All n!/2 Hamiltonian paths on 1..n, canonical orientation, lexicographic order."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if n > MAX_PATH_VERTICES:
        raise ValueError(f"path enumeration is limited to n <= {MAX_PATH_VERTICES}, got {n}")
    _check_enum_size(f"paths on {n} vertices", _orbit_size(HamPath, n))
    return [
        HamPath(p)
        for p in itertools.permutations(range(1, n + 1))
        if p[0] < p[-1]
    ]


def enumerate_perfect_matchings(n: int) -> list[PerfectMatching]:
    """All (n-1)!! perfect matchings of the complete graph on 1..n.

    The smallest free vertex is always paired next, with its partner scanned in
    increasing order, so the output order is lexicographic and reproducible.
    """
    if n < 2 or n % 2:
        raise ValueError(f"n must be a positive even number, got {n}")
    if n > MAX_MATCHING_VERTICES:
        raise ValueError(
            f"matching enumeration is limited to n <= {MAX_MATCHING_VERTICES}, got {n}"
        )
    _check_enum_size(f"matchings on {n} vertices", _orbit_size(PerfectMatching, n))
    return enumerate_perfect_matchings_of(
        LabeledGraph(n, itertools.combinations(range(1, n + 1), 2))
    )


def enumerate_permutations(m: int) -> list[Permutation]:
    """All m! permutations of 1..m in lexicographic image order."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    if m > MAX_PERMUTATION_SIZE:
        raise ValueError(
            f"permutation enumeration is limited to m <= {MAX_PERMUTATION_SIZE}, got {m}"
        )
    _check_enum_size(f"permutations of 1..{m}", _orbit_size(Permutation, m))
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


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


def perm_to_matching(p: Permutation) -> PerfectMatching:
    """Encode a permutation of 1..m as the matching {(i, p(i) + m)} on 1..2m."""
    return PerfectMatching((i, p(i) + p.m) for i in range(1, p.m + 1))


# ============================================================
# compatibility graphs and exact clique search
# ============================================================


@dataclass(frozen=True)
class CompatibilityGraph:
    """A pairwise relation over a fixed object tuple, as 0-based adjacency bitmasks."""

    objects: tuple
    adjacency: tuple[int, ...]
    relation: int | str  # a cycle length, or the string "reversing"

    @property
    def size(self) -> int:
        return len(self.objects)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def _creating_adjacencies(objs: tuple, length: int) -> list[tuple[int, ...]]:
    """Adjacency masks of the objects, raising what the first failing
    is_creating(objs[0], objs[j], length) raises; fewer than two objects form no pair."""
    if len(objs) < 2:
        return []
    adjacencies = [_as_graph(o).adjacency for o in objs]
    for adj in adjacencies[1:]:
        if len(adj) != len(adjacencies[0]):
            raise ValueError(f"mismatched ground sets (n={len(adjacencies[0]) - 1} vs n={len(adj) - 1})")
        if length < 3:
            raise ValueError(f"cycle length must be at least 3, got {length}")
    return adjacencies


def build_compatibility_graph(objects: Sequence, relation: int | str) -> CompatibilityGraph:
    """Evaluate the creating or reversing relation on every pair of objects.

    Objects must be of one kind: paths, matchings, or graphs together with an
    integer cycle length, or permutations with the "reversing" relation.
    """
    objs = tuple(objects)
    if len({type(o) for o in objs}) > 1:
        names = ", ".join(sorted({type(o).__name__ for o in objs}))
        raise TypeError(f"objects mix kinds: {names}")
    if objs and isinstance(objs[0], Permutation):
        if relation != "reversing":
            raise ValueError(f"permutations only support the 'reversing' relation, got {relation!r}")
        items, related = objs, is_reversing
    elif not isinstance(relation, int):
        raise ValueError(
            f"paths, matchings, and graphs need an integer cycle length, got {relation!r}"
        )
    else:
        items = _creating_adjacencies(objs, relation)

        def related(a, b) -> bool:
            return _creates(a, b, relation)

    adjacency = [0] * len(objs)
    for i, a in enumerate(items):
        for j in range(i + 1, len(items)):
            if related(a, items[j]):
                adjacency[i] |= 1 << j
                adjacency[j] |= 1 << i
    return CompatibilityGraph(objs, tuple(adjacency), relation)


def _color_order(cand: int, adjacency: Sequence[int]) -> tuple[list[int], list[int]]:
    """Greedy coloring of a candidate mask.

    Returns the candidate vertices listed class by class together with their
    color numbers, which are nondecreasing along the list.
    """
    order: list[int] = []
    colors: list[int] = []
    uncolored = cand
    color = 0
    while uncolored:
        color += 1
        available = uncolored
        while available:
            low = available & -available
            v = low.bit_length() - 1
            order.append(v)
            colors.append(color)
            uncolored ^= low
            available = (available ^ low) & ~adjacency[v]
    return order, colors


def _has_clique(adjacency: Sequence[int], cand: int, target: int) -> bool:
    """Early-exit decision: does the candidate mask hold a clique of size target?"""
    if target <= 0:
        return True
    if cand.bit_count() < target:
        return False

    def expand(size: int, cand: int) -> bool:
        if size >= target:
            return True
        if not cand:
            return False
        order, colors = _color_order(cand, adjacency)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] < target:
                return False
            v = order[idx]
            bit = 1 << v
            cand ^= bit
            if expand(size + 1, cand & adjacency[v]):
                return True
        return False

    return expand(0, cand)


def _lex_least_clique(
    adjacency: Sequence[int], size: int, rooted: bool = False
) -> tuple[int, ...]:
    """A maximum clique that is lexicographically least as a sorted index tuple.

    Both steps are decisions by _has_clique.  The clique number omega is found
    by counting the target up from 1; the one call that fails proves that no
    larger clique exists.  Vertices are then taken in index order whenever a
    clique of the remaining size still fits among their common neighbours.

    rooted=True is only for vertex-transitive graphs.  There every vertex lies
    in some maximum clique, so the lexicographically least one starts with 0:
    the witness starts as [0], omega - 1 is counted up inside N(0), and the
    rebuild continues from index 1.  The result equals the unrooted one.
    """
    chosen: list[int] = []
    cand = (1 << size) - 1
    if rooted:
        chosen.append(0)
        cand = adjacency[0]
    need = 0
    while _has_clique(adjacency, cand, need + 1):
        need += 1
    for v in range(len(chosen), size):
        if need == 0:
            break
        bit = 1 << v
        if not cand & bit:
            continue
        if _has_clique(adjacency, cand & adjacency[v], need - 1):
            chosen.append(v)
            cand &= adjacency[v]
            need -= 1
        else:
            cand ^= bit
    if need:
        raise RuntimeError("internal error: clique reconstruction lost the optimum")
    return tuple(chosen)


def _reverify(cg: CompatibilityGraph, witness: tuple[int, ...], expect_related: bool) -> None:
    for a, b in itertools.combinations(witness, 2):
        x, y = cg.objects[a], cg.objects[b]
        related = is_reversing(x, y) if cg.relation == "reversing" else is_creating(x, y, cg.relation)
        if related != expect_related:
            raise RuntimeError("internal error: witness failed re-verification against the relation")


def _full_orbit(objects: tuple) -> bool:
    """True iff the objects are every Hamiltonian path, perfect matching or
    permutation on one ground set, each exactly once.  Relabelling the ground
    set acts transitively on them and preserves both relations, so their
    compatibility graph is vertex-transitive.  Fewer than two objects are
    never an orbit here.
    """
    if len(objects) < 2:
        return False
    kind = type(objects[0])
    if kind not in (HamPath, PerfectMatching, Permutation) or any(
        type(o) is not kind for o in objects
    ):
        return False
    ground = {o.m if kind is Permutation else o.n for o in objects}
    if len(ground) != 1:
        return False
    return len(objects) == _orbit_size(kind, ground.pop()) == len(set(objects))


def max_clique(cg: CompatibilityGraph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number and the lexicographically least optimal witness.

    The witness is re-verified pair by pair against the stored relation before
    being returned.  The adjacency must be the relation's, as
    build_compatibility_graph makes it: on a full enumeration of objects the
    search relies on the relation's symmetry (see _full_orbit).
    """
    witness = _lex_least_clique(cg.adjacency, cg.size, _full_orbit(cg.objects))
    _reverify(cg, witness, expect_related=True)
    return len(witness), witness


def max_independent_set(cg: CompatibilityGraph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number and the lexicographically least optimal witness."""
    full = (1 << cg.size) - 1
    complement = tuple(
        (full & ~cg.adjacency[v]) & ~(1 << v) for v in range(cg.size)
    )
    witness = _lex_least_clique(complement, cg.size, _full_orbit(cg.objects))
    _reverify(cg, witness, expect_related=False)
    return len(witness), witness


# ============================================================
# exact extremal values
# ============================================================


def exact_h(n: int, length: int) -> tuple[int, tuple[HamPath, ...]]:
    """Largest family of Hamiltonian paths on 1..n whose pairwise unions all
    contain a cycle on exactly `length` vertices, with a witness family."""
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    paths = enumerate_ham_paths(n)
    size, indices = max_clique(build_compatibility_graph(paths, length))
    return size, tuple(paths[i] for i in indices)


def exact_m(n: int, length: int) -> tuple[int, tuple[PerfectMatching, ...]]:
    """Largest pairwise creating family of perfect matchings of the complete
    graph on 1..n, for an even cycle length, with a witness family."""
    if length < 4 or length % 2:
        raise ValueError(f"matching unions only contain even cycles of length >= 4, got {length}")
    matchings = enumerate_perfect_matchings(n)
    size, indices = max_clique(build_compatibility_graph(matchings, length))
    return size, tuple(matchings[i] for i in indices)


def exact_rp(m: int) -> tuple[int, tuple[Permutation, ...]]:
    """Largest pairwise reversing family of permutations of 1..m, with witness."""
    perms = enumerate_permutations(m)
    size, indices = max_clique(build_compatibility_graph(perms, "reversing"))
    return size, tuple(perms[i] for i in indices)


def max_triangle_creating_paths(n: int) -> int:
    """Closed form for the largest pairwise triangle-creating path family on 1..n.

    Equal to C(n, floor(n/2)) for odd n and half that for even n, the number
    of balanced bipartitions of 1..n.  Two paths with the same alternating
    position bipartition have a bipartite union and never create a triangle,
    so a family holds at most one path per balanced bipartition, and that cap
    is attained.
    """
    if n < 3:
        raise ValueError(f"n must be at least 3, got {n}")
    value = comb(n, n // 2)
    return value if n % 2 else value // 2
