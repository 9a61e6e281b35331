"""Exhaustive enumeration of small ground objects and exact maximum clique /
independent set search over pairwise compatibility graphs.

Compatibility graphs index their objects 0-based and store adjacency as
bitmasks.  One decision search, branch and bound with greedy coloring bounds,
answers "is there a clique of size t?".  The clique number is found by raising
t from 1 until the search refuses or a certificate (below) shows that it
would, and the lexicographically least optimal witness is then built vertex by
vertex with the same search.  The graph is built, and each witness is
re-verified before being returned, with the one pair test that
graphs._pair_test hands out for the objects' relation.

When the objects are a family that its relabellings move transitively (see
graphs._orbit_tree), as every full enumeration (every Hamiltonian path,
perfect matching or permutation on one ground set, each once) is, relabelling
the ground set maps the relation to itself and moves any object to any
other, so the graph and its complement are vertex-transitive.  Every vertex,
object 0 included, then lies in a maximum clique, and the search of such a
graph, in any order, starts from object 0 inside its neighbourhood.  The
witness is the same lexicographically least one either way.  The graph
itself evaluates the relation only between object 0 and each other object:
every other row is its parent's row in the orbit tree, relabelled.

On a vertex-transitive graph with N vertices, alpha * omega <= N (the
clique-coclique bound of Albertson and Collins), so an independent set of size
a proves omega <= N // a, and a clique bounds alpha the same way.  On such
families each step of the count-up races the other side's search for such
a certificate: the step's own search runs the colorings that a yes needs
first, then the two run one coloring each in turn, and a certificate ends
the count-up without the step that fails, often the costliest one.  The
relabellings that fix object 0 and map the family onto itself fix vertex 0
in both graphs, so a count-up step that refutes a branch on a vertex of
N(0) refutes its whole orbit under them, and drops it (orbital branching,
after Ostrowski, Linderoth, Rossi and Smriglio, 2011); each graph computes
these root orbits once, and only they put its searches on this route.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Sequence
from math import comb
from operator import itemgetter

from .graphs import (
    HamPath,
    PerfectMatching,
    Permutation,
    _orbit_tree,
    _pair_test,
    _root_orbits,
    enumerate_perfect_matchings_of,
    perm_to_matching,  # still read as search.perm_to_matching
)
from .hosts import LabeledGraph, _Value

MAX_PATH_VERTICES = 8
MAX_MATCHING_VERTICES = 12
MAX_PERMUTATION_SIZE = 8


def enumerate_ham_paths(n: int) -> list[HamPath]:
    """All n!/2 Hamiltonian paths on 1..n, canonical orientation, lexicographic order."""
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if n > MAX_PATH_VERTICES:
        raise ValueError(f"path enumeration is limited to n <= {MAX_PATH_VERTICES}, got {n}")
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
    return [Permutation(p) for p in itertools.permutations(range(1, m + 1))]


# ============================================================
# compatibility graphs and exact clique search
# ============================================================


class CompatibilityGraph(_Value):
    """A pairwise relation over a fixed object tuple, as 0-based adjacency
    bitmasks that the constructor evaluates.

    Objects must be of one kind: paths, matchings, or graphs together with an
    integer cycle length, or permutations (or none) with "reversing" (see
    graphs._pair_test, which also gives the pair test).  Row 0 is computed
    first, so permutations of two sizes raise at the first pair of them
    that a pairwise scan in index order meets.  On a family with an
    orbit tree (see graphs._orbit_tree) only object 0 is related to each
    other object, and every other row is its parent's row relabelled (see
    _map_rows); any other family is related pair by pair.  Outside the
    fields, _orbit keeps the root orbits (see graphs._root_orbits), or None
    with no tree, for the searches.
    """

    _fields = ("objects", "adjacency", "relation")
    objects: tuple
    adjacency: tuple[int, ...]
    relation: int | str  # a cycle length, or the string "reversing"

    def __init__(self, objects: Sequence, relation: int | str):
        objs = tuple(objects)
        items, related = _pair_test(objs, relation)
        adjacency = [0] * len(objs)
        orbit = None
        for i, a in enumerate(items):
            if i == 1 and (tree := _orbit_tree(objs)) is not None:
                _map_rows(adjacency, tree)
                orbit = _root_orbits(objs)
                break
            for j in range(i + 1, len(items)):
                if related(a, items[j]):
                    adjacency[i] |= 1 << j
                    adjacency[j] |= 1 << i
        object.__setattr__(self, "objects", objs)
        object.__setattr__(self, "adjacency", tuple(adjacency))
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "_orbit", orbit)

    @property
    def size(self) -> int:
        return len(self.objects)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.adjacency) // 2


def build_compatibility_graph(objects: Sequence, relation: int | str) -> CompatibilityGraph:
    """Evaluate the creating or reversing relation on every pair of objects (see CompatibilityGraph)."""
    return CompatibilityGraph(objects, relation)


def _map_rows(adjacency: list[int], tree: dict) -> None:
    """Fill in every row but row 0 of a family with an orbit tree (see
    graphs._orbit_tree), in the tree's order: a relabelling that maps the
    family onto itself preserves the relation, so row i is its parent's row
    mapped through the move that takes the parent to i.

    A row is mapped whole as its bit string, through one itemgetter per move
    that reads each image's bit at its preimage's place: one pass in C over
    N characters, whatever the row's density, and nothing kept per row.
    """
    size = len(adjacency)
    getters: dict[int, itemgetter] = {}
    for i, (parent, move) in tree.items():
        if id(move) not in getters:
            # places in the bit string count down from the highest index
            places = [0] * size
            for j, image in enumerate(move):
                places[size - 1 - image] = size - 1 - j
            getters[id(move)] = itemgetter(*places)
        adjacency[i] = int("".join(getters[id(move)](f"{adjacency[parent]:0{size}b}")), 2)


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


def _clique_search(adjacency: Sequence[int], cand: int, target: int, orbit: Sequence[int] | None = None):
    """Does the candidate mask hold a clique of size target?  Branch and bound
    with greedy coloring bounds, as a generator that can be paused and
    resumed: it yields None before each coloring, and its last item is the
    answer.

    orbit, if given, holds per vertex the mask of its orbit under a group of
    automorphisms of the graph that maps cand onto itself.  A top-level
    branch on v that fails then drops all of v's orbit from the candidates
    (orbital branching): a clique through an orbit-mate of v maps to one
    through v, and the candidates, losing whole orbits only, stay invariant.
    """

    def expand(size: int, cand: int, orbit: Sequence[int] | None = None):
        if size >= target:
            return True
        if not cand:
            return False
        yield
        order, colors = _color_order(cand, adjacency)
        for idx in range(len(order) - 1, -1, -1):
            if size + colors[idx] < target:
                return False
            v = order[idx]
            if orbit and not cand >> v & 1:  # dropped with an orbit
                continue
            cand ^= 1 << v
            if (yield from expand(size + 1, cand & adjacency[v])):
                return True
            if orbit:
                cand &= ~orbit[v]
        return False

    # a target <= 0 answers yes, and too few candidates no, before any coloring
    yield cand.bit_count() >= target and (yield from expand(0, cand, orbit))


def _decide(
    adjacency: Sequence[int], cand: int, target: int, orbit: Sequence[int] | None = None,
    rival: Iterable[bool | None] = (),
) -> bool:
    """Does the candidate mask hold a clique of size target?  _clique_search
    decides, with orbit pruning as there; this is the one routine that draws
    its items, so every coloring of a search runs inside a call of it.

    rival, if given, is another such search whose yes proves the answer no
    (on the rooted count-up, a clique-coclique certificate; see
    _lex_least_clique).  A yes here takes at least target colorings, so the
    own search runs those first, spending nothing on a rival that a quick
    yes makes moot; then the rival is stepped once before each further
    coloring, so the outcome does not depend on timing.  A yes from the
    rival answers no; a no from it leaves this search to finish alone.
    """
    rival = iter(rival)
    for spent, answer in enumerate(_clique_search(adjacency, cand, target, orbit)):
        if answer is None and spent >= target and next(rival, None):
            return False
    return answer  # the search's last item


def _lex_least_clique(
    adjacency: Sequence[int], other: Sequence[int] | None = None, orbit: Sequence[int] | None = None
) -> tuple[int, ...]:
    """A maximum clique that is lexicographically least as a sorted index tuple.

    Both steps are decisions by _decide.  The clique number omega is found
    by counting the target up from 1 until a call fails, which proves that no
    larger clique exists.  Vertices are then taken in index order whenever a
    clique of the remaining size still fits among their common neighbours.

    orbit, per vertex the mask of its orbit under automorphisms that fix
    vertex 0 ([] prunes nothing), is given only for vertex-transitive graphs,
    with other, the complement, and roots the search; the result does not
    change.  Every vertex lies in some maximum clique, so the
    lexicographically least one starts with 0: the witness starts as [0],
    omega - 1 is counted up inside N(0), and the rebuild continues from
    index 1.  And alpha * omega <= N (the clique-coclique bound), so an
    independent set of size N // (w + 1) + 1 proves omega <= w: each
    count-up step "a clique of size w + 1?" races, as its rival, the search
    of other's N(0) for that certificate, which can end the count-up without
    the call that fails.  The orbits prune both sides of each race (see
    _clique_search); the rebuild stays plain.
    """
    size = len(adjacency)
    chosen: list[int] = []
    cand = (1 << size) - 1
    if orbit is not None:
        chosen.append(0)
        cand = adjacency[0]
    need = 0
    # on the rooted route, other's N(0) and vertex 0 hold the certificate
    while _decide(adjacency, cand, need + 1, orbit,
                  () if orbit is None else _clique_search(other, other[0], size // (need + 2), orbit)):
        need += 1
    for v in range(len(chosen), size):
        if need == 0:
            break
        bit = 1 << v
        if not cand & bit:
            continue
        if _decide(adjacency, cand & adjacency[v], need - 1):
            chosen.append(v)
            cand &= adjacency[v]
            need -= 1
        else:
            cand ^= bit
    if need:
        raise RuntimeError("internal error: clique reconstruction lost the optimum")
    return tuple(chosen)


def _max_set(cg: CompatibilityGraph, related: bool) -> tuple[int, tuple[int, ...]]:
    """The largest set of objects that are pairwise related (a clique) or
    pairwise unrelated (an independent set), with the lexicographically least
    witness: a clique of that side's graph.

    The graph's root orbits decide the route (see CompatibilityGraph): a
    family with an orbit tree (see graphs._orbit_tree), such as a full
    enumeration in any order, is searched from object 0, with the other
    side's cliques as certificates that end the search early and the root
    orbits pruning its count-up (see _lex_least_clique); any other family
    is searched in full.  The witness is re-verified pair by pair with the
    relation's own pair test (see graphs._pair_test) before being returned.
    """
    full = (1 << cg.size) - 1
    complement = tuple(full & ~mask & ~(1 << v) for v, mask in enumerate(cg.adjacency))
    graph, other = (cg.adjacency, complement) if related else (complement, cg.adjacency)
    witness = _lex_least_clique(graph, other, cg._orbit)
    items, test = _pair_test([cg.objects[i] for i in witness], cg.relation)
    if any(test(a, b) != related for a, b in itertools.combinations(items, 2)):
        raise RuntimeError("internal error: witness failed re-verification against the relation")
    return len(witness), witness


def max_clique(cg: CompatibilityGraph) -> tuple[int, tuple[int, ...]]:
    """Exact clique number and the lexicographically least optimal witness,
    re-verified pair by pair against the relation (see _max_set)."""
    return _max_set(cg, True)


def max_independent_set(cg: CompatibilityGraph) -> tuple[int, tuple[int, ...]]:
    """Exact independence number and the lexicographically least optimal
    witness, found as max_clique finds its own on the complement (see _max_set)."""
    return _max_set(cg, False)


# ============================================================
# exact extremal values
# ============================================================


def _exact(objects: list, relation: int | str) -> tuple[int, tuple]:
    """The largest pairwise related family of the objects, with its witness family."""
    size, indices = max_clique(build_compatibility_graph(objects, relation))
    return size, tuple(objects[i] for i in indices)


def exact_h(n: int, length: int) -> tuple[int, tuple[HamPath, ...]]:
    """Largest family of Hamiltonian paths on 1..n whose pairwise unions all
    contain a cycle on exactly `length` vertices, with a witness family."""
    if length < 3:
        raise ValueError(f"cycle length must be at least 3, got {length}")
    return _exact(enumerate_ham_paths(n), length)


def exact_m(n: int, length: int) -> tuple[int, tuple[PerfectMatching, ...]]:
    """Largest pairwise creating family of perfect matchings of the complete
    graph on 1..n, for an even cycle length, with a witness family."""
    if length < 4 or length % 2:
        raise ValueError(f"matching unions only contain even cycles of length >= 4, got {length}")
    return _exact(enumerate_perfect_matchings(n), length)


def exact_rp(m: int) -> tuple[int, tuple[Permutation, ...]]:
    """Largest pairwise reversing family of permutations of 1..m, with witness."""
    return _exact(enumerate_permutations(m), "reversing")


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
