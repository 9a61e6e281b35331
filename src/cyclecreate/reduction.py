"""Turning creating path families into creating matching families, and
shrinking the ground set of a matching family while keeping the pairwise
property.  All steps are deterministic, with documented tie-breaks."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence, TypeVar

from .graphs import HamPath, LabeledGraph, PerfectMatching, _has_cycle_through

_Key = TypeVar("_Key")


@dataclass(frozen=True)
class AssociatedTriple:
    """Three vertex-disjoint block classes cut out of a Hamiltonian path.

    A path on n = 3tk vertices is cut into n/k blocks of k consecutive
    positions; block i (0-based) goes to class i mod 3.  Each block is stored
    as its vertices in the path's stored orientation, and each class lists its
    blocks sorted by smallest vertex, so equality between triples is
    orientation-sensitive, block-by-block equality.
    """

    n: int
    k: int
    classes: tuple[tuple[tuple[int, ...], ...], ...]


def _check_size(n: int, k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n % (3 * k) != 0:
        raise ValueError(f"n must be a multiple of 3k; got n={n}, k={k}")


def associated_triple(h: HamPath, k: int) -> AssociatedTriple:
    """Cut a path on 3tk vertices into its three interleaved block classes."""
    _check_size(h.n, k)
    blocks = [h.order[i:i + k] for i in range(0, h.n, k)]
    classes: list[list[tuple[int, ...]]] = [[], [], []]
    for i, block in enumerate(blocks):
        classes[i % 3].append(block)
    return AssociatedTriple(h.n, k, tuple(tuple(sorted(cls, key=min)) for cls in classes))


def fixed_graph(triple: AssociatedTriple) -> LabeledGraph:
    """Union of all blocks of a triple: n/k disjoint paths on k vertices each."""
    edges = [
        (block[i], block[i + 1])
        for cls in triple.classes
        for block in cls
        for i in range(triple.k - 1)
    ]
    return LabeledGraph(triple.n, edges)


def triple_count(n: int, k: int) -> int:
    """Number of distinct associated triples on n = 3tk vertices.

    Computed literally as the product of three exact factors: unordered
    partitions of 1..n into n/k blocks of size k, an oriented path on each
    block, and a choice of which blocks form each of the three equal classes.
    """
    _check_size(n, k)
    block_total = n // k
    per_class = n // (3 * k)
    partitions = factorial(n)
    for _ in range(block_total):
        partitions //= factorial(k)
    partitions //= factorial(block_total)
    orientations = factorial(k) ** block_total
    colorings = factorial(block_total) // factorial(per_class) ** 3
    return partitions * orientations * colorings


def _largest_group(keys: Sequence[_Key]) -> tuple[_Key, list[int]]:
    """The key shared by the most positions (ties: the smallest key) and those
    positions in input order."""
    groups: dict[_Key, list[int]] = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    top = max(len(g) for g in groups.values())
    winner = min(key for key, g in groups.items() if len(g) == top)
    return winner, groups[winner]


def pigeonhole_largest_class(
    family: Sequence[HamPath], k: int
) -> tuple[list[HamPath], AssociatedTriple]:
    """Largest subfamily sharing one associated triple, in input order.

    Ties between equally large groups go to the smallest triple encoding.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")
    triples = [associated_triple(h, k) for h in members]
    _, kept = _largest_group([t.classes for t in triples])
    return [members[i] for i in kept], triples[kept[0]]


@dataclass(frozen=True)
class ReducedFamily:
    """Matchings kept by a reduction, relabeled onto the vertices it keeps."""

    matchings: tuple[PerfectMatching, ...]
    kept_indices: tuple[int, ...]            # 0-based indices into the input family
    removed: tuple[int, ...]                 # the deleted vertices, original labels, ascending
    label_map: tuple[tuple[int, int], ...]   # (original, new) pairs, ascending


def _keep_and_relabel(edge_sets: Sequence[frozenset[tuple[int, int]]], n: int) -> ReducedFamily:
    """Keep the largest group of members whose edges miss the same vertices.

    Members are grouped by the sorted tuple of vertices of 1..n that their
    edges miss; the largest group is kept in input order (ties: the smallest
    tuple).  Only members missing the same vertices fit one order-preserving
    relabeling, and relabeling members separately would scramble pairwise
    unions.  The missed vertices are deleted and the rest relabeled onto
    1..n' in order, which turns each kept edge set into a perfect matching.
    """
    missed = [tuple(sorted(set(range(1, n + 1)).difference(*edges))) for edges in edge_sets]
    removed, kept = _largest_group(missed)
    survivors = [v for v in range(1, n + 1) if v not in removed]
    relabel = {old: new for new, old in enumerate(survivors, start=1)}
    matchings = tuple(
        PerfectMatching((relabel[u], relabel[v]) for u, v in edge_sets[i]) for i in kept
    )
    return ReducedFamily(matchings, tuple(kept), removed, tuple(relabel.items()))


def strip_to_matchings(subfamily: Sequence[HamPath], k: int) -> ReducedFamily:
    """Delete the shared blocks and relabel what is left onto 1..2n/k - 2.

    Removing the shared block edges from a member leaves its n/k - 1
    connecting edges, a perfect matching on the block ends other than the two
    path endpoints.  Members of one triple class can still start and end in
    different blocks, so they can miss different vertices; the largest group
    missing the same ones is kept (see `_keep_and_relabel`).
    """
    members = list(subfamily)
    if not members:
        raise ValueError("subfamily must be nonempty")
    triple = associated_triple(members[0], k)
    for idx, h in enumerate(members[1:], start=1):
        if associated_triple(h, k) != triple:
            raise ValueError(f"member {idx} does not share the subfamily's associated triple")
    fixed_edges = fixed_graph(triple).edges
    return _keep_and_relabel([h.edges - fixed_edges for h in members], triple.n)


def verify_fixed_edges_unused(h1: HamPath, h2: HamPath, k: int) -> bool:
    """Check that no cycle on exactly 2k vertices in the union uses a block edge.

    The two paths must share their associated triple; each shared block edge
    gets one search for such a cycle through it.
    """
    triple = associated_triple(h1, k)
    if associated_triple(h2, k) != triple:
        raise ValueError("paths do not share an associated triple")
    a, b = h1.adjacency, h2.adjacency
    return not any(_has_cycle_through(a, b, u, v, 2 * k) for u, v in fixed_graph(triple).edges)


def ground_set_reduce(family: Sequence[PerfectMatching]) -> ReducedFamily:
    """Drop to a subfamily agreeing on vertex 1's partner, then delete that pair.

    Vertex 1 has at most n-1 distinct partners across the family, so the kept
    subfamily has at least ceil(|family| / (n-1)) members (ties between equally
    common partners go to the smallest).  Two kept members share the deleted
    pair as a common component of their union, so no cycle of their union ever
    touches it and every created cycle survives the deletion.  The remaining
    vertices are relabeled onto 1..n-2 preserving order.
    """
    members = list(family)
    if not members:
        raise ValueError("family must be nonempty")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("family members live on different ground sets")
    if n < 4:
        raise ValueError(f"ground set must have at least 4 vertices, got {n}")
    return _keep_and_relabel([m.edges - {(1, m.adjacency[1].bit_length() - 1)} for m in members], n)
