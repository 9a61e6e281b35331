"""Reference constructions and expected answers for the benchmark's gate.

Nothing here imports the package under test.  Expected outputs come from the
paper's constructions and theorems or from closed forms (m!, derangements,
menage numbers, plane degree q+1 and girth 6), and the few checks that have to
search use a route different from the package's: alternating-cycle lengths for
matchings, the double loop of the definition for reversals, and backtracking
for perfect matchings.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, factorial

# Values no closed form or acceptance criterion gives; pinned from the
# package as it stood when the benchmark was written (see METRICS.md).
PINNED_OMEGA = {
    ("M", 8, 4): 9,
    ("M", 8, 6): 5,
    ("M", 8, 8): 7,
    ("H", 5, 4): 12,
    ("H", 5, 5): 10,
    ("RP", 5, None): 8,
}
PINNED_ALPHA = {("M", 8, 4): 10, ("RP", 5, None): 13}


# ------------------------------------------------------------------
# closed forms
# ------------------------------------------------------------------


def triangle_path_maximum(n: int) -> int:
    """Largest pairwise triangle-creating path family on n vertices:
    C(n, n//2) for odd n and half that for even n."""
    value = comb(n, n // 2)
    return value if n % 2 else value // 2


def derangements(m: int) -> int:
    """Permanent of J - I: D(m) = (m-1) * (D(m-1) + D(m-2))."""
    a, b = 1, 0  # D(0), D(1)
    for i in range(2, m + 1):
        a, b = b, (i - 1) * (a + b)
    return a if m == 0 else b


def menage(m: int) -> int:
    """Permanent of J - I - P (P the cyclic shift), by Touchard's formula."""
    return sum(
        (-1) ** k * (comb(2 * m - k, k) + comb(2 * m - k - 1, k - 1)) * factorial(m - k)
        if k else factorial(m)
        for k in range(m + 1)
    )


def lemma6_bound(r: int, m: int) -> Fraction:
    """Van der Waerden's minimum r^m * m!/m^m for an r-regular bipartite graph."""
    return Fraction(r**m * factorial(m), m**m)


# ------------------------------------------------------------------
# constructions
# ------------------------------------------------------------------


def canonical(order) -> tuple[int, ...]:
    """A path's stored orientation: the smaller endpoint first."""
    order = tuple(order)
    return order if order[0] < order[-1] else order[::-1]


def lower_bound_orders(n: int, k: int) -> list[tuple[int, ...]]:
    """The ((n-1)/k)! block-permuted paths: vertex t*k+1 sits at position
    t*k+1 and the m = (n-1)/k interior blocks fill the gaps in every order."""
    m = (n - 1) // k
    blocks = [list(range(t * k + 2, (t + 1) * k + 1)) for t in range(m)]
    out = []
    for assignment in itertools.permutations(range(m)):
        order = [1]
        for slot, block in enumerate(assignment):
            order += blocks[block] + [(slot + 1) * k + 1]
        out.append(canonical(order))
    return out


def plane_edges(q: int) -> tuple[int, list[tuple[int, int]]]:
    """Point-line incidence graph of the projective plane of prime order q.

    Points and lines are the normalized nonzero vectors of (Z_q)^3 (first
    nonzero coordinate 1) in lexicographic order; points are 1..c and lines
    c+1..2c, and a point lies on a line when their dot product is 0 mod q.
    """
    reps = sorted(
        [(0, 0, 1)] + [(0, 1, a) for a in range(q)] + [(1, a, b) for a in range(q) for b in range(q)]
    )
    c = len(reps)
    edges = [
        (i + 1, c + j + 1)
        for i, p in enumerate(reps)
        for j, l in enumerate(reps)
        if (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q == 0
    ]
    return 2 * c, edges


def count_perfect_matchings(n: int, edges) -> int:
    """Perfect matchings by backtracking on the smallest unmatched vertex."""
    adj = {v: set() for v in range(1, n + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)

    def extend(free: frozenset) -> int:
        if not free:
            return 1
        u = min(free)
        return sum(extend(free - {u, v}) for v in adj[u] & free)

    return extend(frozenset(range(1, n + 1)))


# ------------------------------------------------------------------
# relations
# ------------------------------------------------------------------


def partner_map(pairs) -> dict[int, int]:
    out = {}
    for u, v in pairs:
        out[u] = v
        out[v] = u
    return out


def matchings_create(p1: dict[int, int], p2: dict[int, int], length: int) -> bool:
    """Two perfect matchings (as partner maps) create a cycle on `length`
    vertices iff one alternating cycle of their union has exactly that many."""
    seen = set()
    for start in p1:
        if start in seen or p1[start] == p2[start]:
            continue
        size, v, first = 0, start, True
        while True:
            seen.add(v)
            size += 1
            v = p1[v] if first else p2[v]
            first = not first
            if v == start and first:
                break
        if size == length:
            return True
    return False


def reversing(p: tuple[int, ...], q: tuple[int, ...]) -> bool:
    """Positions i < j exist with p(i) = q(j) and p(j) = q(i)."""
    m = len(p)
    return any(p[i] == q[j] and p[j] == q[i] for i in range(m) for j in range(i + 1, m))


def all_matchings(n: int) -> list[tuple[tuple[int, int], ...]]:
    """Every perfect matching of K_n as a sorted pair tuple."""
    def extend(free: tuple[int, ...]):
        if not free:
            yield ()
            return
        u = free[0]
        for idx in range(1, len(free)):
            rest = free[1:idx] + free[idx + 1:]
            for tail in extend(rest):
                yield ((u, free[idx]),) + tail

    return list(extend(tuple(range(1, n + 1))))


# ------------------------------------------------------------------
# canonical file texts (the package's formats, written independently)
# ------------------------------------------------------------------


def paths_text(n: int, orders) -> str:
    lines = [f"paths {n} {len(orders)}"] + [" ".join(map(str, o)) for o in orders]
    return "\n".join(lines) + "\n"


def matchings_text(n: int, family) -> str:
    lines = [f"matchings {n} {len(family)}"]
    lines += [" ".join(f"{u}-{v}" for u, v in sorted(m)) for m in family]
    return "\n".join(lines) + "\n"


def graph_text(n: int, edges) -> str:
    ordered = sorted((min(e), max(e)) for e in edges)
    return "\n".join([f"graph {n} {len(ordered)}"] + [f"{u} {v}" for u, v in ordered]) + "\n"


def matrix_text(rows) -> str:
    return "\n".join([f"matrix {len(rows)}"] + [" ".join(map(str, r)) for r in rows]) + "\n"
