"""Exact permanents and perfect matching counts.

Everything here runs on big integers and fractions.Fraction; floating point
entries are rejected outright so no result is ever approximate.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import factorial, prod
from operator import add, sub
from typing import Iterable, NamedTuple, Sequence

from .graphs import LabeledGraph, _Value, bipartition

Entry = int | Fraction
# The cap on the input's m, checked before any sparse line is removed; Glynn's
# formula then sums at most 2^(m-1) <= 2^25 terms
MAX_PERMANENT_SIZE = 26


class BiadjacencyMatrix(_Value):
    """Square matrix with exact entries: ints or Fractions, never floats."""

    _fields = ("m", "rows")
    m: int
    rows: tuple[tuple[Entry, ...], ...]

    def __init__(self, rows: Iterable[Iterable[Entry]]):
        data = tuple(tuple(row) for row in rows)
        for row in data:
            if len(row) != len(data):
                raise ValueError(
                    f"matrix must be square, got a row of length {len(row)} in size {len(data)}"
                )
            for entry in row:
                if not isinstance(entry, (int, Fraction)):
                    raise TypeError(f"entries must be int or Fraction, got {type(entry).__name__}")
        object.__setattr__(self, "m", len(data))
        object.__setattr__(self, "rows", data)


def biadjacency(g: LabeledGraph) -> tuple[BiadjacencyMatrix, tuple[int, ...], tuple[int, ...]]:
    """0/1 matrix of a bipartite graph with equal color classes.

    Rows follow the first class and columns the second, both in ascending
    vertex order; the classes are returned alongside the matrix.  The
    permanent's cap on m is checked before the m x m matrix is built.
    """
    left, right = _equal_classes(g)
    _refuse_past_cap(len(left))
    adj = g.adjacency
    return BiadjacencyMatrix(tuple(adj[u] >> v & 1 for v in right) for u in left), left, right


def _equal_classes(g: LabeledGraph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    classes = bipartition(g)
    if classes is None:
        raise ValueError("graph is not bipartite")
    left, right = classes
    if len(left) != len(right):
        raise ValueError(f"bipartition classes differ in size ({len(left)} vs {len(right)})")
    return left, right


def _refuse_past_cap(m: int) -> None:
    if m > MAX_PERMANENT_SIZE:
        raise ValueError(f"the permanent is limited to m <= {MAX_PERMANENT_SIZE}, got {m}")


def permanent_ryser(matrix: BiadjacencyMatrix) -> Entry:
    """Permanent by Glynn's formula (Europ. J. Combin. 2010) after removing
    every row and column with at most two nonzero entries; the name is kept
    for API stability.

    The size cap applies to the input, before any line is removed.  Each
    removal drops one row and one column and never branches (see
    `_shed_sparse_lines`), so Glynn's formula then sums at most 2^(m-1)
    terms, and none once the whole matrix is gone.  Integer matrices give an int.
    """
    _refuse_past_cap(matrix.m)
    factor, rows = _shed_sparse_lines(matrix.rows)
    return factor * _glynn(rows)


def _shed_sparse_lines(rows: Sequence[Sequence[Entry]]) -> tuple[Entry, list[list[Entry]]]:
    """Factor f and matrix B with per(rows) = f * per(B), where every row and
    column of B has at least three nonzero entries.

    Per(A) = per(A^T), so a sparse column is taken as a row of the transpose.
    A row with no nonzero entry makes the permanent 0.  A row with one, a at
    column j, multiplies f by a and drops row and column j.  A row with two, a
    at j1 and b at j2, expands to a * per(minor at j1) + b * per(minor at j2);
    the permanent is linear in each column, so that is the permanent of the
    matrix without the row whose columns j1 and j2 are replaced by the single
    column b * col_j1 + a * col_j2.
    """
    factor: Entry = 1
    rows = [list(row) for row in rows]
    while rows:
        found = _sparse_row(rows)
        if found is None:
            rows = [list(column) for column in zip(*rows)]
            found = _sparse_row(rows)
            if found is None:
                break
        i, support = found
        row = rows.pop(i)
        if not support:
            return 0, []
        if len(support) == 1:
            (j,) = support
            factor *= row[j]
            for other in rows:
                del other[j]
        else:
            j1, j2 = support
            a, b = row[j1], row[j2]
            for other in rows:
                other[j1] = b * other[j1] + a * other[j2]
                del other[j2]
    return factor, rows


def _sparse_row(rows: list[list[Entry]]) -> tuple[int, list[int]] | None:
    """First row with at most two nonzero entries, and their columns."""
    for i, row in enumerate(rows):
        support = [j for j, entry in enumerate(row) if entry]
        if len(support) <= 2:
            return i, support
    return None


def _glynn(rows: Sequence[Sequence[Entry]]) -> Entry:
    """Glynn's formula in 2^(m-1) terms.

    Per(A) = 2^-(m-1) * sum over sign vectors d with d[0] = +1 of
    (prod_i d[i]) * prod_j sum_i d[i] a[i][j].  The last (m-1)//2 rows are
    listed once as their 2^((m-1)//2) signed column offsets, split by the
    sign of their product.  Rows 1..head walk in Gray code order: each step
    flips one row's sign, which moves the column sums by twice that row and
    flips the sign of the step, and sums prod(sums + offset) over every
    listed offset.  Integer matrices give an int.
    """
    m = len(rows)
    if m == 0:
        return 1
    head = m - 1 - (m - 1) // 2
    plus: list[tuple[Entry, ...]] = [(0,) * m]
    minus: list[tuple[Entry, ...]] = []
    for row in rows[head + 1:]:
        plus, minus = (
            [tuple(map(add, o, row)) for o in plus] + [tuple(map(sub, o, row)) for o in minus],
            [tuple(map(sub, o, row)) for o in plus] + [tuple(map(add, o, row)) for o in minus],
        )
    doubled = [[2 * entry for entry in row] for row in rows[1:head + 1]]
    sums = [sum(column) for column in zip(*rows[:head + 1])]
    total = _products(sums, plus) - _products(sums, minus)
    negated = 0
    for counter in range(1, 1 << head):
        low = counter & -counter
        negated ^= low
        step = sub if negated & low else add
        sums = list(map(step, sums, doubled[low.bit_length() - 1]))
        term = _products(sums, plus) - _products(sums, minus)
        total += -term if counter & 1 else term
    scale = 1 << (m - 1)
    return total // scale if isinstance(total, int) else total / scale


def _products(sums: list[Entry], offsets: list[tuple[Entry, ...]]) -> Entry:
    """Sum of prod(sums + offset) over the offsets, iterated in C."""
    return sum(map(prod, map(map, itertools.repeat(add), itertools.repeat(sums), offsets)))


def permanent_naive(matrix: BiadjacencyMatrix) -> Entry:
    """Permanent straight from the definition, as the reference route.

    A sum of m! products; limited to m <= 9 to keep the brute force honest.
    """
    m = matrix.m
    if m > 9:
        raise ValueError(f"the naive permanent is limited to m <= 9, got {m}")
    rows = matrix.rows
    total: Entry = 0
    for perm in itertools.permutations(range(m)):
        product: Entry = 1
        for i, j in enumerate(perm):
            value = rows[i][j]
            if not value:
                product = 0
                break
            product *= value
        total += product
    return total


def count_perfect_matchings(g: LabeledGraph) -> int:
    """Exact number of perfect matchings of a bipartite graph with equal classes."""
    result = permanent_ryser(biadjacency(g)[0])
    assert isinstance(result, int)
    return result


def van_der_waerden_bound(m: int) -> Fraction:
    """Minimum permanent m!/m^m of an m-by-m doubly stochastic matrix."""
    if m < 1:
        raise ValueError(f"m must be positive, got {m}")
    return Fraction(factorial(m), m ** m)


class MatchingBoundReport(NamedTuple):
    """Matching count of a regular bipartite graph against r^m * m!/m^m."""

    half_size: int
    degree: int
    count: int
    bound: Fraction
    doubly_stochastic: bool
    passed: bool


def check_regular_matching_bound(g: LabeledGraph) -> MatchingBoundReport:
    """Count perfect matchings of an r-regular bipartite graph and compare with
    the guaranteed minimum r^m * m!/m^m.

    The check passes only if A/r is doubly stochastic, which is what makes the
    minimum apply: every row and column of A sums to r.  The classes are
    checked first and the permanent's cap last, before the matrix is built.
    """
    _equal_classes(g)
    degs = g.degrees()
    degree = degs[0] if degs else 0
    if any(d != degree for d in degs):
        raise ValueError("graph is not regular")
    if degree < 1:
        raise ValueError("graph must have positive degree")
    matrix = biadjacency(g)[0]
    m = matrix.m
    count = permanent_ryser(matrix)
    assert isinstance(count, int)
    stochastic = all(sum(line) == degree for line in (*matrix.rows, *zip(*matrix.rows)))
    bound = degree ** m * van_der_waerden_bound(m)
    return MatchingBoundReport(m, degree, count, bound, stochastic, stochastic and count >= bound)
