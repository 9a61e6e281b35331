"""Property tests for the permanent's sparse-line removal.

`permanent_ryser` removes every row and column with at most two nonzero
entries before Glynn's loop.  Small sparse matrices are checked against the
definition (`permanent_naive`), larger ones against the plain Glynn loop on
the whole matrix.  Examples are derandomized and no example database is kept,
so every run draws the same inputs.  They are drawn inside each test, once the
fixture has moved Hypothesis's home directory.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cyclecreate.counting import (
    BiadjacencyMatrix,
    _glynn,
    _shed_sparse_lines,
    permanent_naive,
    permanent_ryser,
)

pytestmark = pytest.mark.usefixtures("hypothesis_home")
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=200)

ENTRY = st.sampled_from((0, 0, 0, 0, 0, 1, -1, 2, -2))  # entries in -2..2, mostly zero
PLANTS = (None, "zero row", "zero column", "one entry", "two-entry row", "two-entry column", "cancel")


@st.composite
def sparse_matrices(draw):
    """An m x m matrix with 2 <= m <= 8 and one planted sparse line.

    "cancel" is a row with entries a and -a at columns j1 and j2, where the two
    columns agree elsewhere, so that the merged column -a * col_j1 + a * col_j2
    is zero.  Three quarters of the matrices are divided through by 1, 2 or 3
    as Fractions.
    """
    m = draw(st.integers(2, 8))
    rows = [[draw(ENTRY) for _ in range(m)] for _ in range(m)]
    plant = draw(st.sampled_from(PLANTS))
    i, i2 = draw(st.permutations(range(m)))[:2]
    j1, j2 = draw(st.permutations(range(m)))[:2]
    a, b = draw(st.sampled_from((1, -1))), draw(st.sampled_from((1, -1, 2, -2)))
    if plant == "zero row":
        rows[i] = [0] * m
    elif plant == "zero column":
        for row in rows:
            row[j1] = 0
    elif plant in ("one entry", "two-entry row", "cancel"):
        rows[i] = [0] * m
        rows[i][j1] = a
        if plant != "one entry":
            rows[i][j2] = b if plant == "two-entry row" else -a
        if plant == "cancel":
            for r, row in enumerate(rows):
                if r != i:
                    row[j2] = row[j1]
    elif plant == "two-entry column":
        for r, row in enumerate(rows):
            row[j1] = {i: a, i2: b}.get(r, 0)
    denominator = draw(st.sampled_from((None, 1, 2, 3)))
    if denominator is not None:
        rows = [[Fraction(entry, denominator) for entry in row] for row in rows]
    return rows


def test_sparse_matrices_match_the_definition():
    @fixed
    @given(sparse_matrices())
    @example([[1, 2], [0, 0]])  # zero row
    @example([[1, 0, 0], [1, 1, 1], [2, -1, 1]])  # one-entry row
    @example([[1, 1, 0], [1, 1, 1], [2, 1, 1]])  # two-entry row
    @example([[0, 1, 1, 1], [0, 1, 2, 1], [1, 1, 1, 1], [2, 1, 1, -1]])  # two-entry column
    @example([[1, -1, 0], [2, 2, 1], [1, 1, 1]])  # merged column cancels
    @example([[Fraction(1, 2), Fraction(-1, 2), 0], [1, 1, 1], [2, 2, -1]])
    def check(rows):
        matrix = BiadjacencyMatrix(rows)
        result = permanent_ryser(matrix)
        assert result == permanent_naive(matrix)
        if all(type(entry) is int for row in rows for entry in row):
            assert type(result) is int

    check()


def transpose(rows):
    return [list(column) for column in zip(*rows)]


def test_each_sparse_line_rule():
    # the residual is whichever of B and its transpose was scanned last; per(B) = per(B^T)
    # zero row, and a zero column
    assert _shed_sparse_lines([[1, 2], [0, 0]]) == (0, [])
    assert _shed_sparse_lines([[1, 0], [2, 0]]) == (0, [])
    # one entry: 3 times the minor [[1, 1], [1, 1]], whose rows then merge to [[2]]
    assert _shed_sparse_lines([[3, 0, 0], [1, 1, 1], [2, 1, 1]]) == (6, [])
    # two entries, 1 and 2 in row 0: columns 0 and 1 merge into 2 * col_0 + 1 * col_1
    dense = [[1, 2, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 2, 1, 1], [1, 1, 1, 2, 1], [2, 1, 1, 1, 1]]
    sparse_row = [[1, 2, 0, 0, 0]] + dense[1:]
    rest = [[3, 1, 1, 1], [3, 2, 1, 1], [3, 1, 2, 1], [5, 1, 1, 1]]
    assert _shed_sparse_lines(sparse_row) == (1, transpose(rest))
    # two entries in a column: the same merge on the transpose
    assert _shed_sparse_lines(transpose(sparse_row)) == (1, transpose(rest))
    # columns 0 and 1 are equal below a row (1, -1): the merged column is zero
    assert _shed_sparse_lines([[1, -1, 0, 0], [2, 2, 1, 1], [1, 1, 2, 1], [1, 1, 1, 2]]) == (0, [])
    # three nonzero entries in every line: nothing is removed
    assert _shed_sparse_lines(dense) == (1, transpose(dense))


def test_larger_sparse_matrices_match_plain_glynn():
    rng = random.Random(51005)
    for m in range(10, 17):
        for density in (0.15, 0.3, 0.5):
            rows = [
                [rng.choice((1, -1, 2, -2)) if rng.random() < density else 0 for _ in range(m)]
                for _ in range(m)
            ]
            fractions = m <= 12 and density == 0.3  # Fraction arithmetic is slow
            if fractions:
                rows = [[Fraction(entry, 3) for entry in row] for row in rows]
            result = permanent_ryser(BiadjacencyMatrix(rows))
            assert result == _glynn(rows), (m, density)
            if not fractions:
                assert type(result) is int
