"""Exact rational exponents for the growth of creating families.

For cycle length 2k the family sizes of interest grow like n^(e*n - o(n)); the
functions here return the exponents e as fractions.Fraction, never floats.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

# Orders with a known optimally dense construction (generalized polygons).
SPECIAL_DEGREE_ORDERS = frozenset({2, 3, 5})


def _require_k(k: int) -> None:
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")


def degree_exponent(k: int) -> Fraction:
    """Largest known c such that an n-vertex bipartite regular graph with no
    cycle of length up to 2k can have degree around n^c."""
    _require_k(k)
    if k in SPECIAL_DEGREE_ORDERS:
        return Fraction(1, k)
    if k % 2 == 0:
        return Fraction(2, 3 * k - 2)
    return Fraction(2, 3 * k - 3)


def lower_bound_exponent(k: int) -> Fraction:
    """Exponent 1/k achieved by the slot-permuted path families."""
    _require_k(k)
    return Fraction(1, k)


def matching_upper_exponent(k: int) -> Fraction:
    """Upper exponent 1/2 - c/2 for pairwise creating matching families,
    where c is the degree exponent for the same k."""
    return Fraction(1, 2) - degree_exponent(k) / 2


def path_upper_exponent(k: int) -> Fraction:
    """Upper exponent 1 - c/k for pairwise creating Hamiltonian path families,
    where c is the degree exponent for the same k."""
    return 1 - degree_exponent(k) / k


class ExponentRow(namedtuple("ExponentRow", "k cycle_length degree lower matching_upper path_upper")):
    """All exponents for one value of k, cycle length 2k."""

    __slots__ = ()


def exponent_row(k: int) -> ExponentRow:
    return ExponentRow(
        k,
        2 * k,
        degree_exponent(k),
        lower_bound_exponent(k),
        matching_upper_exponent(k),
        path_upper_exponent(k),
    )


def exponent_table(k_min: int, k_max: int) -> list[ExponentRow]:
    """Rows for every k in k_min..k_max inclusive."""
    if k_max < k_min:
        raise ValueError(f"empty range: k_min={k_min}, k_max={k_max}")
    return [exponent_row(k) for k in range(k_min, k_max + 1)]
