"""Line-oriented ASCII file formats with 1-based labels.

Writers emit a canonical form (sorted edges, canonical path orientations,
pairs sorted by smaller endpoint) so identical objects always serialize to
identical bytes.  Parsers are strict and name the first offending line.
"""

from __future__ import annotations

from typing import Callable, Sequence

from .counting import BiadjacencyMatrix
from .graphs import HamPath, LabeledGraph, PerfectMatching


class FormatError(ValueError):
    """Malformed input text; the message names the first bad line."""


def _int(token: str, line_no: int) -> int:
    digits = token.removeprefix("-")  # int() alone also takes '+', '_' and non-ASCII digits
    if digits.isascii() and digits.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            pass
    raise FormatError(f"line {line_no}: expected an integer, got {token!r}")


def _header(lines: list[str], tag: str, fields: int) -> list[int]:
    if not lines:
        raise FormatError(f"line 1: empty input, expected a '{tag}' header")
    parts = lines[0].split()
    if len(parts) != fields + 1 or parts[0] != tag:
        raise FormatError(f"line 1: expected '{tag}' header with {fields} fields, got {lines[0]!r}")
    values = [_int(token, 1) for token in parts[1:]]
    if min(values) < 0:
        raise FormatError(f"line 1: header fields must be nonnegative, got {lines[0]!r}")
    return values


def _body(lines: list[str], expected: int, what: str) -> list[str]:
    actual = len(lines) - 1
    if actual != expected:
        where = min(actual, expected) + 2
        raise FormatError(
            f"line {where}: expected {expected} {what} lines after the header, got {actual}"
        )
    return lines[1:]


def format_graph(g: LabeledGraph) -> str:
    lines = [f"graph {g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(g.edges))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> LabeledGraph:
    lines = text.splitlines()
    n, m = _header(lines, "graph", 2)
    seen: set[tuple[int, int]] = set()
    for line_no, raw in enumerate(_body(lines, m, "edge"), start=2):
        parts = raw.split()
        if len(parts) != 2:
            raise FormatError(f"line {line_no}: expected 'u v', got {raw!r}")
        u, v = _int(parts[0], line_no), _int(parts[1], line_no)
        if u >= v:
            raise FormatError(f"line {line_no}: edges must satisfy u < v, got {u} {v}")
        if u < 1 or v > n:
            raise FormatError(f"line {line_no}: edge ({u}, {v}) is outside 1..{n}")
        if (u, v) in seen:
            raise FormatError(f"line {line_no}: duplicate edge {u} {v}")
        seen.add((u, v))
    return LabeledGraph(n, seen)


def _format_family(family: Sequence, kind: str, row: Callable) -> str:
    """A '{kind}s n count' header and one row(member) line per member; the
    members must share one ground set 1..n."""
    members = list(family)
    if not members:
        raise ValueError(f"cannot write an empty {kind} family (the vertex count would be undefined)")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError(f"{kind} family mixes ground set sizes")
    lines = [f"{kind}s {n} {len(members)}"]
    lines.extend(map(row, members))
    return "\n".join(lines) + "\n"


def format_paths(family: Sequence[HamPath]) -> str:
    return _format_family(family, "path", lambda p: " ".join(str(v) for v in p.order))


def parse_paths(text: str) -> list[HamPath]:
    lines = text.splitlines()
    n, count = _header(lines, "paths", 2)
    family = []
    for line_no, raw in enumerate(_body(lines, count, "path"), start=2):
        values = [_int(token, line_no) for token in raw.split()]
        if len(values) != n:
            raise FormatError(f"line {line_no}: expected {n} labels, got {len(values)}")
        try:
            family.append(HamPath(values))
        except ValueError as exc:
            raise FormatError(f"line {line_no}: {exc}") from None
    return family


def format_matchings(family: Sequence[PerfectMatching]) -> str:
    return _format_family(
        family, "matching", lambda m: " ".join(f"{u}-{v}" for u, v in sorted(m.edges))
    )


def parse_matchings(text: str) -> list[PerfectMatching]:
    lines = text.splitlines()
    n, count = _header(lines, "matchings", 2)
    if n % 2:
        raise FormatError(f"line 1: matchings need an even vertex count, got {n}")
    family = []
    for line_no, raw in enumerate(_body(lines, count, "matching"), start=2):
        tokens = raw.split()
        if len(tokens) != n // 2:
            raise FormatError(f"line {line_no}: expected {n // 2} pairs, got {len(tokens)}")
        pairs = []
        for token in tokens:
            left, sep, right = token.partition("-")
            if not sep or not left or not right:
                raise FormatError(f"line {line_no}: expected 'a-b' pairs, got {token!r}")
            pairs.append((_int(left, line_no), _int(right, line_no)))
        try:
            matching = PerfectMatching(pairs)
        except ValueError as exc:
            raise FormatError(f"line {line_no}: {exc}") from None
        if matching.n != n:
            raise FormatError(f"line {line_no}: pairs cover 1..{matching.n}, expected 1..{n}")
        family.append(matching)
    return family


def format_matrix(matrix: BiadjacencyMatrix) -> str:
    for row in matrix.rows:
        for entry in row:
            if not isinstance(entry, int):
                raise ValueError("only integer matrices can be written to the matrix format")
    lines = [f"matrix {matrix.m}"]
    lines.extend(" ".join(str(entry) for entry in row) for row in matrix.rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> BiadjacencyMatrix:
    lines = text.splitlines()
    (m,) = _header(lines, "matrix", 1)
    rows = []
    for line_no, raw in enumerate(_body(lines, m, "row"), start=2):
        values = [_int(token, line_no) for token in raw.split()]
        if len(values) != m:
            raise FormatError(f"line {line_no}: expected {m} entries, got {len(values)}")
        rows.append(tuple(values))
    return BiadjacencyMatrix(rows)
