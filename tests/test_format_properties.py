"""Property tests for the four strict parsers: round trips and arbitrary text.

Examples are derandomized and no example database is kept, so every run draws
the same inputs.
"""

import itertools
import string

import pytest
from hypothesis import given, settings, strategies as st

from cyclecreate.counting import BiadjacencyMatrix
from cyclecreate.formats import (
    FormatError,
    format_graph,
    format_matchings,
    format_matrix,
    format_paths,
    parse_graph,
    parse_matchings,
    parse_matrix,
    parse_paths,
)
from cyclecreate.graphs import HamPath, PerfectMatching
from cyclecreate.hosts import LabeledGraph

pytestmark = pytest.mark.usefixtures("hypothesis_home")
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=80)


def graphs():
    def on(n):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        edges = st.sets(st.sampled_from(pairs)) if pairs else st.just(set())
        return st.builds(LabeledGraph, st.just(n), edges)

    return st.integers(0, 12).flatmap(on)


def path_families():
    def on(n):
        return st.lists(st.permutations(range(1, n + 1)).map(HamPath), min_size=1, max_size=6)

    return st.integers(2, 9).flatmap(on)


def matching_families():
    def pair_up(labels):
        return PerfectMatching(zip(labels[::2], labels[1::2]))

    def on(n):
        return st.lists(st.permutations(range(1, n + 1)).map(pair_up), min_size=1, max_size=6)

    return st.integers(1, 5).map(lambda half: 2 * half).flatmap(on)


def matrices():
    def on(m):
        row = st.lists(st.integers(-(10 ** 30), 10 ** 30), min_size=m, max_size=m)
        return st.lists(row, min_size=m, max_size=m).map(BiadjacencyMatrix)

    return st.integers(0, 6).flatmap(on)


KINDS = [
    (parse_graph, format_graph, graphs()),
    (parse_paths, format_paths, path_families()),
    (parse_matchings, format_matchings, matching_families()),
    (parse_matrix, format_matrix, matrices()),
]
IDS = ["graph", "paths", "matchings", "matrix"]


@pytest.mark.parametrize("parse, write, objects", KINDS, ids=IDS)
def test_parse_inverts_format(parse, write, objects):
    @fixed
    @given(objects)
    def check(obj):
        assert parse(write(obj)) == obj

    check()


# Arbitrary text: valid text with a few slices after the header line replaced
# by labels, pairs, signs, underscores, digits of other scripts, separators or
# any short text, so that the body's checks run and some texts still parse; or
# any short text at all, which mostly tests the header.
TOKENS = ["0", "1", "2", "3", "5", "13", "-1", " ", "\n", ""]
JUNK = ["1-2", "2-1", "1-", "+1", "0_1", "\u0663", "x", "\r\n"]
ANY = string.printable + "\x00\x1c\x85\xa0\u2028\u0663\uff13"  # some of them split lines or are digits
inserts = st.sampled_from(TOKENS) | st.sampled_from(JUNK) | st.text(ANY, max_size=4)
edit = st.tuples(st.integers(0, 99), st.integers(0, 2), inserts)  # where, cut, insert
edits = st.lists(edit, min_size=1, max_size=3)


def mutate(text, changes):
    head = text.index("\n") + 1  # the header line stays intact
    for at, cut, insert in changes:
        at = head + at % (len(text) - head + 1)
        text = text[:at] + insert + text[at + cut:]
    return text


@pytest.mark.parametrize("parse, write, objects", KINDS, ids=IDS)
def test_parsers_accept_or_raise_format_error(parse, write, objects):
    @fixed
    @given(st.one_of(st.builds(mutate, objects.map(write), edits), st.text(ANY, max_size=30)))
    def check(text):
        try:
            result = parse(text)
        except FormatError:
            return
        # an empty family parses but has no vertex count to write back
        if result != []:
            assert parse(write(result)) == result

    check()
