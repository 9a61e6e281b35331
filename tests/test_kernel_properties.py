"""Property tests for the creating kernel against the subset oracle.

Examples are derandomized and no example database is kept, so every run draws
the same inputs.  They are drawn inside each test, once the fixture has moved
Hypothesis's home directory.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cyclecreate.graphs import _creates, contains_cycle_of_length
from cyclecreate.hosts import LabeledGraph
from oracles import cycle_exists_oracle, edge_union

pytestmark = pytest.mark.usefixtures("hypothesis_home")
fixed = settings(derandomize=True, database=None, deadline=None, max_examples=200)


def graph_pairs():
    """Two graphs on one vertex set 1..n with n <= 7, and a length 3 <= L <= n."""

    def on(n):
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        graph = st.builds(LabeledGraph, st.just(n), st.sets(st.sampled_from(pairs)))
        return st.tuples(graph, graph, st.integers(3, n))

    return st.integers(3, 7).flatmap(on)


def test_creating_kernel_matches_union_oracle():
    @fixed
    @given(graph_pairs())
    def check(case):
        g, h, length = case
        expected = cycle_exists_oracle(edge_union(g, h), length)
        assert _creates(g.adjacency, h.adjacency, length) == expected
        assert _creates(h.adjacency, g.adjacency, length) == expected

    check()


def test_one_graph_is_its_own_creating_pair():
    @fixed
    @given(graph_pairs())
    def check(case):
        g, _, length = case
        expected = cycle_exists_oracle(g, length)
        assert contains_cycle_of_length(g, length) == expected
        assert _creates(g.adjacency, g.adjacency, length) == expected

    check()
