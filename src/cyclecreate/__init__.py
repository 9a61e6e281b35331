"""Exact toolkit for families of Hamiltonian paths and perfect matchings whose
pairwise unions create cycles of a fixed length."""

from .bounds import (
    ExponentRow,
    degree_exponent,
    exponent_row,
    exponent_table,
    lower_bound_exponent,
    matching_upper_exponent,
    path_upper_exponent,
)
from .constructions import (
    PlaneIncidence,
    ValidationReport,
    build_noncreating_family,
    choose_plane_order,
    lower_bound_family,
    projective_plane_incidence,
    validate_c2kfree_bipartite_regular,
)
from .counting import (
    BiadjacencyMatrix,
    MatchingBoundReport,
    biadjacency,
    check_regular_matching_bound,
    count_perfect_matchings,
    permanent_naive,
    permanent_ryser,
    van_der_waerden_bound,
)
from .graphs import (
    FamilyReport,
    HamPath,
    LabeledGraph,
    PerfectMatching,
    Permutation,
    bipartition,
    contains_cycle_of_length,
    enumerate_perfect_matchings_of,
    girth,
    is_creating,
    verify_pairwise_creating,
)
from .reduction import (
    AssociatedTriple,
    ReducedFamily,
    associated_triple,
    fixed_graph,
    ground_set_reduce,
    pigeonhole_largest_class,
    strip_to_matchings,
    triple_count,
    verify_fixed_edges_unused,
)
from .search import (
    CompatibilityGraph,
    build_compatibility_graph,
    enumerate_ham_paths,
    enumerate_perfect_matchings,
    enumerate_permutations,
    exact_h,
    exact_m,
    exact_rp,
    is_reversing,
    max_clique,
    max_independent_set,
    max_triangle_creating_paths,
    perm_to_matching,
)

__version__ = "0.1.0"
