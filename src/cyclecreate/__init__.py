"""Exact toolkit for families of Hamiltonian paths and perfect matchings whose
pairwise unions create cycles of a fixed length.

The library's public names are imported from their modules on first use, so
importing the package loads none of them.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module that defines it
_HOME = {
    name: module
    for module, names in {
        "bounds": (
            "ExponentRow degree_exponent exponent_row exponent_table lower_bound_exponent "
            "matching_upper_exponent path_upper_exponent"
        ),
        "constructions": (
            "PlaneIncidence ValidationReport build_noncreating_family choose_plane_order "
            "lower_bound_family projective_plane_incidence validate_c2kfree_bipartite_regular"
        ),
        "counting": (
            "BiadjacencyMatrix MatchingBoundReport biadjacency check_regular_matching_bound "
            "count_perfect_matchings permanent_naive permanent_ryser van_der_waerden_bound"
        ),
        "graphs": (
            "FamilyReport HamPath PerfectMatching Permutation contains_cycle_of_length "
            "enumerate_perfect_matchings_of is_creating is_reversing verify_pairwise_creating"
        ),
        "hosts": "LabeledGraph bipartition girth",
        "reduction": (
            "AssociatedTriple ReducedFamily associated_triple fixed_graph ground_set_reduce "
            "pigeonhole_largest_class strip_to_matchings triple_count verify_fixed_edges_unused"
        ),
        "search": (
            "CompatibilityGraph build_compatibility_graph enumerate_ham_paths "
            "enumerate_perfect_matchings enumerate_permutations exact_h exact_m exact_rp "
            "max_clique max_independent_set max_triangle_creating_paths perm_to_matching"
        ),
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
