"""Combinatorics of rings cut out by the 2x2 minors of r concatenated
generic m x n matrices: minimal generators, Hilbert data, h-polynomials,
the Gorenstein criterion, and the facet structure of the diagonal initial
complex, each backed by an independent brute-force cross-check.

Importing the package loads none of its modules.  Each name in
``__all__`` is re-exported from the module that defines it and loads that
module on first use (PEP 562), so ``doubledet.cli`` pays only for the
modules a subcommand runs.
"""

from importlib import import_module

__version__ = "0.1.0"

#: the re-exported names, by the module that defines them
_EXPORTS = {
    "errors": ("DEFAULT_BUDGET", "BudgetExceededError", "CheckFailed",
               "SizeGuardError"),
    "generators": ("FAMILY_KEYS", "Minor", "decompose_into_minors",
                   "family_sizes", "generator_families", "minor_basis",
                   "minor_count", "minor_dependency_witness", "minors_H",
                   "minors_V", "sorting_relations"),
    "grid": ("comparable", "count_comparable_pairs", "grid_points", "join",
             "lattice_isomorphic_to_ideals", "meet"),
    "groebner": ("SparsePoly", "initial_ideal_minimal_generators",
                 "leading_term", "reduce", "s_polynomial", "verify_groebner"),
    "intpoly": ("IntPolynomial",),
    "invariants": ("InvariantReport", "check_symmetry", "compute_invariants",
                   "h_poly_via_linear_extensions", "h_poly_via_series",
                   "h_poly_via_words", "hilbert_function", "is_gorenstein",
                   "macmahon_check", "minimal_generator_count",
                   "multiplicity", "order_preserving_map_counts",
                   "poset_descent_polynomial"),
    "multiset": ("descent_polynomial", "descents", "multinomial",
                 "multiset_permutations"),
    "poset": ("Poset", "make_pmnr", "pmnr_chain_ranges"),
    "ring": ("Binomial",),
    "simplicial": ("Facet", "check_shelling_order", "complex_h_vector",
                   "extend_to_facet", "extension_word", "facet_from_vertices",
                   "facet_word", "facets", "initial_generators",
                   "maximal_faces_bruteforce", "parse_vertices",
                   "read_face", "vertex_for_variable"),
    "sorting": ("in_kernel", "phi_monomial"),
}

_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names}

__all__ = list(_SOURCE)


def __getattr__(name):
    """Load a re-exported name from its module and keep it here."""
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted({*globals(), *__all__})
