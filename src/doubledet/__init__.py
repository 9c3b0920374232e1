"""Combinatorics of rings cut out by the 2x2 minors of r concatenated
generic m x n matrices: minimal generators, Hilbert data, h-polynomials,
the Gorenstein criterion, and the facet structure of the diagonal initial
complex, each backed by an independent brute-force cross-check.
"""

from .errors import (DEFAULT_BUDGET, BudgetExceededError, CheckFailed,
                     SizeGuardError)
from .generators import (FAMILY_KEYS, Minor, decompose_into_minors,
                         family_sizes, generator_families, minor_basis,
                         minor_count, minor_dependency_witness, minors_H,
                         minors_V, sorting_relations)
from .grid import (comparable, count_comparable_pairs,
                   count_incomparable_pairs, grid_points, join,
                   lattice_isomorphic_to_ideals, meet)
from .groebner import (SparsePoly, initial_ideal_minimal_generators,
                       leading_term, reduce, s_polynomial, verify_groebner)
from .intpoly import IntPolynomial
from .invariants import (InvariantReport, check_symmetry, compute_invariants,
                         h_poly_via_linear_extensions, h_poly_via_series,
                         h_poly_via_words, hilbert_function, is_gorenstein,
                         macmahon_check, minimal_generator_count,
                         multiplicity, order_preserving_map_counts,
                         poset_descent_polynomial)
from .multiset import (descent_polynomial, descents, multinomial,
                       multiset_permutations)
from .poset import Poset, make_pmnr, pmnr_chain_ranges
from .ring import Binomial
from .simplicial import (Facet, check_shelling_order, complex_h_vector,
                         extend_to_facet, extension_word,
                         facet_from_vertices, facet_word, facets,
                         initial_generators,
                         maximal_faces_bruteforce, parse_vertices,
                         vertex_for_variable)
from .sorting import in_kernel, phi_monomial

__version__ = "0.1.0"
