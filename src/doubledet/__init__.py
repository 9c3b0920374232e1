"""Combinatorics of rings cut out by the 2x2 minors of r concatenated
generic m x n matrices: minimal generators, Hilbert data, h-polynomials,
the Gorenstein criterion, and the facet structure of the diagonal initial
complex, each backed by an independent brute-force cross-check.

Importing the package loads none of its modules, so ``doubledet.cli``
pays only for the modules a subcommand runs.  Each name is imported from
the module that defines it (``from doubledet.invariants import
multiplicity``); the package itself re-exports nothing.
"""

__version__ = "0.1.0"
