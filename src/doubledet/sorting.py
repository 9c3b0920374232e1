"""The monomial map phi: x[i,j,k] -> x_i * y_j * z_k.

Its kernel is the ideal of the minors, so the quotient is the Hibi ring of
the grid lattice.  ``phi_monomial`` applies phi to a product of ring
variables; its value is the image monomial as three sorted tuples, the
rows, the columns and the matrices of the variables.  ``in_kernel`` is the
one kernel-membership test.  The sorting facts behind the map (the images
of the variables form a sortable set, and sorting a pair is meet and join
on the grid) are tested in ``tests/test_sorting.py``.
"""


def phi_monomial(variables, m, n, r):
    """The image of the product of ring variables (i, j, k) under phi:
    ``(rows, cols, mats)``, each sorted.  ValueError for a variable off
    the m x n x r grid."""
    for i, j, k in variables:
        if not (0 < i <= m and 0 < j <= n and 0 < k <= r):
            raise ValueError(f"x[{i},{j},{k}] is off the {m}x{n}x{r} grid")
    return tuple(map(tuple, map(sorted, zip(*variables)))) or ((), (), ())


def in_kernel(b, m, n, r):
    """True iff phi maps the two terms of the binomial b to the same
    monomial."""
    return phi_monomial(b.plus, m, n, r) == phi_monomial(b.minus, m, n, r)
