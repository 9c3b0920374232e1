"""The monomial map phi: x[i,j,k] -> x_i * y_j * z_k.

Its kernel is the ideal of the minors, so the quotient is the Hibi ring of
the grid lattice.  ``phi_monomial`` applies phi to a product of ring
variables; its value is the image monomial as three sorted tuples, the
rows, the columns and the matrices of the variables.  ``in_kernel`` is the
one kernel-membership test.  The sorting facts behind the map (the images
of the variables form a sortable set, and sorting a pair is meet and join
on the grid) are tested in ``tests/test_sorting.py``.

Every binomial is a quadric, and the listing checks map hundreds of
thousands of them at (8,8,8), so two variables take a branch of their
own: one chained range test and three compare-and-swaps, where the
general form pays for a per-variable loop, ``zip`` and three ``sorted``
lists.  An off-grid quadric falls through to that loop, so every degree
raises the same error, naming the first off-grid variable.
"""


def phi_monomial(variables, m, n, r):
    """The image of the product of ring variables (i, j, k) under phi:
    ``(rows, cols, mats)``, each sorted.  ValueError for a variable off
    the m x n x r grid, naming the first such variable."""
    if len(variables) == 2:
        (i, j, k), (p, q, s) = variables
        if (0 < i <= m and 0 < j <= n and 0 < k <= r
                and 0 < p <= m and 0 < q <= n and 0 < s <= r):
            return ((i, p) if i <= p else (p, i),
                    (j, q) if j <= q else (q, j),
                    (k, s) if k <= s else (s, k))
    for i, j, k in variables:
        if not (0 < i <= m and 0 < j <= n and 0 < k <= r):
            raise ValueError(f"x[{i},{j},{k}] is off the {m}x{n}x{r} grid")
    return tuple(map(tuple, map(sorted, zip(*variables)))) or ((), (), ())


def in_kernel(b, m, n, r):
    """True iff phi maps the two terms of the binomial b to the same
    monomial."""
    return phi_monomial(b.plus, m, n, r) == phi_monomial(b.minus, m, n, r)
