"""Shared exception types and constants, the one work guard and the one
size check."""


class SizeGuardError(ValueError):
    """An enumeration oracle's work exceeds a limit: too big to run."""
    kind = "guard"


class BudgetExceededError(SizeGuardError):
    """An enumeration would exceed the caller's budget."""
    kind = "budget"


class CheckFailed(Exception):
    """A verify check found a closed form and its oracle in disagreement."""


#: default cap on the facets/extensions/S-pairs an enumeration may visit
DEFAULT_BUDGET = 10 ** 7

#: the cumulative levels of ``doubledet.verify``, lowest first.  They live
#: here so that the command line's parser reads them without loading the
#: checks
LEVELS = ("formulas", "complex", "groebner")

#: fixed cap on one listing: each listing caps its own work, counted as
#: what it walks (see ``generators`` and ``simplicial``), and the commands
#: cap the rows they print (``hilbert`` degrees, ``generators --show minors``)
MAX_LISTED = 200_000


def bound(count, limit, where, unit, error=SizeGuardError):
    """Refuse an enumeration of ``count`` units of work above ``limit``.

    ``where`` is the layer as ``module.function``.  ``error`` is
    ``BudgetExceededError`` for the caller's budget, ``SizeGuardError`` for
    a fixed oracle cap.  Call it once per enumeration, never once per item.
    """
    if count > limit:
        raise error(f"{where}: {count} {unit} exceed {error.kind} {limit}")


def check_sizes(m, n, r):
    """Raise ValueError unless the sizes m, n, r are all positive."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("sizes m, n, r must be positive")
