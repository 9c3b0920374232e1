"""Shared exception types and the size check every entry point uses."""


class BudgetExceededError(RuntimeError):
    """An enumeration would exceed the configured budget."""


class SizeGuardError(ValueError):
    """Input is too large for a brute-force oracle."""


class CheckFailed(Exception):
    """A verify check found a closed form and its oracle in disagreement."""


def check_sizes(m, n, r):
    """Raise ValueError unless the sizes m, n, r are all positive."""
    if m < 1 or n < 1 or r < 1:
        raise ValueError("sizes m, n, r must be positive")
