"""Host-speed calibration.

The benchmark runs on shared machines whose speed changes by a factor of
up to two within seconds and drifts by 20% and more over minutes as other
tenants load them.  CPU time changes with wall time, so neither can be
compared across runs as measured.  Before and after every child the
benchmark therefore times a fixed piece of pure-Python work that touches no
``doubledet`` code, on the CPU the child runs on, and scales the child's
times by

    REFERENCE_S / mean(calibration samples on both sides of the child)

Reported times are then seconds on a host where one calibration sample
takes ``REFERENCE_S``.  A change to ``doubledet`` cannot move the samples,
so it moves the scaled times in the same proportion as the raw ones.
"""

import time

#: seconds one sample is defined to take
REFERENCE_S = 0.05

_ROUNDS = 25000


def _work():
    # the interpreter work doubledet is made of: small tuples as dict keys,
    # sets, sorting, a generator and string building
    table, seen, acc = {}, set(), 0
    for i in range(_ROUNDS):
        key = (i % 101, i % 7, i % 13)
        table[key] = table.get(key, 0) + 1
        seen.add(key[1:])
        acc += sum(1 for a, b in zip(key, key[1:]) if a > b)
        acc += len("".join("MNR"[x % 3] for x in sorted(key, reverse=True)))
    return acc + len(seen)


def sample():
    """Seconds taken by one run of the fixed work."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
