"""The benchmark's workloads and the oracles that check their output.

Each workload is one deterministic ``doubledet`` command of one to three
seconds, so that a run holds ten or more invocations.  They were chosen so that
each of the program's layers dominates at least one of them:

* ``groebner-cert``: the Buchberger certificate, where ``groebner`` and
  ``ring`` do almost all the work;
* ``complex-checks``: the complex tier of ``verify``, which decodes,
  re-encodes and extends every facet (``simplicial``) and runs the
  formulas tier (``poset``, ``grid``, ``generators``);
* ``facet-catalog``: the facet catalog written as JSON (``simplicial``
  decoding plus ``cli`` serialisation, peak memory);
* ``hpoly-routes``: the three h-polynomial routes (``multiset``,
  ``poset``, ``invariants``).

The oracles were recorded from the program's output at the commit that
added the benchmark.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from typing import Callable

#: bytes of output kept for parsing; the rest is only hashed
HEAD_LIMIT = 1 << 20

#: facet-catalog orientation per seed, and the sha256 of its JSON output
FACET_ORIENTATIONS = ((5, 5, 4), (5, 4, 5), (4, 5, 5))
FACET_CATALOG_SHA256 = {
    (5, 5, 4): "7edf2c961c34968b3f930615c4275220fa11d20e9afabb00f1a1d1de2131f5c7",
    (5, 4, 5): "bd2b88d9f1b2253f7f53c6be50364fd2af8a7a89408f9a7eebf0e2b1923d1503",
    (4, 5, 5): "37401fd90b4a3304be7a362db3ec14a25b8c9a3a8646ac0c9b30b9360a44ba1c",
}

HPOLY_566 = [1, 165, 4020, 28980, 78960, 89376, 42420, 7860, 465, 5]

_FORMULA_CHECKS = (
    "ideal-count", "lattice-isomorphism", "comparable-pairs",
    "generator-count", "families-vs-sorting-relations", "kernel-membership",
    "minor-decomposition", "multiplicity-extensions", "poset-stats",
    "hilbert-oracle", "h-poly-agreement", "macmahon", "symmetry")

#: checks that are ``ok`` at the recorded commit; each must stay ``ok``
VERIFY_OK_CHECKS = {
    "groebner-cert": frozenset(_FORMULA_CHECKS + (
        "facet-count-purity", "facets-vs-bruteforce", "word-codec-roundtrip",
        "extend-fixes-facets", "initial-generator-count",
        "shelling-evidence", "groebner-basis", "initial-ideal-match",
        "relations-reduce-to-zero")),
    "complex-checks": frozenset(_FORMULA_CHECKS + (
        "facet-count-purity", "word-codec-roundtrip", "extend-fixes-facets",
        "initial-generator-count")),
}


class OutputDigest:
    """Sink for a child's stdout: hashes everything, keeps the first
    ``HEAD_LIMIT`` bytes, holds nothing else."""

    def __init__(self):
        self._sha = hashlib.sha256()
        self.size = 0
        self.head = bytearray()

    def write(self, data):
        self._sha.update(data)
        self.size += len(data)
        room = HEAD_LIMIT - len(self.head)
        if room > 0:
            self.head += data[:room]
        return len(data)

    @property
    def sha256(self):
        return self._sha.hexdigest()


@dataclass(frozen=True)
class Output:
    """What an invocation left behind, as far as the oracles look at it."""

    returncode: int
    sha256: str
    size: int
    head: str
    stderr: str

    def json(self):
        if self.size > HEAD_LIMIT:
            raise ValueError(f"{self.size} bytes of output are too many to parse")
        payload = json.loads(self.head)
        if not isinstance(payload, dict):
            raise ValueError("output is not a JSON object")
        return payload


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # ``n`` numbers a run's inputs: the seed plus the invocation's index
    argv: Callable[[int], list]             # n -> doubledet arguments
    oracle: Callable[[int, Output], object]  # None, or why output is wrong

    def check(self, n, out: Output):
        """None if the invocation succeeded with the right output, else
        the reason it did not."""
        if out.returncode != 0:
            return f"exit code {out.returncode}"
        errors = [line for line in out.stderr.splitlines()
                  if line.startswith("error:")]
        if errors:
            return errors[0]
        try:
            return self.oracle(n, out)
        except ValueError as exc:  # includes malformed JSON
            return f"unreadable output: {exc}"


def orientation(n):
    return FACET_ORIENTATIONS[n % len(FACET_ORIENTATIONS)]


def _facet_catalog_oracle(n, out):
    want = FACET_CATALOG_SHA256[orientation(n)]
    if out.sha256 != want:
        return f"catalog sha256 {out.sha256} != {want}"
    return None


def _hpoly_oracle(n, out):
    payload = out.json()
    if payload.get("h_polynomial") != HPOLY_566:
        return f"h-polynomial {payload.get('h_polynomial')} != {HPOLY_566}"
    if payload.get("agreement") is not True:
        return "h-polynomial methods do not agree"
    return None


def _verify_oracle(ok_checks, n, out):
    payload = out.json()
    if payload.get("passed") is not True:
        return "verify did not pass"
    status = {c.get("name"): c.get("status") for c in payload.get("checks", [])}
    for name in sorted(ok_checks):
        if name not in status:
            return f"check {name} is missing"
        if status[name] != "ok":
            return f"check {name} is {status[name]}, was ok"
    return None


WORKLOADS = {w.name: w for w in (
    Workload("groebner-cert",
             "verify 3 3 2 --level groebner: the Buchberger certificate "
             "(619 S-polynomials, 116k divides) is 96% of CPU; the only "
             "workload where groebner and ring do real work",
             lambda n: ["verify", "3", "3", "2", "--level", "groebner",
                        "-f", "json"],
             partial(_verify_oracle, VERIFY_OK_CHECKS["groebner-cert"])),
    Workload("complex-checks",
             "verify 4 4 5 --level complex: decodes, re-encodes and extends "
             "every facet (simplicial) plus the formulas tier; never touches "
             "groebner",
             lambda n: ["verify", "4", "4", "5", "--level", "complex",
                        "-f", "json"],
             partial(_verify_oracle, VERIFY_OK_CHECKS["complex-checks"])),
    Workload("facet-catalog",
             "facets 5 5 4 -f json, its 3 orientations in turn from the "
             "seed's: 11550 facets as 1.7 MB of JSON; simplicial decode plus "
             "cli output, peak memory, time to first byte",
             lambda n: ["facets", *map(str, orientation(n)), "-f", "json"],
             _facet_catalog_oracle),
    Workload("hpoly-routes",
             "hpoly 5 6 6 --method all: word and linear-extension "
             "enumeration (252252 each) plus the series; multiset, poset and "
             "invariants dominate",
             lambda n: ["hpoly", "5", "6", "6", "--method", "all", "-f",
                        "json"],
             _hpoly_oracle),
)}
