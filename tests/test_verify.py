"""The verify harness fails closed: same verdicts with and without -O."""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import doubledet
from doubledet import simplicial, verify
from doubledet.errors import (DEFAULT_BUDGET, BudgetExceededError,
                              CheckFailed, SizeGuardError)

SRC = pathlib.Path(doubledet.__file__).parent

# regularity = dim + a still holds, so only an oracle for dim or a sees it
DIM_PLUS_ONE = (
    "real = invariants.compute_invariants\n"
    "def compute_invariants(m, n, r):\n"
    "    rep = real(m, n, r)\n"
    "    return dataclasses.replace(rep, dim=rep.dim + 1,\n"
    "                               a_invariant=rep.a_invariant - 1)\n"
    "invariants.compute_invariants = compute_invariants\n")

SWAP_M_N = (
    "real_{name} = simplicial.{name}\n"
    "simplicial.{name} = lambda *args: real_{name}(*args).translate(\n"
    "    str.maketrans('MN', 'NM'))\n")

#: each sabotage of a closed form or its oracle: the lowest level that
#: catches it, the code that breaks it, the checks that must report it,
#: and the size to verify if not (2, 2, 2)
SABOTAGE = {
    "multiplicity-extensions": ("formulas", (
        "real = invariants.multiplicity\n"
        "invariants.multiplicity = lambda m, n, r: real(m, n, r) + 1\n"),
        ("multiplicity-extensions",)),
    "minor-decomposition": (
        "formulas", "generators._expansion = lambda parts: {}\n",
        ("minor-decomposition",)),
    "poset-stats": ("formulas", DIM_PLUS_ONE, ("poset-stats",)),
    "facet-count-purity": ("complex", DIM_PLUS_ONE, ("facet-count-purity",)),
    # the listed extensions are the brute-force oracle of the recursion
    "h-poly-agreement": ("formulas", (
        "from doubledet.intpoly import IntPolynomial\n"
        "real = invariants.poset_descent_polynomial\n"
        "invariants.poset_descent_polynomial = lambda *args, **kw: (\n"
        "    real(*args, **kw) + IntPolynomial([0, 1]))\n"),
        ("h-poly-agreement", "multiplicity-extensions")),
    "duplicated-minor": ("formulas", (
        "real = generators.minor_basis\n"
        "generators.minor_basis = lambda m, n, r: (\n"
        "    real(m, n, r) + real(m, n, r)[-1:])\n"),
        ("kernel-membership",)),
    "dropped-minor": ("formulas", (
        "real = generators.minor_basis\n"
        "generators.minor_basis = lambda m, n, r: real(m, n, r)[1:]\n"),
        ("kernel-membership",)),
    # phi itself: a kernel test that accepts everything, and a map that
    # forgets the matrix index; every known generator is still accepted
    "kernel-accepts-all": ("formulas",
                           "sorting.in_kernel = lambda b, m, n, r: True\n",
                           ("kernel-membership",)),
    "phi-drops-matrix": ("formulas", (
        "real = sorting.phi_monomial\n"
        "sorting.phi_monomial = lambda variables, m, n, r: (\n"
        "    real(variables, m, n, r)[:2])\n"),
        ("kernel-membership",)),
    # the facet encoder and the extender with M and N swapped in their word
    "word-codec-roundtrip": ("complex", SWAP_M_N.format(name="facet_word"),
                             ("word-codec-roundtrip",)),
    "extend-fixes-facets": ("complex",
                            SWAP_M_N.format(name="extension_word"),
                            ("extend-fixes-facets",)),
    # the Hilbert function off by one at d = dim - 1 = 6 only, past every
    # degree the series route reads
    "hilbert-last-degree": ("formulas", (
        "real = invariants.hilbert_function\n"
        "invariants.hilbert_function = lambda m, n, r, d: (\n"
        "    real(m, n, r, d) + (d == m + n + r - 3))\n"),
        ("hilbert-oracle",), (3, 3, 3)),
    # the ideal multichain count off by one in its last degree only
    "multichain-count": ("formulas", (
        "real = invariants.order_preserving_map_counts\n"
        "def counts(p, top):\n"
        "    out = real(p, top)\n"
        "    out[-1] += 1\n"
        "    return out\n"
        "invariants.order_preserving_map_counts = counts\n"),
        ("hilbert-oracle",), (3, 3, 3)),
}


def run_sabotaged(sabotage, level, optimize, size=(2, 2, 2)):
    script = ("import dataclasses, sys\n"
              "from doubledet import (cli, generators, invariants,\n"
              "                       simplicial, sorting)\n"
              + sabotage
              + f"sys.exit(cli.main(['verify', *map(str, {size}), "
                f"'--level', '{level}']))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")]))
    flags = ["-O"] if optimize else []
    return subprocess.run([sys.executable, *flags, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60)


@pytest.mark.parametrize("sabotage, optimize", [
    ("multiplicity-extensions", True),
    ("minor-decomposition", True),
    ("multiplicity-extensions", False),
    ("facet-count-purity", True),
    ("poset-stats", True),
    ("poset-stats", False),
    ("h-poly-agreement", True),
    ("h-poly-agreement", False),
    ("duplicated-minor", True),
    ("duplicated-minor", False),
    ("dropped-minor", True),
    ("dropped-minor", False),
    ("kernel-accepts-all", True),
    ("kernel-accepts-all", False),
    ("phi-drops-matrix", True),
    ("phi-drops-matrix", False),
    ("word-codec-roundtrip", True),
    ("word-codec-roundtrip", False),
    ("extend-fixes-facets", True),
    ("extend-fixes-facets", False),
    ("hilbert-last-degree", True),
    ("hilbert-last-degree", False),
    ("multichain-count", True),
    ("multichain-count", False),
])
def test_sabotage_gives_fail_line_and_exit_1(sabotage, optimize):
    level, code, checks, *size = SABOTAGE[sabotage]
    proc = run_sabotaged(code, level, optimize, *size)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for name in checks:
        assert f"\nFAIL {name} (" in proc.stdout
    assert "Traceback" not in proc.stderr


def test_runner_maps_each_exception_to_a_status():
    def ok():
        return "fine"

    def disagree():
        raise CheckFailed("3 != 4")

    def broken_invariant():
        raise ArithmeticError("h(1) != e")

    def broken_assert():
        raise AssertionError

    def too_big():
        raise SizeGuardError("too many")

    def rejects_own_output():
        raise ValueError("vertex set does not match its path decomposition")

    outcomes = verify.run_checks([
        ("a", ok), ("b", disagree), ("c", broken_invariant),
        ("d", broken_assert), ("e", too_big), ("f", rejects_own_output)])
    assert [tuple(o) for o in outcomes] == [
        ("a", "ok", "fine"),
        ("b", "FAIL", "3 != 4"),
        ("c", "FAIL", "ArithmeticError: h(1) != e"),
        ("d", "FAIL", "AssertionError"),
        ("e", "skip", "too many"),
        ("f", "FAIL", "ValueError: vertex set does not match its path "
                      "decomposition"),
    ]


def test_complex_tier_decodes_each_facet_once(monkeypatch):
    built = 0
    real = simplicial.Facet.__init__

    def counting(self, *args):
        nonlocal built
        built += 1
        real(self, *args)

    monkeypatch.setattr(simplicial.Facet, "__init__", counting)
    outcomes = verify.run_checks(
        verify.build_checks(4, 4, 5, "complex", DEFAULT_BUDGET))
    assert "FAIL" not in {o.status for o in outcomes}
    # the 4,200 facets of (4,4,5), each decoded once and re-encoded and
    # extended as words only
    assert built == 4200


def test_recoder_error_fails_its_own_check_only(monkeypatch):
    def refuses(vertices, m, n, r):
        raise ValueError("not a facet")

    monkeypatch.setattr(simplicial, "facet_word", refuses)
    status = {o.name: (o.status, o.detail) for o in verify.run_checks(
        verify.build_checks(2, 2, 3, "complex", DEFAULT_BUDGET))}
    assert status["word-codec-roundtrip"] == (
        "FAIL", "roundtrip failed for MNRR: not a facet")
    assert status["facet-count-purity"][0] == "ok"
    assert status["extend-fixes-facets"][0] == "ok"


def test_budget_exhaustion_skips_the_check():
    def over_budget():
        raise BudgetExceededError("simplicial.facets: 12 facets exceed "
                                  "budget 11")

    outcomes = verify.run_checks([("a", over_budget), ("b", lambda: "fine")])
    assert [tuple(o) for o in outcomes] == [
        ("a", "skip", "simplicial.facets: 12 facets exceed budget 11"),
        ("b", "ok", "fine"),
    ]


def test_library_has_no_assert():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == [], f"assert statements at {found} vanish under -O"
