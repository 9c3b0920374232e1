"""The verify harness fails closed: same verdicts with and without -O."""

import ast
import os
import pathlib
import re
import subprocess
import sys
import weakref

import pytest

import doubledet
from doubledet import generators, grid, invariants, simplicial, verify
from doubledet.errors import (DEFAULT_BUDGET, BudgetExceededError,
                              CheckFailed, SizeGuardError)

SRC = pathlib.Path(doubledet.__file__).parent

# regularity = dim + a still holds, so only an oracle for dim or a sees it
DIM_PLUS_ONE = (
    "real = invariants.compute_invariants\n"
    "def compute_invariants(m, n, r):\n"
    "    rep = real(m, n, r)\n"
    "    return rep._replace(dim=rep.dim + 1,\n"
    "                        a_invariant=rep.a_invariant - 1)\n"
    "invariants.compute_invariants = compute_invariants\n")

SWAP_M_N = (
    "real_{name} = simplicial.{name}\n"
    "simplicial.{name} = lambda *args: real_{name}(*args).translate(\n"
    "    str.maketrans('MN', 'NM'))\n")

#: each sabotage of a closed form or its oracle: the lowest level that
#: catches it, the code that breaks it, the checks that must report it
#: (each a name, or a name and a pattern its whole detail must match),
#: and the size to verify if not (2, 2, 2)
SABOTAGE = {
    "multiplicity-extensions": ("formulas", (
        "real = invariants.multiplicity\n"
        "invariants.multiplicity = lambda m, n, r: real(m, n, r) + 1\n"),
        ("multiplicity-extensions",)),
    "minor-decomposition": (
        "formulas", "generators._expansion = lambda parts: {}\n",
        ("minor-decomposition",)),
    # a V-minor whose a12 entry is read from q's matrix instead of p's: its
    # binomial leaves the kernel, and a generator no longer expands back
    "v-minor-entry": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(generators._v_minor)\n"
        "mutant = source.replace('(i1, j2, k1)', '(i1, j2, k2)')\n"
        "if mutant == source:\n"
        "    sys.exit('the entry mutation did not apply')\n"
        "exec(mutant, vars(generators))\n"),
        ("kernel-membership", "minor-decomposition"), (2, 3, 4)),
    "poset-stats": ("formulas", DIM_PLUS_ONE, ("poset-stats",)),
    "facet-count-purity": ("complex", DIM_PLUS_ONE, ("facet-count-purity",)),
    # a stream that yields facet 5 again in place of facet 6: the count and
    # each facet's size, word and extension still hold, and at (4, 4, 5)
    # the brute-force and shelling checks skip
    "facet-repeated": ("complex", (
        "real = simplicial.facets\n"
        "def facets(*args, **kwargs):\n"
        "    for index, facet in enumerate(real(*args, **kwargs), start=1):\n"
        "        if index == 6:\n"
        "            facet = previous\n"
        "        yield facet\n"
        "        previous = facet\n"
        "simplicial.facets = facets\n"),
        ("facet-count-purity",), (4, 4, 5)),
    # grid.comparable asking p <= q to rise strictly in the matrix index: a
    # pair of one matrix, listed lower point first, is no longer comparable,
    # so the pair count drops and the pair becomes a relation whose two
    # terms are equal
    "comparable-strict-matrix": ("formulas", (
        "import inspect\n"
        "from doubledet import grid\n"
        "source = inspect.getsource(grid.comparable)\n"
        "mutant = source.replace('c <= f', 'c < f')\n"
        "if mutant == source:\n"
        "    sys.exit('the order mutation did not apply')\n"
        "exec(mutant, vars(grid))\n"),
        (("comparable-pairs", r"17 != 27"),
         ("families-vs-sorting-relations",
          r"ValueError: binomial terms must differ"))),
    # the listed extensions are the brute-force oracle of the recursion
    "h-poly-agreement": ("formulas", (
        "from doubledet.intpoly import IntPolynomial\n"
        "real = invariants.poset_descent_polynomial\n"
        "invariants.poset_descent_polynomial = lambda *args, **kw: (\n"
        "    real(*args, **kw) + IntPolynomial([0, 1]))\n"),
        ("h-poly-agreement", "multiplicity-extensions")),
    # the loop both descent routes share, shifting a descent two slots
    # instead of one: the routes still agree, so the series, the binomial
    # sums and the listed extensions must tell
    "descent-transfer-two-slots": ("formulas", (
        "import inspect\n"
        "from doubledet import multiset\n"
        "source = inspect.getsource(multiset._descent_transfer)\n"
        "mutant = source.replace('value << width', 'value << 2 * width')\n"
        "if mutant == source:\n"
        "    sys.exit('the transfer mutation did not apply')\n"
        "exec(mutant, vars(multiset))\n"
        "invariants._descent_transfer = multiset._descent_transfer\n"),
        # the two routes agree with each other, not with the series
        (("h-poly-agreement", r"(?P<routes>[^/]+) / (?P=routes) / [^/]+"),
         "macmahon", "multiplicity-extensions")),
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
    # phi's quadric branch without its matrix swap: a canonical term lists
    # its matrices in order, so every minor stays in the kernel, but a
    # listed pair such as x[1,1,2]*x[1,2,1] splits its fibre
    "quadric-matrices-unsorted": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(sorting.phi_monomial)\n"
        "mutant = source.replace('(k, s) if k <= s else (s, k)', '(k, s)')\n"
        "if mutant == source:\n"
        "    sys.exit('the quadric mutation did not apply')\n"
        "exec(mutant, vars(sorting))\n"),
        ("kernel-membership",)),
    # a ready-set walk that never adds an upper cover: past the minimal
    # elements nothing is ever ready, and no extension is listed
    "ready-set-without-covers": ("formulas", (
        "import inspect, textwrap\n"
        "from doubledet import poset\n"
        "source = textwrap.dedent(\n"
        "    inspect.getsource(poset.Poset.linear_extensions))\n"
        "mutant = source.replace('ready |= 1 << b', 'pass')\n"
        "if mutant == source:\n"
        "    sys.exit('the ready-set mutation did not apply')\n"
        "namespace = {}\n"
        "exec(mutant, vars(poset), namespace)\n"
        "poset.Poset.linear_extensions = namespace['linear_extensions']\n"),
        ("multiplicity-extensions",), (2, 3, 4)),
    # an ideal listing whose suffix starts one ideal late: at (3, 2, 2) the
    # chain 0 < 1 loses the ideal {0, 1}, and every ideal built on it
    "ideal-suffix-one-late": ("formulas", (
        "import inspect, textwrap\n"
        "from doubledet import poset\n"
        "source = textwrap.dedent(\n"
        "    inspect.getsource(poset.Poset.order_ideals))\n"
        "mutant = source.replace('starts[need.bit_length() - 1]',\n"
        "                        'starts[need.bit_length() - 1] + 1')\n"
        "if mutant == source:\n"
        "    sys.exit('the suffix mutation did not apply')\n"
        "namespace = {}\n"
        "exec(mutant, vars(poset), namespace)\n"
        "poset.Poset.order_ideals = namespace['order_ideals']\n"),
        ("ideal-count",), (3, 2, 2)),
    # a minor of H or V printed at a mirrored second column or row: its
    # entries, binomial and every Groebner check are unchanged
    "h-minor-printed-column": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(generators._h_minor)\n"
        "mutant = source.replace('(k2 - 1) * n + j2', '(k2 - 1) * n - j2')\n"
        "if mutant == source:\n"
        "    sys.exit('the column mutation did not apply')\n"
        "exec(mutant, vars(generators))\n"),
        ("kernel-membership",)),
    "v-minor-printed-row": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(generators._v_minor)\n"
        "mutant = source.replace('(k2 - 1) * m + i2', '(k2 - 1) * m - i2')\n"
        "if mutant == source:\n"
        "    sys.exit('the row mutation did not apply')\n"
        "exec(mutant, vars(generators))\n"),
        ("kernel-membership",)),
    # the facet encoder and the extender with M and N swapped in their word
    "word-codec-roundtrip": ("complex", SWAP_M_N.format(name="facet_word"),
                             ("word-codec-roundtrip",)),
    "extend-fixes-facets": ("complex",
                            SWAP_M_N.format(name="extension_word"),
                            ("extend-fixes-facets",)),
    # the extender's filler for an empty trailing matrix moved from the
    # (1, 1) corner to (1, n), board columns 1 + k * n and n + k * n:
    # every facet still extends to itself, but 8 of the 52 faces of
    # (2, 2, 2) no longer extend to a facet holding them
    "extend-fixes-faces": ("complex", (
        "import inspect\n"
        "source = inspect.getsource(simplicial.extension_word)\n"
        "mutant = source.replace('firsts[k] = (1, 1 + k * n)', "
        "'firsts[k] = (1, n + k * n)')\n"
        "if mutant == source:\n"
        "    sys.exit('the filler mutation did not apply')\n"
        "exec(mutant, vars(simplicial))\n"),
        ("extend-fixes-faces",)),
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
    "generator-count": ("formulas", (
        "real = invariants.minimal_generator_count\n"
        "invariants.minimal_generator_count = lambda m, n, r: (\n"
        "    real(m, n, r) + 1)\n"),
        ("generator-count", "families-vs-sorting-relations")),
    "initial-generator-count": ("complex", (
        "real = simplicial.initial_generator_count\n"
        "simplicial.initial_generator_count = lambda m, n, r: (\n"
        "    real(m, n, r) + 1)\n"),
        ("initial-generator-count",)),
    # the family sizes of (n, m, r): their sum is symmetric in m and n, so
    # only the per-family sizes tell them apart, and only when m != n
    "family-sizes-transposed": ("formulas", (
        "real = generators.family_sizes\n"
        "generators.family_sizes = lambda m, n, r: real(n, m, r)\n"),
        ("families-vs-sorting-relations",), (2, 3, 4)),
    # a Gorenstein test that wants every chain maximal, forgetting that a
    # chain of size 1 is allowed: wrong at (1, 3, 3) only
    "gorenstein-needs-all-maximal": ("formulas", (
        "invariants.is_gorenstein = lambda m, n, r: (\n"
        "    min(m, n, r) == max(m, n, r))\n"),
        ("poset-stats", "h-poly-agreement"), (1, 3, 3)),
    # breaks regularity = dim + a, so the report's own validation raises
    "regularity-plus-one": ("formulas", (
        "real = invariants.compute_invariants\n"
        "def compute_invariants(m, n, r):\n"
        "    rep = real(m, n, r)\n"
        "    return rep._replace(regularity=rep.regularity + 1)\n"
        "invariants.compute_invariants = compute_invariants\n"),
        ("poset-stats", "h-poly-agreement", "macmahon", "symmetry")),
    # the series truncated one term short: the check of the coefficient
    # past the regularity reads past the list (IndexError)
    "series-one-term-short": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(invariants.h_poly_via_series)\n"
        "mutant = source.replace('range(cutoff + 1)', 'range(cutoff)')\n"
        "if mutant == source:\n"
        "    sys.exit('the series mutation did not apply')\n"
        "exec(mutant, vars(invariants))\n"),
        ("poset-stats", "h-poly-agreement", "macmahon", "symmetry")),
    # the multichain count read from one past the full ideal, a key the
    # sweep never set (KeyError)
    "multichain-key-past-top": ("formulas", (
        "import inspect\n"
        "source = inspect.getsource(invariants.order_preserving_map_counts)\n"
        "mutant = source.replace('z[(1 << p.n) - 1]', 'z[1 << p.n]')\n"
        "if mutant == source:\n"
        "    sys.exit('the multichain mutation did not apply')\n"
        "exec(mutant, vars(invariants))\n"),
        ("hilbert-oracle",)),
    # a normal-form memo that records each monomial on a chain as its own
    # normal form: nothing is divided, and every remainder is its input
    "normal-form-memo-keeps-each-monomial": ("groebner", (
        "import inspect\n"
        "source = inspect.getsource(groebner.remainders)\n"
        "mutant = source.replace('forms[v] = form', 'forms[v] = v')\n"
        "if mutant == source:\n"
        "    sys.exit('the memo mutation did not apply')\n"
        "exec(mutant, vars(groebner))\n"),
        ("groebner-basis",
         ("relations-reduce-to-zero", r"\S+ - \S+ does not reduce to zero")),
        (2, 2, 3)),
    # an S-polynomial that adds its two halves: the leading terms are never
    # formed, so 2 * lc(f) * lc(g) * lcm goes missing instead of cancelling
    # and the result leaves the ideal
    "s-polynomial-adds": ("groebner", (
        "import inspect\n"
        "source = inspect.getsource(groebner.s_polynomial)\n"
        "mutant = source.replace('(g, -f.terms[lt_f]', '(g, f.terms[lt_f]')\n"
        "if mutant == source:\n"
        "    sys.exit('the S-polynomial mutation did not apply')\n"
        "exec(mutant, vars(groebner))\n"),
        ("groebner-basis",), (2, 2, 3)),
}


def run_sabotaged(sabotage, level, optimize, size=(2, 2, 2)):
    script = ("import sys\n"
              "from doubledet import (cli, generators, groebner,\n"
              "                       invariants, simplicial, sorting)\n"
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
    ("v-minor-entry", True),
    ("v-minor-entry", False),
    ("facet-count-purity", True),
    ("facet-repeated", True),
    ("facet-repeated", False),
    ("poset-stats", True),
    ("poset-stats", False),
    ("h-poly-agreement", True),
    ("h-poly-agreement", False),
    ("descent-transfer-two-slots", True),
    ("descent-transfer-two-slots", False),
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
    ("extend-fixes-faces", True),
    ("extend-fixes-faces", False),
    ("hilbert-last-degree", True),
    ("hilbert-last-degree", False),
    ("multichain-count", True),
    ("multichain-count", False),
    ("generator-count", True),
    ("generator-count", False),
    ("initial-generator-count", True),
    ("initial-generator-count", False),
    ("family-sizes-transposed", True),
    ("family-sizes-transposed", False),
    ("gorenstein-needs-all-maximal", True),
    ("gorenstein-needs-all-maximal", False),
    ("regularity-plus-one", True),
    ("regularity-plus-one", False),
    ("series-one-term-short", True),
    ("series-one-term-short", False),
    ("multichain-key-past-top", True),
    ("multichain-key-past-top", False),
    ("normal-form-memo-keeps-each-monomial", True),
    ("normal-form-memo-keeps-each-monomial", False),
    ("s-polynomial-adds", True),
    ("s-polynomial-adds", False),
    ("quadric-matrices-unsorted", True),
    ("quadric-matrices-unsorted", False),
    ("ready-set-without-covers", True),
    ("ready-set-without-covers", False),
    ("ideal-suffix-one-late", True),
    ("ideal-suffix-one-late", False),
    ("h-minor-printed-column", True),
    ("h-minor-printed-column", False),
    ("v-minor-printed-row", True),
    ("v-minor-printed-row", False),
    ("comparable-strict-matrix", True),
    ("comparable-strict-matrix", False),
])
def test_sabotage_gives_fail_line_and_exit_1(sabotage, optimize):
    level, code, checks, *size = SABOTAGE[sabotage]
    proc = run_sabotaged(code, level, optimize, *size)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    for name in checks:  # a line of its own, the first line too
        name, pattern = (name, ".*") if isinstance(name, str) else name
        assert f"\nFAIL {name} (" in "\n" + proc.stdout
        detail = re.search(rf"^FAIL {name} \((.*)\)$", proc.stdout, re.M)
        assert re.fullmatch(pattern, detail[1]), detail[0]
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

    def reads_past_a_list():
        return [1, 2][2]

    def reads_an_unset_key():
        return {}[8]

    outcomes = list(verify.run_checks([
        ("a", ok), ("b", disagree), ("c", broken_invariant),
        ("d", broken_assert), ("e", too_big), ("f", rejects_own_output),
        ("g", reads_past_a_list), ("h", reads_an_unset_key)]))
    assert [tuple(o) for o in outcomes] == [
        ("a", "ok", "fine"),
        ("b", "FAIL", "3 != 4"),
        ("c", "FAIL", "ArithmeticError: h(1) != e"),
        ("d", "FAIL", "AssertionError"),
        ("e", "skip", "too many"),
        ("f", "FAIL", "ValueError: vertex set does not match its path "
                      "decomposition"),
        ("g", "FAIL", "IndexError: list index out of range"),
        ("h", "FAIL", "KeyError: 8"),
    ]


def test_report_validation_fails_the_checks_that_read_it(monkeypatch):
    real = invariants.compute_invariants

    def compute_invariants(m, n, r):
        rep = real(m, n, r)
        return rep._replace(regularity=rep.regularity + 1)

    monkeypatch.setattr(invariants, "compute_invariants", compute_invariants)
    failed = {o.name: o.detail for o in list(verify.run_checks(
        verify.build_checks(2, 2, 2, "formulas", DEFAULT_BUDGET)))
        if o.status == "FAIL"}
    assert failed == dict.fromkeys(
        ("poset-stats", "h-poly-agreement", "macmahon", "symmetry"),
        "ArithmeticError: regularity 3 != dim + a = 2")


def test_complex_tier_decodes_each_facet_once(monkeypatch):
    # every Facet, streamed or decoded from a word, passes the assembler
    built = 0
    real = simplicial._assemble

    def counting(*args):
        nonlocal built
        built += 1
        return real(*args)

    monkeypatch.setattr(simplicial, "_assemble", counting)
    outcomes = list(verify.run_checks(
        verify.build_checks(4, 4, 5, "complex", DEFAULT_BUDGET)))
    assert "FAIL" not in {o.status for o in outcomes}
    # the 4,200 facets of (4,4,5), each assembled once and re-encoded and
    # extended as words only
    assert built == 4200


def test_complex_tier_reads_each_facet_once(monkeypatch):
    calls = 0
    real = simplicial.read_face

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(simplicial, "read_face", counting)
    outcomes = list(verify.run_checks(
        verify.build_checks(4, 4, 5, "complex", DEFAULT_BUDGET)))
    assert "FAIL" not in {o.status for o in outcomes}
    # one read per facet feeds both the encoder and the extender
    assert calls == 4200


def test_the_listings_skip_by_what_they_walk(monkeypatch):
    # (3000, 1, 1) has no generator, but 4,498,500 grid pairs to test
    calls = 0

    def walked(*args):
        nonlocal calls
        calls += 1
        raise AssertionError("the walk started")

    monkeypatch.setattr(grid, "comparable", walked)
    readers = ("families-vs-sorting-relations", "kernel-membership",
               "minor-decomposition")
    checks = [(name, fn) for name, fn in verify.build_checks(
        3000, 1, 1, "formulas", DEFAULT_BUDGET) if name in readers]
    status = {o.name: (o.status, o.detail)
              for o in verify.run_checks(checks)}
    assert status["families-vs-sorting-relations"] == (
        "skip", "generators.sorting_relations: 4498500 grid pairs exceed "
                "guard 200000")
    assert status["minor-decomposition"] == (
        "ok", "0 generators decomposed into minors")
    assert calls == 0


def test_groebner_tier_lists_the_sorting_relations_once(monkeypatch):
    calls = 0
    real = generators.sorting_relations

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    monkeypatch.setattr(generators, "sorting_relations", counting)
    outcomes = list(verify.run_checks(
        verify.build_checks(2, 2, 3, "groebner", DEFAULT_BUDGET)))
    assert "FAIL" not in {o.status for o in outcomes}
    # families-vs-sorting-relations and relations-reduce-to-zero share it
    assert calls == 1


@pytest.mark.parametrize("level", ["formulas", "complex"])
def test_lower_tiers_drop_the_sorting_relations_after_reading_them(
        monkeypatch, level):
    class Listing(list):  # a list subclass can be weakly referenced
        pass

    made = []
    real = generators.sorting_relations

    def listing(*args):
        rels = Listing(real(*args))
        made.append(weakref.ref(rels))
        return rels

    monkeypatch.setattr(generators, "sorting_relations", listing)
    checks = verify.build_checks(2, 2, 3, level, DEFAULT_BUDGET)
    outcomes = list(verify.run_checks(checks))
    assert "FAIL" not in {o.status for o in outcomes}
    # the checks, and so their shared listings, are still alive; the
    # relations are not, since relations-reduce-to-zero is not run
    assert len(made) == 1
    assert made[0]() is None


def test_reader_error_fails_both_recoder_checks(monkeypatch):
    def refuses(vertices, m, n, r):
        raise ValueError("vertex (9,9) outside the 2 x 6 board")

    monkeypatch.setattr(simplicial, "read_face", refuses)
    status = {o.name: (o.status, o.detail) for o in list(verify.run_checks(
        verify.build_checks(2, 2, 3, "complex", DEFAULT_BUDGET)))}
    assert status["word-codec-roundtrip"] == (
        "FAIL", "roundtrip failed for MNRR: vertex (9,9) outside the 2 x 6 "
                "board")
    assert status["extend-fixes-facets"] == (
        "FAIL", "extension moves MNRR: vertex (9,9) outside the 2 x 6 board")
    assert status["facet-count-purity"][0] == "ok"


def test_recoder_error_fails_its_own_check_only(monkeypatch):
    def refuses(vertices, m, n, r):
        raise ValueError("not a facet")

    monkeypatch.setattr(simplicial, "facet_word", refuses)
    status = {o.name: (o.status, o.detail) for o in list(verify.run_checks(
        verify.build_checks(2, 2, 3, "complex", DEFAULT_BUDGET)))}
    assert status["word-codec-roundtrip"] == (
        "FAIL", "roundtrip failed for MNRR: not a facet")
    assert status["facet-count-purity"][0] == "ok"
    assert status["extend-fixes-facets"][0] == "ok"


def test_budget_exhaustion_skips_the_check():
    def over_budget():
        raise BudgetExceededError("simplicial.facets: 12 facets exceed "
                                  "budget 11")

    outcomes = list(verify.run_checks([("a", over_budget),
                                       ("b", lambda: "fine")]))
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
