import ast
import contextlib
import csv
import gc
import io
import itertools
import json
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc
from collections import deque

import pytest

import doubledet
from doubledet import cli, invariants, poset, simplicial, verify
from doubledet.errors import (DEFAULT_BUDGET, MAX_LISTED, CheckFailed,
                             SizeGuardError)
from doubledet.intpoly import IntPolynomial

PAPER_VERTICES = ("(4,5),(3,5),(3,7),(2,7),(2,8),(2,9),(2,10),(2,11),"
                  "(1,11),(1,12)")


def fresh_env():
    """Environment for a child interpreter that imports this checkout."""
    src = pathlib.Path(doubledet.__file__).parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_invariants_json_matches_schema(capsys):
    code, out, _ = run(capsys, "invariants", "2", "2", "2", "--format", "json")
    assert code == 0
    assert out.strip() == ('{"mu":9,"dim":4,"multiplicity":6,"regularity":2,'
                           '"a_invariant":-2,"gorenstein":true,'
                           '"h_polynomial":[1,4,1]}')


def test_invariants_text(capsys):
    code, out, _ = run(capsys, "invariants", "3", "2", "4")
    assert code == 0
    assert "mu" in out and "120" in out
    assert "gorenstein" in out and "false" in out


def test_invariants_csv(capsys):
    code, out, _ = run(capsys, "invariants", "2", "2", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "mu"
    assert rows[1][0] == "24"
    assert rows[1][-1] == "1 7 4"


def test_facet2word_paper_example(capsys):
    code, out, _ = run(capsys, "facet2word", "4", "5", "3",
                       "--vertices", PAPER_VERTICES)
    assert code == 0
    assert out.strip() == "MRMNNNRMN"


def test_word2facet_roundtrip(capsys):
    code, out, _ = run(capsys, "word2facet", "4", "5", "3", "MRMNNNRMN",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "MRMNNNRMN"
    assert payload["g"] == [4, 3, 2, 1]
    assert payload["h"] == [5, 5, 2, 1]
    assert [4, 5] in payload["vertices"]


def test_word2facet_bad_word_exits_2(capsys):
    code, _, err = run(capsys, "word2facet", "2", "2", "3", "MMRR")
    assert code == 2
    assert "error" in err


def test_facet2word_names_the_word_its_paths_spell(capsys):
    # unbroken paths of the wrong length: the refusal names the word they
    # spell as theirs, not as a word the user typed
    code, out, err = run(capsys, "facet2word", "2", "2", "2",
                         "--vertices", "(1,1),(1,2),(1,3),(1,4)")
    assert (code, out) == (2, "")
    assert err == ("error: vertex set is not a facet: its paths spell "
                   "'NRN', with 0 M's and 2 N's, not 1 and 1\n")


def test_facets_words_and_csv(capsys):
    code, out, _ = run(capsys, "facets", "2", "2", "3")
    assert code == 0
    words = out.split()
    assert len(words) == 12 and words == sorted(words)
    code, out, _ = run(capsys, "facets", "2", "2", "3", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "word", "g", "h", "vertices"]
    assert len(rows) == 13
    assert rows[1][1] == "MNRR"


def test_facets_paths_style(capsys):
    code, out, _ = run(capsys, "facets", "1", "1", "1", "--style", "paths")
    assert code == 0
    assert "(1,1)" in out


def test_facets_json(capsys):
    code, out, _ = run(capsys, "facets", "2", "2", "2", "--format", "json")
    payload = json.loads(out)
    assert len(payload) == 6
    assert all(set(item) == {"word", "vertices", "g", "h"}
               for item in payload)


# one point, one matrix, one row, one column, a small board, two-digit
# rows and two-digit columns (the writer keys each vertex as one integer),
# the three orientations of the benchmark's catalog, and one past
# JSON_CHUNK
@pytest.mark.parametrize("m, n, r", [
    (1, 1, 1), (1, 1, 5), (4, 1, 1), (1, 4, 1), (2, 3, 1), (3, 3, 3),
    (11, 1, 2), (2, 6, 2), (5, 5, 4), (5, 4, 5), (4, 5, 5), (4, 4, 5)])
def test_facets_json_is_json_dumps_of_each_facet(m, n, r, capsys):
    code, out, _ = run(capsys, "facets", str(m), str(n), str(r), "-f", "json")
    assert code == 0
    assert out == json.dumps(
        [cli._facet_json(facet) for facet in simplicial.facets(m, n, r)],
        separators=(",", ":")) + "\n"
    if (m, n, r) == (4, 4, 5):
        assert len(out) > cli.JSON_CHUNK


def test_facets_budget_exit_2(capsys):
    code, _, err = run(capsys, "facets", "4", "5", "3", "--budget", "100")
    assert code == 2
    assert "budget" in err


class Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_facets_holds_no_catalog(fmt):
    # 4,200 facets: a catalog held in memory peaks near 8 MiB
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(Discard()):
            code = cli.main(["facets", "4", "4", "5", "-f", fmt])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 2 * 2 ** 20, f"peak {peak / 2 ** 20:.2f} MiB"


def test_facet_texts_hold_no_profile_per_matrix():
    # a 2 x 2 board with r matrices: its first 2r+2 facets meet 2r
    # profiles of r+1 entries each, which an unbounded memo would hold:
    # near 600 KiB at r = 200, and growing as r squared
    r = 200
    texts = cli._facet_texts(simplicial.facets(2, 2, r))
    tracemalloc.start()
    try:
        gc.collect()
        start = tracemalloc.get_traced_memory()[0]
        deque(itertools.islice(texts, 2 * r + 2), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 384 * 2 ** 10, f"peak {peak - start} B"


def _elements(count):
    """JSON values of mixed kinds and lengths, tuples among them."""
    for i in range(count):
        yield {"word": "MN" * (i % 7), "vertices": [(i, i + 1), (2, i)],
               "g": (i, 1), "h": []} if i % 3 else [i, "x" * (i % 5), None]


# 0, 1, one short of a batch, one batch, one past it; and past JSON_CHUNK
@pytest.mark.parametrize("count", [0, 1, 31, 32, 33, 2000])
def test_dump_json_prints_the_bytes_of_json_dumps(count, capsys):
    cli._dump_json(_elements(count))
    out = capsys.readouterr().out
    assert out == json.dumps(list(_elements(count)),
                             separators=(",", ":")) + "\n"
    assert (len(out) > cli.JSON_CHUNK) == (count == 2000)


@pytest.mark.parametrize("count", [0, 1, 33])
def test_dump_json_writes_lazy_dict_members_as_json_dumps(count, capsys):
    # an iterator member is an array, and a callable member is its value,
    # called only once the iterator before it is used up
    pulled = []
    items = (pulled.append(item) or item for item in _elements(count))
    cli._dump_json({"a": [1, (2, "é")], "items": items,
                    "pulled": lambda: len(pulled), "z": {"k": None}})
    assert capsys.readouterr().out == json.dumps(
        {"a": [1, [2, "é"]], "items": list(_elements(count)),
         "pulled": count, "z": {"k": None}}, separators=(",", ":")) + "\n"


def test_extend_paper_example(capsys):
    code, out, _ = run(capsys, "extend", "4", "5", "3",
                       "--vertices", "(4,5),(3,7),(2,8),(2,11),(1,12)")
    assert code == 0
    assert "MRMNNNRMN" in out
    assert "added" in out


def test_extend_empty_face(capsys):
    code, out, _ = run(capsys, "extend", "2", "2", "2", "--vertices", "",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["vertices"]) == 4


def test_extend_non_face_exits_2(capsys):
    code, _, err = run(capsys, "extend", "2", "2", "2",
                       "--vertices", "(1,1),(2,2)")
    assert code == 2


def test_hilbert(capsys):
    code, out, _ = run(capsys, "hilbert", "2", "2", "2", "--max-degree", "2",
                       "--format", "json")
    assert code == 0
    assert json.loads(out) == {"values": [1, 8, 27]}


def test_hpoly_methods(capsys):
    for method in ("series", "words", "extensions", "all"):
        code, out, _ = run(capsys, "hpoly", "2", "2", "3",
                           "--method", method, "--format", "json")
        assert code == 0
        assert json.loads(out)["h_polynomial"] == [1, 7, 4]


def test_hpoly_text(capsys):
    code, out, _ = run(capsys, "hpoly", "2", "2", "2")
    assert code == 0
    assert out.strip() == "1 + 4*t + t^2"


def test_hpoly_poset_file(capsys, tmp_path):
    path = tmp_path / "antichain.poset"
    path.write_text("n=3\n")
    code, out, _ = run(capsys, "hpoly", "--poset-file", str(path),
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["h_polynomial"] == [1, 4, 1]


def test_hpoly_poset_file_with_sizes_rejected(capsys, tmp_path):
    path = tmp_path / "p.poset"
    path.write_text("n=1\n")
    code, _, err = run(capsys, "hpoly", "2", "2", "2",
                       "--poset-file", str(path))
    assert code == 2


def test_hpoly_poset_file_with_method_rejected(capsys, tmp_path):
    path = tmp_path / "p.poset"
    path.write_text("n=3\n")
    for method in ("series", "words", "extensions", "all"):
        code, out, err = run(capsys, "hpoly", "--poset-file", str(path),
                             "--method", method)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_hpoly_poset_file_counts_past_the_budget_without_listing(
        capsys, tmp_path, monkeypatch):
    def no_listing(self):
        raise AssertionError("linear extensions listed")

    monkeypatch.setattr(poset.Poset, "linear_extensions", no_listing)
    path = tmp_path / "antichain.poset"
    path.write_text("n=12\n")
    code, out, err = run(capsys, "hpoly", "--poset-file", str(path),
                         "--format", "json")
    assert (code, err) == (0, "")
    # the Eulerian polynomial: 12! = 479001600 extensions, none listed
    eulerian = [1, 4083, 478271, 10187685, 66318474, 162512286]
    h = json.loads(out)["h_polynomial"]
    assert h == eulerian + eulerian[::-1]
    assert sum(h) == 479001600 > DEFAULT_BUDGET


def test_hpoly_poset_file_states_guard(tmp_path):
    # in a child capped at 512 MB of address space: without the guard the
    # recursion over this antichain's 2^40 ideals would take all memory
    path = tmp_path / "antichain.poset"
    path.write_text("n=40\n")
    limit = 512 * 2 ** 20
    proc = subprocess.run(
        [sys.executable, "-m", "doubledet", "hpoly", "--poset-file",
         str(path)],
        env=fresh_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith(
        "error: invariants.poset_descent_polynomial: ")
    assert proc.stderr.endswith(
        f" states exceed guard {invariants.MAX_POSET_STATES}\n")


@pytest.mark.parametrize("shape, n", [("antichain", 100_000),
                                      ("chain", 20_000), ("chain", 100_000)])
def test_hpoly_poset_file_elements_guard(tmp_path, shape, n):
    # in a child capped at 512 MB of address space: unguarded, the
    # antichain's first layer alone takes 2.7 GB and the chain's n^2
    # steps run for minutes, both for nothing; the 100,000-element chain's
    # order alone (n^2 / 8 bytes) does not fit, so the count is checked
    # before the order is built
    covers = range(1, n) if shape == "chain" else ()
    path = tmp_path / f"{shape}.poset"
    path.write_text(f"n={n}\n" + "".join(f"{a} < {a + 1}\n" for a in covers))
    limit = 512 * 2 ** 20
    proc = subprocess.run(
        [sys.executable, "-m", "doubledet", "hpoly", "--poset-file",
         str(path)],
        env=fresh_env(), capture_output=True, text=True, timeout=20,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (
        f"error: invariants.poset_descent_polynomial: {n} elements exceed "
        f"guard {invariants.MAX_POSET_ELEMENTS}\n")


@pytest.mark.parametrize("argv, refused", [
    (("hilbert", "2", "2", "2", "--max-degree", "30000000"),
     "cli.hilbert: 30000001 degrees"),
    (("generators", "14", "14", "14", "--show", "minors"),
     "cli.generators: 3478020 minors"),
    (("generators", "14", "14", "14"),
     "generators.generator_families: 2608515 generators"),
    (("generators", "14", "14", "14", "--show", "witness"),
     "generators.minor_basis: 3478020 minors"),
])
def test_listing_over_the_cap_exits_2(argv, refused):
    # in a child capped at 512 MB of address space: unguarded, each listing
    # dies there with a MemoryError traceback and exit 1, the status of a
    # failed verification
    limit = 512 * 2 ** 20
    proc = subprocess.run(
        [sys.executable, "-m", "doubledet", *argv],
        env=fresh_env(), capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (limit, limit)))
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == f"error: {refused} exceed guard {MAX_LISTED}\n"


def test_hpoly_missing_sizes(capsys):
    code, _, err = run(capsys, "hpoly", "2", "2")
    assert code == 2


def test_generators_families(capsys):
    code, out, _ = run(capsys, "generators", "2", "2", "2",
                       "--format", "json")
    payload = json.loads(out)
    assert payload["total"] == 9
    assert len(payload["mixed"]) == 3
    assert all("-" in b for b in payload["same_row"])


def test_generators_witness(capsys):
    code, out, _ = run(capsys, "generators", "2", "2", "2",
                       "--show", "witness", "--format", "json")
    payload = json.loads(out)
    assert payload["exists"] is True
    assert [t["sign"] for t in payload["terms"]] == [1, -1, -1, 1]
    code, out, _ = run(capsys, "generators", "1", "1", "1",
                       "--show", "witness")
    assert out.strip() == "none"


def test_generators_minors_csv(capsys):
    code, out, _ = run(capsys, "generators", "2", "2", "2",
                       "--show", "minors", "--format", "csv")
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 13  # header + 6 H + 6 V
    assert {row[0] for row in rows[1:]} == {"H", "V"}


@pytest.mark.parametrize("argv", [
    ("facets", "1", "1", "1200"),
    ("facets", "1", "1", "1200", "-f", "json"),
    ("hpoly", "1", "1", "1200", "--method", "all"),
])
def test_long_words_need_no_recursion(argv):
    # a fresh interpreter, so the default recursion limit applies: the
    # enumerators must not recurse once per letter or element
    proc = subprocess.run([sys.executable, "-m", "doubledet.cli", *argv],
                          env=fresh_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


def test_reader_closing_the_pipe_is_no_error():
    # 1.8 MB of output, far more than a pipe buffers, so the writes after
    # the reader leaves hit the closed pipe
    proc = subprocess.Popen(
        [sys.executable, "-m", "doubledet.cli", "facets", "5", "5", "4",
         "--style", "paths"],
        env=fresh_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == 141


#: modules that neither ``hpoly`` nor ``facets`` runs
NOT_RUN_BY_HPOLY_OR_FACETS = ("doubledet.verify", "doubledet.groebner",
                              "doubledet.generators", "dataclasses", "csv")


def test_commands_load_only_the_modules_they_run():
    # a fresh interpreter: this one has loaded every module already
    script = (
        "import contextlib, io, json, sys\n"
        "from doubledet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([name, '2', '2', '2'])\n"
        "             for name in ('hpoly', 'facets')]\n"
        "loaded = [name for name in %r if name in sys.modules]\n"
        "print(json.dumps([codes, loaded]))\n"
        % (NOT_RUN_BY_HPOLY_OR_FACETS,))
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]


def test_verify_below_the_groebner_tier_loads_no_groebner():
    # a fresh interpreter: this one has loaded every module already
    script = (
        "import contextlib, io, json, sys\n"
        "from doubledet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '2', '2', '2', '--level', 'complex'])\n"
        "print(json.dumps([code, 'doubledet.groebner' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, False]


def test_the_package_reexports_nothing():
    # a fresh interpreter: this one has loaded every module already
    script = (
        "import json, sys\n"
        "import doubledet\n"
        "names = [name for name in dir(doubledet)\n"
        "         if not name.startswith('_')\n"
        "         or name in ('__all__', '__getattr__', '__dir__')]\n"
        "loaded = [name for name in sys.modules\n"
        "          if name.startswith('doubledet.')]\n"
        "print(json.dumps([names, loaded, doubledet.__version__]))\n")
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    names, loaded, version = json.loads(proc.stdout)
    assert (names, loaded) == ([], [])
    assert version


def test_every_package_import_names_a_module():
    # one import path per name: ``from doubledet import X`` (or, inside
    # the package, ``from . import X``) must name a module, never a name
    # defined in one
    package = pathlib.Path(doubledet.__file__).parent
    root = package.parent.parent
    modules = {path.stem for path in package.glob("*.py")}
    imported = []
    for top in ("src", "tests", "bench"):
        for path in sorted((root / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            inside = path.parent == package
            for node in ast.walk(tree):
                if not isinstance(node, ast.ImportFrom):
                    continue
                if (node.module, node.level) == ("doubledet", 0) or (
                        inside and (node.module, node.level) == (None, 1)):
                    imported += [(str(path.relative_to(root)), alias.name)
                                 for alias in node.names]
    assert imported  # the walk saw the package's own imports
    assert [entry for entry in imported if entry[1] not in modules] == []


def test_python_m_doubledet_is_the_cli():
    runs = [subprocess.run([sys.executable, "-m", module,
                            "invariants", "2", "2", "2"],
                           env=fresh_env(), capture_output=True, text=True,
                           timeout=60)
            for module in ("doubledet", "doubledet.cli")]
    assert runs[0].stderr == runs[1].stderr == ""
    assert (runs[0].stdout, runs[0].returncode) == (runs[1].stdout, 0)


def run_fresh(script):
    """Run ``script`` in a fresh interpreter; return its stdout lines."""
    proc = subprocess.run([sys.executable, "-c", script], env=fresh_env(),
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout.splitlines()


def test_importing_the_cli_freezes_nothing():
    assert run_fresh("import gc\n"
                     "from doubledet import cli\n"
                     "print(gc.get_freeze_count())\n") == ["0"]


def test_main_freezes_the_start_up_heap_and_still_collects():
    # what main's run and its caller make afterwards is collected as usual:
    # a cycle made after main returns is freed by the next collection
    frozen, enabled, freed = run_fresh(
        "import contextlib, gc, io, weakref\n"
        "from doubledet import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['hpoly', '2', '2', '2']) == 0\n"
        "print(gc.get_freeze_count())\n"
        "print(gc.isenabled())\n"
        "class Node:\n"
        "    pass\n"
        "node = Node()\n"
        "node.me = node\n"
        "ref = weakref.ref(node)\n"
        "del node\n"
        "gc.collect()\n"
        "print(ref() is None)\n")
    assert int(frozen) > 0
    assert enabled == "True"
    assert freed == "True"


def test_bad_sizes_exit_2(capsys):
    for argv in (("invariants", "0", "2", "2"),
                 ("facets", "2", "2", "2", "--budget", "0")):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "positive" in err, argv


def test_verify_formulas_level(capsys):
    code, out, _ = run(capsys, "verify", "2", "2", "2",
                       "--level", "formulas")
    assert code == 0
    assert "FAIL" not in out
    assert "all" in out and "passed" in out


def test_verify_full_small(capsys):
    code, out, _ = run(capsys, "verify", "2", "2", "2")
    assert code == 0
    assert "groebner-basis" in out


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "1", "2", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["status"] in ("ok", "skip") for c in payload["checks"])


def test_verify_detects_failures(capsys, monkeypatch):
    # sabotage one enumeration route: the harness must notice and exit 1
    monkeypatch.setattr(invariants, "h_poly_via_words",
                        lambda m, n, r, budget=None: IntPolynomial([1, 99]))
    code, out, _ = run(capsys, "verify", "2", "2", "2",
                       "--level", "formulas")
    assert code == 1
    assert "FAIL" in out and "h-poly-agreement" in out


class Recorder(io.StringIO):
    """A stdout that keeps what had been written at its last flush."""
    flushed = ""

    def flush(self):
        self.flushed = self.getvalue()


#: what a first check passing with detail "one" leaves on stdout
FIRST_OUTCOME = {
    "text": "ok   first (one)\n",
    "json": '{"checks":[{"name":"first","status":"ok","detail":"one"}',
    "csv": "name,status,detail\r\nfirst,ok,one\r\n",
}


def _stream_checks(monkeypatch, *checks):
    """Make ``verify`` run the ``(name, check)`` pairs ``checks``."""
    monkeypatch.setattr(verify, "build_checks", lambda *args: list(checks))


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_writes_each_outcome_before_the_next_check(fmt, monkeypatch):
    out, seen = Recorder(), []

    def first():  # run_checks turns a failed assert into FAIL: record
        seen.append(out.getvalue())
        return "one"

    def second():
        seen.append(out.flushed)
        raise CheckFailed("3 != 4")

    def third():
        raise SizeGuardError("too many")

    _stream_checks(monkeypatch, ("first", first), ("second", second),
                   ("third", third))
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "2", "2", "2", "-f", fmt])
    assert code == 1
    # nothing but the CSV header precedes check 1, not even the opening
    # bracket, and its outcome was written and flushed before check 2 ran
    header = "name,status,detail\r\n" if fmt == "csv" else ""
    assert seen == [header, FIRST_OUTCOME[fmt]]
    # and the whole output is what one write after the last check gives
    outcomes = [("first", "ok", "one"), ("second", "FAIL", "3 != 4"),
                ("third", "skip", "too many")]
    if fmt == "json":
        expected = json.dumps(
            {"checks": [dict(zip(("name", "status", "detail"), o))
                        for o in outcomes], "passed": False},
            separators=(",", ":")) + "\n"
    elif fmt == "csv":
        buffer = io.StringIO()
        csv.writer(buffer).writerows([("name", "status", "detail"),
                                      *outcomes])
        expected = buffer.getvalue()
    else:
        expected = ("ok   first (one)\nFAIL second (3 != 4)\n"
                    "skip third (too many)\n1 check(s) failed: second\n")
    assert out.getvalue() == expected


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_unmapped_error_propagates_after_earlier_outcomes(
        fmt, monkeypatch):
    def second():
        raise TypeError("not a verdict")

    out = Recorder()
    _stream_checks(monkeypatch, ("first", lambda: "one"), ("second", second))
    with contextlib.redirect_stdout(out), \
            pytest.raises(TypeError, match="not a verdict"):
        cli.main(["verify", "2", "2", "2", "-f", fmt])
    assert out.getvalue() == FIRST_OUTCOME[fmt]


def test_verify_reader_closing_after_the_first_verdict_is_no_error():
    # stdout on a pipe is block-buffered without PYTHONUNBUFFERED, so only
    # verify's own flush gets the first line out before the run ends
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "doubledet.cli", "verify", "4", "4", "5",
         "--level", "complex"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"ok   ideal-count (80 ideals)\n"
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""
    assert code == 141
