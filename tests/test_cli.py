import contextlib
import csv
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tracemalloc

import pytest

import doubledet
from doubledet import cli, invariants, poset
from doubledet.errors import DEFAULT_BUDGET, MAX_LISTED
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
    (("generators", "14", "14", "14"), "cli.generators: 2608515 generators"),
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


def test_python_m_doubledet_is_the_cli():
    runs = [subprocess.run([sys.executable, "-m", module,
                            "invariants", "2", "2", "2"],
                           env=fresh_env(), capture_output=True, text=True,
                           timeout=60)
            for module in ("doubledet", "doubledet.cli")]
    assert runs[0].stderr == runs[1].stderr == ""
    assert (runs[0].stdout, runs[0].returncode) == (runs[1].stdout, 0)


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
