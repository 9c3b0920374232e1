"""Golden outputs: stdout, stderr and exit status of every subcommand, byte
for byte.

Each case runs ``cli.main`` in-process and compares what it writes to
stdout and stderr, and the status it returns, with the record in
``golden.json``.
The cases cover every subcommand in text, JSON and CSV, every ``--show``
of ``generators``, both ``facets`` styles, ``verify`` at each level, the
paper's (4, 5, 3) example, the usual exit-2 inputs, and every ``--help``
text (so an added option shows up as a diff).  Help text is laid out by
``argparse`` for an 80-column terminal.

After an intended change of output, re-record and review the diff:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from doubledet import cli

GOLDEN = pathlib.Path(__file__).with_name("golden.json")
FORMATS = ("text", "json", "csv")
SUBCOMMANDS = ("invariants", "generators", "hilbert", "hpoly", "facets",
               "word2facet", "facet2word", "extend", "verify")
PAPER = ("4", "5", "3")
PAPER_WORD = "MRMNNNRMN"
PAPER_VERTICES = ("(4,5),(3,5),(3,7),(2,7),(2,8),(2,9),(2,10),(2,11),"
                  "(1,11),(1,12)")
PAPER_FACE = "(4,5),(3,7),(2,8),(2,11),(1,12)"
#: stands for the path of a file holding POSET_TEXT
POSET = "<poset-file>"
POSET_TEXT = "n=4\n1<2\n1<3\n"


def _cases():
    cases = [["--help"]] + [[sub, "--help"] for sub in SUBCOMMANDS]
    for fmt in FORMATS:
        f = ["-f", fmt]
        cases += [["invariants", *sizes, *f]
                  for sizes in (("2", "2", "2"), ("3", "2", "4"))]
        cases += [["generators", "2", "2", "2", "--show", show, *f]
                  for show in ("families", "minors", "sorting-relations",
                               "witness")]
        cases.append(["generators", "1", "1", "1", "--show", "witness", *f])
        cases.append(["hilbert", "2", "2", "3", "--max-degree", "4", *f])
        cases += [["hpoly", "2", "3", "3", "--method", method, *f]
                  for method in ("series", "words", "extensions", "all")]
        cases.append(["hpoly", "--poset-file", POSET, *f])
        cases += [["facets", *sizes, *f]
                  for sizes in (("2", "2", "3"), ("3", "3", "3"))]
        cases.append(["word2facet", *PAPER, PAPER_WORD, *f])
        cases.append(["facet2word", *PAPER, "--vertices", PAPER_VERTICES, *f])
        cases.append(["extend", *PAPER, "--vertices", PAPER_FACE, *f])
        cases.append(["extend", "2", "2", "2", "--vertices", "", *f])
        cases += [["verify", *sizes, "--level", level, *f]
                  for sizes in (("2", "2", "3"), ("1", "3", "2"))
                  for level in ("formulas", "complex", "groebner")]
        # a 13-element chain: hilbert-oracle checks d = 0..13 by ideal
        # multichains
        cases.append(["verify", "1", "1", "14", "--level", "formulas", *f])
        # a budget below the oracles' work
        cases.append(["verify", "2", "2", "2", "--level", "complex",
                      "--budget", "5", *f])
    # the size the benchmark certifies, so its detail strings are pinned
    cases.append(["verify", "3", "3", "2", "--level", "groebner",
                  "-f", "text"])
    cases += [["facets", *sizes, "--style", "paths"]
              for sizes in (("2", "2", "3"), ("3", "3", "3"))]
    # invalid input or exhausted budget: exit 2 with nothing on stdout
    cases += [
        ["invariants", "0", "2", "2"],
        ["verify", "2", "2", "2", "--budget", "0"],
        ["facets", "4", "5", "3", "--budget", "100"],
        ["facets", "4", "5", "3", "--budget", "100", "-f", "json"],
        ["facets", "4", "5", "3", "--budget", "100", "-f", "csv"],
        ["word2facet", "2", "2", "3", "MMRR"],
        ["extend", "2", "2", "2", "--vertices", "(1,1),(2,2)"],
        ["extend", "2", "2", "2", "--vertices", "(3,1)"],
        ["facet2word", "2", "2", "2", "--vertices",
         "(2,1),(1,2),(1,3),(1,4)"],
        ["hpoly", "2", "2"],
        ["hilbert", "2", "2", "2", "--max-degree", "-1"],
    ]
    return cases


CASES = _cases()


def _key(argv):
    return " ".join(repr(a) if a == "" or " " in a else a for a in argv)


def run(argv, poset_path):
    """(exit status, stdout, stderr) of one in-process invocation."""
    argv = [poset_path if a == POSET else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def poset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "p.poset"
    path.write_text(POSET_TEXT)
    return str(path)


@pytest.mark.parametrize("argv", CASES, ids=_key)
def test_golden(argv, golden, poset_path, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = run(argv, poset_path)
    want = golden[_key(argv)]
    assert code == want["exit"]
    assert out.split("\n") == want["stdout"]
    assert err.split("\n") == want["stderr"]


def test_golden_file_has_no_stale_cases(golden):
    assert set(golden) == {_key(argv) for argv in CASES}


def record():
    os.environ["COLUMNS"] = "80"
    with tempfile.TemporaryDirectory() as tmp:
        poset_path = os.path.join(tmp, "p.poset")
        with open(poset_path, "w", encoding="utf-8") as handle:
            handle.write(POSET_TEXT)
        data = {}
        for argv in CASES:
            code, out, err = run(argv, poset_path)
            data[_key(argv)] = {"exit": code, "stdout": out.split("\n"),
                                "stderr": err.split("\n")}
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1)
        handle.write("\n")
    print(f"recorded {len(data)} cases in {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
