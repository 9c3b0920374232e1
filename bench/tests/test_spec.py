"""BENCHMARK.json, the names the benchmark emits, and its refusal to run
without the program."""

import json
import re
import shutil
import subprocess
import sys
from types import SimpleNamespace

import micro
import run
import tracer
from invoke import ROOT
from workloads import WORKLOADS, Output

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_names_are_well_formed_and_unique():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    for name in names:
        assert NAME.fullmatch(name), name
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why
        assert "\n" not in w["why"] and len(w["why"]) <= 200


def test_spec_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}


def test_end_to_end_names_match_what_is_measured():
    declared = {m["name"] for m in SPEC["end_to_end"]}
    assert declared == set(run.E2E_TIMES) | {"peak_rss_mb", "setup_s"}


def test_per_layer_names_match_what_is_computed():
    report = {"cpu_s": 1.0, "spans": 0, "stats": {},
              "counts": {"groebner.spairs.pairs": 0}}
    head = json.dumps({"checks": [], "passed": True})
    traced = SimpleNamespace(report=report, wall_s=2.0,
                             output=Output(0, "", len(head), head, ""))
    timings = micro.measure()
    assert all(t > 0 for t in timings.values())
    values = run.layer_values(WORKLOADS["groebner-cert"], traced, timings,
                              [1.0])
    assert set(values) == {m["name"] for m in SPEC["per_layer"]}
    assert set(tracer.KEY_METRICS) <= set(values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "hpoly-routes",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
