"""The workload oracles accept the recorded output and reject small damage."""

import hashlib
import io
import json
from contextlib import redirect_stdout

import pytest

import workloads
from doubledet import cli
from workloads import WORKLOADS, Output


def output(payload=None, raw=None, returncode=0, stderr=""):
    raw = raw if raw is not None else json.dumps(payload).encode()
    return Output(returncode, hashlib.sha256(raw).hexdigest(), len(raw),
                  raw.decode(), stderr)


def verify_payload(name):
    checks = [{"name": c, "status": "ok", "detail": "x"}
              for c in sorted(workloads.VERIFY_OK_CHECKS[name])]
    return {"checks": checks, "passed": True}


@pytest.fixture(scope="module")
def catalog():
    """``facets 5 5 4 -f json`` as bytes (input number 0 is that orientation)."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main(WORKLOADS["facet-catalog"].argv(0)) == 0
    return buf.getvalue().encode()


def test_catalog_oracle_rejects_a_flipped_byte(catalog):
    wl = WORKLOADS["facet-catalog"]
    assert wl.check(0, output(raw=catalog)) is None
    damaged = bytearray(catalog)
    damaged[len(damaged) // 2] ^= 1
    assert "sha256" in wl.check(0, output(raw=bytes(damaged)))
    # the next input number asks for another orientation
    assert wl.check(1, output(raw=catalog)) is not None


def test_hpoly_oracle_rejects_a_wrong_coefficient():
    wl = WORKLOADS["hpoly-routes"]
    good = {"h_polynomial": list(workloads.HPOLY_566), "agreement": True}
    assert wl.check(0, output(good)) is None
    wrong = dict(good, h_polynomial=list(workloads.HPOLY_566))
    wrong["h_polynomial"][5] += 1
    assert wl.check(0, output(wrong)) is not None
    assert wl.check(0, output(dict(good, agreement=False))) is not None
    assert wl.check(0, output({"h_polynomial": good["h_polynomial"]})) is not None


@pytest.mark.parametrize("name", ["groebner-cert", "complex-checks"])
def test_verify_oracle_rejects_ok_to_skip(name):
    wl = WORKLOADS[name]
    payload = verify_payload(name)
    assert wl.check(0, output(payload)) is None
    # new checks and other detail strings are allowed
    payload["checks"].append({"name": "new-check", "status": "skip",
                              "detail": ""})
    payload["checks"][0]["detail"] = "another detail"
    assert wl.check(0, output(payload)) is None

    demoted = verify_payload(name)
    demoted["checks"][3]["status"] = "skip"
    assert "was ok" in wl.check(0, output(demoted))
    missing = verify_payload(name)
    del missing["checks"][0]
    assert "missing" in wl.check(0, output(missing))
    assert wl.check(0, output(dict(verify_payload(name), passed=False)))


def test_exit_code_error_lines_and_garbage_are_failures():
    wl = WORKLOADS["groebner-cert"]
    payload = verify_payload("groebner-cert")
    assert wl.check(0, output(payload, returncode=1)) == "exit code 1"
    assert wl.check(0, output(payload, stderr="error: budget exceeded"))
    assert "unreadable" in wl.check(0, output(raw=b"[1, 2"))
    assert "unreadable" in wl.check(0, output(raw=b"[1, 2]"))
