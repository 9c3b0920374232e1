"""The run's bookkeeping: calibration scaling and failure accounting."""

from types import SimpleNamespace

import pytest

import calibrate
import run
from workloads import WORKLOADS


def test_each_child_is_scaled_by_the_calibration_around_it():
    r = run.Run(WORKLOADS["groebner-cert"], 0)
    ok = SimpleNamespace(wall_s=1.0)
    bad = SimpleNamespace(wall_s=9.0)
    r.children = [("trace", ok, None), ("run", bad, "exit code 1"),
                  ("run", ok, None)]
    ref = calibrate.REFERENCE_S
    r.gaps = [ref, ref * 3, ref, ref / 2]
    # gaps around the last child average to 0.75 * REFERENCE_S
    assert r.scaled({"run"}) == [(pytest.approx(4 / 3), ok)]
    assert r.scaled({"trace"}) == [(pytest.approx(0.5), ok)]
    assert r.attempted == 3
    assert r.failures == ["exit code 1"]
