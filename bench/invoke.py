"""Start one child process running ``bench/child.py`` and measure it.

Children run one at a time.  Timestamps are ``time.monotonic()``, which the
child's set-up mark shares.  The child's stdout is streamed into an
``OutputDigest`` instead of being held, so a large output does not raise
this process's memory, and its memory is not what the child reports: the
peak resident size is the child's own ``VmHWM`` at exit.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Output, OutputDigest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: a child still running after this long is killed and counted as failed
CHILD_TIMEOUT_S = 150.0


@dataclass
class Measured:
    """One finished child: what it printed and what it cost."""

    output: Output
    wall_s: float
    cpu_s: float
    setup_s: float | None
    ttfb_s: float | None
    peak_rss_mb: float | None
    report: dict | None


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # fixed so that set iteration, and with it every count, repeats exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(mode_and_argv, deadline_s=CHILD_TIMEOUT_S):
    """Run ``child.py`` with these arguments; return a ``Measured``."""
    digest = OutputDigest()
    stderr = bytearray()
    ttfb = None
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), *mode_and_argv],
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    try:
        with selectors.DefaultSelector() as sel:
            sel.register(proc.stdout, selectors.EVENT_READ)
            sel.register(proc.stderr, selectors.EVENT_READ)
            while sel.get_map():
                left = start + deadline_s - time.monotonic()
                if left <= 0:
                    raise TimeoutError(f"child ran longer than {deadline_s} s")
                for key, _ in sel.select(timeout=left):
                    data = os.read(key.fd, 1 << 16)
                    if not data:
                        sel.unregister(key.fileobj)
                    elif key.fileobj is proc.stdout:
                        if ttfb is None:
                            ttfb = time.monotonic() - start
                        digest.write(data)
                    else:
                        stderr += data
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()

    text = stderr.decode("utf-8", "replace")
    marks, lines = {}, []
    for line in text.splitlines():
        if line.startswith("@bench "):
            _, name, value = line.split(" ", 2)
            marks[name] = value
        else:
            lines.append(line)
    output = Output(proc.returncode, digest.sha256, digest.size,
                    digest.head.decode("utf-8", "replace"), "\n".join(lines))
    return Measured(
        output=output, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
        setup_s=float(marks["setup"]) - start if "setup" in marks else None,
        ttfb_s=ttfb,
        peak_rss_mb=int(marks["vmhwm_kb"]) / 1024 if "vmhwm_kb" in marks else None,
        report=json.loads(marks["report"]) if "report" in marks else None)
