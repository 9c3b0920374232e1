"""One ``doubledet`` invocation, started by the benchmark as a child process.

    python3 bench/child.py                 import only: a set-up probe
    python3 bench/child.py run ARGS...     run ``doubledet ARGS...``
    python3 bench/child.py trace ARGS...   the same, traced
    python3 bench/child.py micro           the micro timings

``src`` must be on ``PYTHONPATH``.  The child talks to the benchmark through
``@bench <name> <value>`` lines on stderr:

* ``setup``: ``time.monotonic()`` once ``doubledet.cli`` is imported and
  ``main`` is about to run; on Linux that clock is shared by all processes;
* ``vmhwm_kb``: the child's own resident high-water mark at exit.  Unlike
  ``ru_maxrss`` of a waited-for child, ``VmHWM`` does not carry the
  parent's high-water mark from before ``exec``;
* ``report``: JSON with the tracer's results (``trace``) or the micro
  timings (``micro``).

The program's own output goes to stdout unchanged in every mode.
"""

import json
import sys
import time


def mark(name, value):
    sys.stderr.write(f"@bench {name} {value}\n")
    sys.stderr.flush()


def vmhwm_kb():
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run(argv):
    from doubledet import cli
    mark("setup", time.monotonic())
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        mark("vmhwm_kb", vmhwm_kb())
    return code


def trace(argv):
    import tracer

    from doubledet import cli
    mark("setup", time.monotonic())
    tr = tracer.Tracer()
    tr.install(tracer.package_modules())
    try:
        cpu0 = time.process_time()
        code = cli.main(argv)
        sys.stdout.flush()
        cpu_s = time.process_time() - cpu0
    finally:
        tr.uninstall()
    mark("report", json.dumps({"cpu_s": cpu_s, "stats": tr.stats(),
                               "counts": tr.counts, "spans": len(tr.spans)}))
    return code


def micro():
    import micro as suite
    mark("report", json.dumps(suite.measure()))
    return 0


def main(argv):
    if not argv:
        import doubledet.cli  # noqa: F401  (the import is what is timed)
        mark("setup", time.monotonic())
        return 0
    mode, rest = argv[0], argv[1:]
    if mode == "run":
        return run(rest)
    if mode == "trace":
        return trace(rest)
    if mode == "micro" and not rest:
        return micro()
    raise SystemExit("usage: child.py [run|trace ARGS... | micro]")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
