"""The tracer's wrappers reach every rebinding and leave doubledet as found."""

import inspect
import io
from contextlib import redirect_stdout

import tracer
from doubledet import cli


def snapshot(modules):
    owners = list(modules)
    for mod in modules:
        owners += [v for v in vars(mod).values()
                   if inspect.isclass(v) and v.__module__ == mod.__name__]
    return {(owner, name): value
            for owner in owners for name, value in vars(owner).items()}


def test_wrappers_cover_every_rebinding_and_are_removed():
    modules = tracer.package_modules()
    functions, methods = tracer.discover(modules)
    before = snapshot(modules)
    tr = tracer.Tracer()
    tr.install(modules)
    try:
        during = snapshot(modules)
        wrapped = 0
        for (owner, name), value in before.items():
            if inspect.isfunction(value) and value in functions:
                assert during[owner, name] is not value, (owner, name)
                assert during[owner, name].__wrapped__ is value
                wrapped += 1
        # names bound in more than one module are all reached
        from doubledet import groebner, multiset, ring, simplicial
        assert groebner.lex_greater.__wrapped__ is before[ring, "lex_greater"]
        assert (simplicial.multiset_permutations.__wrapped__
                is before[multiset, "multiset_permutations"])
        assert wrapped > len(functions)
        for cls, attr, member, _ in methods:
            assert vars(cls)[attr].__wrapped__ is member
    finally:
        tr.uninstall()
    after = snapshot(modules)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def test_tracing_leaves_output_unchanged_and_counts_work():
    argv = ["verify", "2", "2", "3", "--level", "groebner", "-f", "json"]
    plain = run_cli(argv)
    tr = tracer.Tracer()
    tr.install(tracer.package_modules())
    try:
        traced = run_cli(argv)
    finally:
        tr.uninstall()
    assert traced == plain
    stats = tr.stats()
    assert stats["groebner.s_polynomial"]["calls"] > 0
    assert stats["groebner.verify_groebner"]["calls"] == 1
    assert tr.counts["groebner.spairs.pairs"] > 0
    assert stats["simplicial.facets"]["yielded"] > 0
    assert any(key == "cli.cmd_verify" for _, key, *_ in tr.spans)
