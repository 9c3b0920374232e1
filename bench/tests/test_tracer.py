"""Self-time arithmetic of the tracer, on toy functions and a scripted clock."""

import threading
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

import tracer

_now = threading.local()


def clock():
    return getattr(_now, "t", 0.0)


def advance(dt):
    _now.t = clock() + dt


def make_tracer(**kwargs):
    return tracer.Tracer(clock=clock, counted_only=frozenset({"toy.leaf"}),
                         **kwargs)


def traced_namespace(tr, **functions):
    ns = types.SimpleNamespace()
    for name, fn in functions.items():
        setattr(ns, name, tr.wrap(f"toy.{name}", fn))
    return ns


def test_self_time_with_a_pool_thread():
    tr = make_tracer()

    def inner():
        advance(2)

    def pool_task():
        advance(5)
        ns.inner()

    def outer():
        advance(1)
        ns.inner()
        advance(3)
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(ns.pool_task).result()

    ns = traced_namespace(tr, inner=inner, outer=outer, pool_task=pool_task)
    _now.t = 0.0
    ns.outer()
    stats = tr.stats()
    # the pool thread's work is on its own clock, not inside outer
    assert stats["toy.outer"] == {"calls": 1, "self_s": 4.0, "total_s": 6.0,
                                  "yielded": 0}
    assert stats["toy.pool_task"]["self_s"] == 5.0
    assert stats["toy.pool_task"]["total_s"] == 7.0
    assert stats["toy.inner"]["calls"] == 2
    assert stats["toy.inner"]["self_s"] == 4.0

    spans = {(key, thread): (sid, parent)
             for sid, key, _, _, parent, thread in tr.spans}
    main = threading.get_ident()
    (pool_thread,) = {t for _, t in spans} - {main}
    outer_id, outer_parent = spans["toy.outer", main]
    task_id, task_parent = spans["toy.pool_task", pool_thread]
    assert outer_parent is None
    assert task_parent is None  # parents come from the thread's own stack
    assert spans["toy.inner", main][1] == outer_id
    assert spans["toy.inner", pool_thread][1] == task_id


def test_untraced_span_passes_parent_through():
    tr = make_tracer(no_span=frozenset({"toy.middle"}))

    def leaf_span():
        advance(1)

    def middle():
        advance(1)
        ns.leaf_span()

    def top():
        ns.middle()

    ns = traced_namespace(tr, leaf_span=leaf_span, middle=middle, top=top)
    ns.top()
    by_key = {key: (sid, parent) for sid, key, _, _, parent, _ in tr.spans}
    assert "toy.middle" not in by_key
    assert by_key["toy.leaf_span"][1] == by_key["toy.top"][0]
    stats = tr.stats()
    assert stats["toy.middle"]["self_s"] == 1.0
    assert stats["toy.top"]["self_s"] == 0.0


def test_generator_times_resumes_only():
    tr = make_tracer()

    def numbers():
        for i in range(3):
            advance(2)
            yield i

    def consume():
        total = 0
        for i in ns.numbers():
            advance(10)  # the consumer's own work
            total += i
        return total

    ns = traced_namespace(tr, numbers=numbers, consume=consume)
    assert ns.consume() == 3
    stats = tr.stats()
    assert stats["toy.numbers"] == {"calls": 1, "self_s": 6.0,
                                    "total_s": 6.0, "yielded": 3}
    assert stats["toy.consume"]["self_s"] == 30.0


def test_counters_are_exact_across_threads():
    tr = make_tracer()
    ns = traced_namespace(tr, leaf=lambda: None)

    def hammer():
        for _ in range(5000):
            ns.leaf()

    threads = [threading.Thread(target=hammer) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
        assert not t.is_alive()
    assert tr.stats()["toy.leaf"]["calls"] == 20000
    assert tr.spans == []


def test_exception_keeps_the_stack_balanced():
    tr = make_tracer()

    def fails():
        advance(1)
        raise KeyError("x")

    def catches():
        try:
            ns.fails()
        except KeyError:
            advance(1)

    ns = traced_namespace(tr, fails=fails, catches=catches)
    ns.catches()
    ns.catches()
    stats = tr.stats()
    assert stats["toy.catches"]["self_s"] == 2.0
    assert stats["toy.fails"]["calls"] == 2
    assert tr._state().stack == []


def test_layer_metrics_split_cpu_between_layers():
    report = {
        "cpu_s": 10.0, "spans": 7,
        "counts": {"groebner.spairs.pairs": 100},
        "stats": {
            "groebner.s_polynomial": {"calls": 25, "self_s": 1.0,
                                      "total_s": 5.0, "yielded": 0},
            "groebner.reduce": {"calls": 30, "self_s": 4.0,
                                "total_s": 4.0, "yielded": 0},
            "ring.lex_greater": {"calls": 900, "self_s": 0.0,
                                 "total_s": 0.0, "yielded": 0},
            "cli.main": {"calls": 1, "self_s": 0.5, "total_s": 10.0,
                         "yielded": 0},
        },
    }
    m = tracer.layer_metrics(report)
    assert m["groebner.spairs.formed_ratio"] == 0.25
    assert m["layer.groebner.self_s"] == 5.0
    assert m["layer.cli.self_s"] == m["cli.self_s"] == 5.0
    assert m["ring.lex_greater.calls"] == 900
    assert m["simplicial.facets.yielded"] == 0
    assert m["trace.spans"] == 7


def test_install_twice_is_refused():
    tr = tracer.Tracer()
    modules = tracer.package_modules()
    tr.install(modules)
    try:
        with pytest.raises(RuntimeError):
            tr.install(modules)
    finally:
        tr.uninstall()
