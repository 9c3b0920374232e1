"""Per-layer tracer for the ``doubledet`` package.

The tracer wraps, from outside the program, every public function and
every public method defined in a ``doubledet`` module, rebinding each name
under which the original is reachable (for example ``groebner.lex_greater``
and ``simplicial.multiset_permutations``), and puts the originals back on
``uninstall``.  Three kinds of wrapper exist:

* counter: hot leaves (``conflicts``, ``divides``, ``lex_greater``, ...)
  only count calls; their time stays in the caller's self time;
* timed: a frame on a per-thread stack measures the call's self time
  (duration minus the time of timed calls nested in it).  Coarse calls
  also record a span ``(id, key, start, end, parent id, thread)``;
* generator: every resume of the generator is timed as a frame and every
  yielded item is counted.

Times come from the calling thread's CPU clock, so the self times of calls
running concurrently on ``verify``'s thread pool add up to process CPU time
instead of counting time spent waiting for the interpreter lock.  Parents
come from the calling thread's own stack: the first call made on a pool
thread has no parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import pkgutil
import threading
import time
from math import comb

#: accessors called millions of times per run, where even a counter
#: would cost more than the work it counts: left unwrapped
UNWRAPPED = frozenset({
    "simplicial.Vertex.block",
    "simplicial.Vertex.block_col",
})

#: hot leaves: call counts only, no clock reads
COUNTED_ONLY = frozenset({
    "simplicial.conflicts",
    "simplicial.vertex_for_variable",
    "groebner.divides",
    "groebner.quotient",
    "groebner.lcm_monomial",
    "groebner.leading_term",
    "groebner.SparsePoly.scaled",
    "ring.lex_greater",
    "ring.monomial",
    "ring.monomial_str",
    "ring.Binomial.variables",
    "sorting.phi",
    "sorting.phi_monomial",
    "sorting.BlockAlphabet.var_id",
    "sorting.BlockAlphabet.var_label",
    "grid.leq",
    "grid.comparable",
    "poset.Poset.less",
    "poset.Poset.leq",
    "poset.Poset.comparable",
    "poset.Poset.strict_upset",
    "poset.Poset.strict_downset",
    "poset.Poset.label",
    "multiset.descents",
    "multiset.multinomial",
})

#: per-item calls: timed, but too many to keep a span for each
NO_SPAN = frozenset({
    "simplicial.extend_to_facet",
    "simplicial.facet_from_vertices",
    "simplicial.is_face",
    "simplicial.word_to_facet",
    "generators.decompose_into_minors",
    "sorting.in_kernel",
    "groebner.reduce",
    "groebner.s_polynomial",
    "intpoly.IntPolynomial.mul_truncated",
    "intpoly.one_minus_t_power",
    "invariants.hilbert_function",
    "invariants.compute_invariants",
    "invariants.minimal_generator_count",
    "invariants.multiplicity",
    "invariants.is_gorenstein",
})


#: counts taken from a call's arguments: key -> (count name, function of
#: the arguments); C(basis, 2) is the number of S-pairs a certificate has
ARGUMENT_COUNTS = {
    "groebner.verify_groebner": (
        "groebner.spairs.pairs",
        lambda basis, *args, **kwargs: comb(len(basis), 2)),
}


def layer_of(key):
    """The module a key belongs to: ``"groebner.reduce"`` -> ``"groebner"``."""
    return key.split(".", 1)[0]


def package_modules(package="doubledet"):
    """The package and every module in it, imported."""
    pkg = importlib.import_module(package)
    mods = [pkg]
    for info in pkgutil.iter_modules(pkg.__path__):
        mods.append(importlib.import_module(f"{package}.{info.name}"))
    return mods


def discover(modules):
    """Map each public function or method defined in ``modules`` to its key.

    Returns ``(functions, methods)``: ``functions`` maps an original
    function to its key ``"<module>.<name>"``; ``methods`` lists
    ``(class, attribute, original, key)`` for plain methods of classes
    defined there, keyed ``"<module>.<Class>.<name>"``.  Properties,
    class methods, static methods, the keys in ``UNWRAPPED`` and names
    starting with ``_`` are left alone.
    """
    functions, methods = {}, []
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for name, value in vars(mod).items():
            if getattr(value, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(value) and not name.startswith("_"):
                functions[value] = f"{short}.{name}"
            elif inspect.isclass(value):
                for attr, member in vars(value).items():
                    key = f"{short}.{value.__name__}.{attr}"
                    if (inspect.isfunction(member) and not attr.startswith("_")
                            and key not in UNWRAPPED):
                        methods.append((value, attr, member, key))
    return functions, methods


class _ThreadState:
    __slots__ = ("stack", "stats", "ident")

    def __init__(self):
        self.stack = []   # frames: [start, child time, span id]
        self.stats = {}   # key -> [calls, self time, total time, yielded]
        self.ident = threading.get_ident()


class Tracer:
    """Wraps callables, keeps per-thread frames, counters and spans."""

    def __init__(self, clock=time.thread_time, counted_only=COUNTED_ONLY,
                 no_span=NO_SPAN):
        self.clock = clock
        self.counted_only = counted_only
        self.no_span = no_span
        self.spans = []
        self._local = threading.local()
        self._states = []
        self._states_lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._counters = {}
        self._patches = []
        self.counts = {name: 0 for name, _ in ARGUMENT_COUNTS.values()}
        self._counts_lock = threading.Lock()

    # -- per-thread state ------------------------------------------------

    def _state(self):
        try:
            return self._local.state
        except AttributeError:
            state = self._local.state = _ThreadState()
            with self._states_lock:
                self._states.append(state)
            return state

    @staticmethod
    def _record(state, key):
        rec = state.stats.get(key)
        if rec is None:
            rec = state.stats[key] = [0, 0.0, 0.0, 0]
        return rec

    def _close_frame(self, state, key, frame, start, end):
        dur = end - start
        rec = self._record(state, key)
        rec[1] += dur - frame[1]
        rec[2] += dur
        if state.stack:
            state.stack[-1][1] += dur
        return rec

    # -- wrappers --------------------------------------------------------

    def wrap(self, key, fn):
        """Return the traced stand-in for ``fn``, chosen by its key."""
        if key in self.counted_only:
            wrapper = self._counter(key, fn)
        elif inspect.isgeneratorfunction(fn):
            wrapper = self._generator(key, fn)
        else:
            wrapper = self._timed(key, fn, span=key not in self.no_span)
        if key in ARGUMENT_COUNTS:
            wrapper = self._argument_count(*ARGUMENT_COUNTS[key], wrapper)
        return functools.wraps(fn)(wrapper)

    def _argument_count(self, name, measure, fn):
        def observed(*args, **kwargs):
            with self._counts_lock:
                self.counts[name] += measure(*args, **kwargs)
            return fn(*args, **kwargs)
        return observed

    def _counter(self, key, fn):
        # itertools.count advances atomically, so pool threads lose no calls
        counter = self._counters.setdefault(key, itertools.count())

        def counted(*args, **kwargs):
            next(counter)
            return fn(*args, **kwargs)
        return counted

    def _timed(self, key, fn, span):
        clock, state_of, span_ids = self.clock, self._state, self._span_ids
        spans = self.spans

        def timed(*args, **kwargs):
            state = state_of()
            stack = state.stack
            parent = stack[-1][2] if stack else None
            sid = next(span_ids) if span else parent
            frame = [0.0, 0.0, sid]
            stack.append(frame)
            start = frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close_frame(state, key, frame, start, end)[0] += 1
                if span:
                    spans.append((sid, key, start, end, parent, state.ident))
        return timed

    def _generator(self, key, fn):
        clock, state_of = self.clock, self._state

        def resumes(it):
            try:
                while True:
                    state = state_of()
                    stack = state.stack
                    frame = [0.0, 0.0, stack[-1][2] if stack else None]
                    stack.append(frame)
                    start = frame[0] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        rec = self._close_frame(state, key, frame, start, end)
                    rec[3] += 1
                    yield item
            finally:
                it.close()

        def generator(*args, **kwargs):
            self._record(state_of(), key)[0] += 1
            return resumes(fn(*args, **kwargs))
        return generator

    # -- installing ------------------------------------------------------

    def install(self, modules):
        """Rebind every name of ``modules`` that holds a discovered
        original, and every discovered method, to its wrapper."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        functions, methods = discover(modules)
        wrappers = {fn: self.wrap(key, fn) for fn, key in functions.items()}
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patches.append((mod, name, value))
                    setattr(mod, name, wrappers[value])
        for cls, attr, member, key in methods:
            self._patches.append((cls, attr, member))
            setattr(cls, attr, self.wrap(key, member))

    def uninstall(self):
        """Put every original back, in reverse order of patching."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    # -- results ---------------------------------------------------------

    def stats(self):
        """Merged per-key totals: ``{key: {"calls", "self_s", "total_s",
        "yielded"}}``.  Read once, after the traced work has finished."""
        merged = {}
        for state in self._states:
            for key, (calls, self_s, total_s, yielded) in state.stats.items():
                rec = merged.setdefault(
                    key, {"calls": 0, "self_s": 0.0, "total_s": 0.0,
                          "yielded": 0})
                rec["calls"] += calls
                rec["self_s"] += self_s
                rec["total_s"] += total_s
                rec["yielded"] += yielded
        for key, counter in self._counters.items():
            # repr is "count(<n>)"; reading it leaves the counter unchanged
            merged[key] = {"calls": int(repr(counter)[6:-1]), "self_s": 0.0,
                           "total_s": 0.0, "yielded": 0}
        return merged


# -- per-layer metrics ---------------------------------------------------

#: modules reported as layers; ``cli`` gets the time outside every wrapper
LAYERS = ("cli", "groebner", "ring", "simplicial", "multiset", "poset",
          "invariants", "grid", "generators", "sorting", "intpoly")

#: metrics read off one key: name -> (key, field).  ``calls`` and
#: ``yielded`` are exact counts, ``self_s`` is self time and ``total_s``
#: (metrics ending in ``.s``) is time including nested calls.
KEY_METRICS = {
    "groebner.reduce.calls": ("groebner.reduce", "calls"),
    "groebner.reduce.self_s": ("groebner.reduce", "self_s"),
    "groebner.s_polynomial.calls": ("groebner.s_polynomial", "calls"),
    "groebner.divides.calls": ("groebner.divides", "calls"),
    "groebner.leading_term.calls": ("groebner.leading_term", "calls"),
    "groebner.verify_groebner.s": ("groebner.verify_groebner", "total_s"),
    "ring.lex_greater.calls": ("ring.lex_greater", "calls"),
    "sorting.in_kernel.calls": ("sorting.in_kernel", "calls"),
    "simplicial.extend_to_facet.calls": ("simplicial.extend_to_facet", "calls"),
    "simplicial.extend_to_facet.self_s": ("simplicial.extend_to_facet", "self_s"),
    "simplicial.is_face.self_s": ("simplicial.is_face", "self_s"),
    "simplicial.conflicts.calls": ("simplicial.conflicts", "calls"),
    "simplicial.facet_from_vertices.calls":
        ("simplicial.facet_from_vertices", "calls"),
    "simplicial.facet_from_vertices.self_s":
        ("simplicial.facet_from_vertices", "self_s"),
    "simplicial.facets.yielded": ("simplicial.facets", "yielded"),
    "simplicial.facets.self_s": ("simplicial.facets", "self_s"),
    "multiset.multiset_permutations.words":
        ("multiset.multiset_permutations", "yielded"),
    "multiset.multiset_permutations.self_s":
        ("multiset.multiset_permutations", "self_s"),
    "multiset.descent_polynomial.s": ("multiset.descent_polynomial", "total_s"),
    "poset.linear_extensions.yielded": ("poset.Poset.linear_extensions", "yielded"),
    "poset.linear_extensions.self_s": ("poset.Poset.linear_extensions", "self_s"),
    "poset.order_ideals.s": ("poset.Poset.order_ideals", "total_s"),
    "invariants.h_poly_via_words.s": ("invariants.h_poly_via_words", "total_s"),
    "invariants.h_poly_via_linear_extensions.s":
        ("invariants.h_poly_via_linear_extensions", "total_s"),
    "invariants.h_poly_via_series.s": ("invariants.h_poly_via_series", "total_s"),
    "invariants.check_symmetry.s": ("invariants.check_symmetry", "total_s"),
    "invariants.macmahon_check.s": ("invariants.macmahon_check", "total_s"),
    "grid.lattice_isomorphic_to_ideals.s":
        ("grid.lattice_isomorphic_to_ideals", "total_s"),
}


def layer_metrics(report):
    """Per-layer metric values from a traced child's report: its
    ``stats`` and ``counts``, ``spans`` (how many) and ``cpu_s`` (process
    CPU time of ``main``)."""
    stats = report["stats"]

    def get(key, field):
        return stats.get(key, {}).get(field, 0)

    out = {name: get(key, field) for name, (key, field) in KEY_METRICS.items()}
    pairs = report["counts"]["groebner.spairs.pairs"]
    out["groebner.spairs.formed_ratio"] = (
        get("groebner.s_polynomial", "calls") / pairs if pairs else 0.0)
    self_by_layer = {}
    for key, rec in stats.items():
        layer = layer_of(key)
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + rec["self_s"]
    # everything not inside a wrapped call is the front end's own work
    self_by_layer["cli"] = report["cpu_s"] - sum(
        t for layer, t in self_by_layer.items() if layer != "cli")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = self_by_layer.get(layer, 0.0)
    out["cli.self_s"] = out["layer.cli.self_s"]
    out["generators.self_s"] = out["layer.generators.self_s"]
    out["trace.spans"] = report["spans"]
    return out
