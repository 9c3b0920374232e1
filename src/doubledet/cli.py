"""Command-line front end.

One subcommand per computation plus `verify`, which runs the cross-checking
harness of `doubledet.verify`.  Each subcommand hands its result to
`_emit`, the only code that writes a result to stdout: text by default,
or --format json/csv with stable key order.  `facets` writes each facet
as the stream yields it and holds no catalog; with --format json, each
facet's text is put together from memoised vertex and profile texts, in
memos of bounded size, each vertex keyed as an integer.  `verify` writes
each check's outcome as the check returns, in every format.  Each
subcommand imports the library modules it runs on first use, and `csv`
only for --format csv, so importing this module loads `doubledet.errors`
alone and `hpoly` never loads the checks of `verify`.  Exit status: 0
success, 1 failed verification, 2 invalid input, exhausted budget or a
listing over its fixed cap, 141 (128 + SIGPIPE, as a shell reports a
process killed by it) when the reader closes stdout before the output
ends.

Every invocation pays a fixed cost around its command: the interpreter's
start with its site imports, the import of this module, the parser (ten
`ArgumentParser`s, whichever subcommand runs), and the interpreter's
exit, whose final collections walk every object the collector tracks.
The objects alive when `main` starts live until exit; `main` freezes
them first (`gc.freeze`), so those collections walk only what the
command made.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import sys
from collections.abc import Iterator

from .errors import (DEFAULT_BUDGET, LEVELS, MAX_LISTED, BudgetExceededError,
                     bound, check_sizes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doubledet",
        description="Invariants and facet combinatorics of the 2x2-minor "
                    "ideal of r concatenated generic m x n matrices.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help, sizes=True, budget=False):
        p = subs.add_parser(name, help=help)
        for size in ("m", "n", "r") if sizes else ():
            p.add_argument(size, type=int)
        p.add_argument("-f", "--format", choices=("text", "json", "csv"),
                       default="text")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="max number of facets/extensions/S-pairs "
                                "to visit")
        p.set_defaults(func=func)
        return p

    sub("invariants", cmd_invariants, "closed-form invariant report")
    p = sub("generators", cmd_generators, "minimal generators and minors")
    p.add_argument("--show", choices=("families", "minors",
                                      "sorting-relations", "witness"),
                   default="families")
    p = sub("hilbert", cmd_hilbert, "Hilbert function values")
    p.add_argument("--max-degree", type=int, default=8)
    p = sub("hpoly", cmd_hpoly, "h-polynomial", sizes=False)
    p.add_argument("sizes", type=int, nargs="*", metavar="m n r")
    # no default, so cmd_hpoly can refuse an explicit --method with
    # --poset-file; None means series
    p.add_argument("--method", choices=("series", "words", "extensions",
                                        "all"),
                   help="route (default series); no route lists words or "
                        "extensions, so no budget applies: fixed caps "
                        "bound each recursion's work")
    p.add_argument("--poset-file", metavar="FILE",
                   help="descent polynomial over the linear extensions of "
                        "the poset in FILE instead of the three-chain poset")
    p = sub("facets", cmd_facets, "facet catalog of the initial complex",
            budget=True)
    p.add_argument("--style", choices=("words", "paths"), default="words",
                   help="text layout (ignored for json/csv)")
    p = sub("word2facet", cmd_word2facet, "decode a facet word")
    p.add_argument("word")
    p = sub("facet2word", cmd_facet2word, "encode a facet vertex set")
    p.add_argument("--vertices", required=True,
                   help="vertex list like '(4,5),(3,5),(3,7)'")
    p = sub("extend", cmd_extend, "extend a face to a facet")
    p.add_argument("--vertices", required=True,
                   help="face vertex list; may be empty: ''")
    p = sub("verify", cmd_verify, "run the cross-verification harness",
            budget=True)
    p.add_argument("--level", choices=LEVELS, default="groebner",
                   help="formulas < complex < groebner (cumulative)")
    return parser


def _emit(args, payload, header, rows, lines):
    """Write one result to stdout in the format that ``args`` selects.

    ``payload`` returns the JSON value, ``rows`` the CSV rows under
    ``header`` and ``lines`` the text lines; only the selected one is
    called, so no other format's output is ever built.  Rows and lines are
    written one at a time as they are pulled, and so is an iterator member
    of a dict payload (see ``_dump_json``): a lazy stream reaches stdout
    item by item, each written before the next is computed.
    """
    if args.format == "json":
        _dump_json(payload())
    elif args.format == "csv":
        import csv
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows())
    else:
        for line in lines():
            print(line)


#: characters of a JSON array written at once: a 64 KiB pipe reader then
#: wakes once per chunk, not once per 8 KiB buffer flush
JSON_CHUNK = 64 * 1024

#: array elements per call of the C encoder
JSON_BATCH = 32


class _Encoded:
    """An array given as the compact JSON texts of its elements."""

    __slots__ = ("texts",)

    def __init__(self, texts):
        self.texts = texts


def _dump_json(value):
    """Print ``value`` as compact JSON, with the bytes of ``json.dumps``.

    An ``_Encoded`` value is an array whose element texts are written as
    they come (see ``_write_array``).  Any other value that is not a dict
    is an array whose elements are encoded in batches of ``JSON_BATCH``,
    one call of the C encoder per batch with the batch's brackets cut off,
    and each batch's text goes through ``_write_array``.  So a long stream
    is never held whole, and the encoder and the pipe see few large calls.

    In a dict, whose keys are strings, a member that is an iterator is
    written as an array one element at a time, each element before the
    next is pulled, so a slow stream (the verdicts of ``verify``) shows
    each element as soon as it exists; the text before its first element
    goes out with that element.  A member that is callable is called when
    it is reached, after the members before it were written.  A top-level
    array keeps its batches: its elements are many, small and quick to
    come, and one encoder call and one write each would cost more than
    the encoding itself.

    Every payload is a fresh tree of dicts, lists, tuples, strings,
    numbers and bools built for this one write, so it holds no cycle and
    the encoder skips the cycle check.
    """
    if isinstance(value, _Encoded):
        _write_array(value.texts)
        return
    encode = json.JSONEncoder(separators=(",", ":"),
                              check_circular=False).encode
    if isinstance(value, dict):
        text, sep = "{", ""
        for key, member in value.items():
            text += sep + encode(key) + ":"
            sep = ","
            if callable(member):
                member = member()
            if not isinstance(member, Iterator):
                text += encode(member)
                continue
            opening = "["
            for item in member:
                sys.stdout.write(text + opening + encode(item))
                text, opening = "", ","
            text += "]" if opening == "," else "[]"
        print(text + "}")
        return
    items = iter(value)
    batches = iter(lambda: list(itertools.islice(items, JSON_BATCH)), [])
    _write_array(encode(batch)[1:-1] for batch in batches)


def _write_array(texts):
    """Print a JSON array and a newline from the texts of its elements
    (each text may hold several elements, comma-separated), in writes of
    at least ``JSON_CHUNK`` characters but the last."""
    parts, size, sep = [], 0, "["
    for text in texts:
        parts += (sep, text)
        sep, size = ",", size + len(text) + 1
        if size >= JSON_CHUNK:
            sys.stdout.write("".join(parts))
            parts, size = [], 0
    parts.append("]\n" if sep == "," else "[]\n")
    sys.stdout.write("".join(parts))


#: characters of text a ``_Memo`` holds before it is emptied: every text
#: of the 6 x 6 x 6 catalog's memos (1,242 vertex and 3,276 profile
#: characters) fits, and a full memo of vertex texts takes about 100 KiB
MEMO_CHARS = 4 * 1024


class _Memo(dict):
    """A dict that fills each missing key with ``text(key)`` on first
    use, so it holds only the keys met, and empties itself when the texts
    it holds pass ``MEMO_CHARS`` characters: a text and its key grow
    together, so the memo stays small however many keys a catalog
    meets."""

    def __init__(self, text):
        super().__init__()
        self.text, self.size = text, 0

    def __missing__(self, key):
        value = self.text(key)
        self.size += len(value)
        if self.size > MEMO_CHARS:
            self.clear()
            self.size = len(value)
        self[key] = value
        return value


def _join(values):
    return " ".join(map(str, values))


def _vertex_list(vertices):
    from . import simplicial
    return " ".join(map(simplicial.vertex_str, sorted(vertices)))


def _minor_json(minor):
    return {"source": minor.source, "rows": list(minor.rows),
            "cols": list(minor.cols), "binomial": str(minor.binomial)}


def _minor_row(minor):
    return (minor.source, _join(minor.rows), _join(minor.cols),
            str(minor.binomial))


FACET_HEADER = ("index", "word", "g", "h", "vertices")


def _facet_row(index, facet):
    return (index, facet.word, _join(facet.g), _join(facet.h),
            _vertex_list(facet.vertices))


def _facet_json(facet):
    # the encoder writes tuples as arrays, so nothing is copied into lists
    return {"word": facet.word, "vertices": sorted(facet.vertices),
            "g": facet.g, "h": facet.h}


def _facet_texts(catalog):
    """Each facet's compact JSON, the text ``json.dumps`` gives its
    ``_facet_json``, from two ``_Memo``s of the catalog: the profiles'
    (g and h) texts, and the vertices' texts keyed by row * w + col,
    w = n * r + 1, which sort as (row, col) does.  A word uses only M,
    N and R, so it needs no escaping."""
    vertex_texts = _Memo(lambda key: "[%d,%d]" % divmod(key, w))
    profile_texts = _Memo(lambda profile: ",".join(map(str, profile)))
    for facet in catalog:
        w = facet.n * facet.r + 1
        yield '{"word":"%s","vertices":[%s],"g":[%s],"h":[%s]}' % (
            facet.word, ",".join(map(vertex_texts.__getitem__, sorted(
                [i * w + j for i, j in facet.vertices]))),
            profile_texts[facet.g], profile_texts[facet.h])


def _facet_paths_text(facet):
    from . import simplicial
    text = simplicial.vertex_str
    return " | ".join(
        f"{text(path[0])}->{text(path[-1])}: " + " ".join(map(text, path))
        for path in facet.paths)


# ----------------------------------------------------------------------
# subcommands

def cmd_invariants(args):
    from . import invariants
    report = invariants.compute_invariants(args.m, args.n, args.r)
    data = report.to_dict()

    def text():
        for key, value in data.items():
            if key == "h_polynomial":
                value = str(report.h_polynomial)
            elif isinstance(value, bool):
                value = str(value).lower()
            yield f"{key:13}= {value}"

    _emit(args, lambda: data, data.keys(),
          lambda: [[*list(data.values())[:-1], _join(data["h_polynomial"])]],
          text)
    return 0


def cmd_generators(args):
    from . import generators
    m, n, r = args.m, args.n, args.r
    if args.show == "families":
        fams = generators.generator_families(m, n, r)
        total = sum(len(v) for v in fams.values())

        def text():
            for key, val in fams.items():
                yield f"{key} ({len(val)}):"
                yield from (f"  {b}" for b in val)
            yield f"total: {total}"

        _emit(args, lambda: {**{key: [str(b) for b in val]
                                for key, val in fams.items()},
                             "total": total},
              ("family", "index", "binomial"),
              lambda: ((key, i, str(b)) for key, val in fams.items()
                       for i, b in enumerate(val)),
              text)
    elif args.show == "minors":
        bound(generators.hv_minor_count(m, n, r), MAX_LISTED,
              "cli.generators", "minors")
        minors = generators.minors_H(m, n, r) + generators.minors_V(m, n, r)
        _emit(args, lambda: [_minor_json(mi) for mi in minors],
              ("source", "rows", "cols", "binomial"),
              lambda: map(_minor_row, minors), lambda: map(str, minors))
    elif args.show == "sorting-relations":
        rels = generators.sorting_relations(m, n, r)
        _emit(args, lambda: [str(b) for b in rels], ("index", "binomial"),
              lambda: enumerate(map(str, rels)), lambda: map(str, rels))
    else:  # witness
        witness = generators.minor_dependency_witness(m, n, r)
        _emit(args,
              lambda: {"exists": False} if witness is None else {
                  "exists": True,
                  "terms": [{"sign": s, **_minor_json(mi)}
                            for s, mi in witness]},
              ("sign", "source", "rows", "cols", "binomial"),
              lambda: ((s, *_minor_row(mi)) for s, mi in witness or ()),
              lambda: ["none" if witness is None else "0 = " + " ".join(
                  f"{'+' if s > 0 else '-'} ({mi})" for s, mi in witness)])
    return 0


def cmd_hilbert(args):
    from . import invariants
    if args.max_degree < 0:
        raise ValueError("max degree must be nonnegative")
    bound(args.max_degree + 1, MAX_LISTED, "cli.hilbert", "degrees")
    values = [invariants.hilbert_function(args.m, args.n, args.r, d)
              for d in range(args.max_degree + 1)]
    _emit(args, lambda: {"values": values}, ("d", "value"),
          lambda: enumerate(values),
          lambda: (f"{d:3} {v}" for d, v in enumerate(values)))
    return 0


def cmd_hpoly(args):
    from . import invariants, poset
    agreement = {}
    if args.poset_file:
        if args.sizes:
            raise ValueError("give either sizes m n r or --poset-file")
        if args.method:
            raise ValueError("--method applies to sizes m n r, "
                             "not to --poset-file")
        with open(args.poset_file, encoding="utf-8") as handle:
            size, relations = poset.parse_poset_text(handle.read())
        invariants.bound_poset_elements(size)
        h = invariants.poset_descent_polynomial(poset.Poset(size, relations))
    else:
        if len(args.sizes) != 3:
            raise ValueError("expected three sizes: m n r")
        m, n, r = args.sizes
        check_sizes(m, n, r)
        methods = {
            "series": lambda: invariants.h_poly_via_series(m, n, r),
            "words": lambda: invariants.h_poly_via_words(m, n, r),
            "extensions": lambda: invariants.h_poly_via_linear_extensions(
                m, n, r),
        }
        if args.method != "all":
            h = methods[args.method or "series"]()
        else:
            results = {name: fn() for name, fn in methods.items()}
            h = results["series"]
            if any(other != h for other in results.values()):
                for name, other in results.items():
                    print(f"{name}: {other}", file=sys.stderr)
                print("error: h-polynomial methods disagree", file=sys.stderr)
                return 1
            agreement = {"agreement": True}
    _emit(args, lambda: {"h_polynomial": list(h.coeffs), **agreement},
          ("degree", "coefficient"), lambda: enumerate(h.coeffs),
          lambda: [h])
    return 0


def cmd_facets(args):
    from . import simplicial
    stream = simplicial.facets(args.m, args.n, args.r, budget=args.budget)
    # the first facet runs the budget check, so a refusal precedes the
    # CSV header; every catalog has at least one facet
    catalog = itertools.chain([next(stream)], stream)
    _emit(args, lambda: _Encoded(_facet_texts(catalog)), FACET_HEADER,
          lambda: (_facet_row(i, f) for i, f in enumerate(catalog, start=1)),
          lambda: ((f"{f.word}: {_facet_paths_text(f)}" for f in catalog)
                   if args.style == "paths" else (f.word for f in catalog)))
    return 0


def cmd_word2facet(args):
    from . import simplicial
    facet = simplicial.Facet(args.m, args.n, args.r, args.word)
    _emit(args, lambda: _facet_json(facet), FACET_HEADER,
          lambda: [_facet_row(1, facet)],
          lambda: [f"word: {facet.word}", f"g: {_join(facet.g)}",
                   f"h: {_join(facet.h)}",
                   f"paths: {_facet_paths_text(facet)}",
                   f"vertices: {_vertex_list(facet.vertices)}"])
    return 0


def cmd_facet2word(args):
    from . import simplicial
    verts = simplicial.parse_vertices(args.vertices)
    facet = simplicial.facet_from_vertices(verts, args.m, args.n, args.r)
    _emit(args, lambda: {"word": facet.word}, ("word",),
          lambda: [(facet.word,)], lambda: [facet.word])
    return 0


def cmd_extend(args):
    from . import simplicial
    verts = (simplicial.parse_vertices(args.vertices)
             if args.vertices.strip() else [])
    facet = simplicial.extend_to_facet(verts, args.m, args.n, args.r)
    added = sorted(facet.vertices - set(verts))
    _emit(args,
          lambda: {**_facet_json(facet), "added": added},
          ("word", "vertices", "added"),
          lambda: [(facet.word, _vertex_list(facet.vertices),
                    _vertex_list(added))],
          lambda: [f"word: {facet.word}",
                   f"vertices: {_vertex_list(facet.vertices)}",
                   f"added: {_vertex_list(added)}"])
    return 0


def cmd_verify(args):
    from . import verify
    m, n, r = args.m, args.n, args.r
    checks = verify.build_checks(m, n, r, args.level, args.budget)
    failed, skipped, total = [], 0, 0

    def outcomes():
        """The outcomes as the checks return, tallied as they pass."""
        nonlocal skipped, total
        for outcome in verify.run_checks(checks):
            total += 1
            skipped += outcome.status == "skip"
            if outcome.status == "FAIL":
                failed.append(outcome.name)
            yield outcome
            # the emitter has written this outcome: hand it to the reader
            # before the next check starts.  Stdout on a pipe is
            # block-buffered, so without this flush the reader would see
            # nothing until the buffer fills or the run ends
            sys.stdout.flush()

    def text():
        for name, status, detail in outcomes():
            yield f"{status:4} {name}" + (f" ({detail})" if detail else "")
        if failed:
            yield f"{len(failed)} check(s) failed: {', '.join(failed)}"
        else:
            note = f" ({skipped} skipped)" if skipped else ""
            yield (f"all {total - skipped} checks passed{note} "
                   f"for ({m}, {n}, {r}) at level {args.level}")

    # the summary, "passed" and the exit status are read after the stream
    _emit(args, lambda: {"checks": map(verify.Outcome._asdict, outcomes()),
                         "passed": lambda: not failed},
          ("name", "status", "detail"), outcomes, text)
    return 1 if failed else 0


def main(argv=None):
    """Run one command line; return its exit status.

    The first statement freezes the collector's view of the whole
    process, not of this command: every object alive at the call (the
    interpreter's start-up modules, this package, and anything a caller
    holds) moves to the permanent generation, and no later collection,
    the interpreter's final ones included, walks it again.  Those objects
    live until exit in a command-line run, so walking them is pure cost.
    A caller that runs ``main`` in-process again and again freezes what it
    holds at each call; objects made after a call are collected as usual.
    """
    gc.freeze()
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "m"):
            check_sizes(args.m, args.n, args.r)
        if hasattr(args, "budget") and args.budget <= 0:
            raise ValueError("budget must be positive")
        status = args.func(args)
        sys.stdout.flush()  # a reader that left shows up here, not at exit
        return status
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at the
        # null device so the flush at interpreter exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except BudgetExceededError as exc:
        print(f"error: budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:  # SizeGuardError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
