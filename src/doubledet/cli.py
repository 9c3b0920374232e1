"""Command-line front end.

One subcommand per computation plus `verify`, which runs the cross-checking
harness of `doubledet.verify`.  Each subcommand hands its result to
`_emit`, the only code that writes a result to stdout: text by default,
or --format json/csv with stable key order.  `facets` writes each facet
as it is decoded and holds no catalog, in every format.  Exit status:
0 success, 1 failed verification, 2 invalid input, exhausted budget or a
listing over its fixed cap, 141 (128 + SIGPIPE, as a shell reports a
process killed by it) when the reader closes stdout before the output
ends.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import os
import sys
from math import comb

from . import generators, invariants, poset, simplicial, verify
from .errors import (DEFAULT_BUDGET, MAX_LISTED, BudgetExceededError, bound,
                     check_sizes)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="doubledet",
        description="Invariants and facet combinatorics of the 2x2-minor "
                    "ideal of r concatenated generic m x n matrices.")
    subs = parser.add_subparsers(dest="command", required=True)

    def sub(name, func, help, sizes=True):
        p = subs.add_parser(name, help=help)
        for size in ("m", "n", "r") if sizes else ():
            p.add_argument(size, type=int)
        p.add_argument("-f", "--format", choices=("text", "json", "csv"),
                       default="text")
        if name in ("facets", "verify"):
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
    p = sub("facets", cmd_facets, "facet catalog of the initial complex")
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
    p = sub("verify", cmd_verify, "run the cross-verification harness")
    p.add_argument("--level", choices=verify.LEVELS, default="groebner",
                   help="formulas < complex < groebner (cumulative)")
    return parser


def _emit(args, payload, header, rows, lines):
    """Write one result to stdout in the format that ``args`` selects.

    ``payload`` returns the JSON value, ``rows`` the CSV rows under
    ``header`` and ``lines`` the text lines; only the selected one is
    called, so no other format's output is ever built.
    """
    if args.format == "json":
        _dump_json(payload())
    elif args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows())
    else:
        for line in lines():
            print(line)


#: characters of a JSON array written at once: a 64 KiB pipe reader then
#: wakes once per chunk, not once per 8 KiB buffer flush
JSON_CHUNK = 64 * 1024


def _dump_json(value):
    """Print ``value`` as compact JSON.  A value that is not a dict is an
    array: its elements are encoded one at a time and written in chunks of
    at least ``JSON_CHUNK`` characters, so a stream is never held whole and
    the bytes are those of ``json.dumps`` of the list."""
    encode = json.JSONEncoder(separators=(",", ":")).encode
    if isinstance(value, dict):
        print(encode(value))
        return
    parts, size, sep = [], 0, "["
    for text in map(encode, value):
        parts += (sep, text)
        sep, size = ",", size + len(text) + 1
        if size >= JSON_CHUNK:
            sys.stdout.write("".join(parts))
            parts, size = [], 0
    parts.append("]\n" if sep == "," else "[]\n")
    sys.stdout.write("".join(parts))


def _join(values):
    return " ".join(map(str, values))


def _vertex_list(vertices):
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
    return {"word": facet.word,
            "vertices": [list(v) for v in sorted(facet.vertices)],
            "g": list(facet.g), "h": list(facet.h)}


def _facet_paths_text(facet):
    text = simplicial.vertex_str
    return " | ".join(
        f"{text(path[0])}->{text(path[-1])}: " + " ".join(map(text, path))
        for path in facet.paths)


# ----------------------------------------------------------------------
# subcommands

def cmd_invariants(args):
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
    m, n, r = args.m, args.n, args.r
    if args.show in ("families", "sorting-relations"):
        count, unit = invariants.minimal_generator_count(m, n, r), "generators"
    else:  # the minors of H and V, or the witness searched among them
        count = comb(m, 2) * comb(n * r, 2) + comb(m * r, 2) * comb(n, 2)
        unit = "minors"
    bound(count, MAX_LISTED, "cli.generators", unit)
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
    stream = simplicial.facets(args.m, args.n, args.r, budget=args.budget)
    # the first facet runs the budget check, so a refusal precedes the
    # CSV header; every catalog has at least one facet
    catalog = itertools.chain([next(stream)], stream)
    _emit(args, lambda: map(_facet_json, catalog), FACET_HEADER,
          lambda: (_facet_row(i, f) for i, f in enumerate(catalog, start=1)),
          lambda: ((f"{f.word}: {_facet_paths_text(f)}" for f in catalog)
                   if args.style == "paths" else (f.word for f in catalog)))
    return 0


def cmd_word2facet(args):
    facet = simplicial.Facet(args.m, args.n, args.r, args.word)
    _emit(args, lambda: _facet_json(facet), FACET_HEADER,
          lambda: [_facet_row(1, facet)],
          lambda: [f"word: {facet.word}", f"g: {_join(facet.g)}",
                   f"h: {_join(facet.h)}",
                   f"paths: {_facet_paths_text(facet)}",
                   f"vertices: {_vertex_list(facet.vertices)}"])
    return 0


def cmd_facet2word(args):
    verts = simplicial.parse_vertices(args.vertices)
    facet = simplicial.facet_from_vertices(verts, args.m, args.n, args.r)
    _emit(args, lambda: {"word": facet.word}, ("word",),
          lambda: [(facet.word,)], lambda: [facet.word])
    return 0


def cmd_extend(args):
    verts = (simplicial.parse_vertices(args.vertices)
             if args.vertices.strip() else [])
    facet = simplicial.extend_to_facet(verts, args.m, args.n, args.r)
    added = sorted(facet.vertices - set(verts))
    _emit(args,
          lambda: {**_facet_json(facet), "added": [list(v) for v in added]},
          ("word", "vertices", "added"),
          lambda: [(facet.word, _vertex_list(facet.vertices),
                    _vertex_list(added))],
          lambda: [f"word: {facet.word}",
                   f"vertices: {_vertex_list(facet.vertices)}",
                   f"added: {_vertex_list(added)}"])
    return 0


def cmd_verify(args):
    m, n, r = args.m, args.n, args.r
    outcomes = verify.run_checks(
        verify.build_checks(m, n, r, args.level, args.budget))
    failed = [o.name for o in outcomes if o.status == "FAIL"]
    skipped = sum(1 for o in outcomes if o.status == "skip")

    def text():
        for name, status, detail in outcomes:
            yield f"{status:4} {name}" + (f" ({detail})" if detail else "")
        if failed:
            yield f"{len(failed)} check(s) failed: {', '.join(failed)}"
        else:
            note = f" ({skipped} skipped)" if skipped else ""
            yield (f"all {len(outcomes) - skipped} checks passed{note} "
                   f"for ({m}, {n}, {r}) at level {args.level}")

    _emit(args, lambda: {"checks": [o._asdict() for o in outcomes],
                         "passed": not failed},
          ("name", "status", "detail"), lambda: outcomes, text)
    return 1 if failed else 0


def main(argv=None):
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
