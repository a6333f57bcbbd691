"""Command-line front end.

Subcommands mirror the library: validate a matrix file, enumerate heaps,
build the two bases, compute multiplicities and chromatic polynomials, and
run the verification suites.  Output is deterministic; ``--json`` switches
to a machine schema ``{command, inputs, result, certificates}``.  Exit
codes: 0 success, 1 bad input or a closed output pipe, 2 failed internal
consistency check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _json_str

from .errors import InputError, ConsistencyError
from . import supergraph as sg
from . import heaps as hp
from . import superlie as sl
from . import chromatic as ch
from . import multiplicity as mult_mod


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)

    def parse_args(self, args=None, namespace=None):
        args = super().parse_args(args, namespace)
        if args.seed is not None:
            raise InputError("--seed is not supported: all computations are deterministic")
        return args


def _base_parser(prog: str) -> _Parser:
    p = _Parser(prog=prog, add_help=True)
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", help=argparse.SUPPRESS)
    return p


def _dumps(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``: the same string, faster.

    In CPython 3.10-3.13, ``indent`` makes the standard library encode in
    pure Python through generators.  This walks dicts with ``str`` keys,
    lists, tuples, exact ``str`` and ``int``, booleans and ``None`` itself;
    any other subtree (a float, a subclass of ``int`` or ``str``, a dict
    with other keys, an unknown type) is encoded by ``json.dumps`` and
    re-indented, so its bytes and its exceptions are the standard
    library's.
    """
    chunks = []
    _encode(doc, "", "\n", chunks.append)
    return "".join(chunks)


def _encode(o, lead, newline, put):
    """Append ``o`` behind ``lead``, at the indentation ``newline`` ends with.

    ``lead`` (a separator, a dict key) goes into the same chunk as a
    scalar, so a document is about as many chunks as it has values.
    """
    t = type(o)
    if t is str:
        put(lead + _json_str(o))
    elif t is int:
        put(lead + int.__repr__(o))
    elif t is dict and all(type(key) is str for key in o):
        if not o:
            put(lead + "{}")
            return
        inner = newline + "  "
        put(lead + "{")
        sep = inner
        for key in sorted(o):
            _encode(o[key], sep + _json_str(key) + ": ", inner, put)
            sep = "," + inner
        put(newline + "}")
    elif t is list or t is tuple:
        if not o:
            put(lead + "[]")
            return
        inner = newline + "  "
        put(lead + "[")
        sep = inner
        for item in o:
            _encode(item, sep, inner, put)
            sep = "," + inner
        put(newline + "]")
    elif o is True:
        put(lead + "true")
    elif o is False:
        put(lead + "false")
    elif o is None:
        put(lead + "null")
    else:
        put(lead + json.dumps(o, indent=2, sort_keys=True).replace("\n", newline))


def _emit(args, command, inputs, result, certificates=None, human_lines=()):
    if args.json:
        doc = {"command": command, "inputs": inputs, "result": result,
               "certificates": certificates if certificates is not None else []}
        print(_dumps(doc))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------

def _cmd_validate(argv):
    p = _base_parser("freeroots validate")
    p.add_argument("file")
    args = p.parse_args(argv)
    doc = sg.load_document(args.file)
    matrix = sg.matrix_from_document(doc)
    if matrix is None:
        graph, _ = sg.graph_from_document(doc)
        result = {"kind": "graph", "ok": True, "violations": []}
        lines = [f"graph with {graph.n} vertices, {len(graph.edges)} edges: ok"]
        _emit(args, "validate", {"file": args.file}, result, human_lines=lines)
        return 0
    violations = sg.validate_supermatrix(matrix)
    d = sg.symmetrizer(matrix)
    result = {"kind": "matrix", "ok": not violations, "violations": violations,
              "symmetrizer": [str(x) for x in d] if d else None}
    lines = ["valid supermatrix" if not violations else "invalid supermatrix:"]
    lines += [f"  {v}" for v in violations]
    if not violations:
        graph = sg.quasi_dynkin(matrix)
        result["real"] = sorted(graph.names[i] for i in graph.real)
        result["psi0"] = sorted(graph.names[i] for i in graph.psi0)
        result["edges"] = sorted([graph.names[i], graph.names[j]]
                                 for i, j in graph.edges)
        lines.append("edges: " + ", ".join(
            f"{graph.names[i]}-{graph.names[j]}" for i, j in sorted(graph.edges)))
        lines.append("real: {" + ",".join(result["real"]) + "}"
                     + "  psi0: {" + ",".join(result["psi0"]) + "}")
    _emit(args, "validate", {"file": args.file}, result, human_lines=lines)
    return 0 if result["ok"] else 1


_CLASS_FILTERS = ("heap", "pyramid", "super-letter", "lyndon", "super-lyndon")


def _cmd_heaps_enumerate(argv):
    p = _base_parser("freeroots heaps enumerate")
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--class", dest="cls", choices=_CLASS_FILTERS, default="heap")
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)
    k = sg.parse_weight(graph, args.weight)
    all_heaps = hp.enumerate_heaps(graph, k)
    if args.cls == "heap":
        chosen = [h for h in all_heaps if h.pieces]
    elif args.cls == "lyndon":
        chosen = list(hp.lyndon_heaps(graph, k))
    elif args.cls == "super-lyndon":
        chosen = list(hp.super_lyndon_heaps(graph, k))
    elif args.cls == "super-letter":
        chosen = [h for h in all_heaps if hp.is_super_letter(h)]
    else:
        chosen = [h for h in all_heaps if hp.is_pyramid(h)]
    result = {"weight": list(k), "class": args.cls, "count": len(chosen),
              "heaps": [{"word": h.word(), **h.to_json()} for h in chosen]}
    lines = [f"{len(chosen)} heaps of weight {','.join(map(str, k))} [{args.cls}]"]
    lines += [f"  {h.word()}" for h in chosen]
    _emit(args, "heaps enumerate", {"graph": args.graph, "weight": list(k)},
          result, human_lines=lines)
    return 0


def _cmd_basis(kind, argv):
    p = _base_parser(f"freeroots basis {kind}")
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", required=True)
    if kind == "lln":
        p.add_argument("--base", required=True)
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)
    k = sg.parse_weight(graph, args.weight)
    if not sg.is_free_weight(graph, k):
        raise InputError(f"weight {','.join(map(str, k))} is not free")
    if kind == "lyndon":
        basis = sl.lyndon_heap_basis(graph, k)
    else:
        basis = sl.lln_basis(graph, k, args.base)
    result = basis.to_json()
    lines = [f"dimension {len(basis)} (rank {basis.certificate.rank} certified)"]
    for e in basis.elements:
        lines.append(f"  {e.word()}  ->  {e.monomial}")
    inputs = {"graph": args.graph, "weight": list(k)}
    if kind == "lln":
        inputs["base"] = args.base
    _emit(args, f"basis {kind}", inputs, result,
          certificates=[basis.certificate.to_json()], human_lines=lines)
    return 0


def _cmd_mult(argv):
    p = _base_parser("freeroots mult")
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--method", choices=("recursion", "closed", "both"), default="both")
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)
    k = sg.parse_weight(graph, args.weight)
    record = mult_mod.mult_free_root(graph, k, method="both")
    result = record.to_json()
    if args.method == "recursion":
        lines = [str(record.recursion)]
    elif args.method == "closed":
        lines = [str(record.closed_form)]
    else:
        lines = [f"mult = {record.recursion} (recursion)"]
        if not record.agree:
            lines.append(f"closed form disagrees: {record.closed_form}")
    _emit(args, "mult", {"graph": args.graph, "weight": list(k),
                         "method": args.method}, result, human_lines=lines)
    return 0


def _cmd_mult_table(argv):
    p = _base_parser("freeroots mult table")
    p.add_argument("--graph", required=True)
    p.add_argument("--cap", required=True)
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)
    cap = sg.parse_weight(graph, args.cap)
    table = mult_mod.free_roots_up_to(graph, cap)
    result = table.to_json()
    lines = [f"{len(table.entries)} free roots with weight <= {','.join(map(str, cap))}"]
    for w in sorted(table.entries):
        r = table.entries[w]
        mark = "" if r.agree else "   [closed form disagrees: %s]" % r.closed_form
        lines.append(f"  {','.join(map(str, w))}  mult {r.recursion}  ({r.parity}){mark}")
    _emit(args, "mult table", {"graph": args.graph, "cap": list(cap)},
          result, human_lines=lines)
    return 0


def _cmd_chromatic(argv):
    p = _base_parser("freeroots chromatic")
    p.add_argument("--graph", required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--method", choices=("direct", "join", "bond"), default="direct")
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)
    k = sg.parse_weight(graph, args.weight)
    if args.method == "direct":
        poly = ch.k_chromatic_direct(graph, k)
    elif args.method == "join":
        poly = ch.k_chromatic_join(graph, k)
    else:
        poly = ch.k_chromatic_bond(graph, k,
                                   lambda w: mult_mod.mult_free_root(graph, w))
    factored = poly.factored()
    result = {"weight": list(k), "method": args.method,
              "coefficients": poly.to_json(), "pretty": poly.pretty(),
              "factored": factored}
    lines = [poly.pretty()]
    if factored:
        lines.append(f"= {factored}")
    lines.append("coefficients (ascending): " + json.dumps(poly.to_json()))
    _emit(args, "chromatic", {"graph": args.graph, "weight": list(k),
                              "method": args.method}, result, human_lines=lines)
    return 0


def _triangularity_report(graph, k):
    checks = []
    for heap in hp.super_lyndon_heaps(graph, k):
        expansion = sl._expand_lambda(heap)
        self_coeff = expansion.coefficient(heap)
        expected = 1 if hp.is_lyndon(heap) else 2
        key = hp.sort_key(heap)
        dominated = all(hp.sort_key(h) >= key for h in expansion.terms)
        checks.append({"word": heap.word(), "self_coefficient": self_coeff,
                       "expected": expected, "supported_above": dominated,
                       "ok": self_coeff == expected and dominated})
    return checks


def _cmd_verify(which, argv):
    p = _base_parser(f"freeroots verify {which}")
    p.add_argument("--graph", required=True)
    if which == "triangular":
        p.add_argument("--weight", required=True)
    else:
        p.add_argument("--cap", required=True)
    args = p.parse_args(argv)
    graph, _ = sg.load_graph(args.graph)

    if which in ("pbw", "cartier-foata"):
        cap = sg.parse_weight(graph, args.cap)
        fn = mult_mod.verify_pbw if which == "pbw" else mult_mod.verify_cartier_foata
        report = fn(graph, cap)
        result = report.to_json()
        lines = [("ok: " if report.ok else "FAILED: ") + report.description]
        _emit(args, f"verify {which}", {"graph": args.graph, "cap": list(cap)},
              result, human_lines=lines)
        return 0 if report.ok else 2

    if which == "triangular":
        k = sg.parse_weight(graph, args.weight)
        checks = _triangularity_report(graph, k)
        ok = all(c["ok"] for c in checks)
        result = {"weight": list(k), "checks": checks, "ok": ok}
        lines = [f"{'ok' if ok else 'FAILED'}: {len(checks)} expansions checked"]
        lines += [f"  {c['word']}: self {c['self_coefficient']} (expected {c['expected']})"
                  for c in checks]
        _emit(args, "verify triangular", {"graph": args.graph, "weight": list(k)},
              result, human_lines=lines)
        return 0 if ok else 2

    # verify all
    cap = sg.parse_weight(graph, args.cap)
    reports, ok = run_verification_suite(graph, cap)
    result = {"cap": list(cap), "ok": ok, "checks": reports}
    lines = []
    for r in reports:
        lines.append(("ok: " if r["ok"] else "FAILED: ") + r["name"]
                     + (f" ({r['detail']})" if r.get("detail") else ""))
    lines.append("all checks passed" if ok else "verification FAILED")
    _emit(args, "verify all", {"graph": args.graph, "cap": list(cap)},
          result, human_lines=lines)
    return 0 if ok else 2


def run_verification_suite(graph, cap):
    """Composite oracle suite over all free connected weights under cap.

    Checks the two series identities, expansion triangularity, the
    dimension agreements between heap counts, both basis ranks and the
    multiplicity recursion, and the equality of the three chromatic
    routes.  Closed-form disagreements are reported, not failed: the
    recursion is the ground truth.
    """
    reports = []

    def add(name, ok, detail=""):
        reports.append({"name": name, "ok": bool(ok), "detail": detail})

    pbw = mult_mod.verify_pbw(graph, cap)
    add("series: graded product", pbw.ok,
        "" if pbw.ok else f"first mismatch at {pbw.first_mismatch}")
    cf = mult_mod.verify_cartier_foata(graph, cap)
    add("series: independence inversion", cf.ok,
        "" if cf.ok else f"first mismatch at {cf.first_mismatch}")

    weights = [w for w in sg.weights_up_to(cap)
               if any(w) and sg.is_free_weight(graph, w)
               and sg.is_connected_support(graph, w)]
    tri_ok, dim_ok, chrom_ok = True, True, True
    disagreements = []
    for k in weights:
        for c in _triangularity_report(graph, k):
            tri_ok = tri_ok and c["ok"]
        slh = hp.super_lyndon_heaps(graph, k)
        lyb = sl.lyndon_heap_basis(graph, k)
        record = mult_mod.mult_free_root(graph, k, method="both")
        agree = len(slh) == len(lyb) == lyb.certificate.rank == record.recursion
        for base in sg.support(k):
            lln = sl.lln_basis(graph, k, base)
            agree = agree and len(lln) == lyb.certificate.rank == lln.certificate.rank
        dim_ok = dim_ok and agree
        if not record.agree:
            disagreements.append(record.to_json())
        direct = ch._tuple_counts(sg.plain(graph), k)
        same = (direct == ch._join_counts(graph, k)
                and direct == ch._bond_counts(
                    graph, k, lambda w: mult_mod.mult_free_root(graph, w)))
        chrom_ok = chrom_ok and same
    add(f"triangularity over {len(weights)} weights", tri_ok)
    add(f"dimension agreement over {len(weights)} weights", dim_ok)
    add(f"chromatic route agreement over {len(weights)} weights", chrom_ok)
    add("closed-form discrepancies reported", True,
        f"{len(disagreements)} weight(s) flagged" if disagreements else "none")
    return reports, all(r["ok"] for r in reports)


# ---------------------------------------------------------------------------

_USAGE = """\
usage: freeroots <command> [options]

commands:
  validate <file>
  heaps enumerate --graph F --weight W [--class heap|pyramid|super-letter|lyndon|super-lyndon]
  basis lyndon    --graph F --weight W
  basis lln       --graph F --weight W --base i
  mult            --graph F --weight W [--method recursion|closed|both]
  mult table      --graph F --cap C
  chromatic       --graph F --weight W [--method direct|join|bond]
  verify pbw           --graph F --cap C
  verify cartier-foata --graph F --cap C
  verify triangular    --graph F --weight W
  verify all           --graph F --cap C

global options: --json (machine output)
"""


def _dispatch(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    head, rest = argv[0], argv[1:]
    if head == "validate":
        return _cmd_validate(rest)
    if head == "heaps":
        if rest and rest[0] == "enumerate":
            return _cmd_heaps_enumerate(rest[1:])
        raise InputError("usage: freeroots heaps enumerate ...")
    if head == "basis":
        if rest and rest[0] in ("lyndon", "lln"):
            return _cmd_basis(rest[0], rest[1:])
        raise InputError("usage: freeroots basis lyndon|lln ...")
    if head == "mult":
        if rest and rest[0] == "table":
            return _cmd_mult_table(rest[1:])
        return _cmd_mult(rest)
    if head == "chromatic":
        return _cmd_chromatic(rest)
    if head == "verify":
        if rest and rest[0] in ("pbw", "cartier-foata", "triangular", "all"):
            return _cmd_verify(rest[0], rest[1:])
        raise InputError("usage: freeroots verify pbw|cartier-foata|triangular|all ...")
    raise InputError(f"unknown command {head!r}")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        code = _dispatch(argv)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader of stdout is gone (``freeroots ... | head``).  Point
        # stdout at devnull so that the interpreter's final flush of what
        # is still buffered stays quiet; exit 1, Python's code for EPIPE.
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 1


if __name__ == "__main__":
    sys.exit(main())
