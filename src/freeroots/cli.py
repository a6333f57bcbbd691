"""Command-line front end.

Subcommands mirror the library: validate a matrix file, enumerate heaps,
build the two bases, compute multiplicities and chromatic polynomials, and
run the verification suites.  Output is deterministic; ``--json`` switches
to a machine schema ``{command, inputs, result, certificates}``.  Exit
codes: 0 success, 1 bad input or a closed output pipe, 2 failed internal
consistency check.

``_COMMANDS`` is the one place a command is declared: its words, usage
line, handler and options.  The usage text, the dispatch and each
command's parser are all derived from it.  A command's parser is built
from the table on its first use and kept for the life of the process, so
a caller that runs ``main`` many times in one process builds it once.
"""

from __future__ import annotations

import argparse
import functools
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


@functools.cache
def _parser(words):
    """The parser of the command ``words``, derived from its ``_COMMANDS``
    options on first use and kept for the life of the process.

    The options hold a positional name, a required ``--flag`` or a
    ``(--flag, choices, default)`` triple per argument.  ``parse_args``
    returns a new namespace on each call, so no call sees another's.
    """
    p = _Parser(prog="freeroots " + " ".join(words))
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.add_argument("--seed", help=argparse.SUPPRESS)
    for opt in _COMMANDS[words][2]:
        if isinstance(opt, tuple):
            p.add_argument(opt[0], choices=opt[1], default=opt[2])
        elif opt.startswith("--"):
            p.add_argument(opt, required=True)
        else:
            p.add_argument(opt)
    return p


def _parse(words, argv, options):
    """Parse one command's arguments and load what they name.

    ``--graph`` is loaded into ``supergraph`` (the path stays in
    ``graph``), and ``--weight`` and ``--cap`` are read as weights of that
    graph.
    """
    args = _parser(words).parse_args(argv)
    if args.seed is not None:
        raise InputError("--seed is not supported: all computations are deterministic")
    args.command = " ".join(words)
    if "--graph" in options:
        args.supergraph, _ = sg.load_graph(args.graph)
        for name in ("weight", "cap"):
            if "--" + name in options:
                setattr(args, name, sg.parse_weight(args.supergraph, getattr(args, name)))
    return args


def _emit(args, inputs, result, human_lines):
    if args.json:
        doc = {"command": args.command, "inputs": inputs, "result": result,
               "certificates": []}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in human_lines:
            print(line)


def _write_basis(command, inputs, basis, write):
    """Write the ``--json`` document of ``basis``: ``json.dumps(doc,
    indent=2, sort_keys=True)`` of ``{command, inputs, result:
    basis.to_json(), certificates: [its certificate]}`` and a newline.

    The header and trailer are the standard library's text of that
    document with ``"elements": []``, split there; the elements come from
    the basis, one ``write`` per element, whose text is then dropped.
    Each heap's text is rendered once.  A certified basis has no zero
    expansion, so no element has ``"expansion": []``.
    """
    cert = basis.certificate.to_json()
    empty = json.dumps({"certificates": [cert], "command": command, "inputs": inputs,
                        "result": {"certificate": cert, "dimension": len(basis),
                                   "elements": [], "weight": list(basis.weight)}},
                       indent=2, sort_keys=True)
    # No encoded string holds this text (``"`` is escaped in one), and only
    # ``weight``'s integers follow the key, so the last match is the key.
    head, _, trailer = empty.rpartition('"elements": []')
    write(head + '"elements": [')
    names = [_json_str(name) for name in basis.graph.names]
    heaps, sep = {}, "\n      "
    for e in basis.elements:
        parts, comma = [sep, '{\n        "expansion": ['], ""
        for h, c in e.expansion.sorted_terms():
            tail = heaps.get(h)
            if tail is None:  # what follows the coefficient: the heap's dict, indented
                pieces = ",".join(f"\n                [\n                  {names[p]},"
                                  f"\n                  {level}\n                ]"
                                  for p, level in h.pieces)
                tail = heaps[h] = (',\n            "heap": {\n              "pieces": ['
                                   + pieces + "\n              ]\n            }\n          }")
            parts += (comma, '\n          {\n            "coeff": ', int.__repr__(c), tail)
            comma = ","
        parts.append("\n        ]")
        if e.letters:
            parts.append(',\n        "letters": [' + ",".join(
                "\n          " + _json_str(l.word()) for l in e.letters) + "\n        ]")
        parts += (',\n        "monomial": ', _json_str(str(e.monomial)),
                  ',\n        "word": ', _json_str(e.word()), "\n      }")
        write("".join(parts))
        sep = ",\n      "
    write(("\n    ]" if basis.elements else "]") + trailer + "\n")


# ---------------------------------------------------------------------------

def _cmd_validate(args):
    doc = sg.load_document(args.file)
    matrix = sg.matrix_from_document(doc)
    if matrix is None:
        graph, _ = sg.graph_from_document(doc)
        result = {"kind": "graph", "ok": True, "violations": []}
        lines = [f"graph with {graph.n} vertices, {len(graph.edges)} edges: ok"]
        _emit(args, {"file": args.file}, result, lines)
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
    _emit(args, {"file": args.file}, result, lines)
    return 0 if result["ok"] else 1


# ``heaps enumerate --class``: each class name and the test that picks its heaps
_HEAP_CLASSES = {"heap": lambda heap: True, "pyramid": hp.is_pyramid,
                 "super-letter": hp.is_super_letter, "lyndon": hp.is_lyndon,
                 "super-lyndon": hp.is_super_lyndon}


def _cmd_heaps_enumerate(args):
    graph, k, cls = args.supergraph, args.weight, getattr(args, "class")
    chosen = list(filter(_HEAP_CLASSES[cls], hp.enumerate_heaps(graph, k)))
    result = {"weight": list(k), "class": cls, "count": len(chosen),
              "heaps": [{"word": h.word(), **h.to_json()} for h in chosen]}
    lines = [f"{len(chosen)} heaps of weight {','.join(map(str, k))} [{cls}]"]
    lines += [f"  {h.word()}" for h in chosen]
    _emit(args, {"graph": args.graph, "weight": list(k)}, result, lines)
    return 0


def _cmd_basis(args):
    graph, k = args.supergraph, args.weight
    if not sg.is_free_weight(graph, k):
        raise InputError(f"weight {','.join(map(str, k))} is not free")
    inputs = {"graph": args.graph, "weight": list(k)}
    if args.command == "basis lyndon":
        basis = sl.lyndon_heap_basis(graph, k)
    else:
        basis = sl.lln_basis(graph, k, args.base)
        inputs["base"] = args.base
    if args.json:
        _write_basis(args.command, inputs, basis, sys.stdout.write)
        return 0
    print(f"dimension {len(basis)} (rank {basis.certificate.rank} certified)")
    for e in basis.elements:
        print(f"  {e.word()}  ->  {e.monomial}")
    return 0


def _cmd_mult(args):
    record = mult_mod.mult_free_root(args.supergraph, args.weight, method="both")
    if args.method == "recursion":
        lines = [str(record.recursion)]
    elif args.method == "closed":
        lines = [str(record.closed_form)]
    else:
        lines = [f"mult = {record.recursion} (recursion)"]
        if not record.agree:
            lines.append(f"closed form disagrees: {record.closed_form}")
    _emit(args, {"graph": args.graph, "weight": list(args.weight), "method": args.method},
          record.to_json(), lines)
    return 0


def _cmd_mult_table(args):
    cap = args.cap
    table = mult_mod.free_roots_up_to(args.supergraph, cap)
    lines = [f"{len(table.entries)} free roots with weight <= {','.join(map(str, cap))}"]
    for w, r in sorted(table.entries.items()):
        mark = "" if r.agree else "   [closed form disagrees: %s]" % r.closed_form
        lines.append(f"  {','.join(map(str, w))}  mult {r.recursion}  ({r.parity}){mark}")
    _emit(args, {"graph": args.graph, "cap": list(cap)}, table.to_json(), lines)
    return 0


def _cmd_chromatic(args):
    graph, k = args.supergraph, args.weight
    poly = getattr(ch, "k_chromatic_" + args.method)(graph, k)
    factored = poly.factored()
    result = {"weight": list(k), "method": args.method,
              "coefficients": poly.to_json(), "pretty": poly.pretty(),
              "factored": factored}
    lines = [poly.pretty()]
    if factored:
        lines.append(f"= {factored}")
    lines.append("coefficients (ascending): " + json.dumps(poly.to_json()))
    _emit(args, {"graph": args.graph, "weight": list(k), "method": args.method},
          result, lines)
    return 0


def _triangularity_report(expansions):
    """One check per ``(heap, expansion)`` pair: lambda(H) = c H + larger heaps."""
    checks = []
    for heap, expansion in expansions:
        self_coeff = expansion.coefficient(heap)
        expected = 1 if hp.is_lyndon(heap) else 2
        key = hp.standard_word(heap)
        dominated = all(hp.standard_word(h) >= key for h in expansion.terms)
        checks.append({"word": heap.word(), "self_coefficient": self_coeff,
                       "expected": expected, "supported_above": dominated,
                       "ok": self_coeff == expected and dominated})
    return checks


def _cmd_verify_series(args, verify):
    report = verify(args.supergraph, args.cap)
    lines = [("ok: " if report.ok else "FAILED: ") + report.description]
    _emit(args, {"graph": args.graph, "cap": list(args.cap)}, report.to_json(), lines)
    return 0 if report.ok else 2


def _cmd_verify_triangular(args):
    k = args.weight
    checks = _triangularity_report((heap, sl._expand_lambda(heap))
                                   for heap in hp.super_lyndon_heaps(args.supergraph, k))
    ok = all(c["ok"] for c in checks)
    lines = [f"{'ok' if ok else 'FAILED'}: {len(checks)} expansions checked"]
    lines += [f"  {c['word']}: self {c['self_coefficient']} (expected {c['expected']})"
              for c in checks]
    _emit(args, {"graph": args.graph, "weight": list(k)},
          {"weight": list(k), "checks": checks, "ok": ok}, lines)
    return 0 if ok else 2


def _cmd_verify_all(args):
    cap = args.cap
    reports, ok = run_verification_suite(args.supergraph, cap)
    lines = [("ok: " if r["ok"] else "FAILED: ") + r["name"]
             + (f" ({r['detail']})" if r.get("detail") else "") for r in reports]
    lines.append("all checks passed" if ok else "verification FAILED")
    _emit(args, {"graph": args.graph, "cap": list(cap)},
          {"cap": list(cap), "ok": ok, "checks": reports}, lines)
    return 0 if ok else 2


def run_verification_suite(graph, cap):
    """Composite oracle suite over all free connected weights under cap.

    Checks the two series identities, expansion triangularity, that the
    bracket basis and every left-normed basis have the recursion's
    multiplicity as their size, and the equality of the three chromatic
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

    table = mult_mod.free_roots_up_to(graph, cap)
    tri_ok, dim_ok, chrom_ok = True, True, True
    for k, record in table.entries.items():
        lyb = sl.lyndon_heap_basis(graph, k)
        for c in _triangularity_report((e.heap, e.expansion) for e in lyb.elements):
            tri_ok = tri_ok and c["ok"]
        sizes = {len(sl.lln_basis(graph, k, base)) for base in sg.support(k)}
        dim_ok = dim_ok and len(lyb) == record.recursion and sizes == {len(lyb)}
        direct = ch._tuple_counts(sg.plain(graph), k)
        same = (direct == ch._join_counts(graph, k)
                and direct == ch._bond_counts(graph, k))
        chrom_ok = chrom_ok and same
    add(f"triangularity over {len(table.entries)} weights", tri_ok)
    add(f"dimension agreement over {len(table.entries)} weights", dim_ok)
    add(f"chromatic route agreement over {len(table.entries)} weights", chrom_ok)
    flagged = len(table.discrepancies())
    add("closed-form discrepancies reported", True,
        f"{flagged} weight(s) flagged" if flagged else "none")
    return reports, all(r["ok"] for r in reports)


# ---------------------------------------------------------------------------

# words -> (usage line, handler, options read by ``_parser`` and ``_parse``).
# Handlers look library functions up per call, so a wrapper set on a module
# sees each call.
_COMMANDS = {
    ("validate",): ("validate <file>", _cmd_validate, ("file",)),
    ("heaps", "enumerate"): (
        f"heaps enumerate --graph F --weight W [--class {'|'.join(_HEAP_CLASSES)}]",
        _cmd_heaps_enumerate, ("--graph", "--weight", ("--class", tuple(_HEAP_CLASSES), "heap"))),
    ("basis", "lyndon"): (
        "basis lyndon    --graph F --weight W", _cmd_basis, ("--graph", "--weight")),
    ("basis", "lln"): (
        "basis lln       --graph F --weight W --base i", _cmd_basis,
        ("--graph", "--weight", "--base")),
    ("mult",): (
        "mult            --graph F --weight W [--method recursion|closed|both]", _cmd_mult,
        ("--graph", "--weight", ("--method", ("recursion", "closed", "both"), "both"))),
    ("mult", "table"): (
        "mult table      --graph F --cap C", _cmd_mult_table, ("--graph", "--cap")),
    ("chromatic",): (
        "chromatic       --graph F --weight W [--method direct|join|bond]", _cmd_chromatic,
        ("--graph", "--weight", ("--method", ("direct", "join", "bond"), "direct"))),
    ("verify", "pbw"): (
        "verify pbw           --graph F --cap C",
        lambda args: _cmd_verify_series(args, mult_mod.verify_pbw), ("--graph", "--cap")),
    ("verify", "cartier-foata"): (
        "verify cartier-foata --graph F --cap C",
        lambda args: _cmd_verify_series(args, mult_mod.verify_cartier_foata),
        ("--graph", "--cap")),
    ("verify", "triangular"): (
        "verify triangular    --graph F --weight W", _cmd_verify_triangular,
        ("--graph", "--weight")),
    ("verify", "all"): (
        "verify all           --graph F --cap C", _cmd_verify_all, ("--graph", "--cap")),
}

_USAGE = ("usage: freeroots <command> [options]\n\ncommands:\n"
          + "".join(f"  {usage}\n" for usage, _, _ in _COMMANDS.values())
          + "\nglobal options: --json (machine output)\n")


def _dispatch(argv) -> int:
    if not argv or argv[0] in ("-h", "--help"):
        print(_USAGE, end="")
        return 0
    words = tuple(argv[:2])
    if words not in _COMMANDS:
        words = words[:1]
    if words not in _COMMANDS:
        subs = [w[1] for w in _COMMANDS if len(w) == 2 and w[0] == argv[0]]
        if subs:
            raise InputError(f"usage: freeroots {argv[0]} {'|'.join(subs)} ...")
        raise InputError(f"unknown command {argv[0]!r}")
    _, handler, options = _COMMANDS[words]
    try:
        args = _parse(words, argv[len(words):], options)
    except SystemExit as exc:  # the command's --help, printed by argparse
        return exc.code
    return handler(args)


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
    except RecursionError:
        # The join partitions and the bracket trees of the bases recurse
        # once per unit of height; the series routes and M_k do not.
        print("error: the weight is too tall: maximum recursion depth exceeded",
              file=sys.stderr)
        return 1
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
