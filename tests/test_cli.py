import dataclasses
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from freeroots import Supergraph, chromatic, cli, enumerate_heaps, multiplicity, superlie
from freeroots.cli import _write_basis, main
from freeroots.supergraph import is_free_weight, load_graph, plain, support
from conftest import (TREE6_MATRIX, PATH6_MATRIX, MALFORMED_DOCUMENTS, basis_document,
                      shifted_log_count)


@pytest.fixture()
def tree6_file(tmp_path):
    doc = {"vertices": ["1", "2", "3", "4", "5", "6"], "psi": ["3", "5"],
           "matrix": TREE6_MATRIX}
    path = tmp_path / "tree6.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def path6_file(tmp_path):
    doc = {"vertices": ["1", "2", "3", "4", "5", "6"], "psi": ["3", "5"],
           "matrix": PATH6_MATRIX}
    path = tmp_path / "path6.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def plain_tree_file(tmp_path):
    doc = {"vertices": ["1", "2", "3", "4", "5", "6"], "psi": ["3", "5"],
           "edges": [["1", "2"], ["2", "3"], ["2", "4"], ["3", "6"], ["4", "5"]]}
    path = tmp_path / "tree6_plain.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_json(capsys, argv):
    code = main(argv + ["--json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------

def test_usage(capsys):
    assert main([]) == 0
    assert "commands" in capsys.readouterr().out


def test_validate_ok(tree6_file, capsys):
    code, doc = run_json(capsys, ["validate", tree6_file])
    assert code == 0
    assert doc["result"]["ok"] is True
    assert doc["result"]["real"] == ["1", "4"]


def test_validate_bad_matrix(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"vertices": ["1", "2"],
                                "matrix": [[2, -1], [0, 2]]}))
    code, doc = run_json(capsys, ["validate", str(path)])
    assert code == 1
    assert any("condition 3" in v for v in doc["result"]["violations"])


def test_missing_file_is_input_error(capsys):
    assert main(["validate", "/nonexistent/g.json"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("doc", MALFORMED_DOCUMENTS)
def test_document_of_wrong_shape_is_input_error(doc, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for argv in (["validate", str(path)], ["mult", "--graph", str(path), "--weight", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_non_utf8_file_is_input_error(tmp_path, capsys):
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + json.dumps({"vertices": ["a"]}).encode("utf-16-le"))
    for argv in (["validate", str(path)], ["mult", "--graph", str(path), "--weight", "1"]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")


def test_mult_example(tree6_file, capsys):
    code, doc = run_json(capsys, ["mult", "--graph", tree6_file,
                                  "--weight", "0,0,3,0,0,3"])
    assert code == 0
    r = doc["result"]
    assert r["mult_recursion"] == 3 and r["mult_closed_form"] == 3
    assert r["agree"] is True
    assert r["parity"] == "odd"
    assert r["linear_coeff"] == "10/3"


def test_mult_human_output(tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", "0,0,3,0,0,3"]) == 0
    assert "mult = 3" in capsys.readouterr().out


def test_mult_rejects_non_free(tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", "2,0,0,0,0,0"]) == 1


def test_mult_rejects_wrong_length(tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", "1,2,3"]) == 1


@pytest.mark.parametrize("weight, message", [
    ("0,0,1_0,0,0,1", "bad weight '0,0,1_0,0,0,1'"),
    ("0,0,٣,0,0,1", "bad weight '0,0,٣,0,0,1'"),      # Arabic-Indic 3
    ("0,0,３,0,0,1", "bad weight '0,0,３,0,0,1'"),      # fullwidth 3
    ("0,0,3.0,0,0,1", "bad weight '0,0,3.0,0,0,1'"),
    ("0,0,,0,0,1", "bad weight '0,0,,0,0,1'"),
    ("0,0,+-3,0,0,1", "bad weight '0,0,+-3,0,0,1'"),
    ("0,0,-1,0,0,1", "negative weight entry in (0, 0, -1, 0, 0, 1)"),
])
def test_weight_rejects_non_ascii_integers(weight, message, tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", weight]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("weight", [" 0, 0,3 ,0,0,3", "0,0,+3,0,0,3\t", "0,0,03,0,0,3"])
def test_weight_allows_sign_and_spaces(weight, tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", "0,0,3,0,0,3"]) == 0
    expected = capsys.readouterr().out
    assert main(["mult", "--graph", tree6_file, "--weight", weight]) == 0
    assert capsys.readouterr().out == expected


def test_mult_table(plain_tree_file, capsys):
    code, doc = run_json(capsys, ["mult", "table", "--graph", plain_tree_file,
                                  "--cap", "1,1,1,1,1,1"])
    assert code == 0
    entries = doc["result"]["entries"]
    assert all(e["mult_recursion"] >= 1 for e in entries)
    # connected subgraphs of the tree on 6 vertices: one per subtree
    assert len(entries) == sum(1 for e in entries)
    assert doc["result"]["discrepancies"] == []


def test_basis_lln(path6_file, capsys):
    code, doc = run_json(capsys, ["basis", "lln", "--graph", path6_file,
                                  "--weight", "0,0,2,1,2,1", "--base", "3"])
    assert code == 0
    monos = [e["monomial"] for e in doc["result"]["elements"]]
    assert monos == ["[3,[[[[3,4],5],5],6]]", "[3,[[[[3,4],5],6],5]]"]
    assert doc["result"]["certificate"]["rank"] == 2
    assert doc["certificates"][0]["rank"] == 2


def test_basis_lln_weight_in_graph_order(path6_file, capsys):
    """With a base that is not the first vertex, ``result.weight`` is still
    in the graph file's vertex order, like ``inputs.weight``."""
    code, doc = run_json(capsys, ["basis", "lln", "--graph", path6_file,
                                  "--weight", "0,1,2,1,0,0", "--base", "3"])
    assert code == 0
    assert doc["result"]["weight"] == doc["inputs"]["weight"] == [0, 1, 2, 1, 0, 0]


def test_basis_lyndon(tree6_file, capsys):
    code, doc = run_json(capsys, ["basis", "lyndon", "--graph", tree6_file,
                                  "--weight", "0,0,3,0,0,3"])
    assert code == 0
    assert doc["result"]["dimension"] == 3
    words = [e["word"] for e in doc["result"]["elements"]]
    assert words == ["333666", "336366", "336636"]


def test_heaps_enumerate_filters(tree6_file, capsys):
    code, doc = run_json(capsys, ["heaps", "enumerate", "--graph", tree6_file,
                                  "--weight", "0,0,3,0,0,3",
                                  "--class", "super-lyndon"])
    assert code == 0
    assert doc["result"]["count"] == 3
    code, doc = run_json(capsys, ["heaps", "enumerate", "--graph", tree6_file,
                                  "--weight", "0,0,2,0,0,1"])
    assert code == 0
    assert doc["result"]["count"] == len(doc["result"]["heaps"]) == 3


def test_heaps_enumerate_zero_weight_gives_the_empty_heap(path6_file, capsys):
    argv = ["heaps", "enumerate", "--graph", path6_file, "--weight", "0,0,0,0,0,0"]
    code, doc = run_json(capsys, argv)
    assert code == 0
    assert doc["result"]["count"] == 1
    assert doc["result"]["heaps"] == [{"word": "", "pieces": []}]
    assert main(argv) == 0
    assert capsys.readouterr().out.startswith("1 heaps of weight 0,0,0,0,0,0 [heap]\n")


def test_chromatic_methods_agree(tree6_file, capsys):
    polys = []
    for method in ("direct", "join", "bond"):
        code, doc = run_json(capsys, ["chromatic", "--graph", tree6_file,
                                      "--weight", "0,0,3,0,0,3",
                                      "--method", method])
        assert code == 0
        polys.append(doc["result"]["coefficients"])
    assert polys[0] == polys[1] == polys[2]


def test_chromatic_factored_display(tree6_file, capsys):
    assert main(["chromatic", "--graph", tree6_file,
                 "--weight", "0,0,3,0,0,3"]) == 0
    out = capsys.readouterr().out
    assert "1/36 * q(q-1)(q-2)(q-3)(q-4)(q-5)" in out


def test_chromatic_zero_weight_factors_as_one(path6_file, capsys):
    for method in ("direct", "join", "bond"):
        code, doc = run_json(capsys, ["chromatic", "--graph", path6_file,
                                      "--weight", "0,0,0,0,0,0",
                                      "--method", method])
        assert code == 0
        assert doc["result"]["pretty"] == doc["result"]["factored"] == "1"


def test_verify_pbw_and_cartier(tree6_file, capsys):
    assert main(["verify", "pbw", "--graph", tree6_file,
                 "--cap", "1,1,2,1,1,2"]) == 0
    assert main(["verify", "cartier-foata", "--graph", tree6_file,
                 "--cap", "1,1,2,1,1,2"]) == 0


def test_verify_triangular(tree6_file, capsys):
    code, doc = run_json(capsys, ["verify", "triangular", "--graph", tree6_file,
                                  "--weight", "0,0,3,0,0,3"])
    assert code == 0
    assert doc["result"]["ok"] is True
    assert len(doc["result"]["checks"]) == 3


def test_verify_all_small(tree6_file, capsys):
    code, doc = run_json(capsys, ["verify", "all", "--graph", tree6_file,
                                  "--cap", "1,1,2,1,1,2"])
    assert code == 0
    assert doc["result"]["ok"] is True


def test_basis_rejects_non_free(tree6_file, capsys):
    assert main(["basis", "lyndon", "--graph", tree6_file,
                 "--weight", "2,0,0,0,0,0"]) == 1


def test_chromatic_bond_rejects_non_free(tree6_file, capsys):
    assert main(["chromatic", "--graph", tree6_file,
                 "--weight", "2,0,0,0,0,0", "--method", "bond"]) == 1


def test_verify_all_full_cap(tree6_file, capsys):
    code, doc = run_json(capsys, ["verify", "all", "--graph", tree6_file,
                                  "--cap", "1,1,3,1,1,3"])
    assert code == 0 and doc["result"]["ok"] is True
    names = [c["name"] for c in doc["result"]["checks"]]
    assert any("graded product" in n for n in names)
    assert any("independence inversion" in n for n in names)


def _recursion_plus_one(mult_free_root):
    def broken(graph, k, method="recursion"):
        got = mult_free_root(graph, k, method=method)
        if method != "both":
            return got
        return dataclasses.replace(got, recursion=got.recursion + 1)
    return broken


def _one_join_count_bumped(join_counts):
    def broken(graph, k):
        counts = join_counts(graph, k)
        return counts[:-1] + (counts[-1] + 1,)
    return broken


@pytest.mark.parametrize("module, name, breaker, check", [
    (multiplicity, "mult_free_root", _recursion_plus_one, "dimension agreement"),
    (chromatic, "_join_counts", _one_join_count_bumped, "chromatic route agreement"),
])
def test_verify_all_fails_the_check_a_fault_breaks(module, name, breaker, check,
                                                    tree6_file, capsys, monkeypatch):
    monkeypatch.setattr(module, name, breaker(getattr(module, name)))
    code, doc = run_json(capsys, ["verify", "all", "--graph", tree6_file,
                                  "--cap", "1,1,2,1,1,2"])
    assert code == 2 and doc["result"]["ok"] is False
    failed = [c["name"] for c in doc["result"]["checks"] if not c["ok"]]
    assert len(failed) == 1 and failed[0].startswith(check + " over "), failed


def test_verify_all_fails_route_agreement_on_a_shifted_log_count(
        tree6_file, capsys, monkeypatch, fresh_caches):
    """M_k off by ht(k) keeps the recursion integral, so only the checks
    that compare it with other routes can catch it."""
    cap = (1, 1, 2, 1, 1, 2)
    true = chromatic._log_count(plain(load_graph(tree6_file)[0]), cap)
    shifted_log_count(monkeypatch, cap, sum(cap) if true > 0 else -sum(cap))
    code, doc = run_json(capsys, ["verify", "all", "--graph", tree6_file,
                                  "--cap", "1,1,2,1,1,2"])
    assert code == 2 and doc["result"]["ok"] is False
    failed = {c["name"].split(" over ")[0] for c in doc["result"]["checks"] if not c["ok"]}
    assert failed == {"dimension agreement", "chromatic route agreement"}, failed


@pytest.mark.parametrize("command", ["chromatic"])
def test_tall_weight_is_one_error_line(command, tree6_file, capsys, fresh_caches):
    """Past the recursion limit a command fails with one line, no traceback.

    The caches start empty, so how deep the kernels recurse does not depend
    on the weights that earlier tests computed.
    """
    assert main([command, "--graph", tree6_file, "--weight", "0,0,250,0,0,250"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the weight is too tall: maximum recursion depth exceeded\n"


def test_mult_at_a_tall_weight_is_the_table_row(tree6_file, capsys, fresh_caches):
    """The multiplicity kernel keeps its own stack, so a tall weight asked
    for cold succeeds.  On the single edge {3, 6}, I = 1 + x_3 + x_6 and
    |M_(a,b)| = C(a+b, a), so the linear coefficient is C(500, 250) / 500."""
    weight = [0, 0, 250, 0, 0, 250]
    code, doc = run_json(capsys, ["mult", "--graph", tree6_file,
                                  "--weight", ",".join(map(str, weight))])
    assert code == 0
    record = doc["result"]
    assert Fraction(record["linear_coeff"]) == Fraction(math.comb(500, 250), 500)
    code, table = run_json(capsys, ["mult", "table", "--graph", tree6_file,
                                    "--cap", ",".join(map(str, weight))])
    assert code == 0
    assert [e for e in table["result"]["entries"] if e["weight"] == weight] == [record]


def test_seed_rejected(tree6_file, capsys):
    assert main(["mult", "--graph", tree6_file, "--weight", "0,0,3,0,0,3",
                 "--seed", "7"]) == 1
    assert "deterministic" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["validate", "{g}"],
    ["heaps", "enumerate", "--graph", "{g}", "--weight", "0,0,1,0,0,1"],
    ["basis", "lyndon", "--graph", "{g}", "--weight", "0,0,1,0,0,1"],
    ["basis", "lln", "--graph", "{g}", "--weight", "0,0,1,0,0,1", "--base", "3"],
    ["mult", "table", "--graph", "{g}", "--cap", "0,0,1,0,0,1"],
    ["chromatic", "--graph", "{g}", "--weight", "0,0,1,0,0,1"],
    ["verify", "pbw", "--graph", "{g}", "--cap", "0,0,1,0,0,1"],
    ["verify", "triangular", "--graph", "{g}", "--weight", "0,0,1,0,0,1"],
    ["verify", "all", "--graph", "{g}", "--cap", "0,0,1,0,0,1"],
])
def test_seed_rejected_by_every_command(tree6_file, capsys, argv):
    argv = [a.format(g=tree6_file) for a in argv]
    assert main(argv + ["--seed", "7"]) == 1
    assert capsys.readouterr() == ("", "error: --seed is not supported: "
                                   "all computations are deterministic\n")
    assert main(argv) == 0


def test_unknown_command(capsys):
    assert main(["frobnicate"]) == 1


@pytest.mark.parametrize("words", sorted(cli._COMMANDS), ids=" ".join)
def test_command_help_returns_zero(words, capsys):
    # --help on the first call and -h on the second, from one cached parser.
    outputs = []
    for flag in ("--help", "-h"):
        assert main([*words, flag]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: freeroots " + " ".join(words) + " ")
        assert err == ""
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_output_deterministic(tree6_file, capsys):
    runs = []
    for _ in range(2):
        main(["basis", "lyndon", "--graph", tree6_file,
              "--weight", "0,0,3,0,0,3", "--json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


# One request per command, on the graph file ``{g}``.
EVERY_COMMAND = [
    ["validate", "{g}"],
    ["heaps", "enumerate", "--graph", "{g}", "--weight", "1,1,1,0,0,1"],
    ["basis", "lyndon", "--graph", "{g}", "--weight", "0,0,3,0,0,3"],
    ["basis", "lln", "--graph", "{g}", "--weight", "0,1,2,0,0,1", "--base", "3"],
    ["mult", "--graph", "{g}", "--weight", "0,0,3,0,0,3"],
    ["mult", "table", "--graph", "{g}", "--cap", "0,1,2,0,0,1"],
    ["chromatic", "--graph", "{g}", "--weight", "2,1,0,1,2,0"],
    ["verify", "pbw", "--graph", "{g}", "--cap", "0,1,2,0,0,1"],
    ["verify", "cartier-foata", "--graph", "{g}", "--cap", "0,1,2,0,0,1"],
    ["verify", "triangular", "--graph", "{g}", "--weight", "0,1,2,0,0,1"],
    ["verify", "all", "--graph", "{g}", "--cap", "0,1,1,0,0,1"],
]


@pytest.mark.parametrize("argv", EVERY_COMMAND)
def test_json_output_is_json_dumps_of_its_parse(tree6_file, capsys, argv):
    # Every command's --json bytes are json.dumps(doc, indent=2,
    # sort_keys=True) and a newline; basis commands write theirs by hand.
    assert main([a.format(g=tree6_file) for a in argv] + ["--json"]) == 0
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert doc["command"] == " ".join(itertools.takewhile(lambda a: a[0] not in "-{", argv))
    assert out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Each command's parser is built once per process, and no call carries
# state into the next.

def test_each_commands_parser_is_built_once(tree6_file, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs["prog"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    assert {tuple(itertools.takewhile(lambda a: a[0] not in "-{", argv))
            for argv in EVERY_COMMAND} == set(cli._COMMANDS)
    outputs = []
    for _ in range(3):
        for argv in EVERY_COMMAND:
            assert main([a.format(g=tree6_file) for a in argv]) == 0
            outputs.append(capsys.readouterr())
    assert sorted(built) == sorted("freeroots " + " ".join(w) for w in cli._COMMANDS)
    assert outputs[:len(EVERY_COMMAND)] * 3 == outputs


def test_class_of_one_call_is_not_kept(tree6_file, capsys):
    argv = ["heaps", "enumerate", "--graph", tree6_file, "--weight", "1,1,1,0,0,1"]
    _, lyndon = run_json(capsys, argv + ["--class", "lyndon"])
    _, every = run_json(capsys, argv)
    assert every["result"]["class"] == "heap"
    graph, _ = load_graph(tree6_file)
    assert every["result"]["count"] == len(enumerate_heaps(graph, (1, 1, 1, 0, 0, 1)))
    assert lyndon["result"]["count"] < every["result"]["count"]


def test_method_of_one_call_is_not_kept(tree6_file, capsys):
    argv = ["mult", "--graph", tree6_file, "--weight", "0,0,3,0,0,3"]
    assert main(argv + ["--method", "closed"]) == 0
    closed = capsys.readouterr().out
    assert main(argv) == 0
    both = capsys.readouterr().out
    assert both.startswith("mult = ") and not closed.startswith("mult = ")
    assert main(argv + ["--method", "both"]) == 0
    assert capsys.readouterr().out == both


@pytest.mark.parametrize("bad, message", [
    (["--graph", "{g}"], "error: the following arguments are required: --weight\n"),
    (["--graph", "{g}", "--weight", "0,0,1,0,0,1", "--frob"],
     "error: unrecognized arguments: --frob\n"),
])
def test_usage_error_leaves_the_next_call_alone(tree6_file, capsys, bad, message):
    argv = ["mult", "--graph", tree6_file, "--weight", "0,0,1,0,0,1"]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(["mult"] + [a.format(g=tree6_file) for a in bad]) == 1
    assert capsys.readouterr() == ("", message)
    assert main(argv) == 0
    assert capsys.readouterr() == first


def test_json_round_trip(tree6_file, capsys):
    code, doc = run_json(capsys, ["chromatic", "--graph", tree6_file,
                                  "--weight", "0,0,1,0,0,1"])
    assert code == 0
    from freeroots.chromatic import RationalPoly
    coefficients = doc["result"]["coefficients"]
    assert RationalPoly(coefficients).to_json() == coefficients


# ---------------------------------------------------------------------------
# The basis writer against json.dumps of GradedBasis.to_json(), and a closed
# output pipe.

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

_ODD_CHARS = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f",
                              "\x80", "\xe9", "\u2028", "\ufeff", "\ud800",
                              "\udfff", "\U0001f600"])
_TEXT = st.text(st.characters(exclude_categories=()) | _ODD_CHARS, max_size=8)
_NAMES = st.sampled_from(["1", "a", "\xe91", "ab", "x.y", "\u03b1\u03b2", '"q"', "\U0001f600"])


@st.composite
def _supergraphs_with_free_weights(draw):
    """A supergraph on at most 4 vertices with random odd and real vertices
    and names, some non-ASCII or longer than one character, and a free
    weight with entries at most 2 and height at most 6."""
    n = draw(st.integers(1, 4))
    names = draw(st.lists(_NAMES, min_size=n, max_size=n, unique=True))
    edges = [e for e in itertools.combinations(range(n), 2) if draw(st.booleans())]
    psi = {v for v in range(n) if draw(st.booleans())}
    real = {v for v in range(n) if v not in psi and draw(st.booleans())}
    graph = Supergraph(names, edges, psi=psi, real=real)
    k = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)
             .filter(lambda k: 0 < sum(k) <= 6 and is_free_weight(graph, k)))
    return graph, tuple(k), draw(_TEXT)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(_supergraphs_with_free_weights())
@example((Supergraph(["\xe91", "b"], [(0, 1)]), (0, 2), "g"))  # dimension 0: "elements": []
@example((Supergraph(["\u03b1\u03b2", "b"], [(0, 1)]), (2, 0), "\u03b1"))  # empty, base αβ
# the writer's split text and a backslash in the path and in the names
@example((Supergraph(['"elements": []', "\\"], [(0, 1)], psi={0}), (2, 2),
          '"elements": [] \\ "elements": []\\'))
def test_basis_writer_matches_json_dumps(case):
    graph, k, path = case
    inputs = {"graph": path, "weight": list(k)}
    bases = [("basis lyndon", inputs, superlie.lyndon_heap_basis(graph, k))]
    for b in support(k):
        name = graph.names[b]
        bases.append(("basis lln", {**inputs, "base": name}, superlie.lln_basis(graph, k, name)))
    for command, args, basis in bases:
        chunks = []
        _write_basis(command, args, basis, chunks.append)
        assert "".join(chunks) == basis_document(command, args, basis)


def test_basis_writer_writes_once_per_element(path6):
    basis = superlie.lln_basis(path6, (0, 0, 2, 1, 2, 1), "3")
    inputs = {"graph": "g", "weight": [0, 0, 2, 1, 2, 1], "base": "3"}
    chunks = []
    _write_basis("basis lln", inputs, basis, chunks.append)
    assert len(basis) == 2 and len(chunks) <= len(basis) + 2
    assert "".join(chunks) == basis_document("basis lln", inputs, basis)


def test_basis_writes_nothing_before_the_certificate(tree6_file, capsys, monkeypatch):
    monkeypatch.setattr(superlie, "integer_rank", lambda rows: (len(rows) - 1, []))
    code = main(["basis", "lyndon", "--graph", tree6_file, "--weight", "0,0,3,0,0,3", "--json"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.startswith("internal consistency failure: ")


@pytest.mark.parametrize("argv", [
    ["validate", "sample_graphs/path6.json"],
    ["heaps", "enumerate", "--graph", "sample_graphs/path6.json",
     "--weight", "1,2,2,1,1,0", "--json"],
    ["basis", "lln", "--graph", "sample_graphs/path6.json", "--weight", "0,0,2,1,2,1",
     "--base", "3", "--json"],
])
def test_closed_output_pipe_exits_quietly(argv):
    # Buffered stdout: the short output fails at the final flush, the long
    # one (50 kB) inside print, the basis document (14 kB) in the middle of
    # its writes.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run([sys.executable, "-m", "freeroots.cli", *argv], cwd=ROOT,
                              env=env, stdout=write_end, stderr=subprocess.PIPE,
                              timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")
