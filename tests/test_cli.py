import dataclasses
import enum
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from freeroots import chromatic, multiplicity
from freeroots.cli import _dumps, main
from freeroots.supergraph import load_graph, plain
from conftest import TREE6_MATRIX, PATH6_MATRIX, MALFORMED_DOCUMENTS, shifted_log_count


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


@pytest.mark.parametrize("command", ["mult", "chromatic"])
def test_tall_weight_is_one_error_line(command, tree6_file, capsys, fresh_caches):
    """Past the recursion limit a command fails with one line, no traceback.

    The caches start empty, so how deep the kernels recurse does not depend
    on the weights that earlier tests computed.
    """
    assert main([command, "--graph", tree6_file, "--weight", "0,0,250,0,0,250"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the weight is too tall: maximum recursion depth exceeded\n"


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


@pytest.mark.parametrize("argv", [["mult", "--help"], ["mult", "table", "-h"],
                                  ["validate", "--help"]])
def test_command_help_returns_zero(argv, capsys):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: freeroots " + " ".join(argv[:-1]) + " ")
    assert err == ""


def test_output_deterministic(tree6_file, capsys):
    runs = []
    for _ in range(2):
        main(["basis", "lyndon", "--graph", tree6_file,
              "--weight", "0,0,3,0,0,3", "--json"])
        runs.append(capsys.readouterr().out)
    assert runs[0] == runs[1]


def test_json_round_trip(tree6_file, capsys):
    code, doc = run_json(capsys, ["chromatic", "--graph", tree6_file,
                                  "--weight", "0,0,1,0,0,1"])
    assert code == 0
    from freeroots.chromatic import RationalPoly
    coefficients = doc["result"]["coefficients"]
    assert RationalPoly(coefficients).to_json() == coefficients


# ---------------------------------------------------------------------------
# The JSON emitter against the standard library, and a closed output pipe.

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def stock(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


_ODD_CHARS = st.sampled_from(['"', "\\", "/", "\x00", "\n", "\t", "\x1f", "\x7f",
                              "\x80", "\xe9", "\u2028", "\ufeff", "\ud800",
                              "\udfff", "\U0001f600"])
_TEXT = st.text(st.characters(exclude_categories=()) | _ODD_CHARS, max_size=8)
_SCALARS = (st.none() | st.booleans() | st.integers()
            | st.integers(min_value=-10 ** 40, max_value=-2 ** 63) | _TEXT)
_TREES = st.recursive(
    _SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(_TEXT, children, max_size=4)),
    max_leaves=24)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_TREES)
def test_dumps_matches_json_dumps(doc):
    nested = {"result": doc, "inputs": [doc, {}]}
    assert _dumps(doc) == stock(doc)
    assert _dumps(nested) == stock(nested)


@st.composite
def _shared_documents(draw):
    """A document in which the same dicts and lists sit at several positions.

    The pool holds drawn dicts and lists, a dict with ``int`` keys (encoded
    by the ``json.dumps`` fallback) and an empty dict; the tree picks pool
    objects themselves, not copies, at any depth, and the document repeats
    the tree as siblings and one level deeper.
    """
    pool = draw(st.lists(st.dictionaries(_TEXT, _TREES, max_size=3)
                         | st.lists(_TREES, max_size=3)
                         | st.dictionaries(st.integers(), _TREES, min_size=1, max_size=2),
                         min_size=1, max_size=3))
    pool.append({})
    tree = draw(st.recursive(
        st.sampled_from(pool),
        lambda children: (st.lists(children, max_size=4)
                          | st.dictionaries(_TEXT, children, max_size=4)),
        max_leaves=12))
    return {"siblings": [tree, tree], "deeper": {"tree": [tree]}, "pool": pool}


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_shared_documents())
def test_dumps_matches_json_dumps_on_shared_objects(doc):
    assert _dumps(doc) == stock(doc)


class _Colour(enum.IntEnum):
    RED = 1


class _Name(str):
    pass


@pytest.mark.parametrize("doc", [
    {"a": [[], {}, [[]], [{}], {"b": []}, ()]},
    {"x": 1.5, "y": [0.1, -2e300, float("inf"), float("nan")], "z": {"w": [[1e-7]]}},
    {"colour": _Colour.RED, "colours": [_Colour.RED, {"c": _Colour.RED}]},
    {"name": _Name("n\u00e9"), "names": [_Name("m")]},
    {"by_int": {10: "ten", 2: "two", -1: [None]}, "nested": [{True: 1, False: 2}]},
    {"by_float": [{1.5: "x", 0.25: {"y": [1]}}]},
])
def test_dumps_falls_back_like_json_dumps(doc):
    assert _dumps(doc) == stock(doc)


@pytest.mark.parametrize("doc", [
    {"a": [{1: "x", "b": "y"}]},
    {"a": {(1, 2): "tuple key"}},
    {"a": [1, {"s": {3, 4}}]},
])
def test_dumps_raises_like_json_dumps(doc):
    with pytest.raises(TypeError) as want:
        stock(doc)
    with pytest.raises(TypeError) as got:
        _dumps(doc)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("argv", [
    ["validate", "sample_graphs/path6.json"],
    ["heaps", "enumerate", "--graph", "sample_graphs/path6.json",
     "--weight", "1,2,2,1,1,0", "--json"],
])
def test_closed_output_pipe_exits_quietly(argv):
    # Buffered stdout: the short output fails at the final flush, the long
    # one (50 kB) inside print.
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
