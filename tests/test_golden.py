"""The CLI's recorded outputs, compared byte for byte.

``tests/golden/cli.json`` holds, for every case in ``CASES``, the exit code,
stdout and stderr of ``freeroots`` run from the repository root.  A change
to these bytes must be deliberate: regenerate the file from the repository
root with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and state the output change in README and CHANGES.md.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from freeroots import lln_basis, lyndon_heap_basis
from freeroots.cli import _write_basis, main
from freeroots.errors import InputError
from freeroots.supergraph import load_graph, parse_weight
from conftest import basis_document

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(ROOT, "tests", "golden", "cli.json")

CHROMATIC_WEIGHTS = {
    "sample_graphs/path6.json": ("1,1,1,1,1,1", "0,2,3,0,0,1", "0,0,3,0,0,3"),
    "sample_graphs/tree6.json": ("0,0,3,0,0,3", "0,2,3,0,0,1", "1,2,1,0,0,1"),
}

BASIS_WEIGHTS = {
    "sample_graphs/path6.json": ("0,0,2,1,2,1", "0,1,2,1,1,0"),
    "sample_graphs/tree6.json": ("0,0,3,0,0,3", "0,1,2,1,1,0"),
}


def _cases():
    out = []
    for graph, weights in CHROMATIC_WEIGHTS.items():
        for weight in weights:
            for method in ("direct", "join", "bond"):
                argv = ["chromatic", "--graph", graph, "--weight", weight,
                        "--method", method]
                out += [argv, argv + ["--json"]]
    for graph in CHROMATIC_WEIGHTS:
        out.append(["verify", "all", "--graph", graph, "--cap", "1,1,2,1,1,2",
                    "--json"])
    out.append(["mult", "table", "--graph", "sample_graphs/tree6.json",
                "--cap", "1,1,2,1,1,2", "--json"])
    for graph, weights in BASIS_WEIGHTS.items():
        for weight in weights:
            out.append(["basis", "lyndon", "--graph", graph, "--weight", weight,
                        "--json"])
            for base in ("3", "5"):
                out.append(["basis", "lln", "--graph", graph, "--weight", weight,
                            "--base", base, "--json"])
            out.append(["verify", "triangular", "--graph", graph, "--weight",
                        weight, "--json"])
    for graph in CHROMATIC_WEIGHTS:
        out += [["validate", graph], ["validate", graph, "--json"]]
    for cls in ("heap", "pyramid", "super-letter", "lyndon", "super-lyndon"):
        out.append(["heaps", "enumerate", "--graph", "sample_graphs/path6.json",
                    "--weight", "0,1,2,1,1,0", "--class", cls, "--json"])
    # 23 is an odd Lyndon heap, so its square 2323 is super Lyndon, self coefficient 2
    odd_square = ["--graph", "sample_graphs/path6.json", "--weight", "0,2,2,0,0,0"]
    for cls in ("lyndon", "super-lyndon"):
        out.append(["heaps", "enumerate", *odd_square, "--class", cls, "--json"])
    out.append(["verify", "triangular", *odd_square, "--json"])
    # [[2,3],[2,3]] is an lln element only because 23 is odd; base 1 is the graph's first vertex
    for weight, base in (("0,2,2,0,0,0", "2"), ("0,2,2,0,0,0", "3"), ("1,1,2,1,0,0", "1")):
        argv = ["basis", "lln", "--graph", "sample_graphs/path6.json", "--weight", weight,
                "--base", base]
        out += [argv, argv + ["--json"]] if base == "2" else [argv + ["--json"]]
    for method in ("recursion", "closed", "both"):
        out.append(["mult", "--graph", "sample_graphs/path6.json", "--weight",
                    "0,0,2,1,2,1", "--method", method, "--json"])
    for which in ("pbw", "cartier-foata"):
        out.append(["verify", which, "--graph", "sample_graphs/tree6.json",
                    "--cap", "1,1,2,1,1,2", "--json"])
    # odd vertices 3 and 5 at caps >= 2: squares of odd Lyndon heaps appear
    for which in ("pbw", "cartier-foata"):
        out.append(["verify", which, "--graph", "sample_graphs/path6.json",
                    "--cap", "0,1,3,1,2,2", "--json"])
    # dispatch: usage, group usage errors, unknown command, rejected --seed
    out += [[], ["--help"], ["heaps"], ["basis", "frob"], ["verify"], ["frobnicate"],
            ["mult", "--graph", "sample_graphs/path6.json", "--weight", "0,0,2,1,2,1",
             "--seed", "7"]]
    return out


CASES = _cases()


def _run(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return {"argv": argv, "exit": code, "stdout": stdout.getvalue(),
            "stderr": stderr.getvalue()}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {tuple(rec["argv"]): rec for rec in json.load(fh)}


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_matches_golden(argv, golden, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert _run(argv) == golden[tuple(argv)]


BASIS_JSON_CASES = [argv for argv in CASES if argv[:1] == ["basis"] and "--json" in argv]


@pytest.mark.parametrize("argv", BASIS_JSON_CASES, ids=" ".join)
def test_basis_writer_matches_json_dumps_on_golden_records(argv, golden, monkeypatch):
    """The streamed document of each recorded basis request against
    ``json.dumps`` of the library's ``to_json()`` and the recorded stdout."""
    monkeypatch.chdir(ROOT)
    record = golden[tuple(argv)]
    opts = dict(zip(argv[2:-1:2], argv[3:-1:2]))
    graph, _ = load_graph(opts["--graph"])
    k = parse_weight(graph, opts["--weight"])
    inputs = {"graph": opts["--graph"], "weight": list(k)}
    try:
        if argv[1] == "lyndon":
            basis = lyndon_heap_basis(graph, k)
        else:
            basis = lln_basis(graph, k, opts["--base"])
            inputs["base"] = opts["--base"]
    except InputError:  # a base outside the support: nothing is written
        assert (record["exit"], record["stdout"]) == (1, "")
        return
    chunks = []
    _write_basis(" ".join(argv[:2]), inputs, basis, chunks.append)
    assert "".join(chunks) == basis_document(" ".join(argv[:2]), inputs, basis) == record["stdout"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    os.chdir(ROOT)
    records = [_run(argv) for argv in CASES]
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1, ensure_ascii=False)
        fh.write("\n")
