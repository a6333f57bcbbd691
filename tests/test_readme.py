"""README's examples, replayed: the command-line transcript and the library block."""

import ast
import io
import os
import re
import shlex
import tokenize

import pytest

from freeroots.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")


def readme_block(heading, lang):
    """The first ``lang`` code block under README's ``## heading``."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as f:
        text = f.read()
    section = text.split("\n## " + heading + "\n", 1)[1].split("\n## ", 1)[0]
    return re.search("```" + lang + "\n(.*?)```", section, re.S).group(1)


def transcript():
    """(argv, stdout) for each ``$ freeroots ...`` command of the transcript."""
    runs = []
    for chunk in readme_block("Command line", "console").strip("\n").split("\n\n"):
        command, *output = chunk.split("\n")
        assert command.startswith("$ freeroots "), command
        runs.append((shlex.split(command)[2:], "".join(line + "\n" for line in output)))
    return runs


RUNS = transcript()


@pytest.mark.parametrize("argv, stdout", RUNS, ids=[" ".join(argv) for argv, _ in RUNS])
def test_readme_command_line_transcript(argv, stdout, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert main(argv) == 0
    assert capsys.readouterr().out == stdout


def test_readme_library_block():
    """Run the block; a commented value must have the comment as its repr.

    The comment trails the statement or stands alone on the next line.
    """
    source = readme_block("Library", "python")
    lines = source.split("\n") + [""]
    namespace = {}
    checked = 0
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not comment and lines[stmt.end_lineno].startswith("#"):
            comment = lines[stmt.end_lineno]
        if not comment:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr) and comment.startswith("# "), comment
        value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
        assert repr(value) == comment[2:], ast.unparse(stmt)
        checked += 1
    comments = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    assert checked == len(comments) > 0
