"""The README's examples run: each command-line example exits 0, and the
Python API example states the values it returns.

In the Python block, a top-level expression with a trailing comment is
evaluated, and every number in its comment must match the value to the digits
shown; ``...`` marks a truncated number.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import numpy as np

from spincorr.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"

NUMBER = re.compile(r"-?\d+(?:\.\d+)?")


def _python_block() -> str:
    return re.search(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)


def _command_lines() -> list[str]:
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n.*?```sh\n(.*?)```", text, re.S).group(1)
    return [line for line in block.splitlines() if line.startswith("spincorr ")]


def test_readme_command_examples_exit_zero(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # one example writes sweep.csv
    lines = _command_lines()
    for line in lines:
        assert main(shlex.split(line)[1:]) == 0, line
    assert len(lines) == 8


def test_readme_api_example_states_its_values():
    block = _python_block()
    lines = block.splitlines()
    namespace: dict = {}
    checked = 0
    for node in ast.parse(block).body:
        source = ast.get_source_segment(block, node)
        comment = lines[node.end_lineno - 1].partition("#")[2]
        if not (isinstance(node, ast.Expr) and comment):
            exec(source, namespace)
            continue
        values = np.ravel(eval(source, namespace)).tolist()
        stated = NUMBER.findall(comment)
        assert len(values) == len(stated), (source, comment)
        for value, text in zip(values, stated):
            digits = len(text.partition(".")[2])
            assert abs(value - float(text)) < 10.0**-digits, (source, value, text)
        checked += 1
    assert checked == 4
