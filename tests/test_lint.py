"""Checks on the repository's own text: the library source and the README."""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

import arquiver

SOURCES = sorted(Path(arquiver.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"
WORKER = README.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_raises_instead_of_asserting(path):
    # `python -O` strips asserts, and an AssertionError escapes the CLI's
    # exit-code mapping; runtime checks raise ArquiverError subclasses.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name}: assert on line(s) {lines}"


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_library_hides_no_import_behind_type_checking(path):
    # An import cycle between library modules is broken by moving code, not
    # hidden behind `if TYPE_CHECKING:`, which the runtime never enters.
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test)
    ]
    assert lines == [], f"{path.name}: `if TYPE_CHECKING:` on line(s) {lines}"


def test_readme_library_example_runs():
    namespace: dict = {}
    for block in re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S):
        exec(compile(block, str(README), "exec"), namespace)
    assert (namespace["arq"].m, namespace["arq"].rho) == ((2, 2), (1, 2))
    assert namespace["cd"].order == 6
    assert namespace["report"]["counts"] == {"indecomposables": 6, "cluster": 8}


def test_every_name_the_benchmark_worker_imports_resolves():
    # Read, not imported, so the test needs no perfbench path.  A name the
    # worker imports that the package no longer has would fail every
    # benchmark command.
    tree = ast.parse(WORKER.read_text(encoding="utf-8"), filename=str(WORKER))
    imported = [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("arquiver")
        for alias in node.names
    ]
    assert {module for module, _ in imported} == {
        "arquiver",
        "arquiver.cli",
        "arquiver.dynkin",
        "arquiver.oracle",
    }
    missing = [
        f"{module}.{name}"
        for module, name in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []
