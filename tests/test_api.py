"""The public surface: every exported name resolves.

perfbench/spans.py looks up each ``__all__`` entry of the layer modules
with ``getattr``, so a stale entry would break every traced benchmark run.
"""

import ast
import importlib
import pathlib

import pytest

import contraction_lab

MODULES = ("linalg", "contraction", "asymptotics", "shmulyan", "segments",
           "harnack", "schur", "corpus", "suites")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    mod = importlib.import_module(f"contraction_lab.{name}")
    missing = [entry for entry in mod.__all__ if not hasattr(mod, entry)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(contraction_lab.__file__).read_text())
    names = [alias.asname or alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(names) > 40
    assert [n for n in names if not hasattr(contraction_lab, n)] == []

