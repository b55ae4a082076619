"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

from kindep import CertificateError, GraphError

SRC = Path(__file__).resolve().parents[1] / "src" / "kindep"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statements(path):
    # `python -O` strips asserts; certificate checks raise CertificateError.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == [], f"{path.name} has assert statements on lines {lines}"


def test_certificate_error_is_not_a_config_error():
    # The CLI maps ValueError (and so GraphError) to exit 2, CertificateError to 3.
    assert not issubclass(CertificateError, (ValueError, GraphError))


# A blend spec has exactly two "+" halves, so a half can never be a blend
# itself (it would need a "+" of its own): parsed blends cannot nest, and
# these two recurse at most one level deep.
_BOUNDED_RECURSION = {("generators.py", "parse_family"), ("generators.py", "make_graph")}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_function_calls_itself(path):
    # Deep inputs must cost heap, not interpreter stack: searches use explicit stacks.
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if (path.name, fn.name) in _BOUNDED_RECURSION:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call):
                callee = node.func
                name = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                if name == fn.name:
                    found.append(f"{fn.name} (line {node.lineno})")
    assert found == [], f"{path.name} has self-calls: {found}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_neighbor_set_calls(path):
    # neighbor_set copies a neighbor tuple into a new frozenset on every call;
    # the package reads `neighbors` and leaves neighbor_set to callers outside.
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "attr", getattr(node.func, "id", None)) == "neighbor_set"]
    assert lines == [], f"{path.name} calls neighbor_set on lines {lines}"
