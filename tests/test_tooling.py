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
