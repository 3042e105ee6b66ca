import ast
import pathlib

import pytest

import zeiger
from zeiger.cards import MARKER

MODULES = sorted(pathlib.Path(zeiger.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_rests_on_assert(path):
    # python -O strips every assert, so no check of the toolkit may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"


def test_the_audit_names_no_reveal_site():
    # the audit reads which reveals repeat a position off the schedule, so
    # no rule of it may single out a subprotocol by its reveal site's name
    path = pathlib.Path(zeiger.__file__).parent / "audit.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    named = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in MARKER]
    assert not named, f"audit.py names reveal sites at {named}"
