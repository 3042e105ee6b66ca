import ast
import pathlib

import pytest

import zeiger

MODULES = sorted(pathlib.Path(zeiger.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_rests_on_assert(path):
    # python -O strips every assert, so no check of the toolkit may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"
