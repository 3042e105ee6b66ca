import ast
import pathlib
import sys

import pytest

import zeiger
from zeiger.cards import MARKER

MODULES = sorted(pathlib.Path(zeiger.__file__).parent.glob("*.py"))
AUDIT = pathlib.Path(zeiger.__file__).parent / "audit.py"
# the standard library, the toolkit and pyproject.toml's ``test`` extra
IMPORTABLE = {*sys.stdlib_module_names, "zeiger", "pytest", "hypothesis", "scipy"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_module_rests_on_assert(path):
    # python -O strips every assert, so no check of the toolkit may be one
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} asserts at lines {lines}"


def test_the_audit_names_no_reveal_site():
    # the audit reads which reveals repeat a position off the schedule, so
    # no rule of it may single out a subprotocol by its reveal site's name
    tree = ast.parse(AUDIT.read_text(), filename=str(AUDIT))
    named = [(node.lineno, node.value) for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)
             and node.value in MARKER]
    assert not named, f"audit.py names reveal sites at {named}"


def test_the_audit_never_uses_simulate_transcript():
    # it bins simulated views; the name stays imported only for the benchmark
    # to trace, so any use of it would quietly build a transcript per trial again
    tree = ast.parse(AUDIT.read_text(), filename=str(AUDIT))
    uses = [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Name) and node.id == "simulate_transcript"
            or isinstance(node, ast.Attribute) and node.attr == "simulate_transcript"]
    assert not uses, f"audit.py uses simulate_transcript at lines {uses}"


def test_the_tests_import_only_what_the_test_extra_declares():
    # scipy pulls numpy in, so a stray numpy import would pass where the
    # extra no longer names it
    stray = []
    for path in sorted(pathlib.Path(__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                names = [node.module] if isinstance(node, ast.ImportFrom) and not node.level else []
            stray += [(path.name, node.lineno, n) for n in names if n.split(".")[0] not in IMPORTABLE]
    assert not stray, f"imports outside the test extra: {stray}"
