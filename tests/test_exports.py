"""Every exported name has a consumer outside the tests.

A name in ``latticegate.__all__`` that only ``tests/`` uses is API that no
command, script or benchmark reaches. The scan parses every module under
src/latticegate, scripts and perfbench and counts a name as used where it
is loaded: called, read, subclassed or named in an annotation. Its own
def, class or assignment, its string in ``__all__``, and mentions in
comments or docstrings do not count.
"""

import ast

import latticegate
from conftest import REPO_ROOT

CONSUMER_DIRS = ("src/latticegate", "scripts", "perfbench")


def _loaded_names() -> set[str]:
    names = set()
    for directory in CONSUMER_DIRS:
        for path in sorted((REPO_ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names.add(node.attr)
    return names


def test_every_export_has_a_consumer_outside_the_tests():
    unused = sorted(set(latticegate.__all__) - _loaded_names())
    assert not unused, f"exported but used only by the tests: {unused}"
