"""The layout of src/: nothing in it that only the tests use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _names_used(paths) -> set:
    """Every identifier that a Name or an attribute access in these files
    refers to.  Import statements hold neither, so they are not uses."""
    used = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_definition_in_src_is_used_outside_the_tests():
    # a function, class or method of src/rncsplit (dunders aside) whose name
    # no Name or attribute in src/, scripts/ or perfbench/*.py refers to is
    # used by the tests alone.  The check goes by name only: it cannot tell
    # BinaryForm.add from FieldSpec.add, so a test-only method that shares
    # its name with one that runs passes it
    used = _names_used([*ROOT.glob("src/**/*.py"), *ROOT.glob("scripts/**/*.py"), *ROOT.glob("perfbench/*.py")])
    unused = []
    for path in sorted(ROOT.glob("src/rncsplit/*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")) and name not in used:
                    unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
