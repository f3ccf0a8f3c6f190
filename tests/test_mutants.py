"""The committed mutant list stays applicable: each snippet occurs exactly
once in the current source, and each test meant to kill it exists."""

import ast
from pathlib import Path

import pytest

from mutants import MUTANTS, ROOT


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_snippet_occurs_once(mutant):
    text = (ROOT / "src" / "horsmc" / mutant.file).read_text()
    assert text.count(mutant.snippet) == 1
    assert mutant.replacement != mutant.snippet


def defined_tests(path: Path) -> set[str]:
    """`name` and `Class::name` for the test functions of a module."""
    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            found.add(node.name)
        elif isinstance(node, ast.ClassDef):
            found.update(f"{node.name}::{f.name}" for f in node.body
                         if isinstance(f, ast.FunctionDef))
    return found


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_killing_tests_exist(mutant):
    assert mutant.tests
    for test_id in mutant.tests:
        file, _, name = test_id.partition("::")
        assert name.split("[")[0] in defined_tests(ROOT / file), test_id
